"""Exact linear algebra over the rationals and prime fields.

Everything here is exact: rationals are arbitrary-precision fractions, modular
entries live in [0, p). The central object is IncrementalReducer, which keeps
the row space of everything appended so far and reads back its rank, row
membership and unique row canonical form (RCF), so the rank of a long stream
of rows is available without ever materializing the stream.

Both fields share one row format, {column: Python int} with nonzeros only,
which liftgen.identity_rows writes; any other row, arrays included, is cleared
of denominators in integer arithmetic, so no Fraction is built on the way in.
A float entry, Python or numpy, raises ValueError rather than enter as its
binary value.
Over GF(p) a row whose lcm denominator p divides has no image and is
rejected. The entries stay Python ints, so any prime works.

Over a prime field the reducer keeps the RCF, sparse and reduced lazily:
each row is stored under its pivot column as its nonzero entries right of
an implicit leading 1, in parallel lists of columns and values, with the
rank at which it was last cleaned. A new pivot does not touch the older
rows; a row is cleaned of the newer pivot columns the first time it is
used after the rank grew. A clean row vanishes on every other pivot
column, so a row is reduced in one pass over its own pivot columns and no
subtraction fills another, and tail_rows reads the cleaned rows. Over the
rationals each basis row is the RCF row as a primitive integer vector
(content stripped, positive leading entry) in the row format, which avoids
fraction blowup during elimination; Fractions and leading 1s appear only in
tail_rows.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import numpy as np

__all__ = [
    "FieldSpec",
    "QQ",
    "GF101",
    "IncrementalReducer",
]


# Miller-Rabin on the first 13 primes as bases decides primality for every
# p below _PRIME_TEST_LIMIT (Sorenson and Webster, 2015); the first 12 do not,
# since 318665857834031151167461 is a strong pseudoprime to all of them
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_TEST_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; raises ValueError at or above _PRIME_TEST_LIMIT."""
    if p >= _PRIME_TEST_LIMIT:
        raise ValueError(f"primality of {p} is not decided: characteristics must be below {_PRIME_TEST_LIMIT}")
    if p < 2 or any(p % a == 0 for a in _PRIME_BASES):
        return p in _PRIME_BASES
    s = ((p - 1) & -(p - 1)).bit_length() - 1  # p - 1 = d * 2^s with d odd
    for a in _PRIME_BASES:
        x = pow(a, (p - 1) >> s, p)
        if x != 1 and x != p - 1 and all((x := x * x % p) != p - 1 for _ in range(s - 1)):
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field: characteristic 0 (exact rationals) or a prime p."""

    characteristic: int = 0

    def __post_init__(self):
        c = self.characteristic
        if c != 0 and not _is_prime(c):
            raise ValueError(f"characteristic must be 0 or prime, got {c}")

    def __repr__(self):
        return "QQ" if self.characteristic == 0 else f"GF({self.characteristic})"


QQ = FieldSpec(0)
GF101 = FieldSpec(101)


# -- incremental row reduction -------------------------------------------------

# Both reducers take and return rows as {column: int} with nonzeros only,
# keep their basis rows under ascending pivots, and answer reduce_only,
# append_one and tail_rows(start).


class _ModReducer:
    """Reduced row canonical form over GF(p), stored sparse and cleaned lazily.

    Each basis row lives under its pivot column as its entries to the right
    of an implicit leading 1: parallel lists of columns and values, ints in
    [1, p), which take less memory than a dict. Beside each row is the rank
    at which it was last cleaned, and a row cleaned at the current rank
    vanishes on every other pivot column. A new pivot leaves the older rows
    as they are; a row is cleaned only when it is next used, by subtracting
    the rows of the pivot columns it holds, which are cleaned first (on an
    explicit stack, since a chain of stale rows can be thousands long).
    Subtracting a clean row never fills a pivot column, so a row is reduced
    in one pass over its own pivot columns. Entries accumulate as Python
    ints and are reduced mod p at the end, so an input row may hold any
    integers: this is the one place where a row meets p.
    """

    def __init__(self, cols: int, p: int):
        self.p = p
        self.cols = cols
        self.pivots: list[int] = []  # ascending
        self.rows: dict[int, tuple[list[int], list[int]]] = {}  # pivot column -> (columns, values)
        self.cleaned: dict[int, int] = {}  # pivot column -> rank at its last cleaning

    def _clean(self, hits: list[int]) -> None:
        """Clean the rows under the pivot columns hits, and the rows they
        depend on, at the current rank."""
        rank, rows, cleaned = len(self.pivots), self.rows, self.cleaned
        pivot_cols = rows.keys()
        stack = [c for c in hits if cleaned[c] < rank]
        while stack:
            c = stack[-1]
            if cleaned[c] < rank:
                cols = rows[c][0]
                if not pivot_cols.isdisjoint(cols):
                    inner = [j for j in cols if j in rows]
                    stale = [j for j in inner if cleaned[j] < rank]
                    if stale:
                        # each lies right of c, so the walk ends
                        stack += stale
                        continue
                    row = self._subtract(dict(zip(*rows[c])), inner)
                    rows[c] = (list(row), list(row.values()))
                cleaned[c] = rank
            stack.pop()

    def _subtract(self, row: dict[int, int], hits: list[int]) -> dict[int, int]:
        """row minus the clean basis rows that clear its pivot columns hits,
        entries reduced to [1, p); consumes row."""
        p, rows = self.p, self.rows
        for c in hits:
            f = row.pop(c) % p
            if f:
                f = p - f
                cols, vals = rows[c]
                for j, v in zip(cols, vals):
                    row[j] = row.get(j, 0) + f * v
        return {j: r for j, x in row.items() if (r := x % p)}

    def reduce_only(self, row: dict[int, int]) -> dict[int, int]:
        """row minus the basis combination clearing every pivot column,
        entries reduced to [1, p); consumes row."""
        hits = [c for c in row if c in self.rows]
        self._clean(hits)
        return self._subtract(row, hits)

    def append_one(self, row: dict[int, int]) -> bool:
        """Reduce row and keep what is left as a basis row; True iff the rank grew."""
        rest = self.reduce_only(row)
        if not rest:
            return False
        c = min(rest)
        inv = pow(rest.pop(c), -1, self.p)
        self.rows[c] = (list(rest), [x * inv % self.p for x in rest.values()])
        insort(self.pivots, c)
        self.cleaned[c] = len(self.pivots)
        return True

    def tail_rows(self, start: int) -> list[list[int]]:
        """The RCF rows with pivot column >= start, restricted to start:."""
        tail = self.pivots[bisect_left(self.pivots, start) :]
        self._clean(tail)
        out = []
        for c in tail:
            line = [0] * (self.cols - start)
            line[c - start] = 1
            for j, x in zip(*self.rows[c]):
                line[j - start] = x
            out.append(line)
        return out


class _RatReducer:
    """RCF basis over the rationals, rows kept as primitive integer vectors.

    Every entry grows as far as it needs to. An RCF row vanishes on every
    other pivot column, so clearing one pivot never disturbs another.
    """

    def __init__(self, cols: int):
        self.cols = cols
        self.pivots: list[int] = []  # ascending
        self.rows: dict[int, dict[int, int]] = {}

    @staticmethod
    def _primitive(row: dict[int, int]) -> dict[int, int]:
        """row divided by its content, zeros dropped."""
        g = gcd(*row.values())
        return {j: x // g for j, x in row.items() if x}

    @staticmethod
    def _eliminate(row: dict[int, int], c: int, base: dict[int, int]) -> dict[int, int]:
        """row scaled by the least positive integer that lets it subtract a
        multiple of base to clear column c (base[c] > 0); in place when no
        scaling is needed, and zeros are left in."""
        x, b = row[c], base[c]
        g = gcd(x, b)
        if b != g:
            row = {j: u * (b // g) for j, u in row.items()}
        x //= g
        for j, v in base.items():
            row[j] = row.get(j, 0) - x * v
        return row

    def reduce_only(self, row: dict[int, int]) -> dict[int, int]:
        """A multiple of row minus the basis combination clearing every
        pivot column, zeros dropped; consumes row."""
        for c in sorted(c for c in row if c in self.rows):
            row = self._eliminate(row, c, self.rows[c])
        return {j: x for j, x in row.items() if x}

    def append_one(self, row: dict[int, int]) -> bool:
        """Reduce row and keep what is left as a basis row; True iff the rank grew."""
        out = self.reduce_only(row)
        if not out:
            return False
        c = min(out)
        out = self._primitive({j: -x for j, x in out.items()} if out[c] < 0 else out)
        # the old rows vanish on c once out's multiples are taken off; their
        # pivot entries only scale by positive factors (out[pc] == 0)
        for pc in [pc for pc in self.pivots if c in self.rows[pc]]:
            self.rows[pc] = self._primitive(self._eliminate(self.rows[pc], c, out))
        insort(self.pivots, c)
        self.rows[c] = out
        return True

    def tail_rows(self, start: int) -> list[list[Fraction]]:
        """The RCF rows with pivot column >= start, restricted to start:."""
        out = []
        for c in self.pivots[bisect_left(self.pivots, start) :]:
            row = self.rows[c]
            out.append([Fraction(row.get(j, 0), row[c]) for j in range(start, self.cols)])
        return out


def _exact_entry(x) -> int | Fraction:
    """A row entry as an int or a Fraction; a float raises ValueError, since
    its binary value (0.1 is 3602879701896397/2**55) is rarely the number meant."""
    if isinstance(x, (int, Fraction)):
        return x
    if isinstance(x, (np.integer, np.bool_)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        raise ValueError(f"float entry {x!r}: give an int or a Fraction")
    return Fraction(x)


class IncrementalReducer:
    """Maintains the row space of every row appended so far; tail_rows reads its RCF."""

    def __init__(self, cols: int, field: FieldSpec = QQ):
        if cols < 0:
            raise ValueError("column count must be nonnegative")
        self.cols = cols
        self.field = field
        self._impl = _ModReducer(cols, field.characteristic) if field.characteristic else _RatReducer(cols)

    @property
    def rank(self) -> int:
        return len(self._impl.pivots)

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(self._impl.pivots)

    def _sparse_rows(self, rows) -> list[dict[int, int]]:
        """Rows as {column: int}, nonzeros only, each spanning its row's line."""
        if isinstance(rows, np.ndarray) and (rows.ndim != 2 or rows.shape[1] != self.cols):
            raise ValueError(f"array shape {rows.shape} does not fit {self.cols} columns")
        return [self._cleared(r) for r in rows]

    def _cleared(self, row) -> dict[int, int]:
        """A rational row times the lcm of its denominators, nonzeros only (over
        GF(p) the lcm must be prime to p, else the row has no image); a
        {column: int} row is checked and copied, since the reducers consume rows."""
        if isinstance(row, dict):
            if not all(j.__class__ is int and 0 <= j < self.cols and x.__class__ is int for j, x in row.items()):
                raise ValueError(f"a dict row must map int columns in 0..{self.cols - 1} to ints")
            return dict(row)
        if len(row) != self.cols:
            raise ValueError(f"row has {len(row)} entries, reducer has {self.cols} columns")
        vals = [_exact_entry(x) for x in row]
        den = lcm(*[v.denominator for v in vals])
        p = self.field.characteristic
        if p and den % p == 0:
            raise ValueError(f"row has no image in GF({p}): its denominator {den} is divisible by {p}")
        return {j: v.numerator * (den // v.denominator) for j, v in enumerate(vals) if v}

    def append(self, rows) -> int:
        """Add rows ({column: int} dicts or row sequences); returns the rank increase."""
        return sum(self._impl.append_one(r) for r in self._sparse_rows(rows))

    def contains(self, row) -> bool:
        """True iff the row ({column: int} or a sequence) lies in the current row space."""
        return not self._impl.reduce_only(self._cleared(row))

    def tail_rows(self, start: int) -> list[list]:
        """Exact RCF rows with pivot column >= start, restricted to start:.

        Echelon rows vanish left of their pivot, so the restriction loses
        nothing; tail_rows(0) is the whole RCF (leading 1s, pivot columns
        cleared). Rows come back in pivot order.
        """
        if not 0 <= start <= self.cols:
            raise ValueError(f"start {start} out of range for {self.cols} columns")
        return self._impl.tail_rows(start)
