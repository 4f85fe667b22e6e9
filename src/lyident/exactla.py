"""Exact linear algebra over the rationals and prime fields.

Everything here is exact: rationals are arbitrary-precision fractions, modular
entries live in [0, p). The central object is IncrementalReducer, which keeps
the row space of everything appended so far and reads back its rank, row
membership and unique row canonical form (RCF), so the rank of a long stream
of rows is available without ever materializing the stream.

Rows come in two kinds: {column: int} dicts with nonzeros only, which
liftgen.block_rows writes, and lists or tuples of int or Fraction
entries, which are cleared of denominators in integer arithmetic, so no
Fraction is built on the way in. Any other row or entry (an array, a
float, a bool, a string) raises ValueError naming it; a float would enter
as its binary value. Over GF(p) a row whose lcm denominator p divides has
no image and is rejected. The entries stay Python ints, so any prime works.

Both fields share one algorithm, the RCF stored sparse and cleaned lazily.
Each basis row lives under its pivot column as its nonzero entries right of
the pivot, in parallel lists of columns and values, beside its pivot entry
and the rank at which it was last cleaned. The pivot entry is 1 over GF(p);
over Q the row is a primitive integer vector with a positive pivot entry,
which avoids fraction blowup. A new pivot does not touch the older rows; a
row is cleaned of the newer pivot columns the first time it is used after
the rank grew. A clean row vanishes on every other pivot column, so a row
is reduced in one pass over its own pivot columns and no subtraction fills
another. The field's arithmetic shows in three places only: subtracting a
clean row, normalising a new or cleaned row, and the entries tail_rows
reads back (Fractions over Q).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

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
        if c.__class__ is not int:
            raise ValueError(f"characteristic must be an int, got {c!r}")
        if c != 0 and not _is_prime(c):
            raise ValueError(f"characteristic must be 0 or prime, got {c}")

    def __repr__(self):
        return "QQ" if self.characteristic == 0 else f"GF({self.characteristic})"


QQ = FieldSpec(0)
GF101 = FieldSpec(101)


def _exact_entry(x) -> int | Fraction:
    """A row entry, an int or a Fraction; anything else raises ValueError. A
    float is refused since its binary value (0.1 is 3602879701896397/2**55)
    is rarely the number meant."""
    if type(x) is int or isinstance(x, Fraction):
        return x
    raise ValueError(f"{type(x).__name__} entry {x!r}: give an int or a Fraction")


class IncrementalReducer:
    """Maintains the row space of every row appended so far; tail_rows reads its RCF.

    The RCF is kept sparse and cleaned lazily (see the module docstring):
    _rows maps each pivot column to the (columns, values) of its row right
    of the pivot, _leads to its pivot entry and _cleaned to the rank at
    which it was last cleaned. Cleaning a row subtracts the rows of the
    pivot columns it holds, which are cleaned first, on an explicit stack,
    since a chain of stale rows can be thousands long. Over GF(p) entries
    accumulate as Python ints and are reduced mod p at the end, so an
    input row may hold any integers: this is the one place where a row
    meets p.
    """

    def __init__(self, cols: int, field: FieldSpec = QQ):
        if type(cols) is not int or cols < 0:
            raise ValueError(f"column count must be a nonnegative int, got {cols!r}")
        self.cols = cols
        self.field = field
        self._p = field.characteristic
        self._pivots: list[int] = []  # ascending
        self._rows: dict[int, tuple[list[int], list[int]]] = {}
        self._leads: dict[int, int] = {}
        self._cleaned: dict[int, int] = {}

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def _clean(self, hits: list[int]) -> None:
        """Clean the rows under the pivot columns hits, and the rows they
        depend on, at the current rank."""
        rank, rows, cleaned = len(self._pivots), self._rows, self._cleaned
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
                    row = dict(zip(*rows[c]))
                    row[c] = self._leads[c]
                    row = self._subtract(row, inner)
                    self._put(c, row.pop(c), row)
                cleaned[c] = rank
            stack.pop()

    def _subtract(self, row: dict[int, int], hits: list[int]) -> dict[int, int]:
        """row minus the clean basis rows that clear its pivot columns hits,
        nonzeros only: over GF(p) with entries reduced to [1, p), over Q
        after scaling row, at each hit, by the least positive integer that
        keeps it integral. Consumes row."""
        p, rows = self._p, self._rows
        if p:
            for c in hits:
                f = row.pop(c) % p
                if f:
                    f = p - f
                    cols, vals = rows[c]
                    for j, v in zip(cols, vals):
                        row[j] = row.get(j, 0) + f * v
            return {j: r for j, x in row.items() if (r := x % p)}
        leads = self._leads
        for c in hits:
            x, lead = row.pop(c), leads[c]
            g = gcd(x, lead)
            if g != lead:
                row = {j: y * (lead // g) for j, y in row.items()}
            f = -(x // g)
            cols, vals = rows[c]
            for j, v in zip(cols, vals):
                row[j] = row.get(j, 0) + f * v
        return {j: x for j, x in row.items() if x}

    def _put(self, c: int, lead: int, row: dict[int, int]) -> None:
        """Store lead at pivot column c plus the nonzero entries row, all
        right of c, as the basis row under c: scaled to a leading 1 over
        GF(p), primitive with a positive lead over Q."""
        p = self._p
        if p:
            f, lead = pow(lead, -1, p), 1
            vals = [x * f % p for x in row.values()] if f != 1 else list(row.values())
        else:
            g = gcd(lead, *row.values()) if lead > 0 else -gcd(lead, *row.values())
            lead //= g
            vals = [x // g for x in row.values()]
        self._rows[c] = (list(row), vals)
        self._leads[c] = lead

    def _reduce(self, row: dict[int, int]) -> dict[int, int]:
        """row, reduced by the basis on every pivot column it holds; consumes row."""
        hits = [c for c in row if c in self._rows]
        self._clean(hits)
        return self._subtract(row, hits)

    def _append_one(self, row: dict[int, int]) -> bool:
        """Reduce row and keep what is left as a basis row; True iff the rank grew."""
        rest = self._reduce(row)
        if not rest:
            return False
        c = min(rest)
        self._put(c, rest.pop(c), rest)
        insort(self._pivots, c)
        self._cleaned[c] = len(self._pivots)
        return True

    def _cleared(self, row) -> dict[int, int]:
        """A list or tuple row times the lcm of its denominators, nonzeros only
        (over GF(p) the lcm must be prime to p, else the row has no image); a
        {column: int} row is checked and copied, since reduction consumes rows."""
        if isinstance(row, dict):
            if not all(j.__class__ is int and 0 <= j < self.cols and x.__class__ is int for j, x in row.items()):
                raise ValueError(f"a dict row must map int columns in 0..{self.cols - 1} to ints")
            return dict(row)
        if not isinstance(row, (list, tuple)):
            raise ValueError(f"{type(row).__name__} row: give a {{column: int}} dict, a list or a tuple")
        if len(row) != self.cols:
            raise ValueError(f"row has {len(row)} entries, reducer has {self.cols} columns")
        vals = [_exact_entry(x) for x in row]
        den = lcm(*[v.denominator for v in vals])
        p = self._p
        if p and den % p == 0:
            raise ValueError(f"row has no image in GF({p}): its denominator {den} is divisible by {p}")
        return {j: v.numerator * (den // v.denominator) for j, v in enumerate(vals) if v}

    def append(self, rows) -> int:
        """Add rows ({column: int} dicts, lists or tuples); returns the rank
        increase. A bad row adds none of them."""
        return sum(self._append_one(r) for r in [self._cleared(r) for r in rows])

    def contains(self, row) -> bool:
        """True iff the row ({column: int}, a list or a tuple) lies in the current row space."""
        return not self._reduce(self._cleared(row))

    def tail_rows(self, start: int) -> list[list]:
        """Exact RCF rows with pivot column >= start, restricted to start:.

        Echelon rows vanish left of their pivot, so the restriction loses
        nothing; tail_rows(0) is the whole RCF (leading 1s, pivot columns
        cleared). Rows come back in pivot order: ints over GF(p),
        Fractions over Q.
        """
        if not 0 <= start <= self.cols:
            raise ValueError(f"start {start} out of range for {self.cols} columns")
        tail = self._pivots[bisect_left(self._pivots, start) :]
        self._clean(tail)
        p = self._p
        zero, one = (0, 1) if p else (Fraction(0), Fraction(1))
        out = []
        for c in tail:
            cols, vals = self._rows[c]
            if not p:
                vals = [Fraction(x, self._leads[c]) for x in vals]
            line = [zero] * (self.cols - start)
            line[c - start] = one
            for j, x in zip(cols, vals):
                line[j - start] = x
            out.append(line)
        return out
