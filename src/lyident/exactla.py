"""Exact linear algebra over the rationals and prime fields.

Everything here is exact: rationals are arbitrary-precision fractions, modular
entries live in [0, p). The central object is IncrementalReducer, which keeps
the row space of everything appended so far and reads back its rank, row
membership and unique row canonical form (RCF), so the rank of a long stream
of rows is available without ever materializing the stream.

Over a prime field the reducer keeps a sparse echelon basis: each row is
stored under its pivot column as its nonzero entries right of an implicit
leading 1, in Python ints. An appended row is read on its nonzeros only and
eliminated in pivot order through a min-heap of the pivot columns it holds,
so the work follows the fill-in, not the width. Appending never
back-substitutes; tail_rows builds the RCF rows it returns.
Over the rationals the reducer works in Python ints from end to end. An
integer or boolean array enters row by row through tolist(); any other row
is cleared of denominators in integer arithmetic (numerator * (lcm //
denominator)), so no Fraction is built on the way in. Each basis row is kept
as a primitive integer vector (content stripped, positive leading entry),
which avoids fraction blowup during elimination, together with its nonzero
columns, so a combination touches only those; Fractions and leading 1s
appear only in tail_rows.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

import numpy as np

__all__ = [
    "FieldSpec",
    "QQ",
    "GF101",
    "IncrementalReducer",
]


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _rational(x):
    """x as a Python int or a Fraction; numpy integers and booleans become ints."""
    return int(x) if isinstance(x, (np.integer, np.bool_)) else Fraction(x)


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field: characteristic 0 (exact rationals) or a prime p."""

    characteristic: int = 0

    def __post_init__(self):
        c = self.characteristic
        if c != 0 and not _is_prime(c):
            raise ValueError(f"characteristic must be 0 or prime, got {c}")

    def element(self, x):
        """x in this field: a Fraction over Q; over GF(p) an int in [0, p),
        numerator times the inverse of the denominator mod p.

        Raises ValueError when p divides the denominator.
        """
        p = self.characteristic
        if not isinstance(x, (int, Fraction)):
            x = _rational(x)
        if not p:
            return Fraction(x)
        if isinstance(x, int):
            return x % p
        if x.denominator % p == 0:
            raise ValueError(f"{x} has no image in GF({p}): its denominator is divisible by {p}")
        return x.numerator * pow(x.denominator, -1, p) % p

    def __repr__(self):
        return "QQ" if self.characteristic == 0 else f"GF({self.characteristic})"


QQ = FieldSpec(0)
GF101 = FieldSpec(101)


# -- incremental row reduction -------------------------------------------------

# the largest characteristic RepTable's int8 matrices hold; the reducer
# and lyident analyze share the limit
_MAX_CHAR = 127


class _ModReducer:
    """Echelon basis over GF(p), stored sparse.

    Each basis row lives under its pivot column as its entries to the right
    of an implicit leading 1: parallel lists of columns and values, Python
    ints in [1, p). A row is eliminated on its nonzeros only, against a
    min-heap of the pivot columns it holds: the smallest is cleared first by
    subtracting its basis row, whose entries all lie to its right, and any
    pivot column that subtraction fills joins the heap. Entries accumulate
    as Python ints and are reduced mod p when popped and once at the end.
    Appending never back-substitutes; tail_rows builds the RCF rows it
    returns.
    """

    def __init__(self, cols: int, p: int):
        if p > _MAX_CHAR:
            raise ValueError(f"characteristic {p} above the supported maximum {_MAX_CHAR}")
        self.p = p
        self.cols = cols
        self.pivots: list[int] = []  # ascending
        self.rows: dict[int, tuple[list[int], list[int]]] = {}  # pivot column -> (columns, values)

    def reduce_only(self, row: dict[int, int]) -> dict[int, int]:
        """row (column -> entry) minus the basis combination clearing every
        pivot column, entries reduced to [1, p); consumes row."""
        p, rows = self.p, self.rows
        heap = [c for c in row if c in rows]
        heapify(heap)
        while heap:
            c = heappop(heap)
            f = row.pop(c) % p
            if not f:
                continue
            f = p - f
            cols, vals = rows[c]
            for j, v in zip(cols, vals):
                x = row.get(j)
                if x is None:
                    row[j] = f * v
                    if j in rows:
                        heappush(heap, j)
                else:
                    row[j] = x + f * v
        return {j: r for j, x in row.items() if (r := x % p)}

    def append_one(self, row: dict[int, int]) -> bool:
        """Reduce row and keep what is left as a basis row; True iff the rank grew."""
        rest = self.reduce_only(row)
        if not rest:
            return False
        c = min(rest)
        inv = pow(rest.pop(c), -1, self.p)
        self.rows[c] = (list(rest), [x * inv % self.p for x in rest.values()])
        insort(self.pivots, c)
        return True

    def append(self, rows: np.ndarray) -> int:
        """Add the rows of an integer array; returns the rank increase."""
        at, cols = np.nonzero(rows)
        vals = rows[at, cols].tolist()
        cols = cols.tolist()
        ends = np.searchsorted(at, np.arange(len(rows) + 1)).tolist()
        return sum(self.append_one(dict(zip(cols[lo:hi], vals[lo:hi]))) for lo, hi in zip(ends, ends[1:]))

    def tail_rows(self, start: int) -> list[list[int]]:
        """The RCF rows with pivot column >= start, restricted to start:, by
        back-substitution among those rows from the largest pivot down; the
        echelon basis itself is left as it is."""
        p, rows = self.p, self.rows
        done: dict[int, dict[int, int]] = {}
        for c in reversed(self.pivots[bisect_left(self.pivots, start) :]):
            cols, vals = rows[c]
            row = dict(zip(cols, vals))
            for j in [j for j in cols if j in rows]:
                f = p - row.pop(j)
                for k, v in done[j].items():
                    row[k] = row.get(k, 0) + f * v
            done[c] = {k: r for k, x in row.items() if (r := x % p)}
        out = []
        for c in sorted(done):
            line = [0] * (self.cols - start)
            line[c - start] = 1
            for j, x in done[c].items():
                line[j - start] = x
            out.append(line)
        return out


def _cleared(row) -> list[int]:
    """A rational row as Python ints spanning the same line: each entry is
    numerator * (lcm // denominator), with lcm over the row's denominators."""
    vals = [x if isinstance(x, (int, Fraction)) else _rational(x) for x in row]
    den = lcm(*[v.denominator for v in vals])
    return [v.numerator * (den // v.denominator) for v in vals]


class _RatReducer:
    """RCF basis over the rationals, rows kept as primitive integer vectors.

    Rows arrive as lists of Python ints (IncrementalReducer clears their
    denominators), so every entry grows as far as it needs to. Each basis
    row is stored under its pivot column with its support (nonzero columns):
    a combination touches only the support. An RCF row vanishes on every
    other pivot column, so clearing one pivot never disturbs another.
    """

    def __init__(self, cols: int):
        self.cols = cols
        self.pivots: list[int] = []  # ascending
        self.rows: dict[int, list[int]] = {}  # pivot column -> row
        self._support: dict[int, list[int]] = {}

    @staticmethod
    def _primitive(row: list[int]) -> list[int]:
        g = gcd(*row)
        return row if g <= 1 else [x // g for x in row]

    @staticmethod
    def _eliminate(row: list[int], c: int, base: list[int], support: list[int]) -> list[int]:
        """row scaled by the least positive integer that lets it subtract a
        multiple of base to clear column c (base[c] > 0); in place when no
        scaling is needed."""
        x, b = row[c], base[c]
        g = gcd(x, b)
        if b != g:
            row = [u * (b // g) for u in row]
        x //= g
        for j in support:
            row[j] -= x * base[j]
        return row

    def reduce_only(self, row: list[int]) -> list[int]:
        """A multiple of row minus the basis combination clearing every pivot column."""
        out = list(row)
        for c in [c for c in self.pivots if out[c]]:
            out = self._eliminate(out, c, self.rows[c], self._support[c])
        return out

    def append_one(self, row: list[int]) -> bool:
        out = self.reduce_only(row)
        if not any(out):
            return False
        support = [j for j, x in enumerate(out) if x]
        c = support[0]
        out = self._primitive([-x for x in out] if out[c] < 0 else out)
        # the old rows vanish on c once out's multiples are taken off; their
        # pivot entries only scale by positive factors (out[pc] == 0)
        for pc in [pc for pc in self.pivots if self.rows[pc][c]]:
            merged = self._primitive(self._eliminate(self.rows[pc], c, out, support))
            self.rows[pc] = merged
            self._support[pc] = [j for j, x in enumerate(merged) if x]
        insort(self.pivots, c)
        self.rows[c] = out
        self._support[c] = support
        return True


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

    def _check_width(self, row) -> None:
        if len(row) != self.cols:
            raise ValueError(f"row has {len(row)} entries, reducer has {self.cols} columns")

    def _integer_rows(self, rows):
        """Rows over Q, one at a time, as lists of Python ints spanning the
        same lines: each row of an integer or boolean array is one tolist(),
        any other row goes through _cleared. No Fraction is built for
        integer input.
        """
        if isinstance(rows, np.ndarray) and rows.dtype.kind in "biu":
            for r in rows.astype(np.int8) if rows.dtype.kind == "b" else rows:
                yield r.tolist()
            return
        for r in rows:
            self._check_width(r)
            yield _cleared(r)

    def append(self, rows) -> int:
        """Add rows (any iterable of row sequences); returns the rank increase."""
        if isinstance(rows, np.ndarray) and (rows.ndim != 2 or rows.shape[1] != self.cols):
            raise ValueError(f"array shape {rows.shape} does not fit {self.cols} columns")
        p = self.field.characteristic
        if not p:
            return sum(self._impl.append_one(r) for r in self._integer_rows(rows))
        # integer arrays are exact as they are; every other entry goes
        # through FieldSpec.element
        if isinstance(rows, np.ndarray) and rows.dtype.kind in "biu":
            return self._impl.append(rows % p)
        data = [self._mod_row(r) for r in rows]
        return sum(self._impl.append_one(r) for r in data)

    def _mod_row(self, row) -> dict[int, int]:
        """The nonzero entries of a row over GF(p), column -> int in [1, p)."""
        self._check_width(row)
        return {j: e for j, x in enumerate(row) if (e := self.field.element(x))}

    def contains(self, row) -> bool:
        """True iff the row lies in the current row space."""
        if self.field.characteristic:
            return not self._impl.reduce_only(self._mod_row(row))
        (ints,) = self._integer_rows([row])
        return not any(self._impl.reduce_only(ints))

    def tail_rows(self, start: int) -> list[list]:
        """Exact RCF rows with pivot column >= start, restricted to start:.

        Echelon rows vanish left of their pivot, so the restriction loses
        nothing; tail_rows(0) is the whole RCF (leading 1s, pivot columns
        cleared). Rows come back in pivot order.
        """
        if not 0 <= start <= self.cols:
            raise ValueError(f"start {start} out of range for {self.cols} columns")
        impl = self._impl
        if self.field.characteristic:
            return impl.tail_rows(start)
        return [
            [Fraction(x, impl.rows[c][c]) for x in impl.rows[c][start:]]
            for c in impl.pivots[bisect_left(impl.pivots, start) :]
        ]
