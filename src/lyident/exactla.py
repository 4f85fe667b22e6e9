"""Exact dense linear algebra over the rationals and prime fields.

Everything here is exact: rationals are arbitrary-precision fractions, modular
entries live in [0, p). The central object is IncrementalReducer, which keeps
the unique row canonical form (RCF) of everything appended so far, so the rank
of a long stream of rows is available without ever materializing the stream.

Over a prime field p <= 127 the reducer stores the non-pivot columns of its
basis (the pivot columns hold the identity) in a numpy int8 array and reduces
whole batches with matrix products in float64, chunked by basis rows. Each
step adds p - f where it would subtract f, so no operand is negative and the
in-place np.fmod is the residue mod p; intermediates stay in [0, p**2 * rank],
far inside the 2**53 range where float64 arithmetic on integers is exact.
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

from bisect import insort
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

# the largest characteristic whose residues fit an int8 entry; RepTable's
# memoized matrices share the limit
_MAX_CHAR = 127


class _ModReducer:
    """RCF basis over GF(p), batch reduction via one matmul per append.

    The pivot columns of an RCF basis hold the identity, so only the other
    columns are stored, as int8 (p <= _MAX_CHAR), and every product runs on
    them alone, in row chunks staged through float64 so the matmuls hit BLAS.
    Every stored value is an integer in [0, p). A subtraction x - f*y is
    computed as x + (p - f)*y and reduced in place with np.fmod: operands
    are never negative, so fmod gives the residue in [0, p), and the largest
    intermediate, p^2 * rank, stays far below 2^53, so the arithmetic is
    exact.
    """

    def __init__(self, cols: int, p: int):
        if p > _MAX_CHAR:
            raise ValueError(f"characteristic {p} too large for an int8 basis (at most {_MAX_CHAR})")
        self.p = p
        self.cols = cols
        self.pivots: list[int] = []
        self._free = np.arange(cols)  # the non-pivot columns, ascending
        self.basis = np.zeros((0, cols), dtype=np.int8)  # restricted to _free
        # chunk rows so the float64 staging buffer stays around 256 MB
        self._chunk = max(256, (1 << 25) // max(cols, 1))

    def _staged(self, i: int) -> np.ndarray:
        return self.basis[i : i + self._chunk].astype(np.float64)

    def _reduce(self, rows: np.ndarray) -> np.ndarray:
        """Subtract from rows, in place and mod p, the basis combination clearing every pivot column."""
        if self.pivots:
            free = rows[:, self._free]
            for i in range(0, len(self.pivots), self._chunk):
                neg = self._staged(i)
                np.subtract(self.p, neg, out=neg)
                free += rows[:, self.pivots[i : i + self._chunk]] @ neg
            np.fmod(free, self.p, out=free)
            rows[:, self.pivots] = 0
            rows[:, self._free] = free
        return rows

    def append(self, rows: np.ndarray) -> int:
        block = self._self_reduce(self._reduce(np.array(rows, dtype=np.float64)))
        if block.shape[0] == 0:
            return 0
        cs = [int(np.nonzero(r)[0][0]) for r in block]
        # the block vanishes on the old pivot columns: clear its pivots from
        # the old rows, then drop the new pivot columns from every row
        at = np.searchsorted(self._free, cs)
        tail = block[:, self._free]
        new = tail.astype(np.int8)
        np.subtract(self.p, tail, out=tail)
        for i in range(0, len(self.pivots), self._chunk):
            part = self._staged(i)
            part += part[:, at] @ tail
            self.basis[i : i + self._chunk] = np.fmod(part, self.p, out=part)
        stacked = np.delete(np.concatenate([self.basis, new]), at, axis=1)
        order = np.argsort(self.pivots + cs, kind="stable")
        self.pivots = sorted(self.pivots + cs)
        self._free = np.delete(self._free, at)
        self.basis = stacked[order]
        return block.shape[0]

    def _self_reduce(self, rows: np.ndarray) -> np.ndarray:
        """Full RCF of a (pre-reduced) batch: Gaussian elimination in place
        on its rows. Each step x -= f*y runs as x += (p - f)*y through one
        scratch buffer, then an in-place fmod; values stay in [0, p**2)."""
        p = self.p
        out: list[np.ndarray] = []
        cols: list[int] = []
        scratch = np.empty(self.cols, dtype=np.float64)
        for row in rows:
            for other, c in zip(out, cols):
                f = row[c]
                if f:
                    np.multiply(other, p - f, out=scratch)
                    row += scratch
                    np.fmod(row, p, out=row)
            nz = np.nonzero(row)[0]
            if nz.size == 0:
                continue
            c = int(nz[0])
            row *= pow(int(row[c]), p - 2, p)
            np.fmod(row, p, out=row)
            for other in out:
                f = other[c]
                if f:
                    np.multiply(row, p - f, out=scratch)
                    other += scratch
                    np.fmod(other, p, out=other)
            out.append(row)
            cols.append(c)
        if not out:
            return np.zeros((0, self.cols))
        order = np.argsort(cols)
        return np.asarray(out)[order]

    def reduce_row(self, row) -> np.ndarray:
        """A row with entries in [0, p) reduced against the basis."""
        return self._reduce(np.array([row], dtype=np.float64))[0]


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
    """Maintains the RCF of the row space of every row appended so far."""

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
        data = [[self.field.element(x) for x in r] for r in rows]
        for r in data:
            self._check_width(r)
        if not data:
            return 0
        return self._impl.append(np.asarray(data, dtype=np.float64))

    def contains(self, row) -> bool:
        """True iff the row lies in the current row space."""
        if self.field.characteristic:
            self._check_width(row)
            reduced = self._impl.reduce_row([self.field.element(x) for x in row])
            return not reduced.any()
        (ints,) = self._integer_rows([row])
        return not any(self._impl.reduce_only(ints))

    def tail_rows(self, start: int) -> list[list]:
        """Exact basis rows with pivot column >= start, restricted to start:.

        Echelon rows vanish left of their pivot, so the restriction loses
        nothing; tail_rows(0) is the whole RCF (leading 1s, pivot columns
        cleared). Rows come back in pivot order.
        """
        if not 0 <= start <= self.cols:
            raise ValueError(f"start {start} out of range for {self.cols} columns")
        impl = self._impl
        sel = [i for i, c in enumerate(impl.pivots) if c >= start]
        if not sel:
            return []
        if self.field.characteristic:
            arr = np.zeros((len(sel), self.cols), dtype=np.int8)
            arr[:, impl._free] = impl.basis[sel]
            arr[np.arange(len(sel)), [impl.pivots[i] for i in sel]] = 1
            return arr[:, start:].tolist()
        return [
            [Fraction(x, impl.rows[c][c]) for x in impl.rows[c][start:]]
            for c in (impl.pivots[i] for i in sel)
        ]
