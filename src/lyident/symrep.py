"""Irreducible representations of the symmetric group via Clifton's matrices.

For a partition pi of n, the representation matrix of a permutation is
R(sigma) = A(iota)^-1 A(sigma), where A(sigma) is indexed by pairs of standard
tableaux and its (i, j) entry is e(t_i, sigma t_j):

    e(s, u) = 0 if two numbers share a row of s and a column of u, and
    otherwise the sign of the unique column permutation of u that makes every
    entry land in the row it occupies in s.

Standard tableaux are ordered lexicographically by row-reading word, which
makes A(iota) unit lower triangular over the integers, so A(iota)^-1 and
every R(sigma) are integer matrices. Everything here stays over the
integers: the same matrices serve Q and every GF(p) with p > n, and the
reducer the rows go to is the one place where p is applied.

clifton_matrix evaluates R(sigma) directly as an integer matrix; RepTable
composes cached matrices of adjacent transpositions instead, which is how the
pipeline consumes representations: it is asked for every R(sigma) a batch of
identities needs at once, and fills the missing ones one depth at a time,
each depth one batched matrix product. The two must agree (tested), since R
is a homomorphism.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache

import numpy as np

__all__ = [
    "Partition",
    "partitions",
    "parse_partition",
    "standard_tableaux",
    "dimension",
    "clifton_a_matrix",
    "clifton_matrix",
    "check_characteristic",
    "RepTable",
]


@dataclass(frozen=True)
class Partition:
    """Partition of n as a non-increasing tuple of positive parts."""

    parts: tuple[int, ...]

    def __post_init__(self):
        p = tuple(self.parts)
        object.__setattr__(self, "parts", p)
        if not p or any(x < 1 for x in p) or any(a < b for a, b in zip(p, p[1:])):
            raise ValueError(f"not a partition: {p}")

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def dimension(self) -> int:
        return dimension(self)

    def render(self) -> str:
        """Compact form with exponents, e.g. (3, 2, 1, 1, 1) -> '3+2+1^3'."""
        bits = []
        i = 0
        while i < len(self.parts):
            j = i
            while j < len(self.parts) and self.parts[j] == self.parts[i]:
                j += 1
            bits.append(str(self.parts[i]) + (f"^{j - i}" if j - i > 1 else ""))
            i = j
        return "+".join(bits)

    def __repr__(self):
        return f"Partition({self.render()})"


def _runs(s: str) -> list[tuple[int, int]]:
    """The (k, e) pairs of a rendering like '3+2+1^3', one per bit: every
    bit is k or k^e with integers k, e >= 1; anything else raises
    ValueError naming the whole text. No part is built, so the size
    sum(k * e) can be checked before the parts are."""
    runs = []
    for bit in s.split("+"):
        m = re.fullmatch(r"([1-9]\d*)(?:\^([1-9]\d*))?", bit.strip(), re.ASCII)
        if m is None:
            raise ValueError(f"cannot parse partition {s!r}")
        runs.append((int(m[1]), int(m[2] or 1)))
    return runs


def parse_partition(s: str) -> Partition:
    """Read a rendering like '3+2+1^3' (see _runs)."""
    return Partition(tuple(k for k, e in _runs(s) for _ in range(e)))


@cache
def partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n, reverse-lexicographic: (n) first, 1^n last."""
    if n < 1:
        raise ValueError("n must be at least 1")
    out: list[tuple[int, ...]] = []

    def grow(rest: int, maxpart: int, acc: tuple[int, ...]):
        if rest == 0:
            out.append(acc)
            return
        for k in range(min(rest, maxpart), 0, -1):
            grow(rest - k, k, acc + (k,))

    grow(n, n, ())
    return tuple(Partition(p) for p in out)


@cache
def standard_tableaux(pi: Partition) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Standard Young tableaux of shape pi, sorted by row-reading word."""
    shape = pi.parts
    rows = len(shape)
    out = []

    def grow(k: int, filling: list[list[int]]):
        if k > pi.n:
            out.append(tuple(tuple(r) for r in filling))
            return
        for i in range(rows):
            j = len(filling[i])
            if j < shape[i] and (i == 0 or len(filling[i - 1]) > j):
                filling[i].append(k)
                grow(k + 1, filling)
                filling[i].pop()

    grow(1, [[] for _ in shape])
    out.sort(key=lambda t: sum(t, ()))
    return tuple(out)


def dimension(pi: Partition) -> int:
    """The number of standard tableaux of shape pi."""
    return len(standard_tableaux(pi))


@cache
def _tableau_arrays(pi: Partition) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """(row_of, cells, heights) of the standard tableaux of pi, read-only:
    row_of[i, x] is the row of x in t_i, cells[i] lists t_i's entries
    column by column, top down, and heights are the column lengths."""
    tabs = standard_tableaux(pi)
    heights = tuple(sum(1 for row in pi.parts if row > c) for c in range(pi.parts[0]))
    row_of = np.zeros((len(tabs), pi.n + 1), dtype=np.int64)
    for i, t in enumerate(tabs):
        for r, row in enumerate(t):
            row_of[i, list(row)] = r
    cells = np.array([[t[r][c] for c, h in enumerate(heights) for r in range(h)] for t in tabs])
    row_of.setflags(write=False)
    cells.setflags(write=False)
    return row_of, cells, heights


def clifton_a_matrix(pi: Partition, sigma: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Integer matrix A(sigma) with entries e(t_i, sigma t_j).

    All d^2 entries at once: for each column of each sigma t_j, the rows its
    entries occupy in each t_i. e is 0 unless every column meets the rows
    0..h-1 once each, and then the sign of the column permutations that
    sort those rows.
    """
    n = pi.n
    if len(sigma) != n or sorted(sigma) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {sigma}")
    row_of, cells, heights = _tableau_arrays(pi)
    # rows[i, j, k]: the row of t_i holding the k-th cell of sigma t_j
    rows = row_of[:, np.asarray(sigma)[cells - 1]]
    out = np.ones(rows.shape[:2], dtype=np.int64)
    start = 0
    for h in heights:
        col = rows[:, :, start : start + h]
        start += h
        clash = (np.sort(col, axis=2) != np.arange(h)).any(axis=2)
        inversions = sum(col[:, :, a] > col[:, :, b] for a in range(h) for b in range(a + 1, h))
        out *= np.where(clash, 0, 1 - 2 * (inversions & 1))
    return tuple(map(tuple, out.tolist()))


@cache
def _a_iota_inverse(pi: Partition) -> tuple[tuple[int, ...], ...]:
    """A(iota) is unit lower triangular over ZZ; its inverse is integral."""
    a = clifton_a_matrix(pi, tuple(range(1, pi.n + 1)))
    d = len(a)
    for i in range(d):
        if a[i][i] != 1 or any(a[i][j] for j in range(i + 1, d)):
            raise AssertionError("A(iota) is not unit lower triangular")
    inv = [[int(i == j) for j in range(d)] for i in range(d)]
    for i in range(d):
        for k in range(i):
            c = a[i][k]
            if c:
                for j in range(k + 1):
                    inv[i][j] -= c * inv[k][j]
    return tuple(tuple(r) for r in inv)


def clifton_matrix(pi: Partition, sigma: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Integer matrix R(sigma) = A(iota)^-1 A(sigma), evaluated by direct
    Clifton expansion."""
    # A(sigma) holds 0 and +-1 and A(iota)^-1 small integers (each row's
    # absolute values sum to at most 16 for n <= 8), so int64 is exact
    inv = np.array(_a_iota_inverse(pi), dtype=np.int64)
    a = np.array(clifton_a_matrix(pi, sigma), dtype=np.int64)
    return tuple(map(tuple, (inv @ a).tolist()))


def check_characteristic(characteristic: int, n: int) -> None:
    """Raise ValueError unless characteristic is 0 or above n, where S_n stays semisimple."""
    if characteristic != 0 and characteristic <= n:
        raise ValueError(f"characteristic must be 0 or a prime > {n}")


# entries one chunk of RepTable's memo fill holds in its products
_FILL_ENTRIES = 1 << 13


class RepTable:
    """Memoized integer matrices R(sigma) for one partition, composed from
    adjacent transpositions.

    __init__ stores R(iota) and each R(s_i); any other R(sigma) is
    R(sigma s_i) R(s_i) at sigma's first descent i, where sigma s_i has one
    inversion fewer. matrices fills the memo for every sigma it is asked
    for that is missing, one depth at a time (each depth is one batched
    float64 matmul on the matrices of the depth below), and returns the
    requested matrices in one gather.

    A(sigma) holds only 0 and +-1, so no entry of R(sigma) exceeds the
    largest absolute row sum of A(iota)^-1 in size: 16 for every partition
    of n <= 8, 44 at n = 9. __init__ checks that this bound fits int8, and
    the memo keeps every R(sigma) as int8 in one growing array, composed
    exactly in float64: over the 1,616 degree-8 generators the memo for
    4+2+1^2 (d = 90) holds 3,844 matrices, 31 MB as int8 against 249 MB as
    int64. Returned arrays are copies; cast them to int64 before
    multiplying them by hand, since int8 products wrap.
    """

    def __init__(self, pi: Partition):
        self.partition = pi
        self.n = pi.n
        self.dim = d = dimension(pi)
        bound = max(sum(map(abs, row)) for row in _a_iota_inverse(pi))
        if bound > np.iinfo(np.int8).max:
            raise ValueError(f"entries of R(sigma) for {pi.render()} can reach {bound}, beyond int8")
        ident = tuple(range(1, self.n + 1))
        adjacent = [ident[: i - 1] + (i + 1, i) + ident[i + 1 :] for i in range(1, self.n)]
        # R(s_i) at position i - 1, for the compositions: in float64, since
        # numpy multiplies integer matrices without BLAS (see _fill)
        self._adjacent = np.array([clifton_matrix(pi, s) for s in adjacent], dtype=np.float64).reshape(-1, d, d)
        self._index = {sigma: k for k, sigma in enumerate([ident, *adjacent])}
        self._store = np.concatenate([np.eye(d, dtype=np.int8)[None], self._adjacent.astype(np.int8)])

    def matrix(self, sigma: tuple[int, ...]) -> np.ndarray:
        return self.matrices([sigma])[0]

    def matrices(self, sigmas: list[tuple[int, ...]]) -> np.ndarray:
        """R(sigma) for each of sigmas, in order, as one (k, d, d) int8 array."""
        at = list(map(self._index.get, sigmas))
        if None in at:
            self._fill([s for s, k in zip(sigmas, at) if k is None])
            at = list(map(self._index.__getitem__, sigmas))
        return self._store[at]

    def _fill(self, sigmas: list[tuple[int, ...]]) -> None:
        """Memoise R(sigma) for sigmas, none of them in the memo, and for the
        missing links of their chains sigma -> sigma s_i -> ... down to the
        memo, one depth (distance from the memo) at a time."""
        index, d = self._index, self.dim
        depth: dict[tuple[int, ...], int] = {}
        levels: list[list[tuple[tuple[int, ...], tuple[int, ...], int]]] = []
        for sigma in sigmas:
            chain = []
            while (k := depth.get(sigma)) is None and sigma not in index:
                # the first descent; <= runs off the end of a tuple that
                # is not a permutation of 1..n instead of looping
                i = 1
                while sigma[i - 1] <= sigma[i]:
                    i += 1
                tau = sigma[: i - 1] + (sigma[i], sigma[i - 1]) + sigma[i + 1 :]
                chain.append((sigma, tau, i))
                sigma = tau
            k = k or 0
            for link in reversed(chain):
                if k == len(levels):
                    levels.append([])
                levels[k].append(link)
                k += 1
                depth[link[0]] = k
        used, need = len(index), len(index) + len(depth)
        if need > len(self._store):
            store = np.empty((max(need, 2 * len(self._store)), d, d), dtype=np.int8)
            store[:used] = self._store[:used]
            self._store = store
        step = max(1, _FILL_ENTRIES // (d * d))
        for level in levels:
            for a in range(0, len(level), step):
                chunk = level[a : a + step]
                # exact in float64: both factors' entries are at most bound
                # (<= 127, checked in __init__) in size, so every partial sum
                # is at most 127 * 127 * d, far below 2^53
                parents = self._store[[index[tau] for _, tau, _ in chunk]].astype(np.float64)
                composed = parents @ self._adjacent[[i - 1 for _, _, i in chunk]]
                self._store[used : used + len(chunk)] = composed.astype(np.int8)
                for sigma, _, _ in chunk:
                    index[sigma] = used
                    used += 1
