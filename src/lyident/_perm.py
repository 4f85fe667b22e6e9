"""Small helpers for permutations stored as 1-based image tuples.

A permutation p of degree n is the tuple (p(1), ..., p(n)).
"""

from __future__ import annotations

import itertools


def identity(n: int) -> tuple[int, ...]:
    return tuple(range(1, n + 1))


def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """(p o q)(i) = p(q(i))."""
    return tuple(p[j - 1] for j in q)


def sign(p: tuple[int, ...]) -> int:
    """Parity via cycle count; +1 for even permutations, -1 for odd."""
    seen = [False] * len(p)
    s = 1
    for i in range(len(p)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = p[j] - 1
            length += 1
        if length % 2 == 0:
            s = -s
    return s


def from_transpositions(n: int, swaps) -> tuple[int, ...]:
    """Product of disjoint transpositions given as (i, j) pairs, 1-based."""
    img = list(range(1, n + 1))
    for i, j in swaps:
        img[i - 1], img[j - 1] = img[j - 1], img[i - 1]
    return tuple(img)


def all_perms(n: int):
    """All of S_n in lexicographic order of image tuples."""
    return itertools.permutations(range(1, n + 1))
