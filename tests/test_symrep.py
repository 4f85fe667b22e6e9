"""Tests for partitions, tableaux, and Clifton representation matrices."""

import ast
import random
import re
from fractions import Fraction
from math import factorial
from pathlib import Path

import numpy as np
import pytest

from lyident import freealg, liftgen, pipeline, symrep
from lyident.exactla import GF101, QQ
from lyident.symrep import Partition
from reference import (
    all_perms, clifton_a_matrix_reference, clifton_matrix_reference, compose, dense_rows, hook_dimension, sign,
)


def wide(m):
    """An int8 memo entry as int64: int8 products wrap silently."""
    return m.astype(np.int64)


def test_partition_validation():
    for bad in [(), (0,), (1, 2), (3, -1)]:
        with pytest.raises(ValueError):
            Partition(bad)


def test_partitions_order():
    assert [p.parts for p in symrep.partitions(3)] == [(3,), (2, 1), (1, 1, 1)]
    eight = symrep.partitions(8)
    assert len(eight) == 22
    assert eight[0].parts == (8,)
    assert eight[-1].parts == (1,) * 8
    assert len(symrep.partitions(6)) == 11
    # reverse-lexicographic throughout
    assert [p.parts for p in eight] == sorted((p.parts for p in eight), reverse=True)


def test_partition_render_parse():
    pi = Partition((3, 2, 1, 1, 1))
    assert pi.render() == "3+2+1^3"
    assert symrep.parse_partition("3+2+1^3") == pi
    assert symrep.parse_partition("8") == Partition((8,))
    assert Partition((2, 2)).render() == "2^2"


@pytest.mark.parametrize("text", ["2^0+4", "4+2^-1", "2^2^1", "all,sign", "", "4+", "^2", "0", "3+x"])
def test_parse_partition_rejects_malformed_parts(text):
    # every part is k or k^e with k, e >= 1; no part is dropped
    with pytest.raises(ValueError, match=f"^cannot parse partition {re.escape(repr(text))}$"):
        symrep.parse_partition(text)


@pytest.mark.parametrize("n", range(1, 11))
def test_dimension_hook_equals_tableau_count(n):
    total = 0
    for pi in symrep.partitions(n):
        tabs = symrep.standard_tableaux(pi)
        d = symrep.dimension(pi)
        assert d == len(tabs) == hook_dimension(pi), pi.render()
        words = [sum(t, ()) for t in tabs]
        assert words == sorted(words)
        for t in tabs:  # standard: rows and columns strictly increase
            for row in t:
                assert all(a < b for a, b in zip(row, row[1:]))
            for r1, r2 in zip(t, t[1:]):
                assert all(a < b for a, b in zip(r1, r2))
        total += d * d
    assert total == factorial(n)


def test_extreme_dimensions():
    assert symrep.dimension(Partition((7,))) == 1
    assert symrep.dimension(Partition((1,) * 7)) == 1
    assert symrep.dimension(Partition((2, 1))) == 2
    assert symrep.dimension(Partition((4, 3, 1))) == 70


def test_clifton_hand_values_for_two_one():
    pi = Partition((2, 1))
    assert symrep.standard_tableaux(pi) == (((1, 2), (3,)), ((1, 3), (2,)))
    cases = {
        (1, 2, 3): ((1, 0), (0, 1)),
        (2, 1, 3): ((1, 0), (-1, -1)),
        (1, 3, 2): ((0, 1), (1, 0)),
        (2, 3, 1): ((0, 1), (-1, -1)),
    }
    for sigma, expect in cases.items():
        got = symrep.clifton_matrix(pi, sigma)
        assert got == expect and all(type(x) is int for row in got for x in row)


def test_clifton_rejects_bad_permutation():
    with pytest.raises(ValueError):
        symrep.clifton_matrix(Partition((2, 1)), (1, 2))
    with pytest.raises(ValueError):
        symrep.clifton_matrix(Partition((2, 1)), (1, 1, 2))


def test_identity_maps_to_identity():
    for shape in [(3,), (2, 2), (3, 2), (2, 2, 1)]:
        pi = Partition(shape)
        d = symrep.dimension(pi)
        eye = tuple(tuple(int(i == j) for j in range(d)) for i in range(d))
        assert symrep.clifton_matrix(pi, tuple(range(1, pi.n + 1))) == eye


def test_sign_and_trivial_representations():
    rng = random.Random(3)
    for n in (4, 8):
        sgn = Partition((1,) * n)
        triv = Partition((n,))
        for _ in range(20):
            s = tuple(rng.sample(range(1, n + 1), n))
            assert symrep.clifton_matrix(sgn, s) == ((sign(s),),)
            assert symrep.clifton_matrix(triv, s) == ((1,),)


def test_homomorphism_exhaustive_small():
    for n in (3, 4):
        perms = list(all_perms(n))
        for pi in symrep.partitions(n):
            tab = symrep.RepTable(pi)
            for s in perms:
                direct = symrep.clifton_matrix(pi, s)
                assert tuple(tuple(int(x) for x in r) for r in tab.matrix(s)) == direct
            for s in perms[:: max(1, len(perms) // 6)]:
                for t in perms[:: max(1, len(perms) // 6)]:
                    lhs = tab.matrix(compose(s, t))
                    assert (lhs == wide(tab.matrix(s)) @ wide(tab.matrix(t))).all()


def test_homomorphism_sampled_adjacent_generators_n5():
    for pi in symrep.partitions(5):
        tab = symrep.RepTable(pi)
        ident = (1, 2, 3, 4, 5)
        gens = [ident[: i - 1] + (i + 1, i) + ident[i + 1 :] for i in range(1, 5)]
        for g in gens:
            for h in gens:
                assert (tab.matrix(compose(g, h)) == wide(tab.matrix(g)) @ wide(tab.matrix(h))).all()


@pytest.mark.parametrize("shape", [(3, 2, 2), (4, 3, 1), (2, 2, 2, 2)])
def test_homomorphism_modular_large(shape):
    # exact over the integers, which implies the identity mod every p
    pi = Partition(shape)
    tab = symrep.RepTable(pi)
    rng = random.Random(sum(shape))
    n = pi.n
    for _ in range(15):
        s = tuple(rng.sample(range(1, n + 1), n))
        t = tuple(rng.sample(range(1, n + 1), n))
        assert (tab.matrix(compose(s, t)) == wide(tab.matrix(s)) @ wide(tab.matrix(t))).all()


@pytest.mark.parametrize("fill_entries", [symrep._FILL_ENTRIES, 1], ids=["default", "one-matrix-chunks"])
def test_memo_fill_matches_clifton_s5(monkeypatch, fill_entries):
    # every permutation of S_5 in shuffled order with repeats, asked for in
    # two calls: chains share links within a call, and the second call
    # finds part of its chains already memoised
    monkeypatch.setattr(symrep, "_FILL_ENTRIES", fill_entries)
    rng = random.Random(5)
    perms = list(all_perms(5))
    for pi in symrep.partitions(5):
        tab = symrep.RepTable(pi)
        asked = perms + rng.sample(perms, 40)
        rng.shuffle(asked)
        got = np.concatenate([tab.matrices(asked[:50]), tab.matrices(asked[50:])])
        assert got.dtype == np.int8 and got.shape == (len(asked), tab.dim, tab.dim)
        for sigma, m in zip(asked, got):
            assert tuple(map(tuple, m.tolist())) == symrep.clifton_matrix(pi, sigma), (pi, sigma)


def test_memo_fill_matches_clifton_d90():
    # 4+2+1^2 (d = 90) on permutations of at least 20 inversions: each
    # chain composes 20 or more products of 90 x 90 matrices in float64
    pi = symrep.parse_partition("4+2+1^2")
    rng = random.Random(90)
    asked = [tuple(range(8, 0, -1))]
    while len(asked) < 36:
        sigma = tuple(rng.sample(range(1, 9), 8))
        if sum(a > b for i, a in enumerate(sigma) for b in sigma[i + 1 :]) >= 20:
            asked.append(sigma)
    tab = symrep.RepTable(pi)
    assert tab.dim == 90
    got = tab.matrices(asked)
    assert got.dtype == np.int8
    for sigma, m in zip(asked, got):
        assert tuple(map(tuple, m.tolist())) == symrep.clifton_matrix(pi, sigma), sigma


def test_direct_and_composed_agree_spot_checks():
    rng = random.Random(9)
    for shape in [(3, 2), (2, 2, 2), (3, 3, 2)]:
        pi = Partition(shape)
        tab = symrep.RepTable(pi)
        for _ in range(5):
            s = tuple(rng.sample(range(1, pi.n + 1), pi.n))
            direct = symrep.clifton_matrix(pi, s)
            assert tuple(tuple(int(x) for x in r) for r in tab.matrix(s)) == direct


@pytest.mark.parametrize("n", range(1, 9))
def test_clifton_matrix_matches_reference(n):
    # each partition of n: every permutation up to n = 5; the identity, the
    # adjacent transpositions and a seeded sample at n = 6, 7; the identity
    # and the sample at n = 8
    rng = random.Random(n)
    ident = tuple(range(1, n + 1))
    if n <= 5:
        perms = list(all_perms(n))
    else:
        sample = [tuple(rng.sample(ident, n)) for _ in range({6: 20, 7: 4, 8: 2}[n])]
        adjacent = [ident[: i - 1] + (i + 1, i) + ident[i + 1 :] for i in range(1, n)]
        perms = [ident, *(adjacent if n < 8 else []), *sample]
    for pi in symrep.partitions(n):
        for s in perms:
            assert symrep.clifton_a_matrix(pi, s) == clifton_a_matrix_reference(pi, s), (pi, s)
            got = symrep.clifton_matrix(pi, s)
            assert got == clifton_matrix_reference(pi, s), (pi, s)
            assert all(type(x) is int for row in got for x in row)


def test_symrep_imports_nothing_from_exactla():
    # the coefficient field is the reducer's business alone
    tree = ast.parse(Path(symrep.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert "exactla" not in (node.module or ""), node.module
            assert all("exactla" not in a.name for a in node.names)
        elif isinstance(node, ast.Import):
            assert all("exactla" not in a.name for a in node.names)


def test_rep_table_checks_int8_bound(monkeypatch):
    # A(sigma) holds 0 and +-1, so R(sigma)'s entries are bounded by the
    # largest absolute row sum of A(iota)^-1, which must fit int8
    pi = Partition((2, 1))
    monkeypatch.setattr(symrep, "_a_iota_inverse", lambda _: ((1, 0), (-64, 64)))
    with pytest.raises(ValueError, match="128, beyond int8"):
        symrep.RepTable(pi)
    monkeypatch.setattr(symrep, "_a_iota_inverse", lambda _: ((1, 0), (-63, 64)))
    symrep.RepTable(pi)


def test_int8_bound_holds_through_degree_9():
    # the largest absolute row sum of A(iota)^-1 over the partitions of n
    largest = {1: 1, 2: 1, 3: 1, 4: 1, 5: 2, 6: 3, 7: 5, 8: 16, 9: 44}
    for n, expected in largest.items():
        sums = [sum(map(abs, row)) for pi in symrep.partitions(n) for row in symrep._a_iota_inverse(pi)]
        assert max(sums) == expected, n
        for pi in symrep.partitions(n):
            symrep.RepTable(pi)


def test_check_characteristic():
    for p in (0, 5, 7, 101):
        symrep.check_characteristic(p, 4)
    for p in (-5, -1, 1, 2, 3, 4):
        with pytest.raises(ValueError, match=r"^characteristic must be 0 or a prime > 4$"):
            symrep.check_characteristic(p, 4)


def element_block(pi, elt) -> list[list[int]]:
    """The d x d block sum of c * R(sigma) over elt, as liftgen.block_rows builds it."""
    tab = symrep.RepTable(pi)
    (rows,) = liftgen.block_rows([[(0, elt)]], tab)
    return dense_rows(rows, tab.dim)


def test_rep_of_element():
    ident = (1, 2, 3, 4)
    assert element_block(Partition((2, 2)), {ident: 1}) == [[1, 0], [0, 1]]
    alt = {p: sign(p) for p in all_perms(4)}
    assert element_block(Partition((1, 1, 1, 1)), alt) == [[24]]
    assert element_block(Partition((4,)), {(2, 1, 3, 4): 1, (3, 4, 2, 1): -1}) == [[0]]
    # integral Fractions are integers, and the result is not reduced mod anything
    assert element_block(Partition((2, 1)), {(1, 2, 3): Fraction(-6, 2)}) == [[-3, 0], [0, -3]]


@pytest.mark.parametrize("field", [QQ, GF101], ids=["QQ", "GF101"])
def test_rep_of_element_rejects_fractions(field):
    with pytest.raises(ValueError, match="not an integer"):
        element_block(Partition((1, 1)), {(1, 2): Fraction(3, 2)})
    with pytest.raises(ValueError, match="not an integer"):
        element_block(Partition((2, 1)), {(1, 2, 3): 1, (2, 1, 3): Fraction(-1, 2)})
    # the route a polynomial takes: 1/2 [[a,b],c] used to give zero rows, and
    # over GF(p) it must not be read as (p + 1)/2 either
    half = freealg.expand([(Fraction(1, 2), (2, (2, 1, 2), 3))])
    with pytest.raises(ValueError, match="not an integer"):
        list(liftgen.identity_rows([half], symrep.RepTable(Partition((2, 1)))))
    gen = liftgen.GenerationSet(3, (liftgen.Identity(half, (("seed", "half"),)),))
    with pytest.raises(ValueError, match="not an integer"):
        pipeline.reduce_identities(gen, Partition((2, 1)), field)


def test_alternating_sum_in_sign_rep_degree8():
    alt = {p: sign(p) for p in all_perms(8)}
    assert element_block(Partition((1,) * 8), alt) == [[factorial(8)]]
