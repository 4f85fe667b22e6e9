"""Tests for the free binary-ternary algebra layer.

The enumeration, counting, and canonicalization results are cross-checked
against a brute-force oracle that walks every labeled plane tree with a
completely separate code path.
"""

import itertools
import math
import random

import pytest

import reference
from lyident import freealg


# -- brute-force oracle --------------------------------------------------------


def plane_trees(labels):
    """Every plane tree with arity-2/3 internal nodes over the given leaves."""
    if len(labels) == 1:
        yield labels[0]
        return
    n = len(labels)
    for i in range(1, n):
        for left in plane_trees(labels[:i]):
            for right in plane_trees(labels[i:]):
                yield (2, left, right)
    for i in range(1, n - 1):
        for j in range(1, n - i):
            for a in plane_trees(labels[:i]):
                for b in plane_trees(labels[i : i + j]):
                    for c in plane_trees(labels[i + j :]):
                        yield (3, a, b, c)


# (all, binary, ternary, mixed) per degree, from the closed recurrences;
# n <= 7 is re-derived by brute force below.
COUNTS_TABLE = {
    1: (1, 1, 1, 0),
    2: (1, 1, 0, 0),
    3: (2, 1, 1, 0),
    4: (5, 2, 0, 3),
    5: (13, 3, 2, 8),
    6: (38, 6, 0, 32),
    7: (113, 11, 6, 96),
    8: (354, 23, 0, 331),
    9: (1128, 46, 19, 1063),
    10: (3688, 98, 0, 3590),
    11: (12229, 207, 67, 11955),
    12: (41161, 451, 0, 40710),
}

MONOMIAL_COUNTS = [1, 1, 6, 45, 510, 7245, 126630, 2609145]  # n = 1..8


@pytest.mark.parametrize("n", range(1, 8))
def test_count_types_matches_brute_force(n):
    seen = {}
    for tree in plane_trees(list(range(1, n + 1))):
        mono, sign = freealg.canonicalize(tree)
        assert sign in (1, -1)
        t = mono.type
        seen[t] = seen.get(t, 0) + 1
    counts = freealg.count_types(n)
    assert len(seen) == counts.all
    by_class = {"binary": 0, "ternary": 0, "mixed": 0}
    for t in seen:
        if n == 1:
            continue
        by_class[t.cls] += 1
    if n > 1:
        assert by_class["binary"] == counts.binary
        assert by_class["ternary"] == counts.ternary
        assert by_class["mixed"] == counts.mixed
    assert set(seen) == set(freealg.enumerate_types(n))


@pytest.mark.parametrize("n", COUNTS_TABLE)
def test_count_types_table(n):
    assert tuple(freealg.count_types(n)) == COUNTS_TABLE[n]


def test_enumeration_order_is_degree_class_blocks():
    for n in (5, 6, 7, 8):
        types = freealg.enumerate_types(n)
        codes = [t.class_code for t in types]
        assert codes == sorted(codes)
        assert [t.key for t in types] == sorted(t.key for t in types)
        assert freealg.binary_types(n) == types[-freealg.count_types(n).binary :]


def test_type_index_roundtrip():
    for n in (3, 5, 6):
        for i, t in enumerate(freealg.enumerate_types(n), start=1):
            assert t.index == i
            assert freealg.type_by_index(n, i) is t


DEGREE5_TYPES = [
    "<--<--->>",
    "<<--->-->",
    "[<--->[--]]",
    "[[<--->-]-]",
    "[<--[--]>-]",
    "[<[--]-->-]",
    "<--[[--]-]>",
    "<[--]-[--]>",
    "<[--][--]->",
    "<[[--]-]-->",
    "[[[--]-][--]]",
    "[[[--][--]]-]",
    "[[[[--]-]-]-]",
]

DEGREE8_BINARY_TYPES = [
    "[[[--][--]][[--][--]]]",
    "[[[--][--]][[[--]-]-]]",
    "[[[[--]-]-][[[--]-]-]]",
    "[[[[--]-][--]][[--]-]]",
    "[[[[--][--]]-][[--]-]]",
    "[[[[[--]-]-]-][[--]-]]",
    "[[[[--]-][[--]-]][--]]",
    "[[[[--][--]][--]][--]]",
    "[[[[[--]-]-][--]][--]]",
    "[[[[[--]-][--]]-][--]]",
    "[[[[[--][--]]-]-][--]]",
    "[[[[[[--]-]-]-]-][--]]",
    "[[[[--][--]][[--]-]]-]",
    "[[[[[--]-]-][[--]-]]-]",
    "[[[[[--]-][--]][--]]-]",
    "[[[[[--][--]]-][--]]-]",
    "[[[[[[--]-]-]-][--]]-]",
    "[[[[[--]-][[--]-]]-]-]",
    "[[[[[--][--]][--]]-]-]",
    "[[[[[[--]-]-][--]]-]-]",
    "[[[[[[--]-][--]]-]-]-]",
    "[[[[[[--][--]]-]-]-]-]",
    "[[[[[[[--]-]-]-]-]-]-]",
]


def test_degree5_types_golden():
    assert [freealg.render_type(t) for t in freealg.enumerate_types(5)] == DEGREE5_TYPES


def test_degree8_binary_types_golden():
    got = [freealg.render_type(t) for t in freealg.binary_types(8)]
    assert got == DEGREE8_BINARY_TYPES


# Skew-group generators of the 23 binary degree-8 types: 74 in total,
# (1-based type position, disjoint transpositions, permutation sign).
DEGREE8_BINARY_SKEWS = [
    (1, ((1, 2),), -1),
    (1, ((3, 4),), -1),
    (1, ((1, 3), (2, 4)), 1),
    (1, ((5, 6),), -1),
    (1, ((7, 8),), -1),
    (1, ((5, 7), (6, 8)), 1),
    (1, ((1, 5), (2, 6), (3, 7), (4, 8)), 1),
    (2, ((1, 2),), -1),
    (2, ((3, 4),), -1),
    (2, ((1, 3), (2, 4)), 1),
    (2, ((5, 6),), -1),
    (3, ((1, 2),), -1),
    (3, ((5, 6),), -1),
    (3, ((1, 5), (2, 6), (3, 7), (4, 8)), 1),
    (4, ((1, 2),), -1),
    (4, ((4, 5),), -1),
    (4, ((6, 7),), -1),
    (5, ((1, 2),), -1),
    (5, ((3, 4),), -1),
    (5, ((1, 3), (2, 4)), 1),
    (5, ((6, 7),), -1),
    (6, ((1, 2),), -1),
    (6, ((6, 7),), -1),
    (7, ((1, 2),), -1),
    (7, ((4, 5),), -1),
    (7, ((1, 4), (2, 5), (3, 6)), -1),
    (7, ((7, 8),), -1),
    (8, ((1, 2),), -1),
    (8, ((3, 4),), -1),
    (8, ((1, 3), (2, 4)), 1),
    (8, ((5, 6),), -1),
    (8, ((7, 8),), -1),
    (9, ((1, 2),), -1),
    (9, ((5, 6),), -1),
    (9, ((7, 8),), -1),
    (10, ((1, 2),), -1),
    (10, ((4, 5),), -1),
    (10, ((7, 8),), -1),
    (11, ((1, 2),), -1),
    (11, ((3, 4),), -1),
    (11, ((1, 3), (2, 4)), 1),
    (11, ((7, 8),), -1),
    (12, ((1, 2),), -1),
    (12, ((7, 8),), -1),
    (13, ((1, 2),), -1),
    (13, ((3, 4),), -1),
    (13, ((1, 3), (2, 4)), 1),
    (13, ((5, 6),), -1),
    (14, ((1, 2),), -1),
    (14, ((5, 6),), -1),
    (15, ((1, 2),), -1),
    (15, ((4, 5),), -1),
    (15, ((6, 7),), -1),
    (16, ((1, 2),), -1),
    (16, ((3, 4),), -1),
    (16, ((1, 3), (2, 4)), 1),
    (16, ((6, 7),), -1),
    (17, ((1, 2),), -1),
    (17, ((6, 7),), -1),
    (18, ((1, 2),), -1),
    (18, ((4, 5),), -1),
    (18, ((1, 4), (2, 5), (3, 6)), -1),
    (19, ((1, 2),), -1),
    (19, ((3, 4),), -1),
    (19, ((1, 3), (2, 4)), 1),
    (19, ((5, 6),), -1),
    (20, ((1, 2),), -1),
    (20, ((5, 6),), -1),
    (21, ((1, 2),), -1),
    (21, ((4, 5),), -1),
    (22, ((1, 2),), -1),
    (22, ((3, 4),), -1),
    (22, ((1, 3), (2, 4)), 1),
    (23, ((1, 2),), -1),
]


def test_degree8_binary_skews_golden():
    rows = []
    for pos, t in enumerate(freealg.binary_types(8), 1):
        for gen in freealg.skew_generators(t):
            rows.append((pos, gen.transpositions, gen.sign))
    assert rows == DEGREE8_BINARY_SKEWS


def test_skew_generator_properties():
    ident = tuple(range(1, 9))
    for t in freealg.enumerate_types(8)[::17]:
        gens = freealg.skew_generators(t)
        assert len(gens) == t.skews
        group = {ident}
        for g in gens:
            assert g.perm != ident
            assert tuple(g.perm[i - 1] for i in g.perm) == ident  # involution
            assert g.sign == (-1) ** len(g.transpositions)
            group |= {tuple(p[i - 1] for i in g.perm) for p in group}
        # generators are independent: the group they generate has order 2^s
        for _ in range(len(gens)):
            group |= {
                tuple(p[i - 1] for i in g.perm) for g in gens for p in group
            }
        assert len(group) == 2**t.skews


@pytest.mark.parametrize("n", range(1, 9))
def test_monomial_count_frozen(n):
    assert freealg.monomial_count(n) == MONOMIAL_COUNTS[n - 1]


@pytest.mark.parametrize("n", range(2, 6))
def test_monomial_count_matches_brute_force(n):
    seen = set()
    for perm in itertools.permutations(range(1, n + 1)):
        for tree in plane_trees(list(perm)):
            mono, _ = freealg.canonicalize(tree)
            seen.add(mono)
    assert len(seen) == freealg.monomial_count(n)
    # every canonical monomial is a fixed point of canonicalization
    sample = itertools.islice(iter(seen), 0, None, 37)
    for mono in sample:
        tree = labeled_tree(mono)
        again, sign = freealg.canonicalize(tree)
        assert again == mono and sign == 1


def labeled_tree(mono):
    """Rebuild the nested-tuple tree of a canonical monomial."""
    labels = iter(mono.perm)

    def walk(t):
        if t.arity == 0:
            return next(labels)
        return (t.arity, *(walk(c) for c in t.children))

    return walk(mono.type)


def test_canonicalize_single_swap_flips_sign():
    # [[x2 x1] x3]: one binary swap, sign -1
    mono, sign = freealg.canonicalize((2, (2, 2, 1), 3))
    assert sign == -1
    assert freealg.render_monomial(mono) == "[[ab]c]"
    # ternary first-pair swap
    mono, sign = freealg.canonicalize((3, 2, 1, 3))
    assert sign == -1
    assert freealg.render_monomial(mono) == "<abc>"
    # third argument is not subject to the skew
    mono, sign = freealg.canonicalize((3, 1, 3, 2))
    assert sign == 1
    assert freealg.render_monomial(mono) == "<acb>"


def test_canonicalize_orientation():
    # smaller-degree child hoisted past a larger one costs one sign per swap
    mono, sign = freealg.canonicalize((2, 1, (2, 2, 3)))
    assert sign == -1
    assert freealg.render_monomial(mono) == "[[bc]a]"
    # ternary orientation only involves the first two children
    mono, sign = freealg.canonicalize((3, (3, 1, 2, 3), 4, 5))
    assert sign == 1
    assert freealg.render_monomial(mono) == "<<abc>de>"
    mono, sign = freealg.canonicalize((3, 4, (3, 1, 2, 3), 5))
    assert sign == -1
    assert freealg.render_monomial(mono) == "<<abc>de>"


def test_canonicalize_repeats():
    with pytest.raises(ValueError, match="swap children carry equal labels"):
        freealg.canonicalize((2, 1, 1))
    with pytest.raises(ValueError, match="swap children carry equal labels"):
        freealg.canonicalize((2, (2, 1, 2), (2, 1, 2)))
    # a repeat outside a swap node is not multilinear either
    with pytest.raises(ValueError):
        freealg.canonicalize((3, 1, 2, 1))


def test_canonicalize_rejects_malformed():
    for bad in [(2, 1), (4, 1, 2, 3, 4), (2, 1, "x"), (2, 0, 1), ()]:
        with pytest.raises((ValueError, TypeError)):
            freealg.canonicalize(bad)
    with pytest.raises(ValueError):
        freealg.canonicalize((2, 1, 3))  # labels not 1..n
    # a bool is not a variable index; the message names the subtree
    with pytest.raises(ValueError, match="True"):
        freealg.canonicalize((2, True, 2))
    # the arity must be an int, not a value equal to one
    with pytest.raises(ValueError, match="2.0"):
        freealg.canonicalize((2.0, 1, 2))


def _outcome(canon, tree):
    """(Monomial, sign) of a tree, or the class of the exception it raises
    and whether it names equal labels under a swap node."""
    try:
        return canon(tree)
    except Exception as ex:  # the class itself is compared
        return type(ex), "swap children carry equal labels" in str(ex)


@pytest.mark.parametrize("n", range(1, 6))
def test_canonicalize_matches_reference_on_every_labeling(n):
    # degree <= 4: every labeling by 0..n or True, so repeats, zero and bool
    # leaves are compared too; degree 5: every permutation
    if n <= 4:
        labelings = itertools.product([True, *range(n + 1)], repeat=n)
    else:
        labelings = itertools.permutations(range(1, n + 1))
    for labels in labelings:
        for tree in plane_trees(list(labels)):
            assert _outcome(freealg.canonicalize, tree) == _outcome(
                reference.canonicalize_reference, tree
            ), tree


def _scrambled(t, labels, rng):
    """A labeled tree of type t with the children of every node shuffled."""
    if t.arity == 0:
        return next(labels)
    kids = [_scrambled(c, labels, rng) for c in t.children]
    rng.shuffle(kids)
    return (t.arity, *kids)


@pytest.mark.parametrize("n", [6, 7, 8])
def test_canonicalize_matches_reference_on_random_labelings(n):
    rng = random.Random(n)
    for t in freealg.enumerate_types(n):
        for trial in range(4):
            labels = list(range(1, n + 1))
            rng.shuffle(labels)
            if trial == 3:  # one repeated variable
                labels[rng.randrange(n)] = labels[rng.randrange(n)]
            tree = _scrambled(t, iter(labels), rng)
            assert _outcome(freealg.canonicalize, tree) == _outcome(
                reference.canonicalize_reference, tree
            ), tree


def test_expand_collects_and_cancels():
    p = freealg.expand([(1, (2, (2, 1, 2), 3)), (1, (2, (2, 2, 1), 3))])
    assert not p  # the two terms cancel
    p = freealg.expand([(2, (2, (2, 1, 2), 3)), (1, (2, (2, 2, 1), 3))])
    [(mono, coeff)] = p.sorted_terms()
    assert coeff == 1 and freealg.render_monomial(mono) == "[[ab]c]"


def test_polynomial_by_type():
    p = freealg.expand(
        [
            (1, (2, (2, 1, 2), 3)),
            (-1, (2, (2, 1, 3), 2)),
            (1, (2, (2, 2, 3), 1)),
            (1, (3, 1, 2, 3)),
            (-1, (3, 1, 3, 2)),
            (1, (3, 2, 3, 1)),
        ]
    )
    assert len(p) == 6
    groups = p.by_type()
    names = {freealg.render_type(freealg.type_by_index(3, i)): g for i, g in groups.items()}
    assert set(names) == {"<--->", "[[--]-]"}
    assert names["[[--]-]"] == {(1, 2, 3): 1, (1, 3, 2): -1, (2, 3, 1): 1}
    assert names["<--->"] == {(1, 2, 3): 1, (1, 3, 2): -1, (2, 3, 1): 1}


def test_render_monomial_forms():
    mono, _ = freealg.canonicalize((2, (3, 1, 2, 5), (2, 3, 4)))
    assert freealg.render_monomial(mono) == "[<abe>[cd]]"
    assert freealg.render_monomial(mono, pretty=True) == "[<a,b,e>,[c,d]]"
    big, _ = freealg.canonicalize((2, (2, 1, 2), (2, 3, (2, 4, (2, 5, (2, 6, (2, 7, (2, 8, 9))))))))
    assert "x1" in freealg.render_monomial(big)
    # both renderings tell apart every type of degree <= 7 and every
    # canonical monomial of degree 3 and 4
    types = [t for n in range(1, 8) for t in freealg.enumerate_types(n)]
    monos = {
        freealg.canonicalize(tree)[0]
        for n in (3, 4)
        for perm in itertools.permutations(range(1, n + 1))
        for tree in plane_trees(list(perm))
    }
    assert len({freealg.render_type(t) for t in types}) == len(types) and all(
        len({freealg.render_monomial(m, pretty=pretty) for m in monos}) == len(monos)
        for pretty in (False, True)
    )
