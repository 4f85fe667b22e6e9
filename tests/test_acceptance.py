"""The twelve acceptance criteria, one test (one pass/fail line) each.

Criterion 2 asserts the reference monomial-count row for degrees 5..8
verbatim, and is expected to FAIL: three independent recounts (the
closed-form sum of n!/2^s(T) over association types, brute-force
enumeration of canonical monomials at small degrees, and the counting
recurrence) agree with each other and disagree with the reference row at
every one of those degrees. The assertion is kept as stated so the
discrepancy stays visible instead of being silently patched to match our
own computation.

Criterion 12 redoes the full degree-8 scan over all 22 partitions and
runs for hours; it is opt-in via LYIDENT_EXTENDED=1. The resource-cap
abort mechanics it relies on are exercised unconditionally by the
pipeline test suite.
"""

import json
import os
import random
from fractions import Fraction
from math import factorial

import numpy as np
import pytest

import reference
import test_evallab
import test_exactla
import test_freealg
import test_pipeline
from lyident import cli, evallab, freealg, liftgen, pipeline, symrep
from lyident._data import data_text
from lyident.exactla import GF101, QQ, IncrementalReducer

F = Fraction

SIGN8 = symrep.Partition((1,) * 8)


@pytest.fixture(scope="module")
def reports6(gen6_filtered):
    return pipeline.analyze_degree(6, GF101, "all", generation=gen6_filtered)


@pytest.fixture(scope="module")
def reports7(gen7_filtered):
    return pipeline.analyze_degree(7, GF101, "all", generation=gen7_filtered)


def test_01_type_count_table(capsys):
    code = cli.main(["counts", "--max-degree", "12"])
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert code == 0 and len(rows) == 12
    assert [int(r[1]) for r in rows] == [
        1, 1, 2, 5, 13, 38, 113, 354, 1128, 3688, 12229, 41161]
    assert [int(r[2]) for r in rows] == [
        1, 1, 1, 2, 3, 6, 11, 23, 46, 98, 207, 451]
    assert [int(r[3]) for r in rows] == [
        1, 0, 1, 0, 2, 0, 6, 0, 19, 0, 67, 0]
    assert [int(r[4]) for r in rows] == [
        0, 0, 0, 3, 8, 32, 96, 331, 1063, 3590, 11955, 40710]


def test_02_monomial_and_generator_counts():
    assert [liftgen.lifting_count(n) for n in range(4, 9)] == [
        6, 36, 252, 2016, 18144]
    for n in range(4, 26):
        assert liftgen.lifting_count(n) * 20 == factorial(n + 1)
    for n in range(6, 26):
        assert liftgen.lifting_count(n) == n * (
            liftgen.lifting_count(n - 1) + liftgen.lifting_count(n - 2))
    # the count is realized by the actual generation process where feasible
    for n in (4, 5, 6):
        assert len(liftgen.generate(n)) == liftgen.lifting_count(n)
    computed = [freealg.monomial_count(n) for n in range(5, 9)]
    assert computed == [300, 5310, 109620, 2751840], (
        "reference monomial-count row differs from every independent "
        f"recount, all of which give {computed}"
    )


def test_03_degree8_binary_types_and_skews():
    rendered = [freealg.render_type(t) for t in freealg.binary_types(8)]
    assert rendered == test_freealg.DEGREE8_BINARY_TYPES
    skew_rows = [
        (pos, gen.transpositions, gen.sign)
        for pos, t in enumerate(freealg.binary_types(8), 1)
        for gen in freealg.skew_generators(t)
    ]
    assert len(skew_rows) == 74
    assert skew_rows == test_freealg.DEGREE8_BINARY_SKEWS


def test_04_degree6_nonexistence(reports6, gen6_filtered):
    assert len(reports6) == 11
    assert all(r.status == "ok" and r.contains is True for r in reports6)
    payload = pipeline.report_payload(6, reports6, len(gen6_filtered))
    assert json.dumps(payload, indent=2) + "\n" == data_text("report_d6_c101_all.json")
    # and over the rationals for the sign representation
    (sign_qq,) = pipeline.analyze_degree(6, QQ, "sign", generation=gen6_filtered)
    assert sign_qq.status == "ok" and sign_qq.contains is True


def test_05_degree7_nonexistence(reports7, gen7_filtered):
    assert len(reports7) == 15
    assert all(r.status == "ok" and r.contains is True for r in reports7)
    payload = pipeline.report_payload(7, reports7, len(gen7_filtered))
    assert json.dumps(payload, indent=2) + "\n" == data_text("report_d7_c101_all.json")


def test_06_degree8_sign_representation(gen8):
    red, status = pipeline.reduce_identities(gen8, SIGN8, QQ, None)
    assert status == "ok"
    a_rows = red.tail_rows(354 - 23)
    assert a_rows == test_pipeline.load_golden("sign8_lifted_rcf.txt")
    assert a_rows == test_pipeline.expected_A8()
    assert len(a_rows) == 11 and len(test_exactla.rcf(a_rows, QQ)) == 11

    skew = pipeline._skew_reducer(symrep.RepTable(SIGN8), 8, QQ)
    b_rows = skew.tail_rows(0)
    assert b_rows == test_pipeline.load_golden("sign8_skew_rcf.txt")
    assert b_rows == test_pipeline.expected_B8()
    assert skew.rank == 10 and len(test_exactla.rcf(b_rows, QQ)) == 10

    rep = pipeline.analyze_partition(SIGN8, gen8, QQ, None)
    assert rep.a_rank == 11 and rep.contains is False
    assert len(rep.new_rows) == 1
    identity = pipeline.reconstruct_identity(rep.new_rows[0], 8)
    assert identity.terms == test_pipeline.THEOREM_TERMS
    assert identity == cli.bundled_identity()


def test_07_certification(gen8):
    for field in (QQ, GF101):
        result = pipeline.certify_new(cli.bundled_identity(), 8, field, generation=gen8)
        assert result.not_anticommutative_consequence is True, field
        assert result.is_LY_consequence is True, field


def test_08_redundancy_filter_spans(gen6_filtered, gen7_filtered):
    # the filtered sets are subsets of the full ones, so per-partition rank
    # equality over GF(101) gives row-space equality; the stored ranks come
    # from reducing the full 252/2016 sets during filtering
    for gen, full, reference in (
        (gen6_filtered, 252, 48),
        (gen7_filtered, 2016, 154),
    ):
        assert gen.filtered and gen.ranks is not None
        for pi in symrep.partitions(gen.degree):
            red, status = pipeline.reduce_identities(gen, pi, GF101, None)
            assert status == "ok"
            assert red.rank == gen.ranks[pi], (gen.degree, pi)
        # informational, not gating: size against the reference value
        print(f"degree {gen.degree}: kept {len(gen)} of {full} "
              f"(reference {reference})")


def rand_perm(rng, n):
    p = list(range(1, n + 1))
    rng.shuffle(p)
    return tuple(p)


def test_09_representation_properties():
    rng = random.Random(2024)
    for n in range(1, 9):
        assert sum(pi.dimension ** 2 for pi in symrep.partitions(n)) == factorial(n)
    for n in range(2, 9):
        trivial = symrep.RepTable(symrep.Partition((n,)))
        sign = symrep.RepTable(symrep.Partition((1,) * n))
        for _ in range(10):
            s = rand_perm(rng, n)
            assert trivial.matrix(s).tolist() == [[1]]
            assert sign.matrix(s).tolist() == [[reference.sign(s)]]
    # exact over the integers; the memo is int8, whose products wrap, so
    # multiply in int64
    for n in range(2, 9):
        for pi in symrep.partitions(n):
            tab = symrep.RepTable(pi)
            for _ in range(100 if n <= 6 else 20):
                s, t = rand_perm(rng, n), rand_perm(rng, n)
                lhs = tab.matrix(reference.compose(s, t))
                prod = tab.matrix(s).astype(np.int64) @ tab.matrix(t).astype(np.int64)
                assert (lhs == prod).all(), (pi, s, t)


def test_10_linear_algebra_properties():
    rng = random.Random(77)
    for field in (QQ, GF101):
        for _ in range(500):
            cols = rng.randint(1, 8)
            m = test_exactla.random_matrix(rng, rng.randint(1, 6), cols, field)
            red = IncrementalReducer(cols, field)
            red.append(m)
            reduced = red.tail_rows(0)
            if reduced:
                test_exactla.assert_rcf(reduced)
                assert test_exactla.rcf(reduced, field) == reduced
            assert len(reduced) == red.rank
            # canonicality: same row space, same RCF (shuffle rows, repeat
            # one, rescale over the rationals)
            rows = [list(r) for r in m]
            rows.append(list(rows[0]))
            rng.shuffle(rows)
            if not field.characteristic:
                scales = [rng.choice((1, 2, 3)) for _ in rows]
                rows = [[x * c for x in row] for row, c in zip(rows, scales)]
            assert test_exactla.rcf(rows, field) == reduced
    # rank agreement across the fields on every pipeline matrix of degree <= 5
    for n in (3, 4, 5):
        gen = liftgen.generate(n)
        for pi in symrep.partitions(n):
            l_qq = pipeline.reduce_identities(gen, pi, QQ)[0].rank
            l_ff = pipeline.reduce_identities(gen, pi, GF101)[0].rank
            assert l_qq == l_ff, (n, pi)
            table = symrep.RepTable(pi)
            b_qq = pipeline._skew_reducer(table, n, QQ).rank
            b_ff = pipeline._skew_reducer(table, n, GF101).rank
            assert b_qq == b_ff, (n, pi)


def test_11_semantic_oracle():
    theorem = cli.bundled_identity()
    for name, alg in test_evallab.bundled_algebras().items():
        assert evallab.validate(alg) == [], name
        result = evallab.check_identity(theorem, alg, trials=20, seed=11)
        assert result.passed, name
    # the alternation of a single binary type is nonzero exactly when every
    # skew generator of the type is an odd permutation; on a random bracket
    # table in dimension 8, at e1..e8, every such alternation is nonzero
    btypes = freealg.binary_types(8)
    odd_only = {
        j for j, t in enumerate(btypes, 1)
        if all(g.sign == -1 for g in freealg.skew_generators(t))
    }
    assert len(odd_only) == 13
    assert {j for j, _ in theorem.terms} <= odd_only
    alg = test_evallab.random_bracket(8, 1, 0.3)
    basis = [alg.basis(i) for i in range(8)]
    nonzero = {
        j for j in range(1, 24)
        if any(evallab.evaluate(pipeline.ExplicitIdentity(8, ((j, F(1)),)), alg, basis))
    }
    assert nonzero == odd_only


@pytest.mark.skipif(
    not os.environ.get("LYIDENT_EXTENDED"),
    reason="full degree-8 scan over all 22 partitions takes hours; "
           "set LYIDENT_EXTENDED=1 to run it",
)
def test_12_extended_full_degree8(gen8):
    caps = pipeline.ResourceCaps(max_seconds=14400)
    reports = pipeline.analyze_degree(8, GF101, "all", generation=gen8, caps=caps)
    assert len(reports) == 22
    assert all(r.status == "ok" for r in reports)
    for rep in reports:
        if rep.partition == SIGN8:
            assert rep.contains is False and len(rep.new_rows) == 1
        else:
            assert rep.contains is True, rep.partition
