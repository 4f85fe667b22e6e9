"""The benchmark's correctness checks must reject wrong outputs.

    python3 -m pytest -q bench/test_checks.py

Each test feeds a check one deliberately wrong output and expects a
problem, next to the right output, which must pass.
"""

from __future__ import annotations

import json
import sys
from array import array
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import pytest  # noqa: E402

import run  # noqa: E402
import so5_cartan  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from lyident import evallab, liftgen, pipeline, symrep  # noqa: E402
from lyident.exactla import GF101, QQ  # noqa: E402

SIGN8 = symrep.Partition((1,) * 8)


@pytest.fixture(scope="module")
def kept6():
    return liftgen.filter_redundant(liftgen.generate(6))


def test_filter_rejects_kept_set_missing_a_needed_identity(kept6):
    assert workloads.kept_rank_problems(kept6) == []
    # the last kept identity raised some rank above everything before it
    short = liftgen.GenerationSet(6, kept6.identities[:-1], filtered=True, ranks=kept6.ranks)
    assert workloads.kept_rank_problems(short)


def test_filter_rejects_reordered_kept_set(kept6):
    full = liftgen.generate(6).identities
    assert workloads.is_subsequence(kept6.identities, full)
    assert not workloads.is_subsequence(kept6.identities[::-1], full)


def _sign_reports(row):
    qq = pipeline.PartitionReport(SIGN8, 1, QQ, 11, workloads.even_skew_types(8), (tuple(row),))
    gf_row = tuple(workloads._mod(x, 101) for x in row)
    gf = pipeline.PartitionReport(SIGN8, 1, GF101, 11, workloads.even_skew_types(8), (gf_row,))
    return qq, gf


def _published_row():
    row = [Fraction(0)] * 23
    for j, c in workloads.published_identity().terms:
        row[j - 1] = Fraction(c)
    return row


def test_sign_check_rejects_changed_coefficient():
    identity = workloads.published_identity()
    assert workloads.even_skew_types(8) == 10
    assert workloads.sign_problems(*_sign_reports(_published_row()), identity) == []
    wrong = [Fraction(-1) if x == Fraction(-3, 2) else x for x in _published_row()]
    assert workloads.sign_problems(*_sign_reports(wrong), identity)


def test_sign_check_rejects_gf_row_off_the_q_row():
    identity = workloads.published_identity()
    qq, gf = _sign_reports(_published_row())
    bad = list(gf.new_rows[0])
    bad[6] = (bad[6] + 1) % 101
    gf = pipeline.PartitionReport(SIGN8, 1, GF101, gf.a_rank, gf.c_rank, (tuple(bad),))
    assert workloads.sign_problems(qq, gf, identity)


def test_verdict_check_rejects_one_flipped_verdict():
    reports = [
        pipeline.PartitionReport(symrep.parse_partition(p), 1, GF101, 3, 5, ())
        for p in workloads.SCAN7_PARTITIONS
    ]
    assert workloads.verdict_problems(reports) == []
    flipped = list(reports)
    flipped[2] = pipeline.PartitionReport(flipped[2].partition, 1, GF101, 3, 5, ((1, 0),))
    assert workloads.verdict_problems(flipped)
    over = list(reports)
    over[0] = pipeline.PartitionReport(over[0].partition, 1, GF101, 6, 5, ())
    assert workloads.verdict_problems(over)


def test_oracle_check_rejects_nonzero_evaluation():
    zero = evallab.CheckResult(True, 5)
    nonzero = evallab.CheckResult(False, 1, witness=((1,),), value=(Fraction(1, 2),))
    assert workloads.oracle_check({}, {"check/g0/zero": zero}) == []
    assert workloads.oracle_check({}, {"check/g0/zero": nonzero})


def test_negative_control_rejects_a_passing_or_inconsistent_jacobi():
    alg = workloads.load_so5()
    jac = workloads.jacobi()
    result = evallab.check_identity(jac, alg, trials=2, seed=workloads.ORACLE_CHECK_SEED)
    assert workloads.negative_control_problems(result, jac, alg) == []
    assert workloads.negative_control_problems(evallab.CheckResult(True, 2), jac, alg)
    shifted = tuple(x + 1 for x in result.value)
    lying = evallab.CheckResult(False, result.assignments_checked, result.witness, shifted)
    assert workloads.negative_control_problems(lying, jac, alg)


def test_a_failed_operation_makes_the_run_incorrect(monkeypatch):
    def boom():
        raise ZeroDivisionError("no result")

    failing = workloads.Workload(lambda seed: {}, lambda inp: [("boom", boom)], lambda inp, res: [])
    monkeypatch.setitem(workloads.WORKLOADS, "failing", failing)
    result, notes = run.run_workload("failing", 1, 0, trace=False)
    assert (result["correct"], result["attempted"], result["failed"]) == (False, run.MIN_ROUNDS, run.MIN_ROUNDS)
    assert any(note.startswith("FAILED boom") for note in notes)


def test_oracle_sample_covers_every_seed_family():
    sample = workloads.oracle_setup(1)["generators"]
    families = {i.lineage[0][1] for i in liftgen.generate(6).identities if i.polynomial in sample}
    assert families == {"f", "g1", "g2", "h"}


def test_so5_file_matches_its_construction():
    stored = json.loads((BENCH / "so5_cartan.json").read_text(encoding="utf-8"))
    assert stored == so5_cartan.structure_constants()


def test_self_time_subtracts_children():
    tracer = spans.Tracer()
    outer = tracer.open("a")
    inner = tracer.open("b")
    tracer.close(inner)
    tracer.close(outer)
    tracer.start[:] = array("d", [0.0, 1.0])
    tracer.end[:] = array("d", [5.0, 3.0])
    tot = spans.span_totals(tracer)
    assert tot["a"] == {"calls": 1, "s": 5.0, "self_s": 3.0, "max_s": 5.0}
    assert tot["b"]["self_s"] == 2.0
