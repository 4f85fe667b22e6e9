"""Consequence-matrix pipeline: hand-checked small degrees, cross-field
agreement, and the degree-8 sign-representation identity."""

import json
import logging
import random
import re
import tracemalloc
from fractions import Fraction
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from lyident import cli, freealg, liftgen, pipeline, symrep
from lyident._data import data_text
from lyident.exactla import GF101, QQ, FieldSpec, IncrementalReducer
from lyident.pipeline import ExplicitIdentity, ResourceCaps
from reference import alternation_polynomial, dense_rows

DATA = Path(__file__).resolve().parent / "data"


def frow(row):
    return [Fraction(x) for x in row]


def stacked_rows(gen, pi) -> list[list[int]]:
    """L_pi: every identity's block rows, written out and stacked in
    generation order."""
    table = symrep.RepTable(pi)
    cols, _ = liftgen._column_split(gen.degree, table.dim)
    return [row for rows in liftgen.identity_rows([ident.polynomial for ident in gen.identities], table)
            for row in dense_rows(rows, cols)]


def eliminated_rows(gen, pi) -> list[list[int]]:
    """L_pi in the column layout and row order of reduce_identities, every
    identity's block rows written out and stacked."""
    table = symrep.RepTable(pi)
    cols, _ = liftgen._column_split(gen.degree, table.dim)
    items = liftgen._elimination_items([ident.polynomial for ident in gen.identities], table)
    return [row for rows in liftgen.block_rows(items, table) for row in dense_rows(rows, cols)]


def reduced(rows, cols: int, field) -> IncrementalReducer:
    red = IncrementalReducer(cols, field)
    red.append(rows)
    return red


# -- degree 3 by hand ----------------------------------------------------------
#
# Two association types: <a,b,c> then [[a,b],c] (binary rightmost). The single
# defining identity has 3 binary and 3 ternary terms with unit coefficients.


class TestDegree3:
    def test_sign_rep_matrix(self):
        gen = liftgen.generate(3)
        L = stacked_rows(gen, symrep.Partition((1, 1, 1)))
        assert [frow(r) for r in L] == [frow([3, 3])]

    def test_standard_rep_matrix(self):
        gen = liftgen.generate(3)
        L = stacked_rows(gen, symrep.Partition((2, 1)))
        assert [frow(r) for r in L] == [frow([1, 0, 1, 0]), frow([-2, 0, -2, 0])]
        red = reduced(L, 4, QQ)
        assert red.rank == 1
        assert red.tail_rows(0) == [frow([1, 0, 1, 0])]

    def test_no_binary_pivot_rows(self):
        # the lone RCF row [1, 1] leads in the ternary column, so A is empty
        gen = liftgen.generate(3)
        red, _ = pipeline.reduce_identities(gen, symrep.Partition((1, 1, 1)), QQ)
        assert red.tail_rows(0) == [frow([1, 1])]
        assert red.tail_rows(1) == []

    def test_sign_skews_vanish(self):
        # [[a,b],c] has the single skew iota + (b a c); the sign rep sends the
        # odd transposition to -1, so the relation is identically zero
        B = pipeline._skew_reducer(symrep.RepTable(symrep.Partition((1, 1, 1))), 3, QQ)
        assert B.rank == 0 and B.cols == 1

    def test_standard_skews(self):
        pi = symrep.Partition((2, 1))
        table = symrep.RepTable(pi)
        swap = table.matrix((2, 1, 3))
        B = pipeline._skew_reducer(table, 3, QQ)
        expected = reduced((np.eye(2, dtype=np.int64) + swap).tolist(), 2, QQ)
        assert B.tail_rows(0) == expected.tail_rows(0)

    def test_jacobi_not_a_consequence(self):
        # the alternating sum over [[a,b],c] is the Jacobi identity; the
        # defining identity only yields it modulo ternary terms
        jacobi = ExplicitIdentity(3, ((1, 1),))
        res = pipeline.certify_new(jacobi, 3, QQ, generation=liftgen.generate(3))
        assert res.not_anticommutative_consequence is True
        assert res.is_LY_consequence is False

    def test_one_rep_table_per_partition(self, monkeypatch):
        # the reduction and the skew reducer share one table
        built = []

        class Counting(symrep.RepTable):
            def __init__(self, pi):
                built.append(pi)
                super().__init__(pi)

        monkeypatch.setattr(symrep, "RepTable", Counting)
        pi = symrep.Partition((2, 1, 1))
        pipeline.analyze_partition(pi, liftgen.generate(4), GF101, None)
        assert built == [pi]
        built.clear()
        pipeline.certify_new(ExplicitIdentity(3, ((1, 1),)), 3, QQ, generation=liftgen.generate(3))
        assert built == [symrep.Partition((1, 1, 1))]

    def test_render(self):
        jacobi = ExplicitIdentity(3, ((1, 1),))
        assert jacobi.render() == (
            "sum over all sigma in S_3, with sign eps(sigma), applied to the variables of:\n"
            "  + 1 [[a,b],c]"
        )


# -- constructors and validation ------------------------------------------------


class TestExplicitIdentity:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one term"):
            ExplicitIdentity(3, ())

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError, match="out of range"):
            ExplicitIdentity(3, ((2, 1),))

    def test_rejects_repeated_type_index(self):
        # certify_new would keep the last coefficient and evaluation the sum
        with pytest.raises(ValueError, match="binary type index 1 appears twice"):
            ExplicitIdentity(8, ((1, 1), (1, 2)))
        with pytest.raises(ValueError, match="binary type index 3 appears twice"):
            ExplicitIdentity(8, ((3, 1), (2, 1), (3, -1)))

    def test_rejects_zero_coefficient(self):
        with pytest.raises(ValueError, match="zero coefficient"):
            ExplicitIdentity(3, ((1, 0),))

    def test_rejects_float_coefficient(self):
        # 0.1 would render and evaluate as 3602879701896397/36028797018963968
        for coeff in (0.1, 1.0, np.float64(-1.5), np.float32(2.0)):
            with pytest.raises(ValueError, match="give an int or a Fraction"):
                ExplicitIdentity(3, ((1, coeff),))
        assert ExplicitIdentity(3, ((1, Fraction(1, 10)),)).terms == ((1, Fraction(1, 10)),)

    @pytest.mark.parametrize("coeff", ["1/2", 1 + 0j, True, 0.5], ids=["str", "complex", "bool", "float"])
    def test_rejects_coefficient_not_int_or_fraction(self, coeff):
        # each of these would construct and then break render()
        with pytest.raises(ValueError, match=rf"coefficient {re.escape(repr(coeff))}: give an int or a Fraction"):
            ExplicitIdentity(3, ((1, coeff),))

    @pytest.mark.parametrize("coeff", [3, -2, Fraction(-1, 2)])
    def test_accepts_int_and_fraction_coefficients(self, coeff):
        ident = ExplicitIdentity(3, ((1, coeff),))
        assert ident.terms == ((1, coeff),) and ident.render()

    def test_reconstruct_round_trip(self):
        row = [0, Fraction(2), 0, Fraction(-1, 2), 0]
        with pytest.raises(ValueError):
            pipeline.reconstruct_identity(row, 8)  # wrong width
        b = len(freealg.binary_types(8))
        row = [0] * b
        with pytest.raises(ValueError, match="zero row"):
            pipeline.reconstruct_identity(row, 8)
        row[3] = Fraction(1)
        row[6] = Fraction(-3, 2)
        ident = pipeline.reconstruct_identity(row, 8)
        assert ident.terms == ((4, Fraction(1)), (7, Fraction(-3, 2)))
        assert ident.alternating

    def test_certify_rejects_degenerate(self):
        # in degree 4, [[a,b],[c,d]] has the even skew (c d a b); its
        # alternating sum cancels termwise, so the identity says nothing
        btypes = freealg.binary_types(4)
        renders = [
            freealg.render_monomial(freealg.Monomial(4, t.index, (1, 2, 3, 4)), pretty=True)
            for t in btypes
        ]
        j = renders.index("[[a,b],[c,d]]") + 1
        with pytest.raises(ValueError, match="degenerate"):
            pipeline.certify_new(
                ExplicitIdentity(4, ((j, 1),)), 4, QQ, generation=liftgen.generate(4)
            )

    def test_certify_validates_degree(self):
        with pytest.raises(ValueError, match="degree"):
            pipeline.certify_new(ExplicitIdentity(3, ((1, 1),)), 4)


# -- cross-field and incremental-versus-batch agreement --------------------------


class TestAgreement:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_incremental_equals_batch(self, n):
        # the chunked feed of reduce_identities against one append of the
        # stacked rows in its column layout, over both fields
        gen = liftgen.generate(n)
        m = freealg.count_types(n).all
        for pi in symrep.partitions(n):
            for field in (QQ, GF101):
                red, status = pipeline.reduce_identities(gen, pi, field)
                assert status == "ok"
                batch = reduced(eliminated_rows(gen, pi), m * pi.dimension, field)
                assert red.tail_rows(0) == batch.tail_rows(0), (field, pi.render())

    @pytest.mark.parametrize("n", [5, 6])
    def test_elimination_order_keeps_the_binary_tail(self, n):
        # reduce_identities appends the sparsest identities first into its
        # own layout of the nonbinary blocks; the rank and the binary tail
        # of the RCF are those of generation order in the deglex layout
        gen = liftgen.generate(n)
        polys = [ident.polynomial for ident in gen.identities]
        for pi in symrep.partitions(n):
            table = symrep.RepTable(pi)
            cols, first_binary = liftgen._column_split(n, table.dim)
            for field in (GF101, QQ):
                red, status = pipeline.reduce_identities(gen, pi, field)
                plain = IncrementalReducer(cols, field)
                for rows in liftgen.identity_rows(polys, table):
                    plain.append(rows)
                assert status == "ok"
                assert red.rank == plain.rank, (field, pi.render())
                assert red.tail_rows(first_binary) == plain.tail_rows(first_binary), (field, pi.render())

    def test_elimination_layout(self):
        # degree 5: h (4 terms) follows the ten 3-term liftings of g1 and
        # g2; nonbinary type 4 is touched by 5 generators and type 3 by 6,
        # so block 4 comes third; the binary types 11-13 stay last
        gen = liftgen.generate(5)
        polys = [ident.polynomial for ident in gen.identities]
        table = symrep.RepTable(symrep.Partition((1,) * 5))
        order = [*range(1, 11), 0, *range(11, 36)]
        layout = [1, 2, 4, 3, 5, 6, 7, 8, 9, 10, 11, 12, 13]
        assert list(liftgen._elimination_items(polys, table)) == [
            [(layout.index(ti), perms) for ti, perms in polys[k].by_type().items()] for k in order
        ]

    @pytest.mark.parametrize("n", [4, 5])
    def test_tail_rows_match_extraction(self, n):
        # A_pi read off the whole RCF by hand: rows leading in a binary
        # block, restricted to the binary columns
        gen = liftgen.generate(n)
        m = freealg.count_types(n).all
        b = len(freealg.binary_types(n))
        for pi in symrep.partitions(n):
            first_binary = (m - b) * pi.dimension
            red, _ = pipeline.reduce_identities(gen, pi, QQ)
            A = [
                row[first_binary:] for row in red.tail_rows(0)
                if next(i for i, x in enumerate(row) if x) >= first_binary
            ]
            assert red.tail_rows(first_binary) == A

    def test_B_rank_QQ_matches_GF101(self):
        for n in (4, 5, 6):
            for pi in symrep.partitions(n):
                table = symrep.RepTable(pi)
                Bq = pipeline._skew_reducer(table, n, QQ)
                Bp = pipeline._skew_reducer(table, n, GF101)
                assert Bq.rank == Bp.rank, (n, pi.render())

    @pytest.mark.parametrize("p", [131, 2**31 - 1])
    def test_degree6_second_prime_matches_golden(self, p, gen6_filtered):
        # the bundled degree-6 verdicts over GF(101), recomputed over primes
        # the representation matrices were never reduced against
        reports = pipeline.analyze_degree(6, FieldSpec(p), "all", generation=gen6_filtered)
        payload = pipeline.report_payload(6, reports, len(gen6_filtered))
        golden = json.loads(data_text("report_d6_c101_all.json"))
        assert payload["characteristic"] == p
        assert payload["partitions"] == golden["partitions"]

    def test_degree7_rationals_match_golden(self, gen7_filtered):
        # the bundled degree-7 verdicts over GF(101), recomputed over Q: all
        # 15 partitions contained, with the same ranks
        reports = pipeline.analyze_degree(7, QQ, "all", generation=gen7_filtered)
        payload = pipeline.report_payload(7, reports, len(gen7_filtered))
        golden = json.loads(data_text("report_d7_c101_all.json"))
        assert payload["characteristic"] == 0
        assert payload["partitions"] == golden["partitions"]


# -- no new identity below degree 8 ----------------------------------------------


class TestLowDegrees:
    @pytest.mark.parametrize("n", [4, 5])
    def test_full_generation_contains(self, n):
        for rep in pipeline.analyze_degree(n, GF101, "all", generation=liftgen.generate(n)):
            assert rep.status == "ok"
            assert rep.contains is True, rep.partition.render()

    def test_degree6_all_partitions(self, gen6_filtered):
        reports = pipeline.analyze_degree(6, GF101, "all", generation=gen6_filtered)
        assert len(reports) == 11
        for rep in reports:
            assert rep.status == "ok"
            assert rep.contains is True, rep.partition.render()

    def test_degree6_shuffled_generation_matches_golden(self, gen6_filtered):
        # the report does not depend on the order the generators come in
        shuffled = list(gen6_filtered.identities)
        random.Random(0).shuffle(shuffled)
        gen = liftgen.GenerationSet(6, tuple(shuffled), filtered=True)
        reports = pipeline.analyze_degree(6, GF101, "all", generation=gen)
        assert pipeline.report_payload(6, reports, len(gen)) == json.loads(data_text("report_d6_c101_all.json"))

    def test_degree6_sign_over_QQ(self, gen6_filtered):
        (rep,) = pipeline.analyze_degree(6, QQ, "sign", generation=gen6_filtered)
        assert rep.contains is True


# -- resource caps ----------------------------------------------------------------


class TestCaps:
    def test_row_cap_aborts(self):
        gen = liftgen.generate(4)
        red, status = pipeline.reduce_identities(
            gen, symrep.Partition((2, 1, 1)), GF101, ResourceCaps(max_rows=1)
        )
        assert status == "aborted-rows"
        assert red.rank > 1

    def test_time_cap_aborts(self):
        gen = liftgen.generate(4)
        _, status = pipeline.reduce_identities(
            gen, symrep.Partition((2, 1, 1)), GF101, ResourceCaps(max_seconds=0.0)
        )
        assert status == "aborted-time"

    def test_aborted_report(self):
        reports = pipeline.analyze_degree(
            4, GF101, "all", generation=liftgen.generate(4), caps=ResourceCaps(max_rows=1)
        )
        assert {rep.status for rep in reports} == {"aborted-rows"}
        assert all(rep.contains is None for rep in reports)
        assert all(rep.a_rank is None and rep.c_rank is None for rep in reports)

    def test_aborted_report_records_progress(self):
        gen = liftgen.generate(4)
        # the elimination order: fewest terms first, ties in generation order
        order = sorted(gen.identities, key=lambda ident: len(ident.polynomial))
        reports = pipeline.analyze_degree(4, GF101, "all", generation=gen, caps=ResourceCaps(max_rows=1))
        for rep in reports:
            # the abort follows the first identity that takes the rank past the cap
            k = rep.identities_consumed
            before, after = (
                pipeline.reduce_identities(liftgen.GenerationSet(4, tuple(order[:j])), rep.partition, GF101)[0]
                for j in (k - 1, k)
            )
            assert before.rank <= 1 < after.rank == rep.rank_reached
        assert {rep.identities_consumed for rep in reports} == {1, 2}
        timings = pipeline.timings_payload(reports)
        assert [(e["rank_reached"], e["identities_consumed"]) for e in timings["partitions"]] == [
            (rep.rank_reached, rep.identities_consumed) for rep in reports]
        payload = pipeline.report_payload(4, reports, generated=len(gen))
        assert all(set(e) == {"partition", "dim", "status", "a_rank", "c_rank", "contains", "new_rows"}
                   for e in payload["partitions"])
        # a finished partition records neither
        (done,) = pipeline.analyze_degree(4, GF101, "sign", generation=gen, caps=ResourceCaps(max_rows=5))
        assert (done.status, done.rank_reached, done.identities_consumed) == ("ok", None, None)

    def test_negative_caps_rejected(self):
        with pytest.raises(ValueError, match="max_rows must be non-negative, got -1"):
            ResourceCaps(max_rows=-1)
        with pytest.raises(ValueError, match="max_seconds must be non-negative, got -0.5"):
            ResourceCaps(max_seconds=-0.5)
        with pytest.raises(ValueError, match="max_seconds must be non-negative, got nan"):
            ResourceCaps(max_seconds=float("nan"))
        for bad in (2.5, True):
            with pytest.raises(ValueError, match=f"max_rows must be an int, got {bad!r}"):
                ResourceCaps(max_rows=bad)
        # an infinite time cap is no limit
        assert ResourceCaps(max_seconds=float("inf")).max_seconds == float("inf")
        # zero caps abort at once, and are kept for that
        assert ResourceCaps(max_rows=0, max_seconds=0.0) == ResourceCaps(0, 0.0)

    def test_uncapped_default(self):
        reports = pipeline.analyze_degree(4, GF101, "sign", generation=liftgen.generate(4))
        assert reports[0].status == "ok"


# -- selection and validation ------------------------------------------------------


class TestSelection:
    def test_partition_list(self):
        gen = liftgen.generate(4)
        reports = pipeline.analyze_degree(4, GF101, ["2^2", "1^4"], generation=gen)
        assert [rep.partition.render() for rep in reports] == ["2^2", "1^4"]

    def test_partition_objects(self):
        gen = liftgen.generate(4)
        reports = pipeline.analyze_degree(
            4, GF101, [symrep.Partition((3, 1))], generation=gen
        )
        assert reports[0].partition == symrep.Partition((3, 1))

    def test_wrong_n_partition(self):
        with pytest.raises(ValueError, match="not a partition of"):
            pipeline.analyze_degree(4, GF101, ["2+1"], generation=liftgen.generate(4))

    def test_wrong_n_partition_rejected_before_its_parts(self):
        # the size is read off the text: a million parts are never built
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="^partition 1\\^3000000 is not a partition of 4$"):
                pipeline.select_partitions(4, ["1^3000000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize("partitions", [["3+2"], ["6", "4+1+1", "7"]])
    def test_wrong_n_partition_rejected_before_generation(self, monkeypatch, partitions):
        # building the degree-6 set runs the rank filter over 252 identities
        def never(*args, **kwargs):
            raise AssertionError("generation ran for a partition of the wrong degree")

        monkeypatch.setattr(pipeline, "default_generation", never)
        with pytest.raises(ValueError, match="is not a partition of 6"):
            pipeline.analyze_degree(6, GF101, partitions)

    @pytest.mark.parametrize("partitions, message", [
        ([], "no partition selected"),
        (["3+1", "2^2", "3+1"], "partition 3\\+1 is selected twice"),
        ([symrep.Partition((1,) * 4), "1^4"], "partition 1\\^4 is selected twice"),
    ])
    def test_empty_or_repeated_selection_rejected_before_generation(self, monkeypatch, partitions, message):
        def never(*args, **kwargs):
            raise AssertionError("generation ran for an unusable selection")

        monkeypatch.setattr(pipeline, "default_generation", never)
        with pytest.raises(ValueError, match=message):
            pipeline.analyze_degree(4, GF101, partitions)

    def test_jobs_give_the_serial_reports(self):
        serial = pipeline.analyze_degree(5, GF101, "all", jobs=1)
        pooled = pipeline.analyze_degree(5, GF101, "all", jobs=2)
        generated = len(pipeline.default_generation(5))
        assert pipeline.report_payload(5, pooled, generated) == pipeline.report_payload(5, serial, generated)

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_bad_jobs_rejected_before_generation(self, monkeypatch, jobs):
        def never(*args, **kwargs):
            raise AssertionError("generation ran with an unusable worker count")

        monkeypatch.setattr(pipeline, "default_generation", never)
        with pytest.raises(ValueError, match=f"^jobs must be at least 1, got {jobs}$"):
            pipeline.analyze_degree(4, GF101, jobs=jobs)

    def test_degree_range(self):
        with pytest.raises(ValueError, match="degrees 4 through 8"):
            pipeline.analyze_degree(3)
        with pytest.raises(ValueError, match="degrees 4 through 8"):
            pipeline.analyze_degree(9)

    def test_generation_degree_mismatch(self):
        with pytest.raises(ValueError, match="degree-4 generation"):
            pipeline.analyze_degree(5, GF101, "sign", generation=liftgen.generate(4))

    @pytest.mark.parametrize("p", [2, 3])
    def test_characteristic_at_most_degree_rejected(self, p, monkeypatch):
        # over GF(2) every partition of 4 would report a new identity; each
        # entry point refuses such a field before it generates or reduces
        def never(*args, **kwargs):
            raise AssertionError("work started for an unusable characteristic")

        field = FieldSpec(p)
        gen = liftgen.generate(4)
        pi = symrep.Partition((1,) * 4)
        message = r"characteristic must be 0 or a prime > 4"
        monkeypatch.setattr(pipeline, "default_generation", never)
        with pytest.raises(ValueError, match=message):
            pipeline.analyze_degree(4, field)
        monkeypatch.setattr(IncrementalReducer, "append", never)
        with pytest.raises(ValueError, match=message):
            pipeline.analyze_degree(4, field, generation=gen)
        with pytest.raises(ValueError, match=message):
            pipeline.reduce_identities(gen, pi, field)
        with pytest.raises(ValueError, match=message):
            pipeline.analyze_partition(pi, gen, field, None)
        with pytest.raises(ValueError, match=message):
            pipeline.certify_new(ExplicitIdentity(4, ((1, 1),)), 4, field)

    def test_default_generation_small(self):
        assert len(pipeline.default_generation(4)) == 6
        assert len(pipeline.default_generation(5)) == 36
        assert not pipeline.default_generation(5).filtered
        assert len(liftgen.generate(6)) == 252

    def test_default_generation_above_degree8(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("generation ran above degree 8")

        monkeypatch.setattr(liftgen, "generate", never)
        monkeypatch.setattr(liftgen, "filter_redundant", never)
        with pytest.raises(ValueError, match="above degree 8"):
            pipeline.default_generation(9)

    def test_default_generation_never_filters(self, monkeypatch):
        # degrees 6 and 7 replay the packaged lineages, and degree 8 lifts them
        def never(*args, **kwargs):
            raise AssertionError("filter_redundant ran")

        monkeypatch.setattr(pipeline, "_GENERATIONS", {})
        monkeypatch.setattr(liftgen, "filter_redundant", never)
        assert {n: len(pipeline.default_generation(n)) for n in (6, 7, 8)} == {6: 48, 7: 154, 8: 1616}
        assert pipeline.default_generation(6).filtered and pipeline.default_generation(7).filtered
        assert pipeline.default_generation(8) is pipeline.default_generation(8)

    def test_stored_lineage_must_replay_to_its_degree(self, monkeypatch):
        doc = json.loads(data_text("lineages.json"))
        doc["7"][3] = doc["6"][0]
        monkeypatch.setattr(pipeline, "_GENERATIONS", {})
        monkeypatch.setattr(pipeline, "data_text", lambda name: json.dumps(doc))
        with pytest.raises(ValueError, match="does not replay to degree 7"):
            pipeline.default_generation(7)


class TestStoredLineages:
    """The packaged lineages default_generation replays cannot drift from
    bench/lineages.json or from what the filter keeps."""

    def test_packaged_copy_is_the_bench_file(self):
        packaged = resources.files("lyident") / "data" / "lineages.json"
        assert packaged.read_bytes() == (Path(__file__).parents[1] / "bench" / "lineages.json").read_bytes()

    def test_lineages_are_the_filters(self, gen6_filtered, gen7_filtered, monkeypatch):
        stored = json.loads(data_text("lineages.json"))
        assert sorted(stored) == ["6", "7"]
        for gen in (gen6_filtered, gen7_filtered):
            lineages = [tuple(tuple(step) for step in steps) for steps in stored[str(gen.degree)]]
            assert lineages == [ident.lineage for ident in gen.identities], gen.degree
        monkeypatch.setattr(pipeline, "_GENERATIONS", {})
        assert pipeline.default_generation(6) == gen6_filtered
        assert pipeline.default_generation(7) == gen7_filtered


# -- reports ------------------------------------------------------------------------


class TestReports:
    def test_payload_shape(self):
        reports = pipeline.analyze_degree(4, GF101, "all", generation=liftgen.generate(4))
        payload = pipeline.report_payload(4, reports, generated=6)
        assert payload["degree"] == 4
        assert payload["characteristic"] == 101
        assert payload["identities"] == 6
        assert len(payload["partitions"]) == 5
        first = payload["partitions"][0]
        assert set(first) == {"partition", "dim", "status", "a_rank", "c_rank", "contains", "new_rows"}
        assert "seconds" not in first

    def test_timings_separate(self):
        reports = pipeline.analyze_degree(4, GF101, "sign", generation=liftgen.generate(4))
        timings = pipeline.timings_payload(reports)
        assert list(timings["partitions"][0]) == ["partition", "seconds"]

    def test_entry_strings_exact(self):
        rep = pipeline.PartitionReport(
            symrep.Partition((1, 1, 1)), 1, QQ, 1, 0,
            ((Fraction(-3, 2), Fraction(2)),), "ok", 0.5,
        )
        payload = pipeline.report_payload(3, [rep], generated=1)
        assert payload["partitions"][0]["new_rows"] == [["-3/2", "2"]]


# -- degree 8, sign representation -------------------------------------------------
#
# The 23 binary types in column order put the identity's terms at columns
# 4, 7, 9, 10, 14, 18, 20, 21. Rows of A with pivots at the ten columns whose
# types admit an even skew generator coincide with B; the row with pivot 4 is
# the one identity beyond anticommutativity.

A8_PIVOTS = (1, 2, 3, 4, 5, 8, 11, 13, 16, 19, 22)
B8_PIVOTS = (1, 2, 3, 5, 8, 11, 13, 16, 19, 22)
THEOREM_TERMS = (
    (4, Fraction(1)),
    (7, Fraction(-3, 2)),
    (9, Fraction(-1)),
    (10, Fraction(1)),
    (14, Fraction(2)),
    (18, Fraction(3)),
    (20, Fraction(2)),
    (21, Fraction(-2)),
)


def unit_row(pivot: int, cols: int = 23) -> list[Fraction]:
    row = [Fraction(0)] * cols
    row[pivot - 1] = Fraction(1)
    return row


def expected_A8() -> list[list[Fraction]]:
    rows = []
    for p in A8_PIVOTS:
        if p == 4:
            row = [Fraction(0)] * 23
            for j, coeff in THEOREM_TERMS:
                row[j - 1] = coeff
            rows.append(row)
        else:
            rows.append(unit_row(p))
    return rows


def expected_B8() -> list[list[Fraction]]:
    return [unit_row(p) for p in B8_PIVOTS]


def load_golden(name: str) -> list[list[Fraction]]:
    """A stored matrix under tests/data: a 'rows cols characteristic'
    header, then the entries row by row."""
    tokens = (DATA / name).read_text(encoding="utf-8").split()
    rows, cols, char = (int(t) for t in tokens[:3])
    assert char == 0
    entries = [Fraction(t) for t in tokens[3:]]
    assert len(entries) == rows * cols
    return [entries[i * cols : (i + 1) * cols] for i in range(rows)]


class TestDegree8Sign:
    @pytest.fixture(scope="class")
    def sign_reports(self, gen8):
        return pipeline.analyze_degree(8, QQ, "sign", generation=gen8)

    def test_binary_block_rows(self, gen8):
        sign = symrep.Partition((1,) * 8)
        red, status = pipeline.reduce_identities(gen8, sign, QQ)
        assert status == "ok"
        assert red.tail_rows(354 - 23) == expected_A8()

    def test_progress_every_256_identities(self, gen8, caplog):
        sign = symrep.Partition((1,) * 8)
        caplog.set_level(logging.INFO, logger=pipeline.log.name)
        red, _ = pipeline.reduce_identities(gen8, sign, GF101)
        line = re.compile(r"^degree 8 partition 1\^8: (\d+) of 1616 identities, rank (\d+) \(\d+\.\ds, ETA \d+\.\ds\)$")
        progress = [line.match(record.getMessage()) for record in caplog.records]
        assert all(progress)
        assert [int(m[1]) for m in progress] == [256, 512, 768, 1024, 1280, 1536]
        ranks = [int(m[2]) for m in progress]
        assert ranks == sorted(ranks) and ranks[-1] <= red.rank
        # a line at each multiple of 256 consumed, none in between
        caplog.clear()
        for k in (255, 256):
            pipeline.reduce_identities(liftgen.GenerationSet(8, gen8.identities[:k]), sign, GF101)
        assert [record.getMessage().split(",")[0] for record in caplog.records] == [
            "degree 8 partition 1^8: 256 of 256 identities"]

    def test_skew_matrix(self):
        B = pipeline._skew_reducer(symrep.RepTable(symrep.Partition((1,) * 8)), 8, QQ)
        assert B.tail_rows(0) == expected_B8()

    def test_one_new_identity(self, sign_reports):
        (rep,) = sign_reports
        assert rep.status == "ok"
        assert rep.a_rank == 11
        assert rep.c_rank == 10
        assert len(rep.new_rows) == 1
        assert rep.contains is False

    def test_second_prime_agrees_with_rationals(self, sign_reports, gen8):
        (qq,) = sign_reports
        p = 2**31 - 1
        (gf,) = pipeline.analyze_degree(8, FieldSpec(p), "sign", generation=gen8)
        assert (gf.status, gf.a_rank, gf.c_rank) == ("ok", qq.a_rank, qq.c_rank)
        mod_p = tuple(Fraction(x).numerator * pow(Fraction(x).denominator, -1, p) % p for x in qq.new_rows[0])
        assert gf.new_rows == (mod_p,)

    def test_reconstruction(self, sign_reports):
        (rep,) = sign_reports
        ident = pipeline.reconstruct_identity(rep.new_rows[0], 8)
        assert ident.terms == THEOREM_TERMS
        rendered = ident.render()
        assert "[[[[a,b],c],[d,e]],[[f,g],h]]" in rendered.splitlines()[1]

    def test_certified_new(self, sign_reports, gen8):
        (rep,) = sign_reports
        ident = pipeline.reconstruct_identity(rep.new_rows[0], 8)
        res = pipeline.certify_new(ident, 8, QQ, generation=gen8)
        assert res.not_anticommutative_consequence is True
        assert res.is_LY_consequence is True

    def test_expansion_round_trip(self):
        # expand the alternating identity (doubled to clear the one half-
        # integral coefficient), project back to the sign representation,
        # and recover the normalized row
        doubled = ExplicitIdentity(8, tuple((j, int(2 * c)) for j, c in THEOREM_TERMS))
        poly = alternation_polynomial(doubled)
        table = symrep.RepTable(symrep.Partition((1,) * 8))
        (row,) = dense_rows(next(liftgen.identity_rows([poly], table)), 354)
        assert not any(row[: 354 - 23])
        binary = row[354 - 23 :]
        lead = next(x for x in binary if x)
        normalized = [Fraction(x, lead) for x in binary]
        row4 = [Fraction(0)] * 23
        for j, coeff in THEOREM_TERMS:
            row4[j - 1] = coeff
        assert normalized == row4


# -- stored goldens ------------------------------------------------------------------


class TestStoredMatrices:
    def test_matrix_files_match(self):
        assert load_golden("sign8_lifted_rcf.txt") == expected_A8()
        assert load_golden("sign8_skew_rcf.txt") == expected_B8()

    def test_identity_is_the_new_row(self):
        # the one consequence row outside the skew row space is the stored
        # identity
        skew = reduced(load_golden("sign8_skew_rcf.txt"), 23, QQ)
        new = [row for row in load_golden("sign8_lifted_rcf.txt") if not skew.contains(row)]
        assert len(new) == 1
        assert pipeline.reconstruct_identity(new[0], 8) == cli.bundled_identity()
