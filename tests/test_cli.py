"""Command-line surface: output shapes, exit codes, file formats; and the
names each module exports."""

import ast
import dataclasses
import importlib
import inspect
import json
import pkgutil
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import lyident
from lyident import cli, evallab, exactla, freealg, pipeline, symrep
from lyident._data import data_text
from lyident.exactla import GF101

F = Fraction


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTypes:
    def test_degree5_lists_all_thirteen(self, capsys):
        code, out, _ = run(capsys, "types", "--degree", "5")
        lines = out.splitlines()
        assert code == 0 and len(lines) == 13
        assert lines[0].split() == ["1", "<--<--->>"]
        assert lines[12].split() == ["13", "[[[[--]-]-]-]"]

    def test_degree8_binary_block(self, capsys):
        code, out, _ = run(capsys, "types", "--degree", "8", "--class", "binary")
        lines = out.splitlines()
        assert code == 0 and len(lines) == 23
        assert lines[0].startswith("   1  ")
        assert lines[22].startswith("  23  ")

    def test_rendered_letters(self, capsys):
        code, out, _ = run(capsys, "types", "--degree", "8", "--class", "binary", "--render")
        lines = out.splitlines()
        assert lines[3].split(None, 1) == ["4", "[[[[a,b],c],[d,e]],[[f,g],h]]"]

    def test_degree1_single_leaf(self, capsys):
        code, out, _ = run(capsys, "types", "--degree", "1", "--render")
        assert code == 0 and out.splitlines() == ["   1  a"]

    def test_bad_degree_is_an_error(self, capsys):
        code, _, err = run(capsys, "types", "--degree", "0")
        assert code == 1 and "error" in err


class TestCounts:
    def test_table_values(self, capsys):
        code, out, _ = run(capsys, "counts", "--max-degree", "12")
        lines = out.splitlines()
        assert code == 0 and len(lines) == 13
        rows = [line.split() for line in lines[1:]]
        assert [int(r[1]) for r in rows] == [
            1, 1, 2, 5, 13, 38, 113, 354, 1128, 3688, 12229, 41161,
        ]
        n8 = rows[7]
        assert n8 == ["8", "354", "23", "0", "331", "2609145", "18144"]
        assert rows[0][6] == "-"  # no lifted generators below degree 4


class TestAnalyze:
    def test_degree4_report_deterministic(self, capsys, tmp_path):
        r1, r2 = tmp_path / "a.json", tmp_path / "b.json"
        code1, out1, _ = run(capsys, "analyze", "--degree", "4", "--char", "101",
                             "--report", str(r1))
        code2, out2, _ = run(capsys, "analyze", "--degree", "4", "--char", "101",
                             "--report", str(r2))
        assert code1 == code2 == 0
        assert r1.read_bytes() == r2.read_bytes()
        assert out1 == out2
        payload = json.loads(r1.read_text())
        assert payload["degree"] == 4 and payload["identities"] == 6
        assert len(payload["partitions"]) == 5
        assert all(p["contains"] is True for p in payload["partitions"])
        assert "seconds" not in json.dumps(payload)

    def test_timings_segregated(self, capsys, tmp_path):
        report, timings = tmp_path / "r.json", tmp_path / "t.json"
        code, _, _ = run(capsys, "analyze", "--degree", "4", "--char", "101",
                         "--partitions", "sign", "--report", str(report),
                         "--timings", str(timings))
        assert code == 0
        clocked = json.loads(timings.read_text())
        assert [p["partition"] for p in clocked["partitions"]] == ["1^4"]
        assert all("seconds" in p for p in clocked["partitions"])

    def test_verbose_logs_one_line_per_partition(self, capsys, tmp_path):
        quiet, loud = tmp_path / "quiet.json", tmp_path / "loud.json"
        code1, out1, err1 = run(capsys, "analyze", "--degree", "4", "--report", str(quiet))
        code2, out2, err2 = run(capsys, "analyze", "--degree", "4", "--verbose",
                                "--report", str(loud))
        assert code1 == code2 == 0
        assert err1 == ""
        lines = err2.splitlines()
        assert [line.split()[:4] for line in lines] == [
            ["degree", "4", "partition", f"{pi}:"] for pi in ("4", "3+1", "2^2", "2+1^2", "1^4")
        ]
        assert out1 == out2
        assert quiet.read_bytes() == loud.read_bytes()

    def test_verbose_logs_aborted_partitions(self, capsys, tmp_path):
        quiet, loud, clocked = tmp_path / "quiet.json", tmp_path / "loud.json", tmp_path / "t.json"
        code1, out1, err1 = run(capsys, "analyze", "--degree", "4", "--max-rows", "1",
                                "--report", str(quiet))
        code2, out2, err2 = run(capsys, "analyze", "--degree", "4", "--max-rows", "1",
                                "--verbose", "--report", str(loud), "--timings", str(clocked))
        assert code1 == code2 == 3
        assert err1 == "analysis aborted by resource cap\n"
        lines = err2.splitlines()
        assert lines[-1] == "analysis aborted by resource cap"
        # one line per partition: the status, the rank reached and the
        # identities consumed
        payload = json.loads(clocked.read_text())
        assert [line.split(" (")[0] for line in lines[:-1]] == [
            f"degree 4 partition {p['partition']}: aborted-rows at rank {p['rank_reached']}"
            f" after {p['identities_consumed']} identities"
            for p in payload["partitions"]
        ]
        assert len(lines[:-1]) == 5
        assert out1 == out2
        assert quiet.read_bytes() == loud.read_bytes()

    def test_jobs_match_sequential(self, capsys, tmp_path):
        # the workers receive the FieldSpec itself
        for char, jobs in (("101", "3"), ("131", "2")):
            seq, par = tmp_path / f"seq{char}.json", tmp_path / f"par{char}.json"
            code1, _, _ = run(capsys, "analyze", "--degree", "4", "--char", char,
                              "--report", str(seq))
            code2, _, _ = run(capsys, "analyze", "--degree", "4", "--char", char,
                              "--jobs", jobs, "--report", str(par))
            assert code1 == code2 == 0
            assert seq.read_bytes() == par.read_bytes()
            assert json.loads(par.read_text())["characteristic"] == int(char)

    def test_partition_list_selector(self, capsys, tmp_path):
        report = tmp_path / "r.json"
        code, out, _ = run(capsys, "analyze", "--degree", "4", "--char", "0",
                           "--partitions", "2^2,1^4", "--report", str(report))
        assert code == 0
        payload = json.loads(report.read_text())
        assert [p["partition"] for p in payload["partitions"]] == ["2^2", "1^4"]
        assert payload["characteristic"] == 0

    def test_resource_abort_exits_3(self, capsys, tmp_path):
        report = tmp_path / "r.json"
        code, _, err = run(capsys, "analyze", "--degree", "5", "--char", "101",
                           "--partitions", "sign", "--max-rows", "1",
                           "--report", str(report))
        assert code == 3
        assert "resource cap" in err
        payload = json.loads(report.read_text())
        assert payload["partitions"][0]["status"] == "aborted-rows"
        assert payload["partitions"][0]["contains"] is None

    def test_small_characteristic_rejected(self, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("generation ran for an unusable characteristic")

        monkeypatch.setattr(pipeline, "default_generation", never)
        for char in ("3", "4", "-2"):
            code, out, err = run(capsys, "analyze", "--degree", "4", "--char", char)
            assert (code, out, err) == (1, "", "error: characteristic must be 0 or a prime > 4\n")

    def test_non_prime_characteristic_rejected(self, capsys):
        code, _, err = run(capsys, "analyze", "--degree", "4", "--char", "100")
        assert code == 1 and "prime" in err

    def test_characteristic_above_127_runs(self, capsys, tmp_path):
        report = tmp_path / "r.json"
        code, out, _ = run(capsys, "analyze", "--degree", "5", "--char", "131",
                           "--report", str(report))
        assert code == 0 and len(out.splitlines()) == 7
        assert json.loads(report.read_text())["characteristic"] == 131

    def test_large_composite_rejected_before_generation(self, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("generation ran for an unusable characteristic")

        monkeypatch.setattr(pipeline, "default_generation", never)
        # 2^61 + 1 = 3 * 768614336404564651
        code, _, err = run(capsys, "analyze", "--degree", "6", "--char", str(2**61 + 1))
        assert code == 1 and "error" in err and "prime" in err

    @pytest.mark.parametrize("degree", ["3", "9"])
    def test_degree_out_of_range_rejected_before_generation(self, capsys, monkeypatch, degree):
        def never(*args, **kwargs):
            raise AssertionError("generation ran for an unsupported degree")

        monkeypatch.setattr(pipeline, "default_generation", never)
        code, _, err = run(capsys, "analyze", "--degree", degree)
        assert code == 1 and "error" in err and "degrees 4 through 8" in err

    @pytest.mark.parametrize("flag, value, message", [
        ("--jobs", "0", "jobs must be at least 1, got 0"),
        ("--jobs", "-3", "jobs must be at least 1, got -3"),
        ("--max-rows", "-1", "max_rows must be non-negative, got -1"),
        ("--max-seconds", "-5", "max_seconds must be non-negative, got -5.0"),
        ("--max-seconds", "nan", "max_seconds must be non-negative, got nan"),
        ("--partitions", ",", "no partition selected"),
        ("--partitions", "3+1,3+1", "partition 3+1 is selected twice"),
        ("--partitions", "2^0+4", "cannot parse partition '2^0+4'"),
    ])
    def test_bad_jobs_and_caps_rejected_before_generation(self, capsys, monkeypatch, flag, value, message):
        def never(*args, **kwargs):
            raise AssertionError("generation ran with an unusable option")

        monkeypatch.setattr(pipeline, "default_generation", never)
        code, out, err = run(capsys, "analyze", "--degree", "4", flag, value)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_reference_match_and_mismatch(self, capsys, tmp_path, monkeypatch):
        report = tmp_path / "r.json"
        code, _, _ = run(capsys, "analyze", "--degree", "4", "--char", "101",
                         "--report", str(report))
        assert code == 0
        reference = report.read_text()

        monkeypatch.setattr(cli, "bundled_report", lambda *a: reference)
        code, out, _ = run(capsys, "analyze", "--degree", "4", "--char", "101")
        assert code == 0 and "matches the bundled reference report" in out

        monkeypatch.setattr(cli, "bundled_report", lambda *a: reference + "tampered")
        code, _, err = run(capsys, "analyze", "--degree", "4", "--char", "101")
        assert code == 2 and "MISMATCH" in err

    def test_missing_golden_is_an_error(self, capsys, monkeypatch):
        def missing(name):
            raise FileNotFoundError(f"no bundled file {name}")

        monkeypatch.setattr(cli, "data_text", missing)
        monkeypatch.setitem(cli._REPORT_GOLDENS, (4, 101, "all"), "report_d4.json")
        code, out, err = run(capsys, "analyze", "--degree", "4", "--char", "101")
        assert code == 1 and "matches" not in out
        assert err == "error: no bundled file report_d4.json\n"


class TestIdentity:
    def test_below_degree8(self, capsys):
        code, out, _ = run(capsys, "identity", "--degree", "7")
        assert code == 0
        assert out.strip() == "no such identity exists below degree 8"

    def test_above_degree8(self, capsys):
        code, _, err = run(capsys, "identity", "--degree", "9")
        assert code == 1 and "out of scope" in err

    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "identity", "--degree", "8")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == ("sum over all sigma in S_8, with sign eps(sigma), "
                            "applied to the variables of:")
        assert lines[1].split(None, 2)[1:] == ["1", "[[[[a,b],c],[d,e]],[[f,g],h]]"]
        assert len(lines) == 9

    def test_file_output_round_trips(self, capsys, tmp_path):
        out_path = tmp_path / "identity.txt"
        code, _, _ = run(capsys, "identity", "--degree", "8", "--format", "file",
                         "--out", str(out_path))
        assert code == 0
        parsed = cli.parse_identity_text(out_path.read_text())
        assert parsed == cli.bundled_identity()
        assert out_path.read_text() == data_text("identity_d8.txt")

    def test_bundled_identity_terms(self):
        ident = cli.bundled_identity()
        assert ident.degree == 8 and ident.alternating
        assert ident.terms == (
            (4, F(1)), (7, F(-3, 2)), (9, F(-1)), (10, F(1)),
            (14, F(2)), (18, F(3)), (20, F(2)), (21, F(-2)),
        )


class TestIdentityFormat:
    def test_round_trip_every_field(self):
        ident = pipeline.ExplicitIdentity(6, ((2, F(5, 3)), (6, F(-1))))
        text = cli.identity_text(ident)
        assert cli.parse_identity_text(text) == ident

    def test_polynomial_file(self):
        text = "degree 3\nterm 2 123 1\nterm 2 132 -1\n"
        poly = cli.parse_identity_text(text)
        expected = freealg.expand([
            (F(1), (2, (2, 1, 2), 3)), (F(-1), (2, (2, 1, 3), 2)),
        ])
        assert poly == expected

    def test_comments_and_blanks_ignored(self):
        text = "# header\ndegree 8\n\ncharacteristic 0\nalternating true\nterm 335 12345678 1\n"
        assert cli.parse_identity_text(text).terms == ((4, F(1)),)

    def test_errors(self):
        with pytest.raises(ValueError, match="missing degree"):
            cli.parse_identity_text("term 1 12 1\n")
        with pytest.raises(ValueError, match="no terms"):
            cli.parse_identity_text("degree 3\n")
        with pytest.raises(ValueError, match="out of range"):
            cli.parse_identity_text("degree 3\nterm 99 123 1\n")
        with pytest.raises(ValueError, match="bad permutation"):
            cli.parse_identity_text("degree 3\nterm 2 122 1\n")
        with pytest.raises(ValueError, match="identity permutations on binary types"):
            cli.parse_identity_text("degree 3\nalternating true\nterm 1 123 1\n")
        with pytest.raises(ValueError, match="cannot parse"):
            cli.parse_identity_text("degree 3\nterm 2\n")
        with pytest.raises(ValueError, match="characteristic 0"):
            cli.parse_identity_text("degree 3\ncharacteristic 7\nterm 2 123 1\n")
        # a bad value is a line error like a bad keyword, never a KeyError,
        # ZeroDivisionError or RecursionError
        with pytest.raises(ValueError, match="line 2: cannot parse 'alternating yes'"):
            cli.parse_identity_text("degree 3\nalternating yes\nterm 2 123 1\n")
        with pytest.raises(ValueError, match="line 2: cannot parse 'term 2 123 1/0'"):
            cli.parse_identity_text("degree 3\nterm 2 123 1/0\n")
        with pytest.raises(ValueError, match="line 1: cannot parse 'degree 0'"):
            cli.parse_identity_text("degree 0\nterm 1 1 1\n")

    def test_degree_above_nine_rejected_at_its_line(self, monkeypatch):
        # PERM has one digit per variable, so no file can hold degree 10 or
        # more; the header fails before any type of that degree is counted
        def never(n):
            raise AssertionError(f"types of degree {n} were counted")

        monkeypatch.setattr(freealg, "count_types", never)
        with pytest.raises(ValueError, match="line 1: cannot parse 'degree 40'"):
            cli.parse_identity_text("degree 40\nterm 1 1 1\n")


class TestVerify:
    @pytest.fixture()
    def theorem_file(self, tmp_path):
        path = tmp_path / "identity.txt"
        path.write_text(data_text("identity_d8.txt"))
        return str(path)

    def test_passes_on_every_bundled_algebra(self, capsys, theorem_file):
        for name in evallab.BUNDLED:
            code, out, _ = run(capsys, "verify", "--identity", theorem_file,
                               "--algebra", name, "--trials", "3", "--seed", "7")
            assert code == 0 and out.startswith("PASS"), name

    def test_vacuous_check_is_noted(self, capsys, theorem_file):
        code, out, _ = run(capsys, "verify", "--identity", theorem_file,
                           "--algebra", "cross_product", "--trials", "2", "--seed", "0")
        assert code == 0 and out.startswith("PASS")
        assert "vacuous" in out and "alternating 8-linear map vanishes in dimension 3" in out

    def test_skipped_basis_tuples_are_named(self, capsys, tmp_path):
        # 32^4 basis tuples exceed the exhaustive limit, so only the trials run
        algebra = tmp_path / "algebra.json"
        algebra.write_text(json.dumps({
            "dimension": 32, "construction": "lie",
            "bilinear": [[1, 2, 3, 1], [2, 1, 3, -1], [2, 3, 1, 1], [3, 2, 1, -1],
                         [3, 1, 2, 1], [1, 3, 2, -1]],
        }))
        path = tmp_path / "skew.txt"  # [[x1,x2],[x3,x4]] + [[x2,x1],[x3,x4]]
        path.write_text("degree 4\nterm 4 1234 1\nterm 4 2134 1\n")
        code, out, _ = run(capsys, "verify", "--identity", str(path),
                           "--algebra", str(algebra), "--trials", "2", "--seed", "0")
        assert code == 0
        assert out == ("PASS: zero on 2 assignments (2 random, seed 0; "
                       "basis tuples skipped: 32^4 exceeds 1,000,000)\n")

    def test_malformed_identity_file_is_an_error(self, capsys, tmp_path):
        path = tmp_path / "identity.txt"
        path.write_text("degree 3\nalternating yes\nterm 2 123 1\n")
        code, out, err = run(capsys, "verify", "--identity", str(path), "--algebra", "zero")
        assert code == 1 and out == ""
        assert err.startswith("error: line 2: cannot parse 'alternating yes'")

    def test_repeated_term_type_is_an_error(self, capsys, tmp_path):
        # two term lines on one binary type: the file names the identity ambiguously
        index = freealg.count_types(3).all
        path = tmp_path / "identity.txt"
        path.write_text(f"degree 3\nalternating true\nterm {index} 123 1\nterm {index} 123 2\n")
        code, out, err = run(capsys, "verify", "--identity", str(path), "--algebra", "zero")
        assert code == 1 and out == ""
        assert err == "error: binary type index 1 appears twice\n"

    def test_alternating_check_in_full_dimension_has_no_note(self, capsys, tmp_path):
        # the alternation of [[x1,x2],x3] is twice the Jacobi sum, zero on a Lie bracket
        index = freealg.count_types(3).all
        path = tmp_path / "jacobi.txt"
        path.write_text(f"degree 3\nalternating true\nterm {index} 123 1\n")
        code, out, _ = run(capsys, "verify", "--identity", str(path),
                           "--algebra", "cross_product", "--trials", "3", "--seed", "0")
        assert code == 0 and out.startswith("PASS")
        assert "vacuous" not in out

    def test_fail_reports_witness(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("degree 3\nterm 2 123 1\nterm 2 132 -1\n")
        code, out, _ = run(capsys, "verify", "--identity", str(path),
                           "--algebra", "cross_product", "--trials", "4", "--seed", "3")
        assert code == 2
        assert out.startswith("FAIL")
        assert "x1 = (" in out and "value = (" in out
        code2, out2, _ = run(capsys, "verify", "--identity", str(path),
                             "--algebra", "cross_product", "--trials", "4", "--seed", "3")
        assert out2 == out  # deterministic under a fixed seed

    def test_random_phase_witness(self, capsys, tmp_path):
        # fractional inputs and value pin the exact arithmetic of a random trial
        path = tmp_path / "bad.txt"
        path.write_text("degree 3\nterm 2 123 1\nterm 2 132 -1\n")
        code, out, _ = run(capsys, "verify", "--identity", str(path),
                           "--algebra", "cross_product", "--trials", "4", "--seed", "3")
        assert code == 2
        assert out == ("FAIL after 1 assignments\n"
                       "  x1 = (-1, 1/2, 9)\n"
                       "  x2 = (-9/4, -1/2, -3/4)\n"
                       "  x3 = (2, 3/2, -1)\n"
                       "  value = (521/16, 49/4, 47/16)\n")

    def test_basis_phase_witness(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("degree 3\nterm 2 123 1\nterm 2 132 -1\n")
        code, out, _ = run(capsys, "verify", "--identity", str(path),
                           "--algebra", "cross_product", "--trials", "0")
        assert code == 2
        assert out == ("FAIL after 2 assignments\n"
                       "  x1 = (1, 0, 0)\n"
                       "  x2 = (1, 0, 0)\n"
                       "  x3 = (0, 1, 0)\n"
                       "  value = (0, -1, 0)\n")

    def test_no_trials_beyond_the_basis_limit_is_an_error(self, capsys, theorem_file, tmp_path):
        # 6^8 basis tuples exceed the exhaustive limit, so nothing would be evaluated
        algebra = tmp_path / "zero6.json"
        algebra.write_text(json.dumps({"dimension": 6, "construction": "direct",
                                       "bilinear": [], "trilinear": []}))
        code, out, err = run(capsys, "verify", "--identity", theorem_file,
                             "--algebra", str(algebra), "--trials", "0")
        assert code == 1 and out == ""
        assert err == ("error: nothing evaluated: no trials, and the 6^8 basis tuples "
                       "exceed 1,000,000\n")

    def test_negative_trials_is_an_error(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("degree 3\nterm 2 123 1\nterm 2 132 -1\n")
        code, out, err = run(capsys, "verify", "--identity", str(path),
                             "--algebra", "zero", "--trials", "-3")
        assert code == 1 and out == ""
        assert err.startswith("error: trials must be non-negative")

    def test_algebra_file_path(self, capsys, theorem_file, tmp_path):
        algebra = tmp_path / "algebra.json"
        algebra.write_text(data_text("algebras/nonlie_leibniz.json"))
        code, out, _ = run(capsys, "verify", "--identity", theorem_file,
                           "--algebra", str(algebra), "--trials", "2", "--seed", "0")
        assert code == 0 and out.startswith("PASS")

    def test_missing_file_is_error(self, capsys, theorem_file):
        code, _, err = run(capsys, "verify", "--identity", theorem_file,
                           "--algebra", "/nonexistent/algebra.json")
        assert code == 1 and "error" in err


class TestValidateAlgebra:
    def test_bundled_valid(self, capsys):
        for name in evallab.BUNDLED:
            code, out, _ = run(capsys, "validate-algebra", name)
            assert code == 0 and out.startswith("valid"), name

    def test_violations_reported(self, capsys, tmp_path):
        path = tmp_path / "nonjacobi.json"
        path.write_text(json.dumps({
            "dimension": 3,
            "construction": "lie",
            "bilinear": [[1, 2, 3, "1"], [2, 1, 3, "-1"], [1, 3, 1, "1"], [3, 1, 1, "-1"]],
        }))
        code, out, _ = run(capsys, "validate-algebra", str(path))
        assert code == 2
        assert "LY3 fails at (e1, e2, e3)" in out

    def test_rejected_construction_is_a_verdict(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dimension": 1, "construction": "leibniz", "product": [[1, 1, 1, "1"]]}')
        code, out, _ = run(capsys, "validate-algebra", str(path))
        assert code == 2 and out.startswith("invalid")

    @pytest.mark.parametrize("doc, message", [
        ({"dimension": 2, "construction": "lie", "bilinear": [[0, 1, 1, "1"], [1, 0, 1, "-1"]]},
         "indices must be integers in 1..2"),
        ({"dimension": 2, "construction": "lie", "bilinear": [[1, 3, 1, "1"]]},
         "indices must be integers in 1..2"),
        ({"construction": "lie", "bilinear": []}, "missing required field 'dimension'"),
        ({"dimension": 2, "construction": "lie", "bilinear": [[1, 2, 1, 0.1]]},
         "the coefficient must be an int or an exact string"),
        ({"dimension": 2, "construction": "lie", "trilinear": [[1, 1, 1, 1, "1"]]},
         "does not read trilinear"),
    ], ids=["index-0", "index-above-dim", "no-dimension", "float", "unread-table"])
    def test_malformed_file_is_rejected(self, capsys, tmp_path, doc, message):
        # an input error for both commands, unlike a rejected leibniz product
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(doc))
        identity = tmp_path / "jacobi.txt"
        identity.write_text("degree 3\nterm 2 123 1\n")
        for argv in (["validate-algebra", str(path)],
                     ["verify", "--identity", str(identity), "--algebra", str(path)]):
            code, out, err = run(capsys, *argv)
            assert code == 1 and out == "" and err.startswith("error: ") and message in err, argv

    def test_garbage_json_is_an_error(self, capsys, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{nope")
        code, _, err = run(capsys, "validate-algebra", str(path))
        assert code == 1 and "error" in err


def test_every_exported_name_resolves():
    # the benchmark's traced run wraps getattr(module, name) for every
    # __all__ entry, so a name left behind by a deletion breaks it
    for info in pkgutil.iter_modules(lyident.__path__):
        mod = importlib.import_module(f"lyident.{info.name}")
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"lyident.{info.name}.{name}"


def test_benchmark_spans_install_and_restore():
    # the benchmark's traced run patches library names from outside: a name
    # it patches that the library dropped must fail here, and uninstall must
    # put every original back
    root = Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(root / "bench"))
    try:
        spans = importlib.import_module("spans")
    finally:
        sys.path.remove(str(root / "bench"))
    owners = [*spans.MODULES, symrep.RepTable, exactla.IncrementalReducer]
    before = [dict(vars(owner)) for owner in owners]
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        pipeline.analyze_degree(5, GF101, "sign")
    finally:
        uninstall()
    after = [dict(vars(owner)) for owner in owners]
    for owner, old, new in zip(owners, before, after):
        assert old.keys() == new.keys(), owner
        assert [k for k in old if old[k] is not new[k]] == [], owner
    names = set(tracer.names)
    assert {"pipeline.analyze_degree", "symrep.RepTable.init", "exactla.append_gf", "exactla.tail_rows"} <= names
    assert spans.layer_metrics(tracer, 1)["symrep.RepTable.init.calls"][0] >= 1


def test_every_exported_name_is_used_outside_tests():
    # code that only the tests call belongs in the tests: every __all__
    # entry is read by the package itself, the benchmark or the entry points
    root = Path(__file__).resolve().parents[1]
    used = set()
    for path in [*(root / "src" / "lyident").glob("*.py"), *(root / "bench").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    pyproject = (root / "pyproject.toml").read_text(encoding="utf-8")
    unused = [
        f"lyident.{info.name}.{name}"
        for info in pkgutil.iter_modules(lyident.__path__)
        for name in getattr(importlib.import_module(f"lyident.{info.name}"), "__all__", ())
        if name not in used and not re.search(rf"\b{name}\b", pyproject)
    ]
    assert unused == []


def test_cli_reads_only_public_names_of_other_modules():
    # the command line is a client of the library: it reads no
    # <module>._<name> of another lyident module
    root = Path(__file__).resolve().parents[1]
    modules = {info.name for info in pkgutil.iter_modules(lyident.__path__)} - {"cli"}
    tree = ast.parse((root / "src" / "lyident" / "cli.py").read_text(encoding="utf-8"))
    private = sorted({
        f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules and node.attr.startswith("_") and not node.attr.startswith("__")
    })
    assert private == []


def test_every_bundled_data_file_is_used_by_the_package():
    # data that only the tests read lives under tests/data: every file under
    # src/lyident/data is named by a string in the package's code (docstrings
    # aside), or is a bundled algebra
    root = Path(__file__).resolve().parents[1]
    package = root / "src" / "lyident"
    named = set()
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        docstrings = {
            id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr) and isinstance(node.body[0].value, ast.Constant)
        }
        named |= {node.value for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings}
    data = package / "data"
    unused = [
        path.relative_to(data).as_posix() for path in sorted(data.rglob("*"))
        if path.is_file() and path.relative_to(data).as_posix() not in named
        and not (path.parent.name == "algebras" and path.suffix == ".json" and path.stem in evallab.BUNDLED)
    ]
    assert unused == []


def _public_members(cls) -> set[str]:
    """The public methods, properties, dataclass or NamedTuple fields and
    __slots__ entries that cls defines itself."""
    names = {*getattr(cls, "__slots__", ()), *getattr(cls, "_fields", ())}
    if dataclasses.is_dataclass(cls):
        names |= {f.name for f in dataclasses.fields(cls)}
    names |= {name for name, value in vars(cls).items()
              if inspect.isfunction(value) or isinstance(value, (property, staticmethod, classmethod))}
    return {name for name in names if not name.startswith("_")}


def test_every_exported_class_member_is_used_outside_tests():
    # the members of an exported class follow the same rule: each is read as
    # an attribute or passed as a keyword by the package, the benchmark or
    # the acceptance tests, which state the paper's criteria
    root = Path(__file__).resolve().parents[1]
    used = set()
    for path in [*(root / "src" / "lyident").glob("*.py"), *(root / "bench").glob("*.py"),
                 root / "tests" / "test_acceptance.py"]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.keyword):
                used.add(node.arg)
    unused = []
    for info in pkgutil.iter_modules(lyident.__path__):
        mod = importlib.import_module(f"lyident.{info.name}")
        for name in getattr(mod, "__all__", ()):
            cls = getattr(mod, name)
            if inspect.isclass(cls):
                unused += [f"lyident.{info.name}.{name}.{member}"
                           for member in sorted(_public_members(cls) - used)]
    assert unused == []
