import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wba
from wba.cli import _commutant_residual, _report_json, main
from wba.dense_ops import haar_unitary, sup_norm
from wba.sym_core import MAX_ENUM_DEGREE, Partition
from wba.wba_algebra import _element_record, admissible_pairs, f_projector, realize

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerifyProps:
    def test_only_prop5_passes(self, capsys):
        code, out, _ = run(capsys, "verify-props", "--only", "prop5", "--tuples", "3")
        assert code == 0
        assert "prop5" in out and "FAIL" not in out

    def test_unreachable_tolerance_fails(self, capsys):
        code, out, _ = run(capsys, "verify-props", "--only", "prop3", "--tuples", "3",
                           "--tolerance", "1e-30")
        assert code == 2
        assert "FAIL" in out

    def test_bad_filter(self, capsys):
        code, out, err = run(capsys, "verify-props", "--only", "nosuchgroup")
        assert code == 1 and out == ""
        assert err == "error: no cases match --only 'nosuchgroup'\n"

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "verify-props", "--only", "prop6", "--tuples", "2",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert all(case["passed"] for case in payload)


class TestProjector:
    def test_worked_example(self, capsys):
        code, out, _ = run(capsys, "projector", "--n", "4", "--k", "1", "--d", "2",
                           "--mu", "[2,1]", "--alpha", "[2]", "--unitaries", "3")
        assert code == 0
        assert "gamma = 1" in out
        assert "terms = 18" in out

    def test_second_example_gamma(self, capsys):
        code, out, _ = run(capsys, "projector", "--n", "5", "--k", "2", "--d", "2",
                           "--mu", "[2,1]", "--alpha", "[1]", "--unitaries", "2")
        assert code == 0
        assert "gamma = 3" in out

    def test_inadmissible_labels(self, capsys):
        code, _, err = run(capsys, "projector", "--n", "4", "--k", "1", "--d", "2",
                           "--mu", "[1,1,1]", "--alpha", "[1,1]")
        assert code == 2
        assert "not represented" in err

    def test_past_the_largest_enumerable_degree(self, capsys):
        # n - k one past the bound at k = 1: (9,1) [6,2]/[5,2] while the bound is 7
        m = MAX_ENUM_DEGREE + 1
        code, out, err = run(capsys, "projector", "--n", str(m + 1), "--k", "1", "--d", "2",
                             "--mu", f"[{m - 2},2]", "--alpha", f"[{m - 3},2]")
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_emit_map(self, capsys):
        code, out, _ = run(capsys, "projector", "--n", "4", "--k", "1", "--d", "2",
                           "--mu", "[2,1]", "--alpha", "[2]", "--unitaries", "2",
                           "--emit-map", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert float(payload["map_output_min_eig"]) >= -1e-8
        assert float(payload["idempotence_residual"]) < 1e-10

    def test_json_output_is_golden(self, capsys):
        code, out, _ = run(capsys, "projector", "--n", "4", "--k", "1", "--d", "2",
                           "--mu", "[2,1]", "--alpha", "[2]", "--unitaries", "3",
                           "--format", "json")
        assert code == 0
        assert out == (DATA / "projector_n4_k1_d2.json").read_text()


def _stdlib_report(report):
    return json.dumps(report, sort_keys=True, indent=2)


def _report(terms, n=4):
    """A projector report around the given term list, shaped as cmd_projector's."""
    return {"n": n, "k": 1, "d": 2, "mu": "[2,1]", "alpha": "[2]", "gamma": "1",
            "terms": len(terms), "idempotence_residual": "1e-16",
            "commutant_residual": "2e-16", "element": {"n": n, "terms": terms},
            "map_inputs": 2, "map_output_min_eig": "0.25"}


_PROJECTOR_CASES = [(n, k, d, mu, alpha) for n in range(2, 7) for k in (1, 2) for d in (2, 3)
                    if n >= 2 * k for alpha, mu in admissible_pairs(n, k, d)]


class TestReportJson:
    """_report_json writes the bytes of the stdlib's indented dump."""

    @pytest.mark.parametrize("n,k,d,mu,alpha", _PROJECTOR_CASES + [
        (7, 1, 2, Partition((4, 2)), Partition((3, 2)))])
    def test_projector_elements(self, n, k, d, mu, alpha):
        record = _element_record(f_projector(mu, alpha, n, k, d))
        report = _report(record["terms"], n)
        assert _report_json(report) == _stdlib_report(report)

    def test_every_small_pair_is_covered(self):
        assert len(_PROJECTOR_CASES) == 58

    @pytest.mark.parametrize("terms", [
        [],
        [{"coeff": [], "diagram": "()"}],
        [{"coeff": [{"im": 0.0, "power": 0, "re": 0.5}, {"im": -0.0, "power": 2, "re": -0.0},
                    {"im": 1e16, "power": 7, "re": 1e-300}], "diagram": "(1 2)^T{2}"},
         {"coeff": [], "diagram": "()"},
         {"coeff": [{"im": -1.25, "power": 1, "re": 1}], "diagram": "\u00e9 \"q\"\n"}],
        [{"coeff": [{"im": float("nan"), "power": 0, "re": float("inf")},
                    {"im": -float("inf"), "power": 1, "re": 5e-324}], "diagram": "()"}],
    ], ids=["no-terms", "empty-coeff", "mixed", "non-finite"])
    def test_synthetic_records(self, terms):
        report = _report(terms)
        assert _report_json(report) == _stdlib_report(report)

    def test_cli_output_is_the_stdlib_dump(self, capsys):
        code, out, _ = run(capsys, "projector", "--n", "5", "--k", "1", "--d", "2",
                           "--mu", "[3,1]", "--alpha", "[2,1]", "--unitaries", "1",
                           "--emit-map", "2", "--format", "json")
        assert code == 0
        assert out == _stdlib_report(json.loads(out)) + "\n"


class TestScanBcs:
    def test_csv_contents(self, capsys, tmp_path):
        out_file = tmp_path / "region.csv"
        code, _, _ = run(capsys, "scan-bcs", "--d", "3",
                         "--alpha", "0.25:0.25:1", "--beta", "-0.1:-0.1:1",
                         "--seed", "4", "--out", str(out_file))
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        assert lines[0] == "alpha,beta,analytic_positive,min_eig,product_min,class"
        fields = lines[1].split(",")
        assert fields[0] == "0.25" and fields[1] == "-0.1"
        assert fields[2] == "true"
        assert fields[5] == "WITNESS_CANDIDATE"

    def test_deterministic_output(self, capsys, tmp_path):
        files = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            code, _, _ = run(capsys, "scan-bcs", "--alpha", "0:0.5:0.5",
                             "--beta", "0:0:1", "--seed", "9", "--out", str(path))
            assert code == 0
            files.append(path.read_bytes())
        assert files[0] == files[1]

    def test_bad_range(self, capsys):
        code, _, err = run(capsys, "scan-bcs", "--alpha", "zero:one:step",
                           "--beta", "0:0:1")
        assert code == 1

    def test_no_partial_file_on_failure(self, capsys, tmp_path):
        out_file = tmp_path / "never.csv"
        code, _, _ = run(capsys, "scan-bcs", "--alpha", "bad:range:spec",
                         "--beta", "0:0:1", "--out", str(out_file))
        assert code == 1 and not out_file.exists()


class TestWernerPpt:
    def test_maximally_mixed(self, capsys):
        code, out, _ = run(capsys, "werner-ppt",
                           "--r", "0.370370,0.037037,0.592593,0,0,0", "--d", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["overall"] is True
        assert payload["eigencheck_ppt"] is True
        assert payload["consistent"] is True

    def test_npt_point(self, capsys):
        # large r2 violates the block determinant bound
        code, out, _ = run(capsys, "werner-ppt", "--r", "0.2,0.05,0.75,0,0.5,0.5")
        assert code == 0
        payload = json.loads(out)
        assert payload["overall"] is False and payload["eigencheck_ppt"] is False
        assert payload["conditions"]["block_determinant_f1"] is False

    def test_flag_validation(self, capsys):
        code, _, err = run(capsys, "werner-ppt", "--r", "1,2,3")
        assert code == 1


class TestEwMaps:
    def test_single_row(self, capsys):
        code, out, _ = run(capsys, "ew-maps", "--row", "f3", "--instances", "5",
                           "--seed", "2")
        assert code == 0
        payload = json.loads(out)
        assert float(payload["deviation"]["f3"]) < 1e-10

    def test_all_rows(self, capsys):
        code, out, _ = run(capsys, "ew-maps", "--row", "all", "--instances", "3")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["deviation"]) == 12 and payload["passed"]

    def test_unknown_row(self, capsys):
        code, _, err = run(capsys, "ew-maps", "--row", "h9")
        assert code == 1


class TestCompose:
    def test_loop_product(self, capsys):
        code, out, _ = run(capsys, "compose", "(1 2)^T{2}", "(1 2)^T{2}", "--n", "2")
        assert code == 0
        assert "loops  : 1" in out
        assert "d^1" in out

    def test_plain_product(self, capsys):
        code, out, _ = run(capsys, "compose", "(1 2)", "(2 3)", "--n", "3")
        assert code == 0
        assert "product: (1 2 3)" in out

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "compose", "(1 9)", "(1 2)", "--n", "3")
        assert code == 1

    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_no_sites_is_a_bad_flag(self, capsys, n):
        code, out, err = run(capsys, "compose", "()", "()", "--n", n)
        assert code == 1 and out == ""
        assert err == f"error: --n must be >= 1, got {n}\n"

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "product.txt"
        code, out, _ = run(capsys, "compose", "(1 2)", "(2 3)", "--n", "3", "--out", str(path))
        assert code == 0 and out == ""
        lines = path.read_text().splitlines()
        assert len(lines) == 4 and lines[2] == "product: (1 2 3)"


class TestFlags:
    def test_unknown_command(self, capsys):
        assert main(["no-such-command"]) == 1

    def test_missing_required(self, capsys):
        assert main(["projector", "--n", "4"]) == 1

    @pytest.mark.parametrize("argv", [
        ["scan-bcs", "--d", "2", "--alpha", "0:0:1", "--beta", "0:0:1"],
        ["werner-ppt", "--d", "2", "--r", "0.2,0.05,0.75,0,0.5,0.5"],
        ["ew-maps", "--d", "2"],
        ["ew-maps", "--instances", "0"],
        ["projector", "--n", "4", "--k", "1", "--d", "2", "--mu", "[2,1]",
         "--alpha", "[2]", "--unitaries", "0"],
        ["verify-props", "--tuples", "0"],
        ["scan-bcs", "--alpha", "0:inf:0.1", "--beta", "0:0:1"],
        ["scan-bcs", "--alpha=-inf:0:1", "--beta", "0:0:1"],
        ["werner-ppt", "--r", "nan,0,0,0,0,0"],
        ["werner-ppt", "--r", "inf,0,0,0,0,0"],
        ["werner-ppt", "--r", "1e308,1e308,0,0,0,0"],
        ["projector", "--n", "4", "--k", "0", "--d", "2", "--mu", "[2,1]", "--alpha", "[2]"],
        ["scan-bcs", "--alpha", "0:1:1e-6", "--beta", "0:0:1"],
        ["scan-bcs", "--alpha", "0:1:1e-3", "--beta", "0:1:1e-3"],
        ["verify-props", "--tolerance", "nan"],
        ["ew-maps", "--tolerance", "nan"],
        ["ew-maps", "--tolerance", "0"],
        ["scan-bcs", "--alpha", "0:0:1", "--beta", "0:0:1", "--seed", "-1"],
        ["projector", "--n", "4", "--k", "1", "--d", "2", "--mu", "[2,1]", "--alpha", "[2]",
         "--seed", "-1"],
        ["verify-props", "--seed", "-1"],
        ["ew-maps", "--seed", "-1"],
    ], ids=["scan-bcs-d", "werner-ppt-d", "ew-maps-d", "ew-maps-instances",
            "projector-unitaries", "verify-props-tuples", "scan-bcs-alpha-inf",
            "scan-bcs-alpha-minus-inf", "werner-ppt-nan", "werner-ppt-inf",
            "werner-ppt-overflow", "projector-k-0", "scan-bcs-range-too-long",
            "scan-bcs-grid-too-large", "verify-props-tolerance-nan", "ew-maps-tolerance-nan",
            "ew-maps-tolerance-0", "scan-bcs-seed", "projector-seed", "verify-props-seed",
            "ew-maps-seed"])
    def test_out_of_range_value_fails_on_one_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert len(err.strip().splitlines()) == 1 and err.startswith("error: --")

    @pytest.mark.parametrize("argv,target", [
        (["compose", "(1 2)", "(2 3)", "--n", "3"], "missing/x"),
        (["werner-ppt", "--r", "0.2,0.05,0.75,0,0.5,0.5"], "a-directory"),
    ], ids=["compose-missing-directory", "werner-ppt-directory"])
    def test_unwritable_out_fails_on_one_line(self, capsys, tmp_path, argv, target):
        (tmp_path / "a-directory").mkdir()
        path = str(tmp_path / target)
        code, out, err = run(capsys, *argv, "--out", path)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith(f"error: --out {path}: ")
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["a-directory"]

    # each subcommand takes only the flags it reads
    @pytest.mark.parametrize("argv,dropped", [
        (["scan-bcs", "--alpha", "0.3:0.3:1", "--beta=-0.2:-0.2:1"], ["--restarts", "0"]),
        (["scan-bcs", "--alpha", "0.3:0.3:1", "--beta=-0.2:-0.2:1"], ["--restarts", "-3"]),
        (["scan-bcs", "--alpha", "0:0:1", "--beta", "0:0:1"], ["--format", "json"]),
        (["scan-bcs", "--alpha", "0:0:1", "--beta", "0:0:1"], ["--tolerance", "1e-3"]),
        (["werner-ppt", "--r", "0.2,0.05,0.75,0,0.5,0.5"], ["--tolerance", "nan"]),
        (["werner-ppt", "--r", "0.2,0.05,0.75,0,0.5,0.5"], ["--format", "text"]),
        (["werner-ppt", "--r", "0.2,0.05,0.75,0,0.5,0.5"], ["--seed", "1"]),
        (["ew-maps", "--row", "f1", "--instances", "1"], ["--format", "json"]),
        (["projector", "--n", "4", "--k", "1", "--d", "2", "--mu", "[2,1]", "--alpha", "[2]"],
         ["--tolerance", "1e-3"]),
        (["compose", "(1 2)", "(2 3)", "--n", "3"], ["--format", "json"]),
        (["compose", "(1 2)", "(2 3)", "--n", "3"], ["--seed", "1"]),
    ], ids=["scan-bcs-restarts-0", "scan-bcs-restarts-negative", "scan-bcs-format",
            "scan-bcs-tolerance", "werner-ppt-tolerance", "werner-ppt-format", "werner-ppt-seed",
            "ew-maps-format", "projector-tolerance", "compose-format-json", "compose-seed"])
    def test_dropped_flag_is_unrecognized(self, capsys, argv, dropped):
        code, out, err = run(capsys, *argv, *dropped)
        assert code == 1 and out == ""
        assert err == f"error: unrecognized arguments: {' '.join(dropped)}\n"


class TestProjectorLabels:
    @pytest.mark.parametrize("mu", ["[1,2]", "[x]", "[2,0]", ""])
    def test_bad_partition_fails_on_one_line(self, capsys, mu):
        code, out, err = run(capsys, "projector", "--n", "4", "--k", "1", "--d", "2",
                             "--mu", mu, "--alpha", "[2]")
        assert code == 1 and out == ""
        assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")

    def test_zero_dimension_is_a_bad_flag(self, capsys):
        code, out, err = run(capsys, "projector", "--n", "4", "--k", "1", "--d", "0",
                             "--mu", "[2,1]", "--alpha", "[2]")
        assert code == 1 and out == ""
        assert err == "error: --d must be >= 1, got 0\n"

    def test_empty_alpha_when_n_is_2k(self, capsys):
        code, out, _ = run(capsys, "projector", "--n", "4", "--k", "2", "--d", "2",
                           "--mu", "[2]", "--alpha", "[]", "--unitaries", "3",
                           "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["alpha"] == "[]" and report["terms"] == 4
        assert float(report["idempotence_residual"]) < 1e-10
        assert float(report["commutant_residual"]) < 1e-10

    def test_empty_alpha_with_wrong_box_count_is_inadmissible(self, capsys):
        code, out, err = run(capsys, "projector", "--n", "3", "--k", "2", "--d", "2",
                             "--mu", "[1]", "--alpha", "[]")
        assert code == 2 and out == ""
        assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")


class TestProjectorChecksBeforeBuild:
    @pytest.fixture(autouse=True)
    def no_build(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("f_projector called")
        monkeypatch.setattr("wba.cli.f_projector", refuse)

    @pytest.mark.parametrize("emit_map", ["0", "5"])
    def test_emit_map_out_of_range(self, capsys, emit_map):
        code, out, err = run(capsys, "projector", "--n", "4", "--k", "1", "--d", "2",
                             "--mu", "[2,1]", "--alpha", "[2]", "--emit-map", emit_map)
        assert code == 1 and out == ""
        assert err == "error: --emit-map must be in 1..4\n"

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_no_sites_is_a_bad_flag(self, capsys, n):
        code, out, err = run(capsys, "projector", "--n", n, "--k", "1", "--d", "2",
                             "--mu", "[]", "--alpha", "[]")
        assert code == 1 and out == ""
        assert err == f"error: --n must be >= 1, got {n}\n"

    def test_size_guard(self, capsys, monkeypatch):
        monkeypatch.delenv("WBA_SIZE_GUARD", raising=False)
        code, out, err = run(capsys, "projector", "--n", "8", "--k", "1", "--d", "3",
                             "--mu", "[5,2]", "--alpha", "[4,2]", "--unitaries", "1")
        assert code == 2 and out == ""
        assert err == "error: d^n = 6561 exceeds the size guard 4096\n"


class TestSizeGuard:
    @pytest.mark.parametrize("argv", [
        ["scan-bcs", "--d", "17", "--alpha", "0:0:1", "--beta", "0:0:1"],
        ["ew-maps", "--d", "17"],
        ["werner-ppt", "--d", "17", "--r", "0.2,0.05,0.75,0,0.5,0.5"],
    ], ids=["scan-bcs", "ew-maps", "werner-ppt"])
    def test_fails_before_any_work_on_one_line(self, capsys, monkeypatch, argv):
        monkeypatch.delenv("WBA_SIZE_GUARD", raising=False)
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "error: d^n = 4913 exceeds the size guard 4096\n"


class TestCommutantResidual:
    @pytest.mark.parametrize("n,k,d,mu,alpha", [
        (4, 1, 2, (2, 1), (2,)), (5, 2, 2, (2, 1), (1,)), (5, 1, 3, (3, 1), (2, 1))])
    def test_matches_full_kronecker(self, n, k, d, mu, alpha):
        dense = realize(f_projector(Partition(mu), Partition(alpha), n, k, d), d)
        rng = np.random.default_rng(7)
        for _ in range(3):
            u = haar_unitary(d, rng)
            big = np.eye(1, dtype=complex)
            for factor in [u] * (n - k) + [u.conj()] * k:
                big = np.kron(big, factor)
            # a non-commuting operator tests the residual, not only its zero
            for mat in (dense, dense + np.diag(np.arange(d ** n))):
                full = sup_norm(mat @ big - big @ mat)
                assert abs(_commutant_residual(mat, u, n, k) - full) <= 1e-12 * max(1, full)


class TestEmptyRange:
    @pytest.mark.parametrize("flag,value", [("--alpha", "1:0:0.1"), ("--beta", "0.5:0.2:0.1")])
    def test_empty_range_fails_on_one_line(self, capsys, flag, value):
        ranges = {"--alpha": "0:0:1", "--beta": "0:0:1", flag: value}
        code, out, err = run(capsys, "scan-bcs", *(x for kv in ranges.items() for x in kv))
        assert code == 1 and out == ""
        assert len(err.strip().splitlines()) == 1 and "empty range" in err


class TestSignedValues:
    """Range and list values that start with a minus sign, detached or not."""

    @staticmethod
    def argv(flag, value, attached):
        return [f"{flag}={value}"] if attached else [flag, value]

    @pytest.mark.parametrize("attached", [False, True], ids=["detached", "attached"])
    @pytest.mark.parametrize("flag,other", [("--alpha", ["--beta", "0:0:1"]),
                                            ("--beta", ["--alpha", "0:0:1"])])
    def test_negative_range(self, capsys, flag, other, attached):
        code, out, err = run(capsys, "scan-bcs", *other,
                             *self.argv(flag, "-0.5:-0.46:0.02", attached))
        assert code == 0 and err == ""
        column = 0 if flag == "--alpha" else 1
        assert [row.split(",")[column] for row in out.splitlines()[1:]] == \
            ["-0.5", "-0.48", "-0.46"]

    @pytest.mark.parametrize("attached", [False, True], ids=["detached", "attached"])
    def test_negative_first_r(self, capsys, attached):
        code, out, _ = run(capsys, "werner-ppt", *self.argv("--r", "-0.1,0,0,0,0,0", attached))
        assert code == 0
        report = json.loads(out)
        assert report["r"][0] == "-0.1" and report["valid_state"] is False

    @pytest.mark.parametrize("attached", [False, True], ids=["detached", "attached"])
    def test_negative_first_r_of_wrong_length(self, capsys, attached):
        code, out, err = run(capsys, "werner-ppt", *self.argv("--r", "-1,2,3", attached))
        assert code == 1 and out == ""
        assert err == "error: expected 6 comma-separated values r+,r-,r0,r1,r2,r3\n"

    def test_missing_value_stays_an_argparse_error(self, capsys):
        code, out, err = run(capsys, "scan-bcs", "--alpha", "--beta", "0:0:1")
        assert code == 1 and out == ""
        assert err == "error: argument --alpha: expected one argument\n"


class TestClosedStdout:
    def test_closed_reader_ends_quietly(self):
        # the read end is closed before the CLI writes: its output counts
        # as delivered, with no traceback and the usual exit code
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = str(Path(wba.__file__).resolve().parent.parent)
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "wba.cli", "werner-ppt", "--r=-0.1,0,0,0,0,0"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
        finally:
            os.close(write_end)
        assert proc.stderr == b"" and proc.returncode == 0
