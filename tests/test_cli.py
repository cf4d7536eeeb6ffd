import hashlib
import json
import os
import stat
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import wba
from wba import cli, dense_ops, entanglement as ent, multilinear_maps as mm, verification
from wba.cli import _parse_range, _report_json, main
from wba.dense_ops import (
    DenseOperator,
    SectorOperator,
    covariance_residual,
    haar_unitary,
    random_psd,
    sector_layout,
    sup_norm,
)
from wba.sym_core import MAX_ENUM_DEGREE, Partition, parse_partition
from wba.wba_algebra import (
    WbaElement,
    _term_listing,
    admissible_pairs,
    f_projector,
    realize,
)

DATA = Path(__file__).parent / "data"


def gather_rows(op: DenseOperator, conjugated) -> SectorOperator:
    """The reference gather: the walled operator op by its sector rows for
    the layout of ``conjugated``, row i holding op[i, members[sector[i]]]
    by place, read where op holds it; nothing of op lies off the sectors."""
    conjugated = tuple(sorted(conjugated))
    layout, dim, mat = sector_layout(op.n, op.d, conjugated), op.d ** op.n, op.mat
    assert not mat[layout.sector[:, None] != layout.sector].any()
    cols = layout.members[layout.sector]
    inside = cols < dim
    rows = np.zeros((dim + 1, cols.shape[1]), dtype=mat.dtype)
    rows[:dim][inside] = mat[np.nonzero(inside)[0], cols[inside]]
    return SectorOperator(op.n, op.d, conjugated, rows)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerifyProps:
    def test_only_prop5_passes(self, capsys):
        code, out, _ = run(capsys, "verify-props", "--only", "prop5", "--tuples", "3")
        assert code == 0
        assert "prop5" in out and "FAIL" not in out

    def test_deviation_past_the_tolerance_fails(self, capsys, monkeypatch):
        # a closed form off by 1e-9, ten times ORACLE_TOL, fails every case it enters
        closed_form = mm.evaluate_cycle_to_one

        def off_by_1e_9(direction, j, mats):
            out = closed_form(direction, j, mats)
            out.mat[..., 0, 0] += 1e-9
            return out

        monkeypatch.setattr(mm, "evaluate_cycle_to_one", off_by_1e_9)
        code, out, _ = run(capsys, "verify-props", "--only", "prop3", "--tuples", "3")
        assert code == 2
        assert out.count("FAIL") == 56 and "  pass" not in out
        assert out.endswith("\n0/56 cases passed (tolerance 1e-10)\n")

    def test_bad_filter(self, capsys):
        code, out, err = run(capsys, "verify-props", "--only", "nosuchgroup")
        assert code == 1 and out == ""
        assert err == "error: no cases match --only 'nosuchgroup'\n"

    def test_nan_deviation_fails(self, capsys, monkeypatch):
        # the middle tuple of the middle member of prop3's group (backward,
        # k = 3, d = 2), with a stack a tuple and with the group in one stack
        cycle = mm.evaluate_cycle_to_one
        for stack_bytes in (0, verification.STACK_BYTES):
            seen = []

            def nan_in_one_tuple(direction, j, inputs):
                out = cycle(direction, j, inputs)
                for t in range(len(out.mat) if (direction, j, len(inputs)) == ("backward", 2, 3)
                               else 0):
                    if len(seen) == 1:
                        out.mat[t, 0, 0] = np.nan
                    seen.append(t)
                return out

            monkeypatch.setattr(verification, "STACK_BYTES", stack_bytes)
            monkeypatch.setattr(mm, "evaluate_cycle_to_one", nan_in_one_tuple)
            code, out, _ = run(capsys, "verify-props", "--only", "prop3", "--tuples", "3",
                               "--format", "json")
            cases = json.loads(out)
            middle = [c["name"] for c in cases].index("prop3:backward,k=3,j=2,d=2")
            assert code == 2 and len(seen) == 6
            assert [c["max_dev"] == "nan" for c in cases] == [i == middle for i in range(56)]
            assert [c["passed"] for c in cases] == [i != middle for i in range(56)]

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "verify-props", "--only", "prop6", "--tuples", "2",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert all(case["passed"] for case in payload)

    def test_json_output_is_golden(self, capsys):
        # every printed deviation, byte for byte
        code, out, _ = run(capsys, "verify-props", "--format", "json", "--seed", "0")
        assert code == 0
        assert out == (DATA / "verify_props_seed0.json").read_text()


class TestProjector:
    def test_worked_example(self, capsys):
        code, out, _ = run(capsys, "projector", "--n", "4", "--k", "1", "--d", "2",
                           "--mu", "[2,1]", "--alpha", "[2]")
        assert code == 0
        assert "gamma = 1" in out
        assert "terms = 18" in out

    def test_second_example_gamma(self, capsys):
        code, out, _ = run(capsys, "projector", "--n", "5", "--k", "2", "--d", "2",
                           "--mu", "[2,1]", "--alpha", "[1]")
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

    def test_past_the_relabel_bound(self, capsys):
        # admissible and inside the size guard, but 2520 x 3520 terms
        code, out, err = run(capsys, "projector", "--n", "12", "--k", "5", "--d", "2",
                             "--mu", "[4,3]", "--alpha", "[2]")
        assert code == 2 and out == ""
        assert err == "error: F_[4,3]([2]) has 8870400 terms, past the relabel bound 1200000\n"

    def test_emit_map(self, capsys):
        code, out, _ = run(capsys, "projector", "--n", "4", "--k", "1", "--d", "2",
                           "--mu", "[2,1]", "--alpha", "[2]",
                           "--emit-map", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert float(payload["map_output_min_eig"]) >= -1e-8
        assert float(payload["idempotence_residual"]) < 1e-10

    @pytest.mark.parametrize("n,k,mu,alpha,n_in", [(2, 1, "[1]", "[]", 1),
                                                   (4, 1, "[3]", "[2]", 2)])
    def test_a_map_at_d1(self, capsys, n, k, mu, alpha, n_in):
        # at d = 1 every input is 1 x 1 and covers one site: the map is F's
        # one entry times the product of the inputs
        code, out, _ = run(capsys, "projector", "--n", str(n), "--k", str(k), "--d", "1",
                           "--mu", mu, "--alpha", alpha, "--emit-map", str(n_in),
                           "--seed", "5", "--format", "json")
        assert code == 0
        f = realize(f_projector(parse_partition(mu), parse_partition(alpha), n, k, 1), 1)
        rng = np.random.default_rng(5)
        inputs = [random_psd(1, 1, rng).mat[0, 0].real for _ in range(n_in)]
        assert float(json.loads(out)["map_output_min_eig"]) == pytest.approx(
            f[0, 0].real * np.prod(inputs), rel=1e-10)

    def test_seed_reaches_only_the_map_inputs(self, capsys):
        outputs = [run(capsys, "projector", "--n", "4", "--k", "1", "--d", "2", "--mu", "[2,1]",
                       "--alpha", "[2]", "--format", "json", "--seed", seed)[1]
                   for seed in ("0", "5")]
        assert outputs[0] == outputs[1] != ""

    def test_json_output_is_golden(self, capsys):
        code, out, _ = run(capsys, "projector", "--n", "4", "--k", "1", "--d", "2",
                           "--mu", "[2,1]", "--alpha", "[2]",
                           "--format", "json")
        assert code == 0
        assert out == (DATA / "projector_n4_k1_d2.json").read_text()

    def test_emitted_map_output_is_golden(self, capsys):
        # the seeded random_psd inputs and the map's least eigenvalue, byte for byte
        code, out, _ = run(capsys, "projector", "--n", "4", "--k", "1", "--d", "2",
                           "--mu", "[2,1]", "--alpha", "[2]", "--emit-map", "2",
                           "--seed", "3", "--format", "json")
        assert code == 0
        assert out == (DATA / "projector_n4_k1_d2_emit_map2_seed3.json").read_text()

    def test_no_dense_realization(self, capsys, monkeypatch):
        # F is realized into its sector rows, checked and mapped there
        def refuse(*args, **kwargs):
            raise AssertionError("the dense realize was called")
        for module in (wba.wba_algebra, cli, mm, ent, verification):
            if hasattr(module, "realize"):
                monkeypatch.setattr(module, "realize", refuse)
        argv = ["projector", "--n", "4", "--k", "1", "--d", "2", "--mu", "[2,1]",
                "--alpha", "[2]", "--format", "json"]
        for extra, golden in (([], "projector_n4_k1_d2.json"),
                              (["--emit-map", "2", "--seed", "3"],
                               "projector_n4_k1_d2_emit_map2_seed3.json")):
            code, out, _ = run(capsys, *argv, *extra)
            assert code == 0 and out == (DATA / golden).read_text()
        code, out, _ = run(capsys, "projector", "--n", "6", "--k", "2", "--d", "3", "--mu", "[2,2]",
                           "--alpha", "[2]", "--emit-map", "5", "--format", "json")
        assert code == 0 and float(json.loads(out)["commutant_residual"]) < 1e-13

    def test_a_map_refusal_ends_on_one_line(self, capsys, monkeypatch):
        def refuse(spec, inputs):
            raise ValueError("the map is refused")

        monkeypatch.setattr(mm, "evaluate_oracle", refuse)
        code, out, err = run(capsys, "projector", "--n", "4", "--k", "1", "--d", "2",
                             "--mu", "[2,1]", "--alpha", "[2]", "--emit-map", "2")
        assert code == 2 and out == ""
        assert err == "error: the map is refused\n"

    def test_a_large_map_output_is_hermitian_within_its_band(self, capsys):
        # six PSD inputs give outputs of norm ~1e4, whose rounding asymmetry
        # (1.7e-10 at this seed) passes ATOL times the norm
        code, out, _ = run(capsys, "projector", "--n", "7", "--k", "1", "--d", "3",
                           "--mu", "[4,2]", "--alpha", "[3,2]", "--emit-map", "6",
                           "--seed", "8", "--format", "json")
        assert code == 0 and float(json.loads(out)["map_output_min_eig"]) > 0


def _stdlib_report(report):
    return json.dumps(report, sort_keys=True, indent=2)


def _record_terms(texts, coeffs):
    """The term list of the projector report as dicts: one entry per row,
    one coefficient per nonzero entry."""
    return [{"diagram": text,
             "coeff": [{"power": p, "re": c.real, "im": c.imag}
                       for p, c in enumerate(row) if c]}
            for text, row in zip(texts, coeffs.tolist())]


def _report(texts, n=4):
    """A projector report without its term list, shaped as cmd_projector's."""
    return {"n": n, "k": 1, "d": 2, "mu": "[2,1]", "alpha": "[2]", "gamma": "1",
            "terms": len(texts), "idempotence_residual": "1e-16",
            "commutant_residual": "2e-16", "element": {"n": n},
            "map_inputs": 2, "map_output_min_eig": "0.25"}


def _check_report_json(texts, coeffs, n=4):
    report = _report(texts, n)
    full = {**report, "element": {"n": n, "terms": _record_terms(texts, coeffs)}}
    got, want = "".join(_report_json(report, texts, coeffs)), _stdlib_report(full)
    if got != want:     # pytest's own diff of two reports of 1 MB takes minutes
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                  min(len(got), len(want)))
        lo = max(0, at - 60)
        pytest.fail(f"the reports differ from offset {at}: "
                    f"{got[lo:at + 60]!r} != {want[lo:at + 60]!r}")


_PROJECTOR_CASES = [(n, k, d, mu, alpha) for n in range(2, 7) for k in (1, 2) for d in (2, 3)
                    if n >= 2 * k for alpha, mu in admissible_pairs(n, k, d)]


class TestReportJson:
    """_report_json writes the bytes of the stdlib's indented dump."""

    @pytest.mark.parametrize("n,k,d,mu,alpha", _PROJECTOR_CASES + [
        (7, 1, 2, Partition((4, 2)), Partition((3, 2)))])
    def test_projector_elements(self, n, k, d, mu, alpha):
        _check_report_json(*_term_listing(f_projector(mu, alpha, n, k, d)), n)

    def test_every_small_pair_is_covered(self):
        assert len(_PROJECTOR_CASES) == 58

    @pytest.mark.parametrize("texts,coeffs", [
        ([], np.zeros((0, 1), complex)),
        (["()"], [[0]]),
        (["(1 2)^T{2}", "()", "\u00e9 \"q\"\n"],
         [[0.5, 0, complex(-0.0, 1.0), 0, 0, 0, 0, complex(1e-300, 1e16)],
          [0, 0, 0, 0, 0, 0, 0, 0],
          [0, complex(1, -1.25), complex(0.25, -0.0), 0, 0, 0, 0, 0]]),
        (["()"], [[complex(float("inf"), float("nan")), complex(5e-324, -float("inf"))]]),
    ], ids=["no-terms", "empty-coeff", "mixed", "non-finite"])
    def test_synthetic_records(self, texts, coeffs):
        _check_report_json(texts, np.array(coeffs, complex))

    @pytest.mark.parametrize("terms", [cli._LISTING_CHUNK - 1, cli._LISTING_CHUNK,
                                       cli._LISTING_CHUNK + 1, 2 * cli._LISTING_CHUNK + 1])
    def test_chunk_boundaries(self, terms):
        # 0 to 4 nonzero coefficients a term, parts from a pool with -0.0,
        # inf, NaN and values that occur once; one listing piece per chunk
        rng = np.random.default_rng(terms)
        pool = np.array([0.0, -0.0, 0.5, -1.25, 1e-300, 5e-324, np.inf, -np.inf, np.nan])
        parts = np.where(rng.random((2, terms, 4)) < 0.8,
                         pool[rng.integers(len(pool), size=(2, terms, 4))],
                         rng.standard_normal((2, terms, 4)))
        coeffs = np.zeros((terms, 4), complex)
        coeffs.real, coeffs.imag = parts     # 1j * inf would write NaN for the real part
        coeffs[rng.random((terms, 4)) < 0.5] = 0
        coeffs[rng.random(terms) < 0.1] = 0
        texts = [f"({t % 7} {t})^T{{{t % 3}}}" if t % 5 else f"é \"{t}\"" for t in range(terms)]
        _check_report_json(texts, coeffs)
        pieces = list(_report_json(_report(texts), texts, coeffs))
        assert len(pieces) == -(-terms // cli._LISTING_CHUNK) + 3  # head, chunks, "]", tail

    def test_cli_output_is_the_stdlib_dump(self, capsys):
        code, out, _ = run(capsys, "projector", "--n", "5", "--k", "1", "--d", "2",
                           "--mu", "[3,1]", "--alpha", "[2,1]",
                           "--emit-map", "2", "--format", "json")
        assert code == 0
        assert out == _stdlib_report(json.loads(out)) + "\n"



def _reference_report_text(report, texts, coeffs):
    """The text report as one string, formatted term by term."""
    lines = [f"F_{report['mu']}({report['alpha']}) on n={report['n']} sites, "
             f"k={report['k']} transposed, d={report['d']}",
             f"gamma = {report['gamma']}",
             f"terms = {report['terms']}",
             f"idempotence residual = {report['idempotence_residual']}",
             f"commutant residual   = {report['commutant_residual']}"]
    for text, row in zip(texts, coeffs.tolist()):
        val = " + ".join(f"({c.real:.6g}{c.imag:+.6g}i) d^{p}" for p, c in enumerate(row) if c)
        lines.append(f"  [{val}]  {text}")
    if "map_output_min_eig" in report:
        lines.append(f"map on {report['map_inputs']} random PSD inputs: "
                     f"output min eigenvalue = {report['map_output_min_eig']}")
    return "\n".join(lines) + "\n"


class TestReportText:
    """_report_text writes the term-by-term text, a chunk of terms a piece."""

    @pytest.mark.parametrize("n,k,d,mu,alpha", _PROJECTOR_CASES[::5])
    def test_projector_elements(self, n, k, d, mu, alpha):
        texts, coeffs = _term_listing(f_projector(mu, alpha, n, k, d))
        report = _report(texts, n)
        assert "".join(cli._report_text(report, texts, coeffs)) == \
            _reference_report_text(report, texts, coeffs)

    @pytest.mark.parametrize("terms", [0, 1, cli._LISTING_CHUNK - 1, cli._LISTING_CHUNK,
                                       cli._LISTING_CHUNK + 1, 2 * cli._LISTING_CHUNK + 1])
    def test_chunk_boundaries(self, terms):
        # rows that differ only in the sign of a zero part keep their own text
        rng = np.random.default_rng(terms)
        pool = np.array([0.0, -0.0, 0.5, -1.25, 1e-300, 5e-324, np.inf, np.nan])
        coeffs = np.zeros((terms, 3), complex)
        coeffs.real, coeffs.imag = pool[rng.integers(len(pool), size=(2, terms, 3))]
        coeffs[rng.random((terms, 3)) < 0.4] = 0
        texts = [f"({t % 7} {t})^T{{{t % 3}}}" for t in range(terms)]
        report = _report(texts)
        pieces = list(cli._report_text(report, texts, coeffs))
        assert "".join(pieces) == _reference_report_text(report, texts, coeffs)
        assert len(pieces) == -(-terms // cli._LISTING_CHUNK) + 2    # header, chunks, map
        del report["map_output_min_eig"]
        assert "".join(cli._report_text(report, texts, coeffs)) == \
            _reference_report_text(report, texts, coeffs)


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

    def test_grid_is_golden(self, capsys):
        # the verdicts, their min_eig from the 6 x 6 algebra matrix
        # (_s3_min_eigenvalue) and the non-PSD points' exact 1|23 minimum
        # from the dense kernel; the alpha = 1 rows' min_eig, exactly 0,
        # prints that route's rounding
        code, out, _ = run(capsys, "scan-bcs", "--d", "3", "--alpha", "0:1:0.1",
                           "--beta=-0.5:0.1:0.05", "--seed", "1")
        assert code == 0
        assert out == (DATA / "scan_bcs_d3_seed1.csv").read_text()

    def test_grid_at_d4_is_pinned(self, capsys):
        # the CI grid at d = 4, 4 kernels a stack; like the golden files the
        # digest holds BLAS-rounded floats
        code, out, _ = run(capsys, "scan-bcs", "--d", "4", "--alpha", "0:1:0.1",
                           "--beta=-0.5:0.1:0.05", "--seed", "1")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "9b88c3ea1f6cf135c32b3fd1b40bef6cb56d772410f651935146e7391b257cb4")

    def test_bad_range(self, capsys):
        code, _, err = run(capsys, "scan-bcs", "--alpha", "zero:one:step",
                           "--beta", "0:0:1")
        assert code == 1

    def test_no_partial_file_on_failure(self, capsys, tmp_path):
        out_file = tmp_path / "never.csv"
        code, _, _ = run(capsys, "scan-bcs", "--alpha", "bad:range:spec",
                         "--beta", "0:0:1", "--out", str(out_file))
        assert code == 1 and not out_file.exists()

    def test_overflowing_point_fails_on_one_line(self, capsys):
        # a finite grid point whose kernel overflows is a numerical failure
        code, out, err = run(capsys, "scan-bcs", "--alpha=1e308:1e308:1e308",
                             "--beta=1e308:1e308:1e308")
        assert code == 2 and out == ""
        assert err == "error: matrix is not a finite hermitian one (non-finite entry)\n"


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
        assert payload["min_eig_partial_transpose_1"] == "-0.0514528658239"

    def test_flag_validation(self, capsys):
        code, _, err = run(capsys, "werner-ppt", "--r", "1,2,3")
        assert code == 1

    def test_contradiction_ends_on_one_line(self, capsys, monkeypatch):
        # a valid PPT state whose conditions are forced to say otherwise
        argv = ("werner-ppt", "--r", "0.370370,0.037037,0.592593,0,0,0")
        agreed = json.loads(run(capsys, *argv)[1])
        assert agreed["overall"] is agreed["eigencheck_ppt"] is agreed["consistent"] is True
        conditions = ent.werner_ppt_conditions
        monkeypatch.setattr(ent, "werner_ppt_conditions", lambda rs: (conditions(rs)[0], False))
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert json.loads(out) == {**agreed, "overall": False, "consistent": False}
        assert err.count("\n") == 1 and err.startswith("error: ")


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

    def test_output_is_golden(self, capsys):
        # the seeded draws and every printed deviation, byte for byte
        code, out, _ = run(capsys, "ew-maps", "--seed", "1")
        assert code == 0
        assert out == (DATA / "ew_maps_seed1.json").read_text()

    @pytest.mark.parametrize("argv,misses", [((), 6), (("--row", "f2"), 1)])
    def test_one_listing_per_subset(self, capsys, argv, misses):
        # each row sizes its stacks from the rho^{T_S} it contracts: the
        # six subsets' listings, or the one row's, and no key of the state's
        ent._term_index.cache_clear()
        try:
            code, _, _ = run(capsys, "ew-maps", "--seed", "1", *argv)
            info = ent._term_index.cache_info()
        finally:
            ent._term_index.cache_clear()
        assert code == 0 and info.misses == misses

    def test_nan_deviation_fails(self, capsys, monkeypatch):
        closed_form = ent.eggeling_werner_map
        calls = []

        def nan_in_one_instance(row, params, a, b=None):
            out = closed_form(row, params, a, b)
            calls.append(row)
            if calls.count("g2") == 2:  # the second of g2's four instances only
                out.mat[0, 0, 0] = np.nan
            return out

        monkeypatch.setattr(verification, "STACK_BYTES", 0)     # one instance a stack
        monkeypatch.setattr(ent, "eggeling_werner_map", nan_in_one_instance)
        code, out, _ = run(capsys, "ew-maps", "--instances", "4")
        payload = json.loads(out)
        assert code == 2 and payload["passed"] is False
        assert [row for row, dev in payload["deviation"].items() if dev == "nan"] == ["g2"]

    def test_deviation_past_the_tolerance_fails(self, capsys, monkeypatch):
        closed_form = ent.eggeling_werner_map

        def off_by_1e_9(row, params, a, b=None):
            out = closed_form(row, params, a, b)
            out.mat[..., 0, 0] += 1e-9
            return out

        monkeypatch.setattr(ent, "eggeling_werner_map", off_by_1e_9)
        code, out, _ = run(capsys, "ew-maps", "--row", "f3", "--instances", "2")
        payload = json.loads(out)
        assert code == 2
        assert (payload["passed"], payload["tolerance"]) == (False, "1e-10")
        assert float(payload["deviation"]["f3"]) == pytest.approx(1e-9, rel=1e-3)

    def test_stack_size_does_not_move_a_deviation(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_fmt", repr)   # every bit of each deviation
        payloads = []
        for stack_bytes in (verification.STACK_BYTES, 0):
            monkeypatch.setattr(verification, "STACK_BYTES", stack_bytes)
            code, out, _ = run(capsys, "ew-maps", "--seed", "3", "--instances", "30")
            assert code == 0
            payloads.append(json.loads(out))
        assert len(payloads[0]["deviation"]) == 12 and payloads[0] == payloads[1]


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


class TestOutFile:
    """--out writes what stdout gets, as a shell redirect would."""

    WERNER_PPT = ("werner-ppt", "--r", "0.2,0.05,0.75,0,0.5,0.5")

    @pytest.mark.parametrize("argv", [
        ("verify-props", "--only", "prop5", "--tuples", "2"),
        ("verify-props", "--only", "prop5", "--tuples", "2", "--format", "json"),
        ("projector", "--n", "4", "--k", "1", "--d", "2", "--mu", "[2,1]", "--alpha", "[2]"),
        ("projector", "--n", "4", "--k", "1", "--d", "2", "--mu", "[2,1]", "--alpha", "[2]",
         "--format", "json"),
        ("scan-bcs", "--alpha", "0:0.5:0.5", "--beta", "0:0:1", "--seed", "9"),
        WERNER_PPT,
        ("ew-maps", "--row", "f1", "--instances", "2"),
        ("compose", "(1 2)", "(2 3)", "--n", "3"),
    ], ids=["verify-props", "verify-props-json", "projector", "projector-json", "scan-bcs",
            "werner-ppt", "ew-maps", "compose"])
    def test_file_bytes_are_stdout(self, capsys, tmp_path, argv):
        code, stdout, _ = run(capsys, *argv)
        path = tmp_path / "out"
        assert run(capsys, *argv, "--out", str(path))[:2] == (0, "")
        assert code == 0 and path.read_bytes() == stdout.encode()

    @pytest.fixture
    def umask_022(self):
        old = os.umask(0o022)
        yield
        os.umask(old)

    def test_new_file_gets_the_umask_mode(self, capsys, tmp_path, umask_022):
        path = tmp_path / "new.json"
        assert run(capsys, *self.WERNER_PPT, "--out", str(path))[0] == 0
        assert path.stat().st_mode & 0o7777 == 0o644

    def test_replaced_file_keeps_its_mode(self, capsys, tmp_path, umask_022):
        path = tmp_path / "old.json"
        path.write_text("old")
        path.chmod(0o604)
        assert run(capsys, *self.WERNER_PPT, "--out", str(path))[0] == 0
        assert path.stat().st_mode & 0o7777 == 0o604 and path.read_text() != "old"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["old.json"]

    def test_symlink_stays_a_link(self, capsys, tmp_path):
        (tmp_path / "real").mkdir()
        target, link = tmp_path / "real" / "target.json", tmp_path / "link.json"
        target.write_text("old")
        link.symlink_to(target)
        code, stdout, _ = run(capsys, *self.WERNER_PPT)
        assert run(capsys, *self.WERNER_PPT, "--out", str(link))[0] == code == 0
        assert link.is_symlink() and link.resolve() == target.resolve()
        assert target.read_text() == stdout
        assert sorted(p.name for p in (tmp_path / "real").iterdir()) == ["target.json"]

    def test_a_writer_failing_mid_write_leaves_the_target(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text("old")

        def parts():
            yield "new"
            raise RuntimeError("mid-write")

        with pytest.raises(RuntimeError, match="mid-write"):
            cli._write_out(str(path), parts())
        assert path.read_text() == "old"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["old.json"]

    def test_symlink_loop_fails_on_one_line(self, capsys, tmp_path):
        (tmp_path / "a").symlink_to(tmp_path / "b")
        (tmp_path / "b").symlink_to(tmp_path / "a")
        code, out, err = run(capsys, *self.WERNER_PPT, "--out", str(tmp_path / "a"))
        assert code == 1 and out == "" and len(err.splitlines()) == 1
        assert (tmp_path / "a").is_symlink() and (tmp_path / "b").is_symlink()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "b"]

    def test_fifo_gets_the_bytes_and_stays_a_fifo(self, capsys, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()),
                                  daemon=True)
        reader.start()
        code, _, _ = run(capsys, *self.WERNER_PPT, "--out", str(fifo))
        reader.join(timeout=30)
        assert code == 0 and not reader.is_alive()
        assert received == [run(capsys, *self.WERNER_PPT)[1].encode()]
        assert stat.S_ISFIFO(fifo.lstat().st_mode)


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
        ["verify-props", "--tuples", "0"],
        ["scan-bcs", "--alpha", "0:inf:0.1", "--beta", "0:0:1"],
        ["scan-bcs", "--alpha=-inf:0:1", "--beta", "0:0:1"],
        ["werner-ppt", "--r", "nan,0,0,0,0,0"],
        ["werner-ppt", "--r", "inf,0,0,0,0,0"],
        ["werner-ppt", "--r", "1e308,1e308,0,0,0,0"],
        ["projector", "--n", "4", "--k", "0", "--d", "2", "--mu", "[2,1]", "--alpha", "[2]"],
        ["scan-bcs", "--alpha", "0:1:1e-6", "--beta", "0:0:1"],
        ["scan-bcs", "--alpha", "0:1:1e-3", "--beta", "0:1:1e-3"],
        ["scan-bcs", "--alpha", "0:0:1", "--beta", "0:0:1", "--seed", "-1"],
        ["projector", "--n", "4", "--k", "1", "--d", "2", "--mu", "[2,1]", "--alpha", "[2]",
         "--seed", "-1"],
        ["verify-props", "--seed", "-1"],
        ["ew-maps", "--seed", "-1"],
        ["scan-bcs", "--alpha", "0:1:0", "--beta", "0:0:1"],
        ["scan-bcs", "--alpha", "0:1:-0.1", "--beta", "0:0:1"],
    ], ids=["scan-bcs-d", "werner-ppt-d", "ew-maps-d", "ew-maps-instances",
            "verify-props-tuples", "scan-bcs-alpha-inf",
            "scan-bcs-alpha-minus-inf", "werner-ppt-nan", "werner-ppt-inf",
            "werner-ppt-overflow", "projector-k-0", "scan-bcs-range-too-long",
            "scan-bcs-grid-too-large", "scan-bcs-seed", "projector-seed", "verify-props-seed",
            "ew-maps-seed", "scan-bcs-step-zero", "scan-bcs-step-negative"])
    def test_out_of_range_value_fails_on_one_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert len(err.strip().splitlines()) == 1 and err.startswith("error: --")

    @pytest.mark.parametrize("argv,message", [
        (["compose", "(1 x)", "()", "--n", "2"], "bad cycle point 'x' in '(1 x)'"),
        (["compose", "(1 2)^T{x}", "()", "--n", "2"], "bad transposed site 'x' in '(1 2)^T{x}'"),
        (["compose", "(1 2)^T{1", "()", "--n", "2"], "bad transpose suffix in '(1 2)^T{1'"),
        (["werner-ppt", "--r", "1,a,0,0,0,0"], "--r: bad value 'a' in '1,a,0,0,0,0'"),
        (["projector", "--n", "4", "--k", "1", "--d", "2", "--mu", "[2,x]", "--alpha", "[2]"],
         "bad partition: bad part 'x' in '[2,x]'"),
    ], ids=["compose-cycle-point", "compose-transposed-site", "compose-transpose-suffix",
            "werner-ppt-value", "projector-part"])
    def test_a_bad_token_is_named(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and err == f"error: {message}\n"

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
        (["verify-props", "--only", "prop6", "--tuples", "1"], ["--tolerance", "1e-3"]),
        (["verify-props", "--only", "prop6", "--tuples", "1"], ["--tolerance", "nan"]),
        (["ew-maps", "--row", "f1", "--instances", "1"], ["--tolerance", "1e-3"]),
        (["ew-maps", "--row", "f1", "--instances", "1"], ["--tolerance", "nan"]),
        (["ew-maps", "--row", "f1", "--instances", "1"], ["--tolerance", "0"]),
        (["projector", "--n", "4", "--k", "1", "--d", "2", "--mu", "[2,1]", "--alpha", "[2]"],
         ["--tolerance", "1e-3"]),
        (["projector", "--n", "4", "--k", "1", "--d", "2", "--mu", "[2,1]", "--alpha", "[2]"],
         ["--unitaries", "3"]),
        (["compose", "(1 2)", "(2 3)", "--n", "3"], ["--format", "json"]),
        (["compose", "(1 2)", "(2 3)", "--n", "3"], ["--seed", "1"]),
    ], ids=["scan-bcs-restarts-0", "scan-bcs-restarts-negative", "scan-bcs-format",
            "scan-bcs-tolerance", "werner-ppt-tolerance", "werner-ppt-format", "werner-ppt-seed",
            "ew-maps-format", "verify-props-tolerance", "verify-props-tolerance-nan",
            "ew-maps-tolerance", "ew-maps-tolerance-nan", "ew-maps-tolerance-0",
            "projector-tolerance", "projector-unitaries", "compose-format-json",
            "compose-seed"])
    def test_dropped_flag_is_unrecognized(self, capsys, argv, dropped):
        code, out, err = run(capsys, *argv, *dropped)
        assert code == 1 and out == ""
        assert err == f"error: unrecognized arguments: {' '.join(dropped)}\n"


class TestParserBuiltOnce:
    CALLS = [
        ["compose", "(1 2)^T{2}", "(1 2)^T{2}", "--n", "2"],
        ["scan-bcs", "--no-such-flag"],
        ["werner-ppt", "--r", "0.2,0.05,0.75,0,0.5,0.5"],
        ["--help"],
        ["projector", "--help"],
        ["compose", "()", "()", "--n", "0"],
        ["no-such-command"],
        ["compose", "(1 2)", "(1 2)", "--n", "2"],
    ]

    def test_repeated_calls_match_first_calls(self, capsys):
        first = []
        for argv in self.CALLS:
            cli.build_parser.cache_clear()     # each call builds its own parser
            first.append(run(capsys, *argv))
        assert [code for code, _, _ in first] == [0, 1, 0, 0, 0, 1, 1, 0]
        assert all(err.count("\n") == 1 for code, _, err in first if code == 1)
        parser = cli.build_parser()
        for _ in range(2):
            assert [run(capsys, *argv) for argv in self.CALLS] == first
        assert cli.build_parser() is parser


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
                           "--mu", "[2]", "--alpha", "[]",
                           "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["alpha"] == "[]" and report["terms"] == 4
        assert float(report["idempotence_residual"]) < 1e-10
        assert float(report["commutant_residual"]) < 1e-10

    def test_empty_alpha_with_wrong_box_count_is_inadmissible(self, capsys):
        # n = 2k, so alpha is empty, but mu needs n - k = 2 boxes; n < 2k is
        # a bad flag (test_fewer_than_2k_sites_is_a_bad_flag)
        code, out, err = run(capsys, "projector", "--n", "4", "--k", "2", "--d", "2",
                             "--mu", "[1]", "--alpha", "[]")
        assert code == 2 and out == ""
        assert err == "error: need alpha |- n-2k and mu |- n-k, got |alpha|=0, |mu|=1\n"


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

    @pytest.mark.parametrize("n,k,mu", [("5", "3", "[2]"), ("1", "1", "[1]")])
    def test_fewer_than_2k_sites_is_a_bad_flag(self, capsys, n, k, mu):
        code, out, err = run(capsys, "projector", "--n", n, "--k", k, "--d", "2",
                             "--mu", mu, "--alpha", "[]")
        assert code == 1 and out == ""
        assert err == f"error: --n must be >= 2k = {2 * int(k)}, got {n}\n"

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_no_sites_is_a_bad_flag(self, capsys, n):
        code, out, err = run(capsys, "projector", "--n", n, "--k", "1", "--d", "2",
                             "--mu", "[]", "--alpha", "[]")
        assert code == 1 and out == ""
        assert err == f"error: --n must be >= 1, got {n}\n"

    def test_size_guard(self, capsys):
        code, out, err = run(capsys, "projector", "--n", "8", "--k", "1", "--d", "3",
                             "--mu", "[5,2]", "--alpha", "[4,2]")
        assert code == 2 and out == ""
        assert err == "error: d^n = 6561 exceeds the size guard 4096\n"


class TestSizeGuard:
    @pytest.mark.parametrize("argv", [
        ["scan-bcs", "--d", "17", "--alpha", "0:0:1", "--beta", "0:0:1"],
        ["ew-maps", "--d", "17"],
        ["werner-ppt", "--d", "17", "--r", "0.2,0.05,0.75,0,0.5,0.5"],
    ], ids=["scan-bcs", "ew-maps", "werner-ppt"])
    def test_fails_before_any_work_on_one_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "error: d^n = 4913 exceeds the size guard 4096\n"


class TestCommutantResidual:
    """dense_ops.covariance_residual, the commutant check of ``wba projector``,
    on sector rows gathered here, against full Kronecker products of Haar
    unitaries built here."""

    CASES = [(4, 1, 2, (2, 1), (2,)), (5, 2, 2, (2, 1), (1,)), (5, 1, 3, (3, 1), (2, 1)),
             (6, 2, 3, (2, 2), (2,))]

    @staticmethod
    def projector(n, k, d, mu, alpha):
        dense = realize(f_projector(Partition(mu), Partition(alpha), n, k, d), d)
        return np.ascontiguousarray(dense.real)

    @staticmethod
    def residual(mat, n, k, d, conjugated=None):
        conjugated = range(n - k + 1, n + 1) if conjugated is None else conjugated
        return covariance_residual(gather_rows(DenseOperator(n, d, mat), conjugated))

    @staticmethod
    def blocks(mat, n, d, conjugated):
        """mat's entries within the weight sectors of ``conjugated``."""
        layout = sector_layout(n, d, conjugated)
        return np.where(layout.sector[:, None] == layout.sector, mat, 0)

    @staticmethod
    def haar_residual(mat, n, k, d, draws=3):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(draws):
            u = haar_unitary(d, rng)
            big = np.eye(1, dtype=complex)
            for factor in [u] * (n - k) + [u.conj()] * k:
                big = np.kron(big, factor)
            worst = max(worst, sup_norm(mat @ big - big @ mat))
        return worst

    @pytest.mark.parametrize("n,k,d,mu,alpha", _PROJECTOR_CASES)
    def test_zero_on_every_small_projector(self, n, k, d, mu, alpha):
        dense = realize(f_projector(mu, alpha, n, k, d), d)
        assert self.residual(dense, n, k, d) <= 1e-13

    def test_zero_on_the_bcs_kernel_and_werner_partial_transposes(self):
        for alpha, beta in ((0.25, -0.1), (0.0, 0.0), (1.3, 0.4)):
            kernel = ent.bcs_kernel(alpha, beta, 3)
            assert covariance_residual(gather_rows(kernel, (2,))) <= 1e-13
        rng = np.random.default_rng(5)
        for _ in range(3):
            rho = ent.werner_state(ent.random_valid_werner(rng, 3))
            for s in ((), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3)):
                rho_ts = dense_ops.partial_transpose(rho, s) if s else rho
                assert covariance_residual(gather_rows(rho_ts, s)) <= 1e-13

    @pytest.mark.parametrize("n,k,d,mu,alpha", CASES)
    def test_matches_full_kronecker(self, n, k, d, mu, alpha):
        # in order: the generators and the Haar sample see the same violation;
        # one entry between two indices of one sector moves [F, A_X] by itself
        real = self.projector(n, k, d, mu, alpha)
        layout = sector_layout(n, d, range(n - k + 1, n + 1))
        i, j = np.argwhere((layout.sector[:, None] == layout.sector)
                           & ~np.eye(d ** n, dtype=bool))[0]
        one_entry = np.zeros_like(real)
        one_entry[i, j] = 1e-6
        for mat in (real + one_entry, real + np.diag(np.arange(d ** n))):
            haar = self.haar_residual(mat, n, k, d)
            assert haar / 10 <= self.residual(mat, n, k, d) <= 10 * haar
        assert self.residual(real + one_entry, n, k, d) == pytest.approx(1e-6, rel=1e-6)

    @pytest.mark.parametrize("n,k,d,mu,alpha", CASES)
    def test_fails_for_the_wrong_wall(self, n, k, d, mu, alpha):
        # F's blocks for a wall that is not its own do not commute
        real = self.projector(n, k, d, mu, alpha)
        for conjugated in ((), range(1, k + 1)):
            assert self.residual(self.blocks(real, n, d, conjugated), n, k, d, conjugated) > 0.1

    @pytest.mark.parametrize("n,k,d,mu,alpha", CASES)
    def test_fails_for_a_weight_preserving_matrix(self, n, k, d, mu, alpha):
        # F's support lies in its weight sectors, so a random matrix on it
        # commutes with every diagonal unitary, but not with U(d)
        real = self.projector(n, k, d, mu, alpha)
        rng = np.random.default_rng(2)
        mat = np.where(real != 0, rng.standard_normal(real.shape), 0.0)
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, d))
        diagonal = np.eye(1, dtype=complex)
        for factor in [phases] * (n - k) + [phases.conj()] * k:
            diagonal = np.kron(diagonal, factor)
        assert sup_norm(mat * diagonal - diagonal[:, None] * mat) <= 1e-12
        assert self.residual(mat, n, k, d) > 1.0
        assert self.haar_residual(mat, n, k, d) > 1.0

    @pytest.mark.parametrize("conjugated", [(), (1,)])
    def test_only_the_scalars_commute_on_one_site(self, conjugated):
        # each sector of one site is one index, and each diagonal unit
        # matrix misses some generator: |2><2| commutes with the U(2) of
        # levels 0 and 1, but not with E_12
        d = 3
        assert self.residual(np.eye(d), 1, 0, d, conjugated) == 0
        for a in range(d):
            unit = np.zeros((d, d))
            unit[a, a] = 1.0
            assert self.residual(unit, 1, 0, d, conjugated) == 1.0

    def test_peak_is_one_accumulator(self):
        # the rows packed twice, one root's two frames and its gathered
        # commutator with its index (2.9 MB): less than the dense F (4.3 MB)
        n, k, d = 6, 2, 3
        real = self.projector(n, k, d, (2, 2), (2,))
        f = gather_rows(DenseOperator(n, d, real), range(n - k + 1, n + 1))
        tracemalloc.start()
        try:
            covariance_residual(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * f.rows.nbytes < real.nbytes

    @pytest.mark.parametrize("n,k,d,mu,alpha,expected", [
        (6, 2, 3, "[2,2]", "[2]", "9.36750677027e-17"),
        (7, 2, 3, "[3,2]", "[3]", "6.86950496487e-16"),
        (6, 2, 4, "[2,2]", "[2]", "4.68375338514e-17"),
        (8, 1, 2, "[5,2]", "[4,2]", "5.07379511669e-15")])
    def test_the_reported_strings(self, capsys, n, k, d, mu, alpha, expected):
        # the strings CI pins: the residual takes no BLAS call, so its bits
        # are those of the core's additions on any thread count
        code, out, _ = run(capsys, "projector", "--n", str(n), "--k", str(k), "--d", str(d),
                           "--mu", mu, "--alpha", alpha, "--format", "json")
        assert code == 0 and json.loads(out)["commutant_residual"] == expected


class TestNonRealProjector:
    def test_exits_2_on_one_line(self, capsys, monkeypatch):
        def f_projector_with_imaginary_coefficient(*args):
            element = f_projector(*args)
            coeffs = element.coeffs.copy()
            coeffs[0, 0] += 1e-3j
            return WbaElement(element.n, element.pairings, coeffs)

        monkeypatch.setattr("wba.cli.f_projector", f_projector_with_imaginary_coefficient)
        code, out, err = run(capsys, "projector", "--n", "4", "--k", "1", "--d", "2",
                             "--mu", "[2,1]", "--alpha", "[2]")
        assert code == 2 and out == ""
        assert err == "error: the element has a non-real coefficient\n"


class TestEmptyRange:
    @pytest.mark.parametrize("flag,value", [("--alpha", "1:0:0.1"), ("--beta", "0.5:0.2:0.1")])
    def test_empty_range_fails_on_one_line(self, capsys, flag, value):
        ranges = {"--alpha": "0:0:1", "--beta": "0:0:1", flag: value}
        code, out, err = run(capsys, "scan-bcs", *(x for kv in ranges.items() for x in kv))
        assert code == 1 and out == ""
        assert len(err.strip().splitlines()) == 1 and "empty range" in err


class TestRangeBelowTheFloatSpacing:
    """A step too small to move start repeats the point (1e17) or never
    passes stop (1e308): both are refused on one line."""

    @pytest.mark.parametrize("value", ["1e17:1e17:1", "1e308:1e308:1"])
    def test_fails_on_one_line(self, capsys, value):
        code, out, err = run(capsys, "scan-bcs", "--alpha", "0:0:1", f"--beta={value}")
        assert code == 1 and out == ""
        start = float(value.split(":")[0])
        assert err == f"error: --beta: range {value!r} repeats {start:g}: the step is too small\n"

    def test_a_step_of_one_spacing_moves(self):
        start = 1e17    # floats there are 16 apart
        assert _parse_range(f"{start!r}:{start + 48!r}:16") == [start + 16 * i for i in range(4)]


class TestSmallStepRange:
    """A step below RANGE_FUZZ scales the stop fuzz and the rounding: the
    range ends at or below stop and keeps its points apart."""

    @pytest.mark.parametrize("text,points", [
        ("0:1e-11:1e-12", [i / 1e12 for i in range(11)]),
        ("0:4.5e-12:1e-12", [i / 1e12 for i in range(5)]),
        ("1e-14:5e-14:1e-14", [i / 1e14 for i in range(1, 6)]),
    ])
    def test_points(self, text, points):
        assert _parse_range(text) == points

    def test_scan_prints_each_point(self, capsys):
        code, out, err = run(capsys, "scan-bcs", "--alpha=1e-14:5e-14:1e-14", "--beta", "0:0:1")
        assert code == 0 and err == ""
        assert [row.split(",")[0] for row in out.splitlines()[1:]] == [
            "1e-14", "2e-14", "3e-14", "4e-14", "5e-14"]


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


def _fresh_env():
    """The environment of a fresh interpreter that imports this wba."""
    src = str(Path(wba.__file__).resolve().parent.parent)
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


_N7_JSON = ["projector", "--n", "7", "--k", "1", "--d", "2", "--mu", "[4,2]",
            "--alpha", "[3,2]", "--format", "json"]


class TestClosedStdout:
    def test_closed_reader_ends_quietly(self):
        # the read end is closed before the CLI writes: its output counts
        # as delivered, with no traceback and the usual exit code
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "wba.cli", "werner-ppt", "--r=-0.1,0,0,0,0,0"],
                stdout=write_end, stderr=subprocess.PIPE, env=_fresh_env(), timeout=120)
        finally:
            os.close(write_end)
        assert proc.stderr == b"" and proc.returncode == 0

    def test_reader_closed_mid_stream(self):
        # the 620 kB report outruns the pipe: the reader leaves after its
        # first 64 kB, while the listing is still being written
        proc = subprocess.Popen([sys.executable, "-m", "wba.cli", *_N7_JSON],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_fresh_env())
        try:
            head = proc.stdout.read(1 << 16)
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
        finally:
            proc.kill()
        assert head.startswith(b"{") and len(head) == 1 << 16
        assert err == b"" and proc.returncode == 0


def test_cli_imports_no_numpy_ma():
    """The projector reports, json and text, verify-props (which lists its
    kernels), scan-bcs, ew-maps and werner-ppt (which build the Werner
    support) never import numpy.ma.
    numpy imports it lazily, when an entry point that needs it first runs
    (a np.unique without flags does), and that import costs every CLI
    process 10-15 ms."""
    script = ("import contextlib, io, sys\n"
              "from wba.cli import main\n"
              "for argv in sys.argv[1:]:\n"
              "    with contextlib.redirect_stdout(io.StringIO()):\n"
              "        assert main(argv.split()) == 0, argv\n"
              "print('numpy.ma' in sys.modules)\n")
    proc = subprocess.run(
        [sys.executable, "-c", script, " ".join(_N7_JSON),
         " ".join(_N7_JSON[:-1] + ["text"]), "verify-props --tuples 2",
         "scan-bcs --alpha 0:1:0.5 --beta=-0.5:0.1:0.3",
         "ew-maps --d 4 --instances 2", "werner-ppt --r 0.2,0.05,0.75,0,0.5,0.5 --d 5"],
        capture_output=True, text=True, env=_fresh_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
