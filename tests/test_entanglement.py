import dataclasses
import functools
import hashlib
import itertools
import math
import timeit
import tracemalloc

import numpy as np
import pytest

from wba import cli, dense_ops, entanglement as ent, verification
from wba.dense_ops import DenseOperator, haar_unitary, random_matrix, sup_norm
from wba.entanglement import (
    PartitionSpec,
    SearchBudget,
    WernerParams,
    bcs_alpha_threshold,
    bcs_kernel,
    bcs_positivity_condition,
    check_block_positive,
    eggeling_werner_map,
    eggeling_werner_map_trace,
    proposition1_check,
    random_valid_werner,
    scan_bcs_region,
    werner_ppt_conditions,
    werner_state,
)
from wba.sym_core import Permutation, parse_permutation
from wba.tolerances import ATOL, EIG_TOL, ORACLE_TOL, PRODUCT_BAND, SEESAW_STOP
from wba.wba_algebra import from_permutation, realize

from test_cli import gather_rows

# r_k = tr(R_k) / 27 of the maximally mixed state at d = 3
MAXIMALLY_MIXED_RS = np.array((10, 1, 16, 0, 0, 0)) / 27


@pytest.fixture
def rng():
    return np.random.default_rng(31)


def _stack(params):
    """T parameter sets of one d as one of (T, 1, 1) r arrays."""
    return WernerParams(tuple(np.array([p.rs for p in params]).T[..., None, None]), params[0].d)


def _bcs_verdict(alpha, beta, d=3):
    """check_covariant_block_positive of the BCS kernel at (alpha, beta)."""
    return ent.check_covariant_block_positive(ent.BCS_TERMS, (2,), (1, 1, alpha, beta), d)


def _block_minimum(m):
    """Least eigenvalue of the block <e_1|M|e_1> on sites 2 and 3: the exact
    1|23 product minimum of an M that commutes with U or conj(U) on each
    site, for every unitary U."""
    d = m.d
    return float(np.linalg.eigvalsh(m.mat.reshape(d, d * d, d, d * d)[0, :, 0])[0])


def _bits(x):
    """The bytes of a complex or float value, or of an array of them."""
    return np.ascontiguousarray(x).view(np.uint64)


@functools.cache
def _dense_basis(d):
    """Dense id, (12), (23), (31), (123), (321) on three factors and the
    orthogonal basis R_+, R_-, R_0, R_1, R_2, R_3 built from them, in that
    order: the matrices whose support werner_state keeps."""
    perms = tuple(realize(parse_permutation(t, 3), d)
                  for t in ("()", "(1 2)", "(2 3)", "(3 1)", "(1 2 3)", "(3 2 1)"))
    one, p12, p23, p31, p123, p321 = perms
    s3 = math.sqrt(3.0)
    rk = (
        (one + p12 + p23 + p31 + p123 + p321) / 6.0,
        (one - p12 - p23 - p31 + p123 + p321) / 6.0,
        (2.0 * one - p123 - p321) / 3.0,
        (2.0 * p23 - p31 - p12) / 3.0,
        (p12 - p31) / s3,
        1j * (p123 - p321) / s3,
    )
    return perms, rk


def _dense_werner_state(params):
    """The dense alpha sum over the six realized permutations, checked
    against the dense R_k sum of the c coefficients: werner_state's
    reference, and the check of the alpha formula."""
    perms, rk = _dense_basis(params.d)
    mat = sum(a * p for a, p in zip(params.alphas, perms))
    mat_c = sum(c * r for c, r in zip(ent.cs_from_rs(params.rs, params.d), rk))
    scale = np.maximum(1.0, np.abs(mat).max(axis=(-2, -1)))
    if (np.abs(mat - mat_c).max(axis=(-2, -1)) > ATOL * scale).any():
        raise ValueError("alpha and c coefficient sets disagree")
    return mat


def _dense_bcs_kernel(alpha, beta, d):
    """The four realized terms of the BCS kernel summed densely in its
    order: bcs_kernel's reference."""
    p = parse_permutation
    return (realize(from_permutation(p("(1 2)", 3), {2}), d) + realize(p("(3 1)", 3), d)
            + alpha * realize(p("()", 3), d)
            + beta * realize(from_permutation(p("(2 3)", 3), {2}), d))


def _scalar_alphas(cs):
    """The scalar permutation-basis expansion the shared formula replaced."""
    cp, cm, c0, c1, c2, c3 = cs
    s3 = math.sqrt(3.0)
    return (
        complex(cp / 6 + cm / 6 + 2 * c0 / 3),
        complex(cp / 6 - cm / 6 - c1 / 3 + c2 / s3),
        complex(cp / 6 - cm / 6 + 2 * c1 / 3),
        complex(cp / 6 - cm / 6 - c1 / 3 - c2 / s3),
        complex(cp / 6 + cm / 6 - c0 / 3 + 1j * c3 / s3),
        complex(cp / 6 + cm / 6 - c0 / 3 - 1j * c3 / s3),
    )


def _scalar_draw(rng, d):
    """One parameter vector by the scalar draw the batched one replaced."""
    rp, rm, r0 = rng.dirichlet((1.0, 1.0, 1.0))
    direction = rng.standard_normal(3)
    direction /= np.linalg.norm(direction)
    radius = r0 * rng.random() ** (1.0 / 3.0)
    r1, r2, r3 = radius * direction
    return WernerParams(tuple(float(r) for r in (rp, rm, r0, r1, r2, r3)), d)


class TestBcsKernel:
    def test_hermitian(self):
        for alpha, beta in ((0.0, 0.0), (0.25, -0.1), (1.3, 0.4)):
            m = bcs_kernel(alpha, beta, 3).mat
            assert sup_norm(m - m.conj().T) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    def test_trace_matches_term_traces(self, d):
        # term-by-term oracle: tr (12)^{T2} = tr (12) = d^2 (trace is
        # invariant under partial transposition), tr (13) = d^2, tr id = d^3
        alpha, beta = 0.3, -0.2
        kernel = bcs_kernel(alpha, beta, d)
        expect = d * d + d * d + alpha * d ** 3 + beta * d * d
        assert np.isclose(np.trace(kernel.mat), expect)

    def test_scan_kernels_equal_term_by_term_sum(self, monkeypatch):
        scanned = []
        real_dense = ent._dense

        def recorded(listed):
            out = real_dense(listed)
            scanned.extend(out.mat)
            return out

        monkeypatch.setattr(ent, "_dense", recorded)
        alphas, betas = [0.0, 0.3, 1 / 3], [-0.45, 0.0, 0.1]
        scan_bcs_region(alphas, betas, 3)
        points = [(a, b) for a in alphas for b in betas]
        assert len(scanned) == len(points)      # every member of every stack, in grid order
        for mat, (alpha, beta) in zip(scanned, points):
            assert np.array_equal(mat, _dense_bcs_kernel(alpha, beta, 3))
            assert np.array_equal(bcs_kernel(alpha, beta, 3).mat, _dense_bcs_kernel(alpha, beta, 3))

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_kernel_is_the_dense_sum_bit_for_bit(self, d):
        values = (0.0, -0.0, 1e16, -1e16, 0.25, -0.1, 1 / 3)
        points = [(alpha, beta) for alpha in values for beta in values]
        for alpha, beta in points:
            assert np.array_equal(_bits(bcs_kernel(alpha, beta, d).mat),
                                  _bits(_dense_bcs_kernel(alpha, beta, d)))
        alphas, betas = np.array(points).T[..., None, None]
        stacked = bcs_kernel(alphas, betas, d)
        assert stacked.mat.shape == (len(points), d ** 3, d ** 3)
        assert np.array_equal(_bits(stacked.mat), _bits(_dense_bcs_kernel(alphas, betas, d)))
        for mat, (alpha, beta) in zip(stacked.mat, points):     # each member is its point's
            assert np.array_equal(_bits(mat), _bits(bcs_kernel(alpha, beta, d).mat))

    def test_no_dense_basis_is_held(self):
        # four dense d^3 x d^3 terms cached per d held 61 MiB at d = 10;
        # the kernel's cached listing structure holds about 63 KB
        ent._term_index.cache_clear()
        tracemalloc.start()
        try:
            bcs_kernel(0.25, -0.1, 10)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            ent._term_index.cache_clear()
        assert held < 1 << 20, held

    def test_d_below_two_is_refused_before_any_work(self):
        with pytest.raises(ValueError, match="need d >= 2"):
            bcs_kernel(0.25, -0.1, 1)
        with pytest.raises(ValueError, match=r"stated for d >= 3"):
            scan_bcs_region([], [0.0], 1)

    @pytest.mark.parametrize("d", [1, 2])
    def test_scan_below_three_classifies_no_kernel(self, d, monkeypatch):
        # the analytic condition is stated for d >= 3: a d = 2 scan once
        # classified its whole grid before the condition refused it
        calls = []
        monkeypatch.setattr(ent, "check_covariant_block_positive",
                            lambda *args: calls.append(args) or [])
        with pytest.raises(ValueError, match=r"^the analytic condition is stated for d >= 3$"):
            scan_bcs_region([0.0, 0.5], [-0.1, 0.0], d)
        assert calls == []
        assert bcs_kernel(0.25, -0.1, 2).mat.shape == (8, 8)   # the kernel keeps d = 2

    def test_witness_point_spectrum(self):
        kernel = bcs_kernel(0.25, -0.1, 3)
        assert dense_ops.min_eigenvalue(kernel) < -1e-3


class TestBcsCondition:
    def test_beta_zero_threshold(self):
        assert bcs_alpha_threshold(0.0, 3) == 0.0
        assert bcs_positivity_condition(0.0, 0.0, 3)
        assert not bcs_positivity_condition(-1e-6, 0.0, 3)

    def test_paper_threshold_value(self):
        th = bcs_alpha_threshold(-0.1, 3)
        assert th == pytest.approx((-(2 + 3 * -0.1) + math.sqrt(9 * 0.01 + 0.4 + 4)) / 2)
        assert abs(th - 0.2095) < 2e-4
        assert round(th, 2) == 0.21

    def test_witness_point_is_positive_map(self):
        assert bcs_positivity_condition(0.25, -0.1, 3)
        assert not bcs_positivity_condition(0.20, -0.1, 3)

    def test_monotone_in_alpha(self):
        for beta in (-0.4, -0.1, 0.0, 0.3):
            th = bcs_alpha_threshold(beta, 3)
            assert bcs_positivity_condition(th + 0.01, beta, 3)
            assert not bcs_positivity_condition(th - 0.01, beta, 3)


class TestBlockPositive:
    def test_identity_is_psd(self):
        verdict = check_block_positive(DenseOperator(2, 2, np.eye(4, dtype=complex)),
                                       PartitionSpec.parse("1|2"), SearchBudget(seed=0))
        assert verdict.classification == ent.PSD

    def test_negative_identity(self):
        m = DenseOperator(2, 2, -np.eye(4, dtype=complex))
        verdict = check_block_positive(m, PartitionSpec.parse("1|2"),
                                       SearchBudget(seed=0, restarts=4, samples=16))
        assert verdict.classification == ent.NOT_BLOCK_POSITIVE
        assert verdict.violating_product_state is not None
        value = ent.product_state_value(m, PartitionSpec.parse("1|2"),
                                        verdict.violating_product_state)
        assert value < -1e-7

    def test_witness_point(self):
        kernel = bcs_kernel(0.25, -0.1, 3)
        verdict = check_block_positive(kernel, PartitionSpec.parse("1|23"),
                                       SearchBudget(seed=5, restarts=16, samples=64))
        assert verdict.classification == ent.WITNESS_CANDIDATE
        assert verdict.min_eig < -1e-6
        assert verdict.product_min_estimate >= -1e-7

    def test_swap_witness_three_blocks(self):
        # the swap operator is negative on no product state but not PSD
        swap = DenseOperator(2, 2, np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex))
        verdict = check_block_positive(swap, PartitionSpec.parse("1|2"),
                                       SearchBudget(seed=1, restarts=8, samples=32))
        assert verdict.classification == ent.WITNESS_CANDIDATE

    def test_rejects_non_hermitian(self):
        m = DenseOperator(1, 2, np.array([[0, 1], [0, 0]], dtype=complex))
        with pytest.raises(ValueError):
            check_block_positive(m, PartitionSpec.parse("1"), SearchBudget())

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            PartitionSpec.parse("1|3")

    @pytest.mark.parametrize("text,message", [
        ("1|2x", "bad site 'x' in '1|2x'"),
        ("12|3|", "empty block in '12|3|'"),
        ("1||23", "empty block in '1||23'"),
        ("", "empty block in ''"),
    ])
    def test_malformed_partition_is_one_line(self, text, message):
        with pytest.raises(ValueError) as info:
            PartitionSpec.parse(text)
        assert str(info.value) == message

    # the constructor refuses the cuts parse refuses: "123|" is no partition of three sites
    @pytest.mark.parametrize("blocks,text", [(((1, 2, 3), ()), "123|"), (((), (1,)), "|1"),
                                             (((),), "")])
    def test_constructor_refuses_an_empty_block(self, blocks, text):
        with pytest.raises(ValueError) as info:
            PartitionSpec(blocks)
        assert str(info.value) == f"empty block in {text!r}"

    # a PSD 3-site operator with "1|2" would pass vacuously; the others
    # would reach numpy's transpose with too few or too many axes
    @pytest.mark.parametrize("m,cut", [
        (DenseOperator(3, 2, np.eye(8, dtype=complex)), "1|2"),
        (DenseOperator(3, 2, -np.eye(8, dtype=complex)), "1|2"),
        (DenseOperator(2, 2, -np.eye(4, dtype=complex)), "1|2|3"),
    ], ids=["psd-3-sites", "negative-3-sites", "negative-2-sites"])
    def test_partition_must_cover_the_sites(self, m, cut):
        partition = PartitionSpec.parse(cut)
        message = f"partition {cut} has {partition.n} sites, the operator {m.n}"
        vectors = [np.ones(2 ** len(b), complex) for b in partition.blocks]
        for call in (lambda: check_block_positive(m, partition),
                     lambda: ent.product_state_minimize(m, partition, SearchBudget()),
                     lambda: ent.product_state_value(m, partition, vectors)):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == message


def _reference_minimize(m, partition, budget):
    """Reference for product_state_minimize: the same search run one start
    at a time, counting sweeps and starts that met the stop rule."""
    rng = np.random.default_rng(budget.seed)
    t = ent._blocked_tensor(m, partition)
    dims = [m.d ** len(b) for b in partition.blocks]
    ell = len(dims)

    def draw():
        out = []
        for dim in dims:
            v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            out.append(v / np.linalg.norm(v))
        return out

    def effective(vecs, i):
        operands = [t, list(range(2 * ell))]
        for j, v in enumerate(vecs):
            if j != i:
                operands += [v.conj(), [j], v, [ell + j]]
        return np.einsum(*operands, [i, ell + i])

    best_val, best_vecs, sweeps, converged = math.inf, None, 0, 0
    for _ in range(budget.samples):
        vecs = draw()
        val = ent.product_state_value(m, partition, vecs)
        if val < best_val:
            best_val, best_vecs = val, tuple(v.copy() for v in vecs)
    for _ in range(budget.restarts):
        vecs = draw()
        current = ent.product_state_value(m, partition, vecs)
        for _ in range(budget.iterations):
            sweeps += 1
            for i in range(ell):
                eff = effective(vecs, i)
                w, u = np.linalg.eigh((eff + eff.conj().T) / 2.0)
                vecs[i] = u[:, 0]
                value = w[0]
            if current - value < SEESAW_STOP:
                current = value
                converged += 1
                break
            current = value
        if current < best_val:
            best_val, best_vecs = current, tuple(v.copy() for v in vecs)
    return best_val, best_vecs, sweeps, converged


class TestBatchedSearch:
    @pytest.mark.parametrize("cut,n", [("1|2", 2), ("1|23", 3), ("1|2|3", 3)])
    @pytest.mark.parametrize("seed,restarts,samples,iterations", [
        (0, 1, 0, 200), (1, 6, 48, 200), (2, 16, 512, 200), (3, 5, 7, 2), (4, 3, 2, 0)])
    def test_matches_per_start_loop(self, monkeypatch, cut, n, seed, restarts, samples,
                                    iterations):
        rng = np.random.default_rng([seed, n])
        partition = PartitionSpec.parse(cut)
        budget = SearchBudget(seed=seed, restarts=restarts, samples=samples,
                              iterations=iterations)
        g = random_matrix(3, n, rng)
        h = DenseOperator(n, 3, (g + g.conj().T) / 2)
        product_min = _reference_minimize(h, partition, budget)[0]
        # negative on a product state, 0.01 above the estimated product
        # minimum (a witness candidate), and PSD
        shifts = (0.0, 1e-2 - product_min, 0.1 - dense_ops.min_eigenvalue(h))
        classes = set()
        for shift in shifts:
            m = DenseOperator(n, 3, h.mat + shift * np.eye(3 ** n))
            value, vecs, sweeps, converged = ent.product_state_minimize(m, partition, budget)
            ref_value, ref_vecs, ref_sweeps, ref_converged = _reference_minimize(
                m, partition, budget)
            assert abs(value - ref_value) <= 1e-12
            assert (sweeps, converged) == (ref_sweeps, ref_converged)
            for v, ref in zip(vecs, ref_vecs, strict=True):
                assert abs(abs(np.vdot(ref, v)) - 1.0) <= 1e-9
            verdict = check_block_positive(m, partition, budget)
            with monkeypatch.context() as patch:
                patch.setattr(ent, "product_state_minimize", _reference_minimize)
                reference = check_block_positive(m, partition, budget)
            assert verdict.classification == reference.classification
            classes.add(verdict.classification)
        assert classes == {ent.NOT_BLOCK_POSITIVE, ent.WITNESS_CANDIDATE, ent.PSD}

    def test_budget_validation(self):
        m = DenseOperator(2, 2, np.eye(4, dtype=complex))
        partition = PartitionSpec.parse("1|2")
        for budget in (SearchBudget(restarts=0), SearchBudget(restarts=-3),
                       SearchBudget(samples=-1)):
            with pytest.raises(ValueError, match="restarts >= 1 and samples >= 0"):
                ent.product_state_minimize(m, partition, budget)
        value, _, _, _ = ent.product_state_minimize(m, partition,
                                                    SearchBudget(restarts=1, samples=0))
        assert value == pytest.approx(1.0)

    def test_verdict_statistics(self):
        kernel = bcs_kernel(0.25, -0.1, 3)
        partition = PartitionSpec.parse("1|23")
        verdict = check_block_positive(kernel, partition, SearchBudget(seed=5, restarts=16))
        assert verdict.classification == ent.WITNESS_CANDIDATE
        assert 16 <= verdict.sweeps <= 16 * 200 and 0 < verdict.converged_starts <= 16
        capped = check_block_positive(kernel, partition,
                                      SearchBudget(seed=5, restarts=16, iterations=1))
        assert capped.sweeps == 16
        psd = check_block_positive(DenseOperator(3, 3, np.eye(27, dtype=complex)), partition,
                                   SearchBudget())
        assert (psd.sweeps, psd.converged_starts) == (0, 0)


class TestOneStartAtATime:
    def test_criterion_6_result_is_pinned(self):
        # recorded from the batched search the per-start loop replaced
        value, vecs, sweeps, converged = ent.product_state_minimize(
            bcs_kernel(0.25, -0.1, 3), PartitionSpec.parse("1|23"),
            SearchBudget(restarts=64, iterations=200, samples=512, seed=2024))
        assert value == pytest.approx(0.040518994979144775, rel=1e-12, abs=0.0)
        assert (sweeps, converged) == (128, 64)
        assert [v.shape for v in vecs] == [(3,), (9,)]

    @pytest.mark.parametrize("cut", ["1|23", "1|2|3"])
    def test_one_search_reorders_the_operator_once(self, monkeypatch, cut):
        calls = []

        def counting(m, partition):
            calls.append(partition)
            return blocked(m, partition)

        blocked = ent._blocked_tensor
        monkeypatch.setattr(ent, "_blocked_tensor", counting)
        g = random_matrix(3, 3, np.random.default_rng(5))
        m = DenseOperator(3, 3, (g + g.conj().T) / 2)
        ent.product_state_minimize(m, PartitionSpec.parse(cut),
                                   SearchBudget(seed=1, restarts=3, samples=8, iterations=4))
        assert len(calls) == 1

    def test_a_start_scores_as_product_state_value(self):
        # no sweep runs, so the search returns the least of its start values,
        # each bit for bit what the independent recheck gives
        m = bcs_kernel(0.25, -0.1, 3)
        partition = PartitionSpec.parse("1|23")
        budget = SearchBudget(seed=7, restarts=2, samples=5, iterations=0)
        rng = np.random.default_rng(budget.seed)
        values = []
        for _ in range(budget.samples + budget.restarts):
            vecs = []
            for dim in (3, 9):
                v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
                vecs.append(v / np.linalg.norm(v))
            values.append(ent.product_state_value(m, partition, vecs))
        assert ent.product_state_minimize(m, partition, budget)[0] == min(values)

    @pytest.mark.parametrize("seed,restarts,samples,iterations", [
        (0, 1, 0, 200), (1, 6, 48, 200), (3, 5, 7, 2), (4, 3, 2, 0)])
    def test_a_cut_out_of_site_order_matches_the_reference(self, seed, restarts, samples,
                                                          iterations):
        rng = np.random.default_rng([seed, 3])
        g = random_matrix(3, 3, rng)
        m = DenseOperator(3, 3, (g + g.conj().T) / 2)
        partition = PartitionSpec.parse("3|12")
        budget = SearchBudget(seed=seed, restarts=restarts, samples=samples,
                              iterations=iterations)
        value, vecs, sweeps, converged = ent.product_state_minimize(m, partition, budget)
        ref_value, ref_vecs, ref_sweeps, ref_converged = _reference_minimize(
            m, partition, budget)
        assert abs(value - ref_value) <= 1e-12
        assert (sweeps, converged) == (ref_sweeps, ref_converged)
        assert value == pytest.approx(ent.product_state_value(m, partition, vecs), abs=1e-12)


BENCH_ALPHAS = [round(i * 0.1, 12) for i in range(11)]       # 0:1:0.1
BENCH_BETAS = [round(-0.5 + j * 0.05, 12) for j in range(13)]  # -0.5:0.1:0.05


class TestCovariantBlockMinimum:
    def test_bcs_grid_matches_analytic_condition(self, monkeypatch):
        def no_search(*args):
            raise AssertionError("the search ran")
        monkeypatch.setattr(ent, "product_state_minimize", no_search)
        rows = scan_bcs_region(BENCH_ALPHAS, BENCH_BETAS, 3)
        assert len(rows) == 143
        for r in rows:
            block_positive = r["class"] in (ent.PSD, ent.WITNESS_CANDIDATE)
            assert block_positive == r["analytic_positive"], r
            assert r["certified"] == (r["class"] != ent.PSD)

    def test_violations_carry_confirmed_states(self):
        partition = PartitionSpec.parse("1|23")
        violations = 0
        for alpha in BENCH_ALPHAS:
            for beta in BENCH_BETAS:
                verdict = _bcs_verdict(alpha, beta)
                if verdict.classification == ent.NOT_BLOCK_POSITIVE:
                    violations += 1
                    value = ent.product_state_value(bcs_kernel(alpha, beta, 3), partition,
                                                    verdict.violating_product_state)
                    assert value < -PRODUCT_BAND
                    assert value == pytest.approx(verdict.product_min_estimate, abs=1e-12)
        assert violations > 0

    def test_exact_value_below_search_on_werner_states(self, rng):
        partition = PartitionSpec.parse("1|23")
        budget = SearchBudget(seed=4, restarts=8, samples=64)
        for _ in range(3):
            params = random_valid_werner(rng, 3)
            rho = werner_state(params)
            for s in ((1,), (2,), (3,), (1, 2), (1, 3), (2, 3)):
                rho_ts = dense_ops.partial_transpose(rho, s)
                exact = _block_minimum(rho_ts)
                verdict = ent.check_covariant_block_positive(ent.WERNER_TERMS, s, params.alphas, 3)
                if verdict.classification != ent.PSD:
                    assert verdict.product_min_estimate == pytest.approx(exact, abs=1e-14)
                searched = ent.product_state_minimize(rho_ts, partition, budget)[0]
                assert exact <= searched + 1e-12
                # a product vector stays a product vector under T_1 or T_23
                if s in ((1,), (2, 3)):
                    assert exact >= -1e-12

    def test_exact_value_below_search_on_bcs_points(self):
        partition = PartitionSpec.parse("1|23")
        budget = SearchBudget(seed=6, restarts=8, samples=64)
        for alpha, beta in ((0.25, -0.1), (0.1, -0.3), (0.0, 0.0), (0.5, -0.5), (1.0, 0.1)):
            kernel = bcs_kernel(alpha, beta, 3)
            exact = _block_minimum(kernel)
            verdict = _bcs_verdict(alpha, beta)
            if verdict.classification != ent.PSD:
                assert verdict.product_min_estimate == pytest.approx(exact, abs=1e-14)
            searched = ent.product_state_minimize(kernel, partition, budget)[0]
            assert exact <= searched + 1e-12

    @pytest.mark.parametrize("terms", [((1, 2),), ((1, 2, 4),), ((1, 1, 2),),
                                       ((1, 2, 3), (3, 2))])
    def test_a_term_that_is_no_permutation_is_refused(self, terms, monkeypatch):
        monkeypatch.setattr(ent, "_listed", None)       # refused before any listing
        with pytest.raises(ValueError) as info:
            ent.check_covariant_block_positive(terms, (2,), (1.0,) * len(terms), 3)
        assert str(info.value) == f"term {terms[-1]} is not a permutation of (1, 2, 3)"

    def test_psd_step_is_unchanged(self):
        # check_block_positive's dense verdict, its least eigenvalue within
        # the two eigensolvers' rounding
        verdict, kernel = _bcs_verdict(5.0, -0.1), bcs_kernel(5.0, -0.1, 3)
        dense = check_block_positive(kernel, PartitionSpec.parse("1|23"))
        assert verdict.classification == dense.classification == ent.PSD
        assert verdict.certified is dense.certified is False
        bound = 1e-13 * max(1.0, sup_norm(kernel.mat))
        assert abs(verdict.min_eig - dense.min_eig) <= bound
        assert verdict == dataclasses.replace(dense, min_eig=verdict.min_eig,
                                              product_min_estimate=verdict.min_eig)

    def test_a_stack_gives_each_point_its_verdict(self):
        # one stacked call, each verdict that of its point alone, vectors too
        points = [(0.0, -0.5), (5.0, -0.1), (0.25, -0.1), (0.0, 1e20), (0.1, -0.3)]
        alphas, betas = np.array(points).T[..., None, None]
        stacked = ent.check_covariant_block_positive(ent.BCS_TERMS, (2,), (1, 1, alphas, betas), 3)
        assert stacked == [_bcs_verdict(alpha, beta) for alpha, beta in points]
        assert {v.classification for v in stacked} == {
            ent.PSD, ent.WITNESS_CANDIDATE, ent.NOT_BLOCK_POSITIVE, ent.INCONCLUSIVE}


    @pytest.mark.parametrize("s", list(ent.ROW_SUBSETS.values()))
    def test_a_werner_stack_gives_each_state_its_verdict(self, s, rng):
        # twelve stacked states at d = 4, each verdict that of its state alone
        params = ent.random_werner_instances(rng, 4, 12)[0]
        stacked = ent.check_covariant_block_positive(ent.WERNER_TERMS, s, params.alphas, 4)
        alone = [WernerParams(tuple(float(r[i, 0, 0]) for r in params.rs), 4) for i in range(12)]
        assert stacked == [ent.check_covariant_block_positive(ent.WERNER_TERMS, s, p.alphas, 4)
                           for p in alone]
        assert {v.classification for v in stacked} - {ent.PSD}


class TestStackedRecheck:
    # check_covariant_block_positive rechecks the product states of a
    # stack's violating members by one call of _first_block_values
    MIXED = [(0.0, -0.5), (5.0, -0.1), (0.25, -0.1), (0.0, 1e20), (0.1, -0.3)]

    def test_the_recheck_gates_each_violation(self, monkeypatch):
        alphas, betas = np.array(self.MIXED).T[..., None, None]
        coeffs = (1, 1, alphas, betas)
        confirmed = ent.check_covariant_block_positive(ent.BCS_TERMS, (2,), coeffs, 3)
        monkeypatch.setattr(ent, "_first_block_values",
                            lambda mats, vectors: np.zeros(len(mats)))
        refuted = ent.check_covariant_block_positive(ent.BCS_TERMS, (2,), coeffs, 3)
        assert {v.classification for v in confirmed} == {
            ent.PSD, ent.WITNESS_CANDIDATE, ent.NOT_BLOCK_POSITIVE, ent.INCONCLUSIVE}
        for before, after in zip(confirmed, refuted):
            if before.classification == ent.NOT_BLOCK_POSITIVE:
                assert after == dataclasses.replace(
                    before, classification=ent.INCONCLUSIVE, violating_product_state=None,
                    certified=False)
            else:
                assert after == before

    def test_a_stack_of_violations_is_rechecked_without_a_copy(self, monkeypatch):
        # selecting the members would copy every matrix, 48 MB a member at
        # d = 12, where each stack is one point
        written, passed = [], []
        real_dense, real_recheck = ent._dense, ent._first_block_values
        monkeypatch.setattr(ent, "_dense", lambda listed: (
            written.append(real_dense(listed)) or written[-1]))
        monkeypatch.setattr(ent, "_first_block_values", lambda mats, vectors: (
            passed.append(mats) or real_recheck(mats, vectors)))
        alphas, betas = np.array([(0.0, -0.5), (0.1, -0.3)]).T[..., None, None]
        verdicts = ent.check_covariant_block_positive(ent.BCS_TERMS, (2,), (1, 1, alphas, betas), 3)
        assert [v.classification for v in verdicts] == [ent.NOT_BLOCK_POSITIVE] * 2
        assert len(passed) == 1 and passed[0] is written[0].mat

    def test_the_grid_is_rechecked_a_stack_at_a_time(self, monkeypatch):
        # the golden 11 x 13 grid at d = 3, 7 stacks: no per-point
        # reorder, Kronecker product or form, one recheck of each stack's
        # violating members at most
        calls = {"product_state_value": 0, "_blocked_tensor": 0, "kron_all": 0}

        def spy(module, name):
            real = getattr(module, name)

            def counted(*args):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(module, name, counted)
        for module, name in ((ent, "product_state_value"), (ent, "_blocked_tensor"),
                             (dense_ops, "kron_all")):
            spy(module, name)
        rechecked = []
        real_recheck = ent._first_block_values
        monkeypatch.setattr(ent, "_first_block_values", lambda mats, vectors: (
            rechecked.append(len(mats)) or real_recheck(mats, vectors)))
        rows = scan_bcs_region(BENCH_ALPHAS, BENCH_BETAS, 3)
        assert calls == {"product_state_value": 0, "_blocked_tensor": 0, "kron_all": 0}
        violations = sum(r["class"] == ent.NOT_BLOCK_POSITIVE for r in rows)
        assert 1 <= len(rechecked) <= 7 and sum(rechecked) == violations == 67

    @pytest.mark.parametrize("d", [3, 4])
    def test_bcs_violations_reevaluate_below_the_band(self, d):
        partition = PartitionSpec.parse("1|23")
        points = [(alpha, beta) for alpha in BENCH_ALPHAS for beta in BENCH_BETAS]
        alphas, betas = np.array(points).T[..., None, None]
        verdicts = ent.check_covariant_block_positive(ent.BCS_TERMS, (2,), (1, 1, alphas, betas), d)
        violations = 0
        for (alpha, beta), verdict in zip(points, verdicts):
            if verdict.classification == ent.NOT_BLOCK_POSITIVE:
                violations += 1
                value = ent.product_state_value(bcs_kernel(alpha, beta, d), partition,
                                                verdict.violating_product_state)
                assert value < -PRODUCT_BAND
                assert value == pytest.approx(verdict.product_min_estimate, abs=1e-12)
        assert violations > 0

    def test_werner_violations_reevaluate_below_the_band(self, rng):
        # twelve stacked states at d = 4 for each S
        partition = PartitionSpec.parse("1|23")
        violations = 0
        for s in ent.ROW_SUBSETS.values():
            params = ent.random_werner_instances(rng, 4, 12)[0]
            verdicts = ent.check_covariant_block_positive(ent.WERNER_TERMS, s, params.alphas, 4)
            rho_ts = dense_ops.partial_transpose(werner_state(params), s)
            for mat, verdict in zip(rho_ts.mat, verdicts):
                if verdict.classification == ent.NOT_BLOCK_POSITIVE:
                    violations += 1
                    value = ent.product_state_value(DenseOperator(3, 4, mat), partition,
                                                    verdict.violating_product_state)
                    assert value < -PRODUCT_BAND
                    assert value == pytest.approx(verdict.product_min_estimate, abs=1e-12)
        assert violations > 0


# the index of each WERNER_TERMS permutation's inverse: (sigma^{T_S})^dagger
# is (sigma^-1)^{T_S}, so sum_t c_t sigma_t^{T_S} is hermitian when
# c[INVERSE] == conj(c)
INVERSE = (0, 1, 2, 3, 5, 4)
ALL_SUBSETS = [s for size in range(4) for s in itertools.combinations((1, 2, 3), size)]


def _dense_sum(terms, s, coeffs, d):
    """sum_t coeffs[t] terms[t]^{T_S}, each diagram realized on its own."""
    return DenseOperator(3, d, sum(c * realize(from_permutation(Permutation(term), set(s)), d)
                                   for term, c in zip(terms, coeffs)))


class TestS3MinEigenvalue:
    """The least eigenvalue of an S_3 sum from the 6 x 6 algebra matrix
    (5 x 5 at d = 2) against the dense eigensolver on the realized sum."""

    @staticmethod
    def bound(m):
        return 1e-13 * max(1.0, sup_norm(m.mat))

    @pytest.mark.parametrize("d", range(2, 9))
    @pytest.mark.parametrize("s", ALL_SUBSETS, ids=lambda s: "S" + "".join(map(str, s)))
    def test_hermitian_sums(self, s, d):
        rng = np.random.default_rng([d, *s])
        for _ in range(2):
            c = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            c = (c + c[list(INVERSE)].conj()) / 2
            m = _dense_sum(ent.WERNER_TERMS, s, c, d)
            got = ent._s3_min_eigenvalue(ent.WERNER_TERMS, s, tuple(c), d)
            assert isinstance(got, float)
            assert abs(got - dense_ops.min_eigenvalue(m)) <= self.bound(m)

    def test_the_span_has_rank_5_at_d2(self):
        assert ent._s3_table(ent.WERNER_TERMS, (), 2).shape == (6, 5, 5)
        assert ent._s3_table(ent.WERNER_TERMS, (3,), 2).shape == (6, 5, 5)
        assert ent._s3_table(ent.WERNER_TERMS, (1, 3), 3).shape == (6, 6, 6)

    @pytest.mark.parametrize("d", range(3, 9))
    def test_bcs_kernels(self, d):
        rng = np.random.default_rng(40 + d)
        for alpha, beta in rng.uniform(-1.0, 1.0, (4, 2)):
            kernel = bcs_kernel(alpha, beta, d)
            got = ent._s3_min_eigenvalue(ent.BCS_TERMS, (2,), (1, 1, alpha, beta), d)
            assert abs(got - dense_ops.min_eigenvalue(kernel)) <= self.bound(kernel)

    @pytest.mark.parametrize("s", [(), (2,), (1, 3)])
    def test_a_stack_gives_each_member_its_value(self, s, rng):
        params = ent.random_werner_instances(rng, 4, 9)[0]
        stacked = ent._s3_min_eigenvalue(ent.WERNER_TERMS, s, params.alphas, 4)
        assert stacked.shape == (9,)
        alone = [ent._s3_min_eigenvalue(ent.WERNER_TERMS, s, tuple(complex(a[i, 0, 0])
                                                                   for a in params.alphas), 4)
                 for i in range(9)]
        assert stacked.tolist() == alone

    def test_a_non_hermitian_sum_is_refused(self):
        # a complex coefficient on the identity, a self-adjoint term
        coeffs = (1, 1, 0.25 + 0.5j, -0.1)
        with pytest.raises(ValueError) as dense:
            dense_ops.min_eigenvalue(_dense_sum(ent.BCS_TERMS, (2,), coeffs, 3))
        with pytest.raises(ValueError) as info:
            ent._s3_min_eigenvalue(ent.BCS_TERMS, (2,), coeffs, 3)
        prefix = "matrix is not a finite hermitian one (deviation "
        assert str(info.value).startswith(prefix) and str(dense.value).startswith(prefix)
        assert "\n" not in str(info.value)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("alpha, beta", [(math.nan, 0.0), (0.0, math.inf),
                                             (-math.inf, 1.0), (1e308, 1e308)])
    def test_a_non_finite_sum_is_refused(self, alpha, beta):
        with pytest.raises(ValueError) as info, np.errstate(over="ignore"):
            ent._s3_min_eigenvalue(ent.BCS_TERMS, (2,), (1, 1, alpha, beta), 3)
        assert str(info.value) == "matrix is not a finite hermitian one (non-finite entry)"

    def test_no_dense_eigensolve_of_the_sums(self, monkeypatch, capsys):
        # scan_bcs_region, proposition1_check and werner-ppt take no least
        # eigenvalue of a d^3 x d^3 matrix; the map outputs' stay dense
        real = dense_ops.min_eigenvalue

        def spy(m):
            if m.mat.shape[-1] in (27, 64):
                raise AssertionError(f"a dense {m.mat.shape[-1]} x {m.mat.shape[-1]} eigensolve")
            return real(m)
        monkeypatch.setattr(dense_ops, "min_eigenvalue", spy)
        rows = scan_bcs_region(BENCH_ALPHAS, BENCH_BETAS, 3)
        assert {r["class"] for r in rows} >= {ent.PSD, ent.NOT_BLOCK_POSITIVE}
        for d in (3, 4):
            params = random_valid_werner(np.random.default_rng(25), d)
            for s in ent.ROW_SUBSETS.values():
                assert proposition1_check(params, s)["contradictions"] == []
        for d in ("3", "4"):
            assert cli.main(["werner-ppt", "--r", "0.2,0.05,0.75,0,0.5,0.5", "--d", d]) == 0
        assert '"min_eig_partial_transpose_1": "-0.0514528658239"' in capsys.readouterr().out


class TestVerdictEquality:
    """Two verdicts are equal when every field is, the block vectors by value."""

    def test_verdicts_with_vectors(self):
        a, b = _bcs_verdict(0.0, -0.5), _bcs_verdict(0.0, -0.5)
        assert a.classification == ent.NOT_BLOCK_POSITIVE
        assert a.violating_product_state[1] is not b.violating_product_state[1]
        assert a == b and not a != b
        vectors = tuple(v.copy() for v in b.violating_product_state)
        vectors[1][0] += 1e-3
        changed = dataclasses.replace(b, violating_product_state=vectors)
        assert a != changed and changed != a

    def test_every_field_counts(self):
        a = _bcs_verdict(0.0, -0.5)
        e1 = a.violating_product_state[0]
        for name, value in (("classification", ent.INCONCLUSIVE), ("min_eig", 1.0),
                            ("product_min_estimate", 0.0), ("violating_product_state", None),
                            ("violating_product_state", (e1,)), ("sweeps", 1),
                            ("converged_starts", 1), ("certified", False)):
            assert a != dataclasses.replace(a, **{name: value}), name
        assert a != ent.NOT_BLOCK_POSITIVE and a == dataclasses.replace(a)


@pytest.mark.filterwarnings("error")
class TestNonFiniteOperators:
    """A NaN or infinite entry, inside the e_1 block (index 4) or outside it
    (index 9), or a NaN or infinite kernel coefficient, is refused by every
    entry point, never given a minimum, and no warning is raised on the way."""

    @staticmethod
    def kernel(index, value):
        mat = bcs_kernel(0.25, -0.1, 3).mat.copy()
        mat[index, index] = value
        return DenseOperator(3, 3, mat)

    @pytest.mark.parametrize("term", [2, 3], ids=["alpha", "beta"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_no_exact_minimum(self, term, value):
        coeffs = [1, 1, 0.25, -0.1]
        coeffs[term] = value
        with pytest.raises(ValueError, match="finite hermitian") as info:
            ent.check_covariant_block_positive(ent.BCS_TERMS, (2,), tuple(coeffs), 3)
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_no_exact_minimum_at_d1(self, value):
        # d = 1 has one sector and no simple roots: the PSD step refuses it
        with pytest.raises(ValueError, match="finite hermitian"):
            _bcs_verdict(value, 0.0, 1)

    @pytest.mark.parametrize("index", [4, 9])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("check", [
        dense_ops.min_eigenvalue,
        lambda m: check_block_positive(m, PartitionSpec.parse("1|23")),
    ], ids=["min_eigenvalue", "check_block_positive"])
    def test_one_line_error(self, check, index, value):
        with pytest.raises(ValueError, match="finite hermitian"):
            check(self.kernel(index, value))


class TestWernerParams:
    def test_projector_basis_traces(self):
        d = 3
        r_plus, r_minus, r_0, *r_123 = _dense_basis(d)[1]
        assert np.isclose(np.trace(r_plus), d * (d ** 2 + 3 * d + 2) / 6)
        assert np.isclose(np.trace(r_minus), d * (d ** 2 - 3 * d + 2) / 6)
        assert np.isclose(np.trace(r_0), 2 * d * (d ** 2 - 1) / 3)
        for r in r_123:
            assert abs(np.trace(r)) < 1e-12

    def test_rk_gram_matrix_diagonal(self):
        rk = _dense_basis(3)[1]
        for i, a in enumerate(rk):
            for b in rk[i + 1:]:
                assert abs(np.trace(a @ b)) < 1e-10

    def test_symmetrizer_state(self):
        d = 3
        params = WernerParams.from_rs((1, 0, 0, 0, 0, 0), d)
        rho = werner_state(params)
        r_plus = _dense_basis(d)[1][0]
        assert sup_norm(rho.mat - r_plus / np.trace(r_plus).real) < 1e-12

    def test_maximally_mixed(self):
        d = 3
        params = WernerParams.from_rs(MAXIMALLY_MIXED_RS, d)
        rho = werner_state(params)
        assert sup_norm(rho.mat - np.eye(d ** 3) / d ** 3) < 1e-14
        for r_val, r in zip(params.rs, _dense_basis(d)[1]):
            assert np.isclose(r_val, np.trace(r).real / d ** 3)

    def test_expectations_recovered_from_state(self, rng):
        d = 3
        rk = _dense_basis(d)[1]
        for _ in range(20):
            params = random_valid_werner(rng, d)
            rho = werner_state(params)
            for r_val, r in zip(params.rs, rk):
                assert np.isclose(r_val, np.trace(rho.mat @ r).real, atol=1e-10)

    def test_basis_realized_once_per_dimension(self, monkeypatch):
        # each (terms, S, d) key of the cache runs one index product: the
        # state's and the kernel's at d = 3, at d = 4, and none on the repeats
        realized = []
        real = ent._entry_index
        monkeypatch.setattr(ent, "_entry_index",
                            lambda pairings, d: realized.append(d) or real(pairings, d))
        ent._term_index.cache_clear()
        try:
            for d in (3, 3, 4, 4, 3):
                rho = werner_state(WernerParams.from_rs((0.4, 0.1, 0.5, 0, 0, 0), d))
                assert rho.mat.flags.writeable
                assert bcs_kernel(0.25, -0.1, d).mat.flags.writeable
        finally:
            ent._term_index.cache_clear()
        assert realized == [3, 3, 4, 4]

    def test_basis_is_read_only(self):
        for terms, s in ((ent.WERNER_TERMS, ()), (ent.WERNER_TERMS, (1, 3)), (ent.BCS_TERMS, (2,))):
            for array in ent._term_index(terms, s, 3):
                with pytest.raises(ValueError):
                    array[0] = 1

    def test_basis_holds_no_dense_matrix(self):
        # the six permutations and six R_k as dense d^3 x d^3 matrices held
        # 183 MiB at d = 10; the listing structure of the state holds about
        # 116 KB, and all eight keys of one d (the state, its six rho^{T_S}
        # and the BCS kernel) about 717 KB
        ent._term_index.cache_clear()
        tracemalloc.start()
        try:
            for s in [(), *ent.ROW_SUBSETS.values()]:
                ent._term_index(ent.WERNER_TERMS, s, 10)
            ent._term_index(ent.BCS_TERMS, (2,), 10)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            ent._term_index.cache_clear()
        assert held < 1 << 20, held

    def test_basis_is_built_without_a_dense_matrix(self):
        # realizing each permutation as a d^3 x d^3 complex matrix for its
        # entries peaked at 48 MB at d = 12; the index product peaks at
        # about 625 KB
        ent._term_index.cache_clear()
        tracemalloc.start()
        try:
            ent._term_index(ent.WERNER_TERMS, (), 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            ent._term_index.cache_clear()
        assert peak < 4 * 12 ** 6, peak

    def test_hermitian_iff_coefficient_symmetry(self, rng):
        params = random_valid_werner(rng, 3)
        a = params.alphas
        assert abs(a[4] - np.conj(a[5])) < 1e-12
        assert all(abs(x.imag) < 1e-12 for x in a[:4])
        m = werner_state(params).mat
        assert sup_norm(m - m.conj().T) <= 1e-12

    def test_trace_one(self, rng):
        for _ in range(10):
            params = random_valid_werner(rng, 3)
            assert np.isclose(np.trace(werner_state(params).mat), 1.0)

    def test_d2_conversion_rejected(self):
        with pytest.raises(ValueError):
            WernerParams.from_rs((1, 0, 0, 0, 0, 0), 2)

    def test_the_alphas_are_derived_never_given(self):
        # the old constructor of alphas, cs, rs and d is refused, and so are
        # given or changed alphas: no state with disagreeing sets can be built
        good = WernerParams.from_rs((0.4, 0.1, 0.5, 0, 0, 0), 3)
        with pytest.raises(TypeError):
            WernerParams(good.alphas, ent.cs_from_rs(good.rs, 3), good.rs, 3)
        with pytest.raises(TypeError):
            WernerParams(good.rs, 3, alphas=good.alphas)
        with pytest.raises(dataclasses.FrozenInstanceError):
            good.alphas = tuple(2 * a for a in good.alphas)
        assert [f.name for f in dataclasses.fields(WernerParams) if f.init] == ["rs", "d"]


class TestWernerSupport:
    @pytest.mark.parametrize("d", [3, 4])
    def test_state_is_the_dense_sums_bit_for_bit(self, d, rng):
        params = [random_valid_werner(rng, d) for _ in range(12)]
        params += [WernerParams.from_rs((0.4, 0.1, 0.5, 0.1, -0.2, r3), d)
                   for r3 in (0.0, -0.0)]
        params.append(WernerParams.from_rs((1, 0, 0, 0, 0, 0), d))
        for p in params:
            assert np.array_equal(_bits(werner_state(p).mat), _bits(_dense_werner_state(p)))
        stacked = _stack(params)
        assert np.array_equal(_bits(werner_state(stacked).mat),
                              _bits(_dense_werner_state(stacked)))

    @pytest.mark.parametrize("d", [3, 4])
    def test_support_is_read_from_the_cache(self, d, monkeypatch):
        # each rho^{T_S} holds the state's count, permuted
        params = WernerParams.from_rs((0.4, 0.1, 0.5, 0, 0, 0), d)
        subsets = [(), *ent.ROW_SUBSETS.values()]
        for s in subsets:
            ent._listed(ent.WERNER_TERMS, s, params.alphas, d)
        monkeypatch.setattr(ent, "_entry_index", None)     # no index product on a warm cache
        for s in subsets:
            assert ent.werner_support(s, d) == np.count_nonzero(sum(_dense_basis(d)[0]))
            assert ent.werner_support(s, d) == (93 if d == 3 else 256)

    @pytest.mark.parametrize("r3", [0.0, -0.0, 1e-3, -2.5e-2])
    def test_shared_formulas_match_the_scalar_path(self, r3):
        rs = (0.4, 0.1, 0.5, -0.3, 0.2, r3)
        cs = ent.cs_from_rs(rs, 3)
        expected = _scalar_alphas(cs)
        single = ent.alphas_from_cs(cs)
        assert all(type(a) is complex for a in single)
        assert _bits(np.array(single)).tolist() == _bits(np.array(expected)).tolist()
        arrays = WernerParams.from_rs([np.full((2, 1, 1), r) for r in rs], 3)
        for got, want in zip(arrays.alphas, expected):
            assert np.array_equal(_bits(got), _bits(np.full((2, 1, 1), want)))
        for got, want in zip(ent.cs_from_rs(arrays.rs, 3), cs):
            assert np.array_equal(_bits(got), _bits(np.full((2, 1, 1), want)))

    def test_single_draw_is_the_scalar_draw(self):
        new, old = np.random.default_rng(8), np.random.default_rng(8)
        for _ in range(30):
            p, q = random_valid_werner(new, 3), _scalar_draw(old, 3)
            assert p.rs == q.rs
            expected = _scalar_alphas(ent.cs_from_rs(q.rs, 3))
            assert _bits(np.array(p.alphas)).tolist() == _bits(np.array(expected)).tolist()
        assert new.random() == old.random()

    @pytest.mark.parametrize("count", [1, 12, 19, 50])
    @pytest.mark.parametrize("d", [3, 4])
    def test_batched_draws_are_the_per_instance_stream(self, count, d):
        new, old = np.random.default_rng(count), np.random.default_rng(count)
        params, a, b = ent.random_werner_instances(new, d, count)
        drawn = [(random_valid_werner(old, d), random_matrix(d, 1, old),
                  random_matrix(d, 1, old)) for _ in range(count)]
        for key in ("alphas", "rs"):    # the arrays' against each scalar draw's
            reference = np.array([getattr(p, key) for p, _, _ in drawn]).T[..., None, None]
            for got, want in zip(getattr(params, key), reference):
                assert got.shape == (count, 1, 1)
                assert np.array_equal(_bits(got), _bits(want))
        assert np.array_equal(_bits(a), _bits(np.array([x for _, x, _ in drawn])))
        assert np.array_equal(_bits(b), _bits(np.array([y for _, _, y in drawn])))
        assert new.random() == old.random()

    def test_one_state_is_no_slower_than_the_dense_sums(self):
        # alternating rounds, so that a busy spell of the host slows both
        params = WernerParams.from_rs((0.4, 0.1, 0.5, 0.1, 0.2, 0.05), 3)
        rounds = {werner_state: [], _dense_werner_state: []}
        for _ in range(15):
            for f, times in rounds.items():
                times.append(timeit.timeit(lambda: f(params), number=100))
        assert min(rounds[werner_state]) <= min(rounds[_dense_werner_state]), rounds


def _same_listing(got, want):
    """Rows, columns and values equal as dtypes and bytes."""
    return all(x.dtype == y.dtype and x.shape == y.shape and np.array_equal(_bits(x), _bits(y))
               for x, y in zip(got, want))


def _listed_state(params, s, monkeypatch):
    """The listing of rho^{T_S} that eggeling_werner_map_trace gives the oracle."""
    kernels = []
    with monkeypatch.context() as patch:
        patch.setattr(ent, "evaluate_oracle", lambda spec, inputs: kernels.append(spec.kernel))
        eggeling_werner_map_trace("f" + "".join(map(str, s)), params, np.eye(params.d))
    return kernels[0]


class TestListedState:
    """rho^{T_S} listed by wba_algebra is the dense state's partial
    transpose as _support reads it, bit for bit."""

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_the_listing_is_the_dense_support(self, d, rng, monkeypatch):
        states = [random_valid_werner(rng, d), WernerParams.from_rs((0, 1, 0, 0, 0, 0), d),
                  ent.random_werner_instances(rng, d, 50)[0]]
        for params, s in itertools.product(states, ent.ROW_SUBSETS.values()):
            dense = dense_ops.partial_transpose(werner_state(params), s)
            assert _same_listing(dense_ops._support(_listed_state(params, s, monkeypatch)),
                                 dense_ops._support(dense))

    def test_zero_patterns_are_dropped_as_the_dense_support_drops_them(self, monkeypatch):
        # the antisymmetric state: sign(pi) / 6 sums to an exact zero on
        # the entries an even and an odd permutation hit alone
        params = WernerParams.from_rs((0, 1, 0, 0, 0, 0), 3)
        listed = _listed_state(params, (1,), monkeypatch)
        assert len(listed.rows) == np.count_nonzero(werner_state(params).mat) \
            < ent.werner_support((1,), 3)

    @pytest.mark.parametrize("s", list(ent.ROW_SUBSETS.values()))
    def test_covariance_residual_reads_both_forms_alike(self, s, rng, monkeypatch):
        # the listed and the dense rho^{T_S} give each member the same
        # sector rows for S, so the same residual bits, and each commutes
        params = ent.random_werner_instances(rng, 3, 7)[0]
        dense = dense_ops.partial_transpose(werner_state(params), s)
        listed = ent._dense(_listed_state(params, s, monkeypatch))
        assert listed.mat.shape == dense.mat.shape == (7, 27, 27)
        for i in range(7):
            residuals = [dense_ops.covariance_residual(gather_rows(DenseOperator(3, 3, m.mat[i]), s))
                         for m in (listed, dense)]
            assert residuals[0].hex() == residuals[1].hex()
            assert residuals[0] <= 1e-13

    def test_the_trace_form_builds_no_dense_state(self, rng, monkeypatch):
        params, a, b = ent.random_werner_instances(rng, 3, 4)
        expected = {row: eggeling_werner_map_trace(row, params, a, b).mat
                    for row in ent.F_ROWS + ent.G_ROWS}
        for name in ("werner_state", "_dense"):
            monkeypatch.setattr(ent, name, None)
        monkeypatch.setattr(dense_ops, "partial_transpose", None)
        for row, mat in expected.items():
            assert np.array_equal(_bits(eggeling_werner_map_trace(row, params, a, b).mat),
                                  _bits(mat))

    @pytest.mark.parametrize("d", [3, 4])
    def test_draws_are_the_per_instance_stream_on_100_seeds(self, d):
        for seed in range(100):
            count = 1 + seed % 5
            new, old = np.random.default_rng(seed), np.random.default_rng(seed)
            params, a, b = ent.random_werner_instances(new, d, count)
            for t in range(count):
                rs = ent._rs_from_draw(*ent._werner_draw(old))
                z = old.standard_normal((2, 2, d, d))
                assert [_bits(r[t, 0, 0]) for r in params.rs] == [_bits(r) for r in rs]
                assert np.array_equal(_bits(a[t]), _bits(dense_ops.complex_gaussian(z[0])))
                assert np.array_equal(_bits(b[t]), _bits(dense_ops.complex_gaussian(z[1])))
            assert new.random() == old.random()


class TestCovarianceByConstruction:
    """Each sigma^{T_S} that the search layer sums commutes with U on the
    plain sites (x) conj(U) on S (mixed Schur-Weyl duality): the reason
    check_covariant_block_positive runs no covariance check.  Read against a
    Haar unitary and by the sector rows' residual."""

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("s", [(), *ent.ROW_SUBSETS.values(), (1, 2, 3)])
    def test_every_term_commutes(self, s, d, rng):
        u = haar_unitary(d, rng)
        action = functools.reduce(np.kron, [u.conj() if site in s else u for site in (1, 2, 3)])
        for term in ent.WERNER_TERMS:
            m = ent._dense(ent._listed((term,), s, (1.0,), d))
            assert sup_norm(action @ m.mat - m.mat @ action) <= 1e-12, term
            assert dense_ops.covariance_residual(gather_rows(m, s)) == 0.0, term

    def test_a_transposed_swap_breaks_the_plain_action(self, rng):
        # the control: (1 2)^{T_2} does not commute with U on every site
        u = haar_unitary(3, rng)
        m = ent._dense(ent._listed(((2, 1, 3),), (2,), (1.0,), 3))
        action = functools.reduce(np.kron, [u] * 3)
        assert sup_norm(action @ m.mat - m.mat @ action) > 1e-3


class TestPptConditions:
    def test_maximally_mixed_all_true(self):
        d = 3
        rs = [np.trace(r).real / d ** 3 for r in _dense_basis(d)[1]]
        checks, overall = werner_ppt_conditions(rs)
        assert overall and all(checks)

    def test_negative_r_minus_fails_first(self):
        checks, overall = werner_ppt_conditions((0.5, -0.1, 0.6, 0, 0, 0))
        assert not checks[0] and not overall

    @pytest.mark.parametrize("seed", [2, 77])
    def test_equivalence_with_eigensolver(self, seed, d=3, states=200):
        rng = np.random.default_rng(seed)
        for _ in range(states):
            params = random_valid_werner(rng, d)
            _, analytic = werner_ppt_conditions(params.rs)
            rho_t1 = dense_ops.partial_transpose(werner_state(params), (1,))
            assert analytic == (dense_ops.min_eigenvalue(rho_t1) >= -1e-8)

    def test_equivalence_with_eigensolver_at_d4(self):
        self.test_equivalence_with_eigensolver(777, d=4, states=500)


class TestInvariantStateMaps:
    @pytest.mark.parametrize("row", ent.F_ROWS + ent.G_ROWS)
    def test_closed_form_equals_trace_form(self, row, rng):
        for _ in range(10):
            params = random_valid_werner(rng, 3)
            a = random_matrix(3, 1, rng)
            b = random_matrix(3, 1, rng) if row.startswith("g") else None
            closed = eggeling_werner_map(row, params, a, b)
            trace = eggeling_werner_map_trace(row, params, a, b)
            assert sup_norm(closed.mat - trace.mat) < 1e-10

    def test_a_stack_gives_each_instance_its_own_bits(self, rng):
        params = [random_valid_werner(rng, 3) for _ in range(4)]
        a, b = (np.stack([random_matrix(3, 1, rng) for _ in range(4)]) for _ in range(2))
        stacked = _stack(params)
        assert np.array_equal(werner_state(stacked).mat,
                              np.stack([werner_state(p).mat for p in params]))
        for row in ent.F_ROWS + ent.G_ROWS:
            g = row.startswith("g")
            for form in (eggeling_werner_map, eggeling_werner_map_trace):
                out = form(row, stacked, a, b if g else None).mat
                for t, p in enumerate(params):
                    alone = form(row, p, a[t], b[t] if g else None).mat
                    assert np.array_equal(out[t], alone)

    def test_symmetry_identities(self, rng):
        for _ in range(10):
            params = random_valid_werner(rng, 3)
            a = random_matrix(3, 1, rng)
            b = random_matrix(3, 1, rng)
            pairs = [
                (eggeling_werner_map("f3", params, a.T),
                 eggeling_werner_map("f13", params, a)),
                (eggeling_werner_map("f2", params, a.T),
                 eggeling_werner_map("f12", params, a)),
                (eggeling_werner_map("g13", params, a.T, b.T),
                 eggeling_werner_map("g23", params, a, b)),
                (eggeling_werner_map("g1", params, a.T, b.T),
                 eggeling_werner_map("g2", params, a, b)),
            ]
            for lhs, rhs in pairs:
                assert sup_norm(lhs.mat - rhs.mat) < 1e-12

    @pytest.mark.parametrize("form", [eggeling_werner_map, eggeling_werner_map_trace])
    @pytest.mark.parametrize("row", ["f4", "x1", "g"])
    def test_unknown_row_is_one_value_error(self, form, row):
        # it was a bare KeyError: '4', 'x1' or ''
        params = WernerParams.from_rs((0.4, 0.1, 0.5, 0, 0, 0), 3)
        a = np.eye(3)
        with pytest.raises(ValueError) as raised:
            form(row, params, a, a)
        message = str(raised.value)
        assert "\n" not in message and f"unknown map row {row!r}" in message
        assert all(valid in message for valid in ent.F_ROWS + ent.G_ROWS)


def _seeded_states():
    rng = np.random.default_rng(201)
    return [random_valid_werner(rng, 3) for _ in range(30)]


class TestProposition1:
    # f_sample_min, g_sample_min and the 1|23 verdict's min_eig and
    # product_min_estimate, as cli._fmt prints them, of random_valid_werner's
    # state from each seed at d = 3 and each subset; the same on one and two
    # BLAS threads.  Seed 17's verdicts are PSD or WITNESS_CANDIDATE, seed
    # 25's PSD or NOT_BLOCK_POSITIVE
    PINNED = {
        17: {
            "1": ("0.0172574237151", "0.0248350748508", "0.0148083317834", "0.0148083317834"),
            "2": ("0.023803413695", "0.0248350748508", "-0.00483544624457", "0.023803413695"),
            "3": ("0.023803413695", "0.0248350748508", "0.0130330110628", "0.0130330110628"),
            "12": ("0.023803413695", "0.0248350748508", "0.0130330110628", "0.0130330110628"),
            "13": ("0.023803413695", "0.0248350748508", "-0.00483544624457", "0.023803413695"),
            "23": ("0.0172574237151", "0.0248350748508", "0.0148083317834", "0.0148083317834"),
        },
        25: {
            "1": ("0.00741711080035", "0.00741711080035", "0.00741711080035", "0.00741711080035"),
            "2": ("-0.0747135996157", "0.00741711080035", "-0.0797196417366", "-0.0747135996157"),
            "3": ("-0.0747135996157", "0.00741711080035", "-0.0797792212337", "-0.0747135996157"),
            "12": ("-0.0747135996157", "0.00741711080035", "-0.0797792212337",
                   "-0.0747135996157"),
            "13": ("-0.0747135996157", "0.00741711080035", "-0.0797196417366",
                   "-0.0747135996157"),
            "23": ("0.00741711080035", "0.00741711080035", "0.00741711080035", "0.00741711080035"),
        },
    }

    @pytest.mark.parametrize("seed", sorted(PINNED))
    def test_outputs_are_pinned(self, seed):
        params = random_valid_werner(np.random.default_rng(seed), 3)
        for row, s in ent.ROW_SUBSETS.items():
            report = proposition1_check(params, s)
            verdict = report["f_verdict"]
            got = (report["f_sample_min"], report["g_sample_min"], verdict.min_eig,
                   verdict.product_min_estimate)
            assert tuple(cli._fmt(x) for x in got) == self.PINNED[seed][row], row

    # one sha256 over _seeded_states() x the six S of each report's map
    # minima and both verdicts' classification, min_eig,
    # product_min_estimate, certified and vector bytes.  Recorded when
    # lambda_min(rho) and the PSD step took the 6 x 6 algebra matrix
    # (_s3_min_eigenvalue): against the dense route only min_eig, the PSD
    # verdicts' product minimum and g's bound lambda_min(rho) moved, by at
    # most 5.6e-16; the same on one and two BLAS threads
    REPORTS = "c5af8d39455418bf615c3ac4ee474f5f72bc5d170fec0c4327c73b6be95092e1"

    def test_reports_are_pinned(self):
        digest = hashlib.sha256()
        for params in _seeded_states():
            for s in ent.ROW_SUBSETS.values():
                report = proposition1_check(params, s)
                digest.update(report["f_sample_min"].hex().encode()
                              + report["g_sample_min"].hex().encode())
                for key in ("f_verdict", "g_verdict"):
                    v = report[key]
                    digest.update(f"{v.classification} {v.min_eig.hex()} "
                                  f"{v.product_min_estimate.hex()} {v.certified}".encode())
                    for vector in v.violating_product_state or ():
                        digest.update(vector.tobytes())
        assert digest.hexdigest() == self.REPORTS

    def test_maximally_mixed_coherent(self):
        params = WernerParams.from_rs(MAXIMALLY_MIXED_RS, 3)
        report = proposition1_check(params, (1,),
                                    SearchBudget(seed=3, restarts=8, samples=64))
        assert report["contradictions"] == []
        assert report["f_verdict"].classification == ent.PSD

    def test_random_states_coherent(self, rng):
        budget = SearchBudget(seed=9, restarts=8, samples=64)
        for _ in range(3):
            params = random_valid_werner(rng, 3)
            for s in ((1,), (3,)):
                report = proposition1_check(params, s, budget)
                assert report["contradictions"] == []

    def test_proved_violation_shows_in_map_minimum(self):
        # f_S(|e_1><e_1|) is the block <e_1|rho^{T_S}|e_1>, so the one fixed
        # input reaches the certified negative 1|23 minimum
        params = random_valid_werner(np.random.default_rng(21), 3)
        budget = SearchBudget(restarts=16, seed=21)
        report = proposition1_check(params, (2,), budget)
        assert report["f_verdict"].classification == ent.NOT_BLOCK_POSITIVE
        assert report["f_sample_min"] < -PRODUCT_BAND
        assert report["contradictions"] == []

    @pytest.mark.parametrize("row", ["f", "g"])
    def test_each_contradiction_is_listed(self, row, monkeypatch):
        # a map of the named kind shifted by -10 falls below both its verdict
        # and the proved bound; only that kind's contradiction is listed
        real = ent.eggeling_werner_map

        def shifted(name, params, a, b=None):
            out = real(name, params, a, b)
            if name.startswith(row):
                out = DenseOperator(out.n, out.d, out.mat - 10 * np.eye(out.mat.shape[-1]))
            return out

        monkeypatch.setattr(ent, "eggeling_werner_map", shifted)
        report = proposition1_check(WernerParams.from_rs(MAXIMALLY_MIXED_RS, 3), (1,))
        lam_rho = 1 / 27        # the maximally mixed state's least eigenvalue
        minimum = report[f"{row}_sample_min"]
        assert minimum == pytest.approx(lam_rho - 10)
        assert report["contradictions"] == [{
            "f": f"f_1: map minimum {minimum:.3g} vs verdict PSD",
            "g": f"g_1: map minimum {minimum:.3g} below the proved bound {lam_rho:.3g}",
        }[row]]

    def test_witness_regime_point_exists(self, rng):
        # search the sampled states for one with negative partial transpose
        # whose single-input map still looks positive (block-positive kernel)
        budget = SearchBudget(seed=13, restarts=16, samples=128)
        found = False
        for _ in range(200):
            params = random_valid_werner(rng, 3)
            _, ppt = werner_ppt_conditions(params.rs)
            if ppt:
                continue
            report = proposition1_check(params, (1,), budget)
            if report["f_verdict"].classification == ent.WITNESS_CANDIDATE:
                assert report["f_sample_min"] >= -PRODUCT_BAND
                found = True
                break
        assert found, "no witness-regime point located in 200 samples"

    def test_a_budget_is_not_read(self):
        # the positional call of callers that still pass a budget
        for params in _seeded_states()[:3]:
            for s in ent.ROW_SUBSETS.values():
                given = proposition1_check(params, s, SearchBudget(seed=7, restarts=16))
                plain = proposition1_check(params, s)
                assert given.keys() == plain.keys()
                assert given == plain

    def test_f_minimum_is_the_certified_1_23_minimum(self):
        for i, params in enumerate(_seeded_states()):
            for s in ent.ROW_SUBSETS.values():
                report = proposition1_check(params, s, SearchBudget(seed=i))
                exact = _block_minimum(dense_ops.partial_transpose(werner_state(params), s))
                assert abs(report["f_sample_min"] - exact) <= ORACLE_TOL * max(1.0, abs(exact))

    def test_certified_g_bound_is_below_the_search_value(self):
        # the see-saw value is attained by a product state, so it bounds the
        # 1|2|3 minimum from above; the certified lambda_min(rho) from below
        budget = SearchBudget(seed=4, restarts=8, samples=64)
        partition = PartitionSpec.parse("1|2|3")
        for params in _seeded_states():
            for s in ent.ROW_SUBSETS.values():
                verdict = proposition1_check(params, s, budget)["g_verdict"]
                if verdict.classification == ent.PSD:
                    continue
                assert verdict.classification == ent.WITNESS_CANDIDATE and verdict.certified
                rho_ts = dense_ops.partial_transpose(werner_state(params), s)
                searched, *_ = ent.product_state_minimize(rho_ts, partition, budget)
                assert verdict.product_min_estimate <= searched + 1e-12

    def test_one_operator_is_a_one_member_stack(self):
        classes = set()
        for params in _seeded_states()[:5]:
            for s in ent.ROW_SUBSETS.values():
                alone = ent.check_covariant_block_positive(ent.WERNER_TERMS, s, params.alphas, 3)
                stacked = ent.check_covariant_block_positive(ent.WERNER_TERMS, s,
                                                             _stack([params]).alphas, 3)
                assert stacked == [alone]
                classes.add(alone.classification)
        assert {ent.PSD, ent.NOT_BLOCK_POSITIVE} <= classes

    def test_non_state_fails_before_any_map(self, monkeypatch):
        def no_map(*args, **kwargs):
            raise AssertionError("a map was evaluated for a non-state")
        monkeypatch.setattr(ent, "eggeling_werner_map", no_map)
        params = WernerParams.from_rs((1.5, -0.5, 0.0, 0.0, 0.0, 0.0), 3)
        with pytest.raises(ValueError, match="not a state") as info:
            proposition1_check(params, (1,))
        assert "\n" not in str(info.value)

    def test_runs_no_search_and_draws_no_inputs(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("proposition1_check searched or sampled")
        for module, name in ((ent, "product_state_minimize"), (ent, "check_block_positive"),
                             (dense_ops, "random_psd")):
            monkeypatch.setattr(module, name, forbidden)
        classes = set()
        for params in _seeded_states()[:5]:
            for s in ent.ROW_SUBSETS.values():
                report = proposition1_check(params, s)
                assert report["contradictions"] == []
                classes.add((report["f_verdict"].classification,
                             report["g_verdict"].classification))
        assert (ent.NOT_BLOCK_POSITIVE, ent.WITNESS_CANDIDATE) in classes

    @pytest.mark.parametrize("s", [(), (1, 2, 3), (4,)])
    def test_bad_subset_fails_before_any_work(self, s, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("the check ran before the subset was validated")
        monkeypatch.setattr(ent, "werner_state", no_work)
        params = WernerParams.from_rs(MAXIMALLY_MIXED_RS, 3)
        with pytest.raises(ValueError) as info:
            proposition1_check(params, s)
        message = str(info.value)
        for allowed in ("(1,)", "(2,)", "(3,)", "(1, 2)", "(1, 3)", "(2, 3)"):
            assert allowed in message


class TestVerdictInvariants:
    def test_random_hermitian_operators(self, rng):
        budget = SearchBudget(seed=6, restarts=6, samples=48)
        partition = PartitionSpec.parse("1|2")
        for i in range(12):
            g = random_matrix(2, 2, rng)
            m = DenseOperator(2, 2, (g + g.conj().T) / 2 + (i - 6) * 0.2 * np.eye(4))
            verdict = check_block_positive(m, partition, budget)
            if verdict.classification == ent.PSD:
                assert verdict.min_eig >= -EIG_TOL
            else:
                assert verdict.min_eig < -EIG_TOL
            if verdict.classification == ent.NOT_BLOCK_POSITIVE:
                value = ent.product_state_value(m, partition,
                                                verdict.violating_product_state)
                assert value < -PRODUCT_BAND

    def test_an_inconclusive_verdict_is_never_certified(self):
        # at an operator norm near 1e20 rounding alone keeps the recheck of
        # the exact 1|23 minimum above -PRODUCT_BAND
        [row] = scan_bcs_region([0.0], [1e20], 3)
        assert row["class"] == ent.INCONCLUSIVE and row["certified"] is False
        verdict = _bcs_verdict(0.0, 1e20)
        assert verdict.classification == ent.INCONCLUSIVE and not verdict.certified

    def test_certified_reaches_only_the_proved_classes(self, monkeypatch):
        m = DenseOperator(2, 2, -np.eye(4, dtype=complex))
        partition = PartitionSpec.parse("1|2")
        vecs = (np.array([1, 0], complex), np.array([0, 1], complex))
        confirmed = ent._classify(m, partition, -1.0, -1.0, vecs, certified=True)
        assert confirmed.classification == ent.NOT_BLOCK_POSITIVE and confirmed.certified
        monkeypatch.setattr(ent, "product_state_value", lambda *args: 0.0)
        refuted = ent._classify(m, partition, -1.0, -1.0, vecs, certified=True, sweeps=3)
        assert refuted.classification == ent.INCONCLUSIVE and not refuted.certified
        assert refuted.sweeps == 3


class TestScan:
    def test_small_grid(self):
        rows = scan_bcs_region([0.25, 5.0], [-0.1], 3)
        by_point = {(r["alpha"], r["beta"]): r for r in rows}
        witness = by_point[(0.25, -0.1)]
        assert witness["analytic_positive"] and witness["class"] == ent.WITNESS_CANDIDATE
        far = by_point[(5.0, -0.1)]
        assert far["analytic_positive"]
        # deep in the positive region the kernel is actually PSD
        assert far["class"] == ent.PSD and far["min_eig"] >= -1e-9

    def test_one_listing_per_stack(self, monkeypatch):
        # the golden 11 x 13 grid at d = 3: 22 points a stack, 7 stacks,
        # the non-PSD kernels of each listed and written once, the 7 PSD
        # ones never
        members = []
        real_dense = ent._dense
        monkeypatch.setattr(ent, "_dense", lambda listed: (
            members.append(listed.values.shape[0]) or real_dense(listed)))
        alphas = [i / 10 for i in range(11)]
        betas = [round(-0.5 + j * 0.05, 12) for j in range(13)]
        rows = scan_bcs_region(alphas, betas, 3)
        assert len(rows) == 143 and sum(r["class"] != ent.PSD for r in rows) == 136
        assert 1 <= len(members) <= 7 and sum(members) == 136

    def test_peak_memory_is_a_few_stacks(self):
        alphas, betas = np.linspace(-1.0, 1.0, 20), np.linspace(-0.6, 0.4, 25)
        scan_bcs_region(alphas[:1], betas[:1], 3)       # the cached support
        tracemalloc.start()
        try:
            rows = scan_bcs_region(alphas, betas, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) == 500
        assert peak <= 12 * verification.STACK_BYTES

    def test_condition_boundary_at_beta_zero(self):
        assert bcs_alpha_threshold(0.0, 3) == 0.0
