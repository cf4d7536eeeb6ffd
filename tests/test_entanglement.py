import functools
import math
import timeit
import tracemalloc

import numpy as np
import pytest

from wba import cli, dense_ops, entanglement as ent, verification
from wba.dense_ops import DenseOperator, random_matrix, sup_norm
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
from wba.sym_core import parse_permutation
from wba.tolerances import EIG_TOL, ORACLE_TOL, PRODUCT_BAND, SEESAW_STOP
from wba.wba_algebra import from_permutation, realize

# r_k = tr(R_k) / 27 of the maximally mixed state at d = 3
MAXIMALLY_MIXED_RS = np.array((10, 1, 16, 0, 0, 0)) / 27


@pytest.fixture
def rng():
    return np.random.default_rng(31)


def _stack(params):
    """T parameter sets of one d as one of (T, 1, 1) coefficient arrays."""
    columns = [np.array([getattr(p, key) for p in params]).T[..., None, None]
               for key in ("alphas", "cs", "rs")]
    return WernerParams(*(tuple(c) for c in columns), params[0].d)


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
    against the dense R_k sum: werner_state's reference."""
    perms, rk = _dense_basis(params.d)
    mat = sum(a * p for a, p in zip(params.alphas, perms))
    mat_c = sum(c * r for c, r in zip(params.cs, rk))
    scale = np.maximum(1.0, np.abs(mat).max(axis=(-2, -1)))
    if (np.abs(mat - mat_c).max(axis=(-2, -1)) > ent.ATOL * scale).any():
        raise ValueError("alpha and c coefficient sets disagree")
    return mat


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
    rs = tuple(float(r) for r in (rp, rm, r0, r1, r2, r3))
    cs = ent.cs_from_rs(rs, d)
    return WernerParams(_scalar_alphas(cs), cs, rs, d)


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
        p = parse_permutation

        def reference(alpha, beta, d):
            # the four realizations summed in the kernel's order
            return (realize(from_permutation(p("(1 2)", 3), {2}), d) + realize(p("(3 1)", 3), d)
                    + alpha * realize(p("()", 3), d)
                    + beta * realize(from_permutation(p("(2 3)", 3), {2}), d))

        scanned = []
        real_check = ent.check_covariant_block_positive
        monkeypatch.setattr(ent, "check_covariant_block_positive",
                            lambda m, *args: scanned.extend(m.mat) or real_check(m, *args))
        alphas, betas = [0.0, 0.3, 1 / 3], [-0.45, 0.0, 0.1]
        scan_bcs_region(alphas, betas, 3)
        points = [(a, b) for a in alphas for b in betas]
        assert len(scanned) == len(points)      # every member of every stack, in grid order
        for mat, (alpha, beta) in zip(scanned, points):
            assert np.array_equal(mat, reference(alpha, beta, 3))
            assert np.array_equal(bcs_kernel(alpha, beta, 3).mat, reference(alpha, beta, 3))

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
        verdict = check_block_positive(dense_ops.identity(2, 2),
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

    # a PSD 3-site operator with "1|2" would pass vacuously; the others
    # would reach numpy's transpose with too few or too many axes
    @pytest.mark.parametrize("m,cut", [
        (dense_ops.identity(3, 2), "1|2"),
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
        m = dense_ops.identity(2, 2)
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
        psd = check_block_positive(dense_ops.identity(3, 3), partition, SearchBudget())
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
                kernel = bcs_kernel(alpha, beta, 3)
                verdict = ent.check_covariant_block_positive(kernel, {2})
                if verdict.classification == ent.NOT_BLOCK_POSITIVE:
                    violations += 1
                    value = ent.product_state_value(kernel, partition,
                                                    verdict.violating_product_state)
                    assert value < -PRODUCT_BAND
                    assert value == pytest.approx(verdict.product_min_estimate, abs=1e-12)
        assert violations > 0

    def test_exact_value_below_search_on_werner_states(self, rng):
        partition = PartitionSpec.parse("1|23")
        budget = SearchBudget(seed=4, restarts=8, samples=64)
        for _ in range(3):
            rho = werner_state(random_valid_werner(rng, 3))
            for s in ((1,), (2,), (3,), (1, 2), (1, 3), (2, 3)):
                rho_ts = dense_ops.partial_transpose(rho, s)
                exact = ent.covariant_block_minimum(rho_ts, s)
                assert exact is not None
                searched = ent.product_state_minimize(rho_ts, partition, budget)[0]
                assert exact[0] <= searched + 1e-12
                # a product vector stays a product vector under T_1 or T_23
                if s in ((1,), (2, 3)):
                    assert exact[0] >= -1e-12

    def test_exact_value_below_search_on_bcs_points(self):
        partition = PartitionSpec.parse("1|23")
        budget = SearchBudget(seed=6, restarts=8, samples=64)
        for alpha, beta in ((0.25, -0.1), (0.1, -0.3), (0.0, 0.0), (0.5, -0.5), (1.0, 0.1)):
            kernel = bcs_kernel(alpha, beta, 3)
            exact = ent.covariant_block_minimum(kernel, {2})
            searched = ent.product_state_minimize(kernel, partition, budget)[0]
            assert exact[0] <= searched + 1e-12

    def test_non_covariant_operator_is_refused(self, rng):
        g = random_matrix(3, 3, rng)
        m = DenseOperator(3, 3, (g + g.conj().T) / 2)
        assert ent.covariant_block_minimum(m, set()) is None
        assert ent.covariant_block_minimum(m, {2}) is None
        # the kernel is covariant under U (x) conj(U) (x) U only
        assert ent.covariant_block_minimum(bcs_kernel(0.25, -0.1, 3), set()) is None

    def test_non_psd_non_covariant_operator_is_an_error(self, rng, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the check searched")
        monkeypatch.setattr(ent, "product_state_minimize", forbidden)
        monkeypatch.setattr(ent, "check_block_positive", forbidden)
        g = random_matrix(3, 3, rng)
        m = DenseOperator(3, 3, (g + g.conj().T) / 2)
        assert dense_ops.min_eigenvalue(m) < -EIG_TOL
        assert dense_ops.min_eigenvalue(DenseOperator(3, 3, -m.mat)) < -EIG_TOL
        reason = "is not PSD and not covariant with conj(U) on sites [2]: no exact 1|rest minimum"
        with pytest.raises(ValueError) as info:
            ent.check_covariant_block_positive(m, {2})
        assert str(info.value) == f"the operator {reason}"
        # PSD, covariant, then two that fail the check: the first of them is named
        members = [bcs_kernel(5.0, -0.1, 3).mat, bcs_kernel(0.25, -0.1, 3).mat, m.mat, -m.mat]
        with pytest.raises(ValueError) as info:
            ent.check_covariant_block_positive(DenseOperator(3, 3, np.stack(members)), {2})
        assert str(info.value) == f"stack member 2 {reason}"

    def test_psd_non_covariant_operator_keeps_its_verdict(self, rng):
        g = random_matrix(3, 3, rng)
        m = DenseOperator(3, 3, g @ g.conj().T)
        assert ent.covariant_block_minimum(m, {2}) is None
        verdict = ent.check_covariant_block_positive(m, {2})
        assert verdict == check_block_positive(m, PartitionSpec.parse("1|23"))
        assert verdict.classification == ent.PSD and not verdict.certified
        kernel = bcs_kernel(0.25, -0.1, 3)
        stacked = ent.check_covariant_block_positive(
            DenseOperator(3, 3, np.stack([m.mat, kernel.mat])), {2})
        assert stacked == [verdict, ent.check_covariant_block_positive(kernel, {2})]

    def test_psd_step_is_unchanged(self):
        kernel = bcs_kernel(5.0, -0.1, 3)
        verdict = ent.check_covariant_block_positive(kernel, {2})
        assert verdict == check_block_positive(kernel, PartitionSpec.parse("1|23"))
        assert verdict.classification == ent.PSD and not verdict.certified


@pytest.mark.filterwarnings("error")
class TestNonFiniteOperators:
    """A NaN or infinite entry, inside the e_1 block (index 4) or outside it
    (index 9), is refused by every entry point, never given a minimum, and
    no warning is raised on the way."""

    @staticmethod
    def kernel(index, value):
        mat = bcs_kernel(0.25, -0.1, 3).mat.copy()
        mat[index, index] = value
        return DenseOperator(3, 3, mat)

    @pytest.mark.parametrize("index", [4, 9])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_no_exact_minimum(self, index, value):
        assert ent.covariant_block_minimum(self.kernel(index, value), {2}) is None

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_no_exact_minimum_at_d1(self, value):
        # d = 1 has no simple roots and one sector: the residual is 0, the bound refuses
        m = DenseOperator(2, 1, np.array([[value]], dtype=complex))
        assert ent.covariant_block_minimum(m, {2}) is None

    @pytest.mark.parametrize("index", [4, 9])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("check", [
        dense_ops.min_eigenvalue,
        lambda m: ent.check_covariant_block_positive(m, {2}),
        lambda m: check_block_positive(m, PartitionSpec.parse("1|23")),
    ], ids=["min_eigenvalue", "check_covariant_block_positive", "check_block_positive"])
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
        realized = []
        real = ent.realize
        monkeypatch.setattr(ent, "realize", lambda p, d: realized.append(d) or real(p, d))
        ent._werner_basis.cache_clear()
        try:
            for d in (3, 3, 4, 4, 3):
                rho = werner_state(WernerParams.from_rs((0.4, 0.1, 0.5, 0, 0, 0), d))
                assert rho.mat.flags.writeable
        finally:
            ent._werner_basis.cache_clear()
        assert realized == [3] * 6 + [4] * 6 + [3] * 6

    def test_basis_is_read_only(self):
        for mat in ent._werner_basis(3):
            with pytest.raises(ValueError):
                mat[(0,) * mat.ndim] = 1

    def test_basis_holds_no_dense_matrix(self):
        # the six permutations and six R_k as dense d^3 x d^3 matrices held
        # 183 MiB at d = 10; their support holds about 111 KiB
        ent._werner_basis.cache_clear()
        tracemalloc.start()
        try:
            ent._werner_basis(10)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            ent._werner_basis.cache_clear()
        assert held < 1 << 20, held

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

    def test_inconsistent_coefficient_sets_rejected(self):
        good = WernerParams.from_rs((0.4, 0.1, 0.5, 0, 0, 0), 3)
        tampered = WernerParams(good.alphas, tuple(2 * c for c in good.cs),
                                good.rs, 3)
        with pytest.raises(ValueError, match="disagree"):
            werner_state(tampered)


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
        ent._werner_basis(d)
        monkeypatch.setattr(ent, "realize", None)   # no realization on a warm cache
        assert ent.werner_support(d) == np.count_nonzero(sum(_dense_basis(d)[0]))
        assert ent.werner_support(d) == (93 if d == 3 else 256)

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
        for got, want in zip(arrays.cs, cs):
            assert np.array_equal(_bits(got), _bits(np.full((2, 1, 1), want)))

    def test_single_draw_is_the_scalar_draw(self):
        new, old = np.random.default_rng(8), np.random.default_rng(8)
        for _ in range(30):
            p, q = random_valid_werner(new, 3), _scalar_draw(old, 3)
            assert p.rs == q.rs and p.cs == q.cs
            assert _bits(np.array(p.alphas)).tolist() == _bits(np.array(q.alphas)).tolist()
        assert new.random() == old.random()

    @pytest.mark.parametrize("count", [1, 12, 19, 50])
    @pytest.mark.parametrize("d", [3, 4])
    def test_batched_draws_are_the_per_instance_stream(self, count, d):
        new, old = np.random.default_rng(count), np.random.default_rng(count)
        params, a, b = ent.random_werner_instances(new, d, count)
        drawn = [(random_valid_werner(old, d), random_matrix(d, 1, old),
                  random_matrix(d, 1, old)) for _ in range(count)]
        reference = _stack([p for p, _, _ in drawn])
        for key in ("alphas", "cs", "rs"):
            for got, want in zip(getattr(params, key), getattr(reference, key)):
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

    def test_a_stack_with_one_inconsistent_member_is_rejected(self, rng):
        good = [random_valid_werner(rng, 3) for _ in range(3)]
        bad = WernerParams(good[1].alphas, tuple(2 * c for c in good[1].cs), good[1].rs, 3)
        with pytest.raises(ValueError, match="disagree"):
            werner_state(_stack([good[0], bad, good[2]]))

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


def _seeded_states():
    rng = np.random.default_rng(201)
    return [random_valid_werner(rng, 3) for _ in range(30)]


class TestProposition1:
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
                for key in ("f_sample_min", "g_sample_min", "contradictions"):
                    assert given[key] == plain[key]
                for key in ("f_verdict", "g_verdict"):
                    a, b = given[key], plain[key]
                    assert (a.classification, a.min_eig, a.product_min_estimate,
                            a.certified) == (b.classification, b.min_eig,
                                             b.product_min_estimate, b.certified)
                    vectors = (a.violating_product_state, b.violating_product_state)
                    assert (vectors[0] is None) == (vectors[1] is None)
                    if vectors[0] is not None:
                        assert all(np.array_equal(u, v) for u, v in zip(*vectors))

    def test_f_minimum_is_the_certified_1_23_minimum(self):
        for i, params in enumerate(_seeded_states()):
            for s in ent.ROW_SUBSETS.values():
                report = proposition1_check(params, s, SearchBudget(seed=i))
                rho_ts = dense_ops.partial_transpose(werner_state(params), s)
                exact, _ = ent.covariant_block_minimum(rho_ts, s)
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
            rho = werner_state(params)
            for s in ent.ROW_SUBSETS.values():
                rho_ts = dense_ops.partial_transpose(rho, s)
                alone = ent.check_covariant_block_positive(rho_ts, s)
                stacked = ent.check_covariant_block_positive(
                    DenseOperator(3, 3, rho_ts.mat[None]), s)
                assert len(stacked) == 1
                fields = ("classification", "min_eig", "product_min_estimate", "sweeps",
                          "converged_starts", "certified")
                for field in fields:
                    assert getattr(stacked[0], field) == getattr(alone, field)
                vectors = (stacked[0].violating_product_state, alone.violating_product_state)
                assert (vectors[0] is None) == (vectors[1] is None)
                if alone.violating_product_state is not None:
                    assert all(np.array_equal(u, v) for u, v in zip(*vectors))
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
        verdict = ent.check_covariant_block_positive(bcs_kernel(0.0, 1e20, 3), {2})
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

    def test_a_refused_covariance_check_is_an_error(self, capsys, monkeypatch):
        monkeypatch.setattr(ent, "covariant_block_minimum",
                            lambda m, conjugated: [None] * len(m.mat))   # refuse every member
        message = ("stack member 0 is not PSD and not covariant with conj(U) on sites [2]: "
                   "no exact 1|rest minimum")
        with pytest.raises(ValueError) as info:
            scan_bcs_region([0.0, 0.25], [-0.3, -0.1], 3)
        assert str(info.value) == message
        code = cli.main(["scan-bcs", "--alpha", "0:0.25:0.25", "--beta=-0.3:-0.1:0.2"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_one_covariance_check_per_stack(self, monkeypatch):
        # the golden 11 x 13 grid at d = 3: 22 kernels a stack, 7 stacks
        calls = []
        residual = dense_ops.covariance_residual
        monkeypatch.setattr(dense_ops, "covariance_residual", lambda m, conjugated: (
            calls.append(m.mat.shape) or residual(m, conjugated)))
        alphas = [i / 10 for i in range(11)]
        betas = [round(-0.5 + j * 0.05, 12) for j in range(13)]
        rows = scan_bcs_region(alphas, betas, 3)
        assert len(rows) == 143 and sum(r["class"] != ent.PSD for r in rows) == 136
        assert 1 <= len(calls) <= 7 and all(len(shape) == 3 for shape in calls)

    def test_peak_memory_is_a_few_stacks(self):
        alphas, betas = np.linspace(-1.0, 1.0, 20), np.linspace(-0.6, 0.4, 25)
        scan_bcs_region(alphas[:1], betas[:1], 3)       # the cached basis
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
