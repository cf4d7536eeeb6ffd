"""The weight-sector checks of ``dense_ops``: the sector layout, the
sector-sparse ``covariance_residual`` against the dense index-slice residual
it replaced (kept here as the reference), and the block
``idempotence_residual`` against the dense product F @ F - F."""

import itertools
from collections import Counter

import numpy as np
import pytest

from wba import dense_ops, entanglement as ent
from wba.dense_ops import (
    DenseOperator,
    covariance_residual,
    idempotence_residual,
    partial_transpose,
    sector_layout,
    sup_norm,
)
from wba.wba_algebra import f_projector, realize

from test_cli import _PROJECTOR_CASES


def slice_covariance_residual(m: DenseOperator, conjugated) -> float:
    """The dense reference: the largest sup_norm of [M, A_X] over the simple
    roots X, each site's X moving one index slice of M's tensor view into
    one accumulator of M's size.  [M, E_ab on site s] adds M's column slice
    a of s into column slice b and subtracts its row slice b from row slice
    a; the minus sign and the transpose of a conjugated site exchange the
    roles of its row and column."""
    n, d, t = m.n, m.d, m.tensor
    conjugated = set(conjugated)
    acc = np.empty_like(t)
    worst = 0.0
    for a, b in [(c, c + 1) for c in range(d - 1)] + [(c + 1, c) for c in range(d - 1)]:
        acc.fill(0)
        for s in range(n):
            into, outof = (s, n + s) if s + 1 in conjugated else (n + s, s)
            for axis, src, dst, ufunc in ((into, a, b, np.add), (outof, b, a, np.subtract)):
                view = acc[(..., dst) + (slice(None),) * (2 * n - 1 - axis)]
                ufunc(view, t[(..., src) + (slice(None),) * (2 * n - 1 - axis)], out=view)
        worst = max(worst, float(np.abs(acc, out=acc).real.max()))
    return worst


def weight(index, n, d, conjugated):
    """w_c = #{plain sites holding c} - #{conjugated sites holding c}, by brute force."""
    digits = np.unravel_index(index, (d,) * n)
    counts = Counter()
    for s, digit in enumerate(digits, start=1):
        counts[int(digit)] += -1 if s in conjugated else 1
    return tuple(counts[c] for c in range(d))


def wall(n, k):
    return range(n - k + 1, n + 1)


def off_sector_entry(layout):
    """The first (row, column) whose indices lie in different sectors."""
    return tuple(np.argwhere(layout.sector[:, None] != layout.sector)[0])


class TestSectorLayout:
    @pytest.mark.parametrize("n,d,conjugated", [(1, 3, ()), (1, 3, (1,)), (2, 2, (2,)),
                                                (3, 3, (2,)), (3, 3, (1, 3)), (4, 2, ()),
                                                (4, 3, (3, 4))])
    def test_sectors_are_the_weights(self, n, d, conjugated):
        layout = sector_layout(n, d, conjugated)
        weights = [weight(i, n, d, conjugated) for i in range(d ** n)]
        for i, j in itertools.combinations(range(d ** n), 2):
            assert (layout.sector[i] == layout.sector[j]) == (weights[i] == weights[j])
        for sector in range(len(layout.members) - 1):
            members = layout.members[sector]
            inside = np.flatnonzero(layout.sector == sector)
            assert sorted(members[:len(inside)].tolist()) == inside.tolist()
            assert (members[len(inside):] == d ** n).all()
            assert (members[layout.position[inside]] == inside).all()
        assert (layout.members[-1] == d ** n).all()
        assert layout.members.shape[1] > np.bincount(layout.sector).max()

    @pytest.mark.parametrize("n,d,conjugated", [(3, 3, (2,)), (4, 3, (3, 4)), (2, 4, (1,))])
    def test_below_is_the_shifted_weight(self, n, d, conjugated):
        layout = sector_layout(n, d, conjugated)
        weights = [weight(i, n, d, conjugated) for i in range(d ** n)]
        sector_of = dict(zip(weights, layout.sector.tolist()))
        roots = [(c, c + 1) for c in range(d - 1)] + [(c + 1, c) for c in range(d - 1)]
        assert len(layout.below) == len(roots)
        for below, (a, b) in zip(layout.below, roots):
            for i, w in enumerate(weights):
                shifted = tuple(x - (c == a) + (c == b) for c, x in enumerate(w))
                assert below[i] == sector_of.get(shifted, -1)

    def test_the_cache_is_bounded_and_read_only(self):
        for n in range(1, 12):
            sector_layout(n, 2, ())
        info = dense_ops._layout.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize
        layout = sector_layout(3, 3, (1,))
        assert not any(array.flags.writeable for array in vars(layout).values())


class TestProjectorSectors:
    """Every admissible projector with n <= 6, k in {1, 2} and d in {2, 3}."""

    @pytest.mark.parametrize("n,k,d,mu,alpha", _PROJECTOR_CASES)
    def test_checks_on_the_sectors(self, n, k, d, mu, alpha):
        f = np.ascontiguousarray(realize(f_projector(mu, alpha, n, k, d), d).real)
        layout = sector_layout(n, d, wall(n, k))
        same = layout.sector[:, None] == layout.sector
        assert not f[~same].any()       # exactly 0 off the sectors
        op = DenseOperator(n, d, f)
        residual = covariance_residual(op, wall(n, k))
        assert residual <= 1e-13
        assert abs(residual - slice_covariance_residual(op, wall(n, k))) <= 1e-15
        assert abs(idempotence_residual(op, wall(n, k)) - sup_norm(f @ f - f)) <= 1e-15

        # one off-sector entry: the block part alone does not change
        perturbed = f.copy()
        perturbed[off_sector_entry(layout)] += 1e-6
        op = DenseOperator(n, d, perturbed)
        assert covariance_residual(op, wall(n, k)) >= 1e-6
        assert idempotence_residual(op, wall(n, k)) >= 1e-6
        blocks = DenseOperator(n, d, np.where(same, perturbed, 0.0))
        assert covariance_residual(blocks, wall(n, k)) <= 1e-13
        assert idempotence_residual(blocks, wall(n, k)) <= 1e-13


class TestMatchesTheSliceResidual:
    def test_bcs_kernel(self):
        for alpha, beta in ((0.25, -0.1), (0.0, 0.0), (1.3, 0.4), (0.5, -0.5)):
            kernel = ent.bcs_kernel(alpha, beta, 3)
            new, old = covariance_residual(kernel, {2}), slice_covariance_residual(kernel, {2})
            assert new <= 1e-13 and abs(new - old) <= 1e-15

    def test_werner_partial_transposes(self):
        rng = np.random.default_rng(11)
        for _ in range(3):
            rho = ent.werner_state(ent.random_valid_werner(rng, 3))
            for s in ((), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3)):
                rho_ts = partial_transpose(rho, s) if s else rho
                new, old = covariance_residual(rho_ts, s), slice_covariance_residual(rho_ts, s)
                assert new <= 1e-13 and abs(new - old) <= 1e-15

    @pytest.mark.parametrize("n,d,conjugated", [(1, 3, ()), (2, 3, (2,)), (3, 3, (2,)),
                                                (3, 2, (1, 3)), (4, 3, (4,)), (5, 2, ())])
    def test_random_block_diagonal_operators(self, n, d, conjugated):
        # a residual of order one, from the block part alone: both agree to rounding
        rng = np.random.default_rng(n * d)
        layout = sector_layout(n, d, conjugated)
        shape = (d ** n, d ** n)
        mat = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        mat[layout.sector[:, None] != layout.sector] = 0
        op = DenseOperator(n, d, mat)
        assert covariance_residual(op, conjugated) == pytest.approx(
            slice_covariance_residual(op, conjugated), rel=1e-12)
        assert idempotence_residual(op, conjugated) == pytest.approx(
            sup_norm(mat @ mat - mat), rel=1e-12)

    def test_a_stack_is_refused(self):
        stack = DenseOperator(2, 2, np.zeros((3, 4, 4)))
        for check in (covariance_residual, idempotence_residual):
            with pytest.raises(ValueError, match="not a stack"):
                check(stack, (2,))

    def test_off_sector_entries_alone(self):
        # a matrix with no block part reads its largest off-sector entry
        n, d, conjugated = 3, 3, (2,)
        layout = sector_layout(n, d, conjugated)
        rng = np.random.default_rng(3)
        mat = rng.standard_normal((d ** n, d ** n))
        mat[layout.sector[:, None] == layout.sector] = 0
        op = DenseOperator(n, d, mat)
        assert covariance_residual(op, conjugated) == np.abs(mat).max()
        assert idempotence_residual(op, conjugated) == np.abs(mat).max()
