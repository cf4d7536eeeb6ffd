"""The weight-sector checks of ``dense_ops``: the sector layout of the last
k sites conjugated, the sector-sparse ``covariance_residual`` against the
dense index-slice residual it replaced (kept here as the reference), the
block ``idempotence_residual`` against the dense product F @ F - F, and
``realize_sectors`` against the sector rows of the dense ``realize``."""

import itertools
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from wba import dense_ops, entanglement as ent
from wba.dense_ops import (
    DenseOperator,
    covariance_residual,
    idempotence_residual,
    partial_transpose,
    sector_covariance_residual,
    sector_form,
    sector_layout,
    sup_norm,
)
from wba import wba_algebra
from wba.sym_core import Partition, Permutation
from wba.wba_algebra import (
    WbaElement,
    f_projector,
    from_permutation,
    realize,
    realize_sectors,
)

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


def same_weight(n, d, conjugated):
    """(d^n, d^n) mask of the entries whose two indices have the same weight."""
    weights = [weight(i, n, d, conjugated) for i in range(d ** n)]
    return np.array([[w == v for v in weights] for w in weights])


def off_sector_entry(layout):
    """The first (row, column) whose indices lie in different sectors."""
    return tuple(np.argwhere(layout.sector[:, None] != layout.sector)[0])


class TestSectorLayout:
    """sector_layout(n, d, k) against the weights of the last k sites."""

    @pytest.mark.parametrize("n,d,conjugated", [(1, 3, wall(1, 0)), (1, 3, wall(1, 1)),
                                                (2, 2, wall(2, 1)), (3, 3, wall(3, 1)),
                                                (3, 3, wall(3, 2)), (4, 2, wall(4, 0)),
                                                (4, 3, wall(4, 2))])
    def test_sectors_are_the_weights(self, n, d, conjugated):
        layout = sector_layout(n, d, len(conjugated))
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

    @pytest.mark.parametrize("n,d,conjugated", [(3, 3, wall(3, 1)), (4, 3, wall(4, 2)),
                                                (2, 4, wall(2, 1))])
    def test_below_is_the_shifted_weight(self, n, d, conjugated):
        layout = sector_layout(n, d, len(conjugated))
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
            sector_layout(n, 2, 0)
        info = sector_layout.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize
        layout = sector_layout(3, 3, 1)
        assert not any(array.flags.writeable for array in vars(layout).values())

    @pytest.mark.parametrize("k", [-1, 4])
    def test_k_out_of_range_is_refused(self, k):
        with pytest.raises(ValueError, match="0 <= k <= n"):
            sector_layout(3, 3, k)

    def test_every_set_at_n3_uses_two_layouts(self):
        # a set and its complement share a layout, and a set elsewhere than
        # last moves M's sites, not the layout: (3, 3, 0) and (3, 3, 1) only
        sector_layout.cache_clear()
        op = ent.bcs_kernel(0.25, -0.1, 3)
        for r in range(4):
            for s in itertools.combinations((1, 2, 3), r):
                covariance_residual(op, s)
                idempotence_residual(sector_form(op, s))
        assert sector_layout.cache_info().currsize == 2
        misses = sector_layout.cache_info().misses
        sector_layout(3, 3, 0)
        sector_layout(3, 3, 1)
        assert sector_layout.cache_info().misses == misses


class TestProjectorSectors:
    """Every admissible projector with n <= 6, k in {1, 2} and d in {2, 3}."""

    @pytest.mark.parametrize("n,k,d,mu,alpha", _PROJECTOR_CASES)
    def test_checks_on_the_sectors(self, n, k, d, mu, alpha):
        f = np.ascontiguousarray(realize(f_projector(mu, alpha, n, k, d), d).real)
        layout = sector_layout(n, d, k)
        same = layout.sector[:, None] == layout.sector
        assert not f[~same].any()       # exactly 0 off the sectors
        op = DenseOperator(n, d, f)
        residual = covariance_residual(op, wall(n, k))
        assert residual <= 1e-13
        assert abs(residual - slice_covariance_residual(op, wall(n, k))) <= 1e-15
        assert abs(idempotence_residual(sector_form(op, wall(n, k))) - sup_norm(f @ f - f)) <= 1e-15

        # one off-sector entry: the block part alone does not change
        perturbed = f.copy()
        perturbed[off_sector_entry(layout)] += 1e-6
        op = DenseOperator(n, d, perturbed)
        assert covariance_residual(op, wall(n, k)) >= 1e-6
        assert idempotence_residual(sector_form(op, wall(n, k))) >= 1e-6
        blocks = DenseOperator(n, d, np.where(same, perturbed, 0.0))
        assert covariance_residual(blocks, wall(n, k)) <= 1e-13
        assert idempotence_residual(sector_form(blocks, wall(n, k))) <= 1e-13


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
            for s in ((), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)):
                rho_ts = partial_transpose(rho, s) if s else rho
                new, old = covariance_residual(rho_ts, s), slice_covariance_residual(rho_ts, s)
                assert new <= 1e-13 and abs(new - old) <= 1e-15

    @pytest.mark.parametrize("n,d,conjugated", [(1, 3, ()), (2, 3, (2,)), (3, 3, (2,)),
                                                (3, 2, (1, 3)), (4, 3, (4,)), (5, 2, ()),
                                                (3, 2, (1, 2)), (4, 3, (1, 2, 4)),
                                                (3, 3, (1, 2, 3)), (2, 1, (2,)), (3, 1, (1,))])
    def test_random_block_diagonal_operators(self, n, d, conjugated):
        # a residual of order one, from the block part alone: both agree to rounding
        rng = np.random.default_rng(n * d)
        shape = (d ** n, d ** n)
        mat = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        mat[~same_weight(n, d, conjugated)] = 0
        op = DenseOperator(n, d, mat)
        assert covariance_residual(op, conjugated) == pytest.approx(
            slice_covariance_residual(op, conjugated), rel=1e-12)
        assert idempotence_residual(sector_form(op, conjugated)) == pytest.approx(
            sup_norm(mat @ mat - mat), rel=1e-12)

    def test_a_stack_is_refused(self):
        # covariance_residual takes stacks (TestStacks)
        stack = DenseOperator(2, 2, np.zeros((3, 4, 4)))
        with pytest.raises(ValueError, match="not a stack"):
            idempotence_residual(sector_form(stack, (2,)))

    def test_off_sector_entries_alone(self):
        # a matrix with no block part reads its largest off-sector entry
        n, d, conjugated = 3, 3, (2,)
        rng = np.random.default_rng(3)
        mat = rng.standard_normal((d ** n, d ** n))
        mat[same_weight(n, d, conjugated)] = 0
        op = DenseOperator(n, d, mat)
        assert covariance_residual(op, conjugated) == np.abs(mat).max()
        assert idempotence_residual(sector_form(op, conjugated)) == np.abs(mat).max()


def _hermitian(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return g + g.conj().T


def _covariant(rng, n, d, conjugated):
    """A hermitian sum of partially transposed permutations: it commutes with
    U on the plain sites (x) conj(U) on the conjugated ones."""
    perms = [Permutation(images) for images in itertools.permutations(range(1, n + 1))]
    x = sum(complex(*rng.standard_normal(2)) * realize(from_permutation(perm, conjugated), d)
            for perm in rng.choice(perms, size=3))
    return x + x.conj().T


def _stack(n, d, conjugated, seed):
    """A (2, 3) stack: two covariant members, one of them off by 1e-12, two
    random hermitian ones, one of sector blocks only and one of off-sector
    entries only."""
    rng = np.random.default_rng(seed)
    dim, same = d ** n, same_weight(n, d, conjugated)
    covariant = _covariant(rng, n, d, conjugated)
    nudged = covariant + 1e-12 * _hermitian(rng, dim)
    blocks, off = (np.where(mask, _hermitian(rng, dim), 0) for mask in (same, ~same))
    members = [covariant, _hermitian(rng, dim), nudged, blocks, off, _hermitian(rng, dim)]
    return DenseOperator(n, d, np.array(members).reshape(2, 3, dim, dim))


def _members(stack):
    return [DenseOperator(stack.n, stack.d, mat)
            for mat in stack.mat.reshape((-1,) + stack.mat.shape[-2:])]


def _same_minimum(stacked, alone):
    if alone is None:
        return stacked is None
    return (stacked is not None and stacked[0] == alone[0]
            and all(np.array_equal(u, v) for u, v in zip(stacked[1], alone[1])))


# conjugated sets that are not the last sites, so _conjugated_last reorders
STACK_CASES = [(3, 3, (2,)), (3, 3, (1,)), (4, 2, (1, 3)), (2, 4, (1,))]


class TestStacks:
    """Each member of a stack gets the bits of a call on it alone."""

    @pytest.mark.parametrize("n,d,conjugated", STACK_CASES)
    @pytest.mark.parametrize("group", [None, 4, 1])
    @pytest.mark.filterwarnings("error")
    def test_covariance_residual(self, n, d, conjugated, group, monkeypatch):
        # frames for 4 members split the stack 4 + 2; a bound of one entry
        # splits the roots, the bands and the members; the complex stack's
        # magnitudes are taken with no complex-to-real cast warning
        stack = _stack(n, d, conjugated, n * d)
        alone = [covariance_residual(m, conjugated) for m in _members(stack)]
        if group:
            width = sector_layout(n, d, min(len(conjugated), n - len(conjugated))).members.shape[1]
            work = 1 if group == 1 else group * 2 * (d ** n + 1) * width
            monkeypatch.setattr(dense_ops, "_WORK_ENTRIES", work)
        stacked = covariance_residual(stack, conjugated)
        assert stacked.shape == (2, 3)
        assert np.array_equal(stacked.reshape(-1), alone)
        assert alone[0] <= 1e-12 and 0 < alone[2] <= 1e-10 and min(alone[3:]) > 1e-3

    @pytest.mark.parametrize("n,d,conjugated", STACK_CASES)
    def test_off_sector_member(self, n, d, conjugated):
        # the off-sector member reads its largest entry; the others none of it
        stack = _stack(n, d, conjugated, 7)
        off = stack.mat[1, 1]
        assert covariance_residual(stack, conjugated)[1, 1] == np.abs(off).max() > 0
        assert covariance_residual(DenseOperator(n, d, off), conjugated) == np.abs(off).max()

    @pytest.mark.parametrize("n,d,conjugated", STACK_CASES)
    def test_min_eigenvalue(self, n, d, conjugated):
        stack = _stack(n, d, conjugated, 3)
        stacked = dense_ops.min_eigenvalue(stack)
        assert stacked.shape == (2, 3)
        assert np.array_equal(stacked.reshape(-1),
                              [dense_ops.min_eigenvalue(m) for m in _members(stack)])

    @pytest.mark.parametrize("n,d,conjugated", STACK_CASES)
    def test_covariant_block_minimum(self, n, d, conjugated):
        stack = _stack(n, d, conjugated, 5)
        stacked = ent.covariant_block_minimum(stack, conjugated)
        alone = [ent.covariant_block_minimum(m, conjugated) for m in _members(stack)]
        assert len(stacked) == 6 and [x is None for x in alone] == [False, True, False] + [True] * 3
        assert all(_same_minimum(x, y) for x, y in zip(stacked, alone))

    def test_nan_member(self):
        n, d, conjugated = 3, 3, (2,)
        stack = _stack(n, d, conjugated, 9)
        stack.mat[1, 0, 4, 5] = np.nan
        members = _members(stack)
        assert np.array_equal(covariance_residual(stack, conjugated).reshape(-1),
                              [covariance_residual(m, conjugated) for m in members],
                              equal_nan=True)
        stacked = ent.covariant_block_minimum(stack, conjugated)
        assert stacked[3] is None
        assert all(_same_minimum(x, ent.covariant_block_minimum(m, conjugated))
                   for x, m in zip(stacked, members))
        for check in (dense_ops.min_eigenvalue,
                      lambda m: ent.check_covariant_block_positive(m, conjugated)):
            with pytest.raises(ValueError) as alone:
                check(members[3])
            with pytest.raises(ValueError) as together:
                check(stack)
            assert str(together.value) == str(alone.value)
            assert str(alone.value).endswith("(non-finite entry)")

    def test_first_bad_member_is_named(self):
        # the first member in row-major order that fails names the failure
        n, d, conjugated = 3, 3, (2,)
        stack = _stack(n, d, conjugated, 9)
        stack.mat[0, 2, 0, 1] += 1e-3       # not hermitian
        stack.mat[1, 0, 4, 5] = np.inf
        with pytest.raises(ValueError, match=r"\(deviation 0\.001\)$"):
            dense_ops.min_eigenvalue(stack)
        with pytest.raises(ValueError, match=r"\(non-finite entry\)$"):
            dense_ops.min_eigenvalue(DenseOperator(n, d, stack.mat[::-1]))

    @pytest.mark.parametrize("shape", [(0,), (2, 0)])
    def test_empty_stack(self, shape):
        # a stack with no member gets an empty answer of its shape
        stack = DenseOperator(3, 3, np.zeros(shape + (27, 27), complex))
        for check in (lambda m: covariance_residual(m, (2,)), dense_ops.min_eigenvalue):
            answer = check(stack)
            assert isinstance(answer, np.ndarray) and answer.shape == shape
        assert ent.covariant_block_minimum(stack, (2,)) == []


# every admissible projector with n <= 7 at d = 2 and 3, and (6,2) d=4
def _with_a_stray(n, k, d):
    """F_[2,1]([1]) (n = 4, k = 1) or F_[2]([1]) (n = 3) plus one diagram
    that is not walled: the transposition (1 2) transposed on site 1, a
    plain site, joins two plain sites by a cup."""
    mu, alpha = ((2, 1), (2,)) if n == 4 else ((2,), (1,))
    element = f_projector(Partition(mu), Partition(alpha), n, k, d)
    stray = WbaElement.from_permutation(Permutation.from_cycles([(1, 2)], n), {1}, 0.25)
    return element + stray


class TestRealizeSectors:
    """realize_sectors writes the real part of realize's entries into the
    sector rows (every admissible pair with n <= 7 at d = 2 and 3:
    test_wba_algebra's TestRealize.test_real_is_the_real_part_bit_for_bit)."""

    def test_the_d4_rows_are_the_dense_rows(self):
        n, k, d = 6, 2, 4
        element = f_projector(Partition((2, 2)), Partition((2,)), n, k, d)
        dense = sector_form(DenseOperator(n, d, realize(element, d).real), wall(n, k))
        rows = realize_sectors(element, d, k)
        assert (rows.n, rows.d, rows.k) == (dense.n, dense.d, dense.k) == (n, d, k)
        assert rows.rows.dtype == float and np.array_equal(rows.rows, dense.rows)
        assert rows.off == dense.off == 0

    @pytest.mark.parametrize("n,k,d", [(3, 1, 3), (4, 1, 2), (4, 1, 3)])
    @pytest.mark.parametrize("chunk", [None, 1])
    def test_a_stray_diagram_reads_the_same_residuals(self, n, k, d, chunk, monkeypatch):
        # the entries the stray diagram puts between sectors count in both
        # residuals, summed in term order as the dense matrix sums them; a
        # chunk of one term a step sums them across steps
        if chunk:
            monkeypatch.setattr(wba_algebra, "_SCATTER_ENTRIES", chunk)
        element = _with_a_stray(n, k, d)
        op = DenseOperator(n, d, realize(element, d).real.copy())
        dense, rows = sector_form(op, wall(n, k)), realize_sectors(element, d, k)
        assert np.array_equal(rows.rows, dense.rows) and rows.off == dense.off > 0.1
        assert idempotence_residual(rows) == idempotence_residual(dense)
        assert sector_covariance_residual(rows) == covariance_residual(op, wall(n, k))
        assert np.array_equal(rows.matrix(), np.where(same_weight(n, d, wall(n, k)), op.mat, 0))

    def test_overlapping_strays_sum_in_term_order(self, monkeypatch):
        # four stray diagrams meet on the same entries between sectors, two
        # terms a chunk: 1e16 + 1 + 1 + 1 is 1e16 in term order, while the
        # second chunk's 1 + 1 added before the first chunk's sum gives 1e16 + 2
        n, d = 3, 2
        monkeypatch.setattr(wba_algebra, "_SCATTER_ENTRIES", 8 * d ** n)
        stray = from_permutation(Permutation.from_cycles([(1, 2)], n), {1})
        element = WbaElement(n, [stray.pairing] * 4, [[1e16], [1.0], [1.0], [1.0]])
        assert len(element.pairings) == 4
        rows = realize_sectors(element, d, 1)
        assert rows.off == 1e16 == np.abs(realize(element, d)).max()
        element = WbaElement(n, [stray.pairing] * 3, [[1e16], [-1e16], [1.0]])
        assert realize_sectors(element, d, 1).off == 1.0

    def test_a_diagram_and_a_permutation(self):
        n, d, k = 3, 3, 1
        perm = Permutation.from_cycles([(1, 3)], n)
        diagram = from_permutation(perm, {3})
        for x in (diagram, from_permutation(Permutation.identity(n))):
            rows = realize_sectors(x, d, k)
            assert np.array_equal(rows.matrix(), realize(x, d)) and rows.off == 0
        assert realize_sectors(perm, d, k).off == 1.0      # (1 3) untransposed is not walled

    def test_refusals(self):
        with pytest.raises(ValueError, match="size guard"):
            realize_sectors(f_projector(Partition((5, 2)), Partition((4, 2)), 8, 1, 3), 3, 1)
        with pytest.raises(ValueError, match="sector rows of shape"):
            dense_ops.SectorOperator(4, 2, 1, np.zeros((16, 4)), 0.0)


class TestCovarianceMemory:
    def test_the_d4_projector_stays_under_its_bound(self):
        # (6,2) d=4: one root's frame is 2 (4097) x 189 entries; with the
        # commutator formed in its gathered array and no step's arrays kept
        # into the next step it reads 45 MB by tracemalloc, 58 MB without
        n, k, d = 6, 2, 4
        element = f_projector(Partition((2, 2)), Partition((2,)), n, k, d)
        op = DenseOperator(n, d, realize(element, d).real.copy())
        rows = realize_sectors(element, d, k)
        tracemalloc.start()
        try:
            residual = covariance_residual(op, wall(n, k))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 50e6, peak / 1e6
        assert residual == sector_covariance_residual(rows) <= 1e-13
