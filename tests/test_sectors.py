"""The weight-sector checks of ``dense_ops``: the sector layout keyed by the
conjugated sites, ``covariance_residual`` on sector rows against the dense
index-slice residual it replaced (kept here as the reference), the block
``idempotence_residual`` against the dense product F @ F - F, and
``realize_sectors`` against the sector rows of the dense ``realize``
(``gather_rows``, the reference gather, kept in test_cli)."""

import itertools
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from wba import dense_ops, entanglement as ent
from wba.dense_ops import (
    DenseOperator,
    SectorOperator,
    covariance_residual,
    idempotence_residual,
    partial_transpose,
    sector_layout,
    sup_norm,
)
from wba import wba_algebra
from wba.sym_core import Partition, Permutation
from wba.wba_algebra import (
    f_projector,
    from_permutation,
    realize,
    realize_sectors,
)

from test_cli import _PROJECTOR_CASES, gather_rows


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


def in_sector_entry(layout):
    """The first (row, column) of two different indices of one sector."""
    same = layout.sector[:, None] == layout.sector
    return tuple(np.argwhere(same & ~np.eye(len(same), dtype=bool))[0])


def residual(op: DenseOperator, conjugated) -> float:
    """covariance_residual of a walled op by its gathered sector rows."""
    return covariance_residual(gather_rows(op, conjugated))


class TestSectorLayout:
    """sector_layout(n, d, conjugated) against the weights of those sites."""

    @pytest.mark.parametrize("n,d,conjugated", [(1, 3, wall(1, 0)), (1, 3, wall(1, 1)),
                                                (2, 2, wall(2, 1)), (3, 3, wall(3, 1)),
                                                (3, 3, wall(3, 2)), (4, 2, wall(4, 0)),
                                                (4, 3, wall(4, 2)), (3, 3, (2,)),
                                                (3, 3, (1,)), (4, 2, (1, 3)), (4, 3, (2, 3)),
                                                (2, 2, (1,))])
    def test_sectors_are_the_weights(self, n, d, conjugated):
        layout = sector_layout(n, d, conjugated)
        assert layout.plain.tolist() == [s not in conjugated for s in range(1, n + 1)]
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
                                                (2, 4, wall(2, 1)), (3, 3, (2,)),
                                                (4, 3, (1, 3)), (2, 4, (1,))])
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
        info = dense_ops._sector_layout.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize
        layout = sector_layout(3, 3, (3,))
        assert not any(array.flags.writeable for array in vars(layout).values())

    @pytest.mark.parametrize("k", [-1, 4])
    def test_k_out_of_range_is_refused(self, k):
        # a site outside 1..n is refused by the layout, and a k outside 0..n
        # by realize_sectors, whose range of last sites would read -1 as 0
        with pytest.raises(ValueError, match=re.escape(f"sites out of range 1..3: ({k},)")):
            sector_layout(3, 3, (k,))
        with pytest.raises(ValueError, match=re.escape(f"need 0 <= k <= n = 3, got k = {k}")):
            realize_sectors(from_permutation(Permutation.identity(3)), 3, k)

    def test_equal_sets_share_one_layout(self):
        # each of the eight sets at n = 3 has its layout, and equal sets, in
        # any order or form, share one cache entry
        dense_ops._sector_layout.cache_clear()
        for r in range(4):
            for s in itertools.combinations((1, 2, 3), r):
                sector_layout(3, 3, s)
        info = dense_ops._sector_layout.cache_info()
        assert info.currsize == info.misses == 8
        for s in ((), (1,), (2,), (3,), [2], {3}, (1, 1), range(2, 3), (3, 1), {2, 1, 3}):
            sector_layout(3, 3, s)
        assert dense_ops._sector_layout.cache_info().misses == 8


class TestProjectorSectors:
    """Every admissible projector with n <= 6, k in {1, 2} and d in {2, 3}."""

    @pytest.mark.parametrize("n,k,d,mu,alpha", _PROJECTOR_CASES)
    def test_checks_on_the_sectors(self, n, k, d, mu, alpha):
        f = np.ascontiguousarray(realize(f_projector(mu, alpha, n, k, d), d).real)
        layout = sector_layout(n, d, wall(n, k))
        same = layout.sector[:, None] == layout.sector
        assert not f[~same].any()       # exactly 0 off the sectors
        op = DenseOperator(n, d, f)
        found = residual(op, wall(n, k))
        assert found <= 1e-13
        assert abs(found - slice_covariance_residual(op, wall(n, k))) <= 1e-15
        assert abs(idempotence_residual(gather_rows(op, wall(n, k))) - sup_norm(f @ f - f)) <= 1e-15

        # one entry between two indices of a sector, if it has two: the
        # commutator holds it alone at (i, j), where the diagonal of A_X is 0
        if (np.bincount(layout.sector) > 1).any():
            perturbed = f.copy()
            perturbed[in_sector_entry(layout)] += 1e-6
            op = DenseOperator(n, d, perturbed)
            assert residual(op, wall(n, k)) == pytest.approx(1e-6, rel=1e-6)


class TestMatchesTheSliceResidual:
    def test_bcs_kernel(self):
        for alpha, beta in ((0.25, -0.1), (0.0, 0.0), (1.3, 0.4), (0.5, -0.5)):
            kernel = ent.bcs_kernel(alpha, beta, 3)
            new, old = residual(kernel, {2}), slice_covariance_residual(kernel, {2})
            assert new <= 1e-13 and abs(new - old) <= 1e-15

    @pytest.mark.parametrize("n,d", [(3, 3), (4, 2)])
    def test_every_set(self, n, d):
        # each set is read in place against its own layout: a random walled
        # operator for the set and, at n = 3, rho^{T_S} commute; the blocks
        # of the BCS kernel (covariant for {2} and {1, 3}) and of a random
        # hermitian operator do not, in general
        rng = np.random.default_rng(n + d)
        rho = ent.werner_state(ent.random_valid_werner(rng, d)) if n == 3 else None
        for r in range(n + 1):
            for s in itertools.combinations(range(1, n + 1), r):
                same = same_weight(n, d, s)
                covariant = [DenseOperator(n, d, _covariant(rng, n, d, s))]
                others = [DenseOperator(n, d, _hermitian(rng, d ** n))]
                if n == 3:
                    covariant.append(partial_transpose(rho, s))
                    others.append(ent.bcs_kernel(0.25, -0.1, 3))
                for op in covariant:
                    new, old = residual(op, s), slice_covariance_residual(op, s)
                    assert new <= 1e-13 and abs(new - old) <= 1e-14
                for op in others:
                    blocks = DenseOperator(n, d, np.where(same, op.mat, 0))
                    assert residual(blocks, s) == pytest.approx(
                        slice_covariance_residual(blocks, s), rel=1e-12)

    def test_werner_partial_transposes(self):
        rng = np.random.default_rng(11)
        for _ in range(3):
            rho = ent.werner_state(ent.random_valid_werner(rng, 3))
            for s in ((), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)):
                rho_ts = partial_transpose(rho, s) if s else rho
                new, old = residual(rho_ts, s), slice_covariance_residual(rho_ts, s)
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
        assert residual(op, conjugated) == pytest.approx(
            slice_covariance_residual(op, conjugated), rel=1e-12)
        assert idempotence_residual(gather_rows(op, conjugated)) == pytest.approx(
            sup_norm(mat @ mat - mat), rel=1e-12)


class TestSetsElsewhere:
    """A SectorOperator whose conjugated sites are not the last ones."""

    @pytest.mark.parametrize("n,d,conjugated", [(3, 3, (2,)), (3, 3, (1,)), (4, 2, (1, 3)),
                                                (4, 2, (2,)), (4, 3, (1, 2))])
    def test_the_dense_residuals(self, n, d, conjugated):
        # a walled operator plus random sector blocks: both residuals are of
        # order one and the rows hold all of it
        rng = np.random.default_rng(n * d)
        same = same_weight(n, d, conjugated)
        mat = _covariant(rng, n, d, conjugated) + np.where(same, _hermitian(rng, d ** n), 0)
        op = DenseOperator(n, d, mat)
        f = gather_rows(op, conjugated)
        assert f.layout is sector_layout(n, d, conjugated)
        assert idempotence_residual(f) == pytest.approx(sup_norm(mat @ mat - mat), rel=1e-12)
        assert covariance_residual(f) == pytest.approx(
            slice_covariance_residual(op, conjugated), rel=1e-12)
        assert covariance_residual(f) > 1e-3
        # the rows are op's entries where op holds them: nothing is reordered
        i, j = np.nonzero(same)
        assert np.array_equal(f.rows[i, f.layout.position[j]], mat[i, j])
        assert np.count_nonzero(f.rows) == np.count_nonzero(mat)


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
    """A (2, 3) stack: two covariant members, one of them off by 1e-12 in
    its sector blocks, two random hermitian ones, one of sector blocks only
    and one of off-sector entries only."""
    rng = np.random.default_rng(seed)
    dim, same = d ** n, same_weight(n, d, conjugated)
    covariant = _covariant(rng, n, d, conjugated)
    nudged = covariant + 1e-12 * np.where(same, _hermitian(rng, dim), 0)
    blocks, off = (np.where(mask, _hermitian(rng, dim), 0) for mask in (same, ~same))
    members = [covariant, _hermitian(rng, dim), nudged, blocks, off, _hermitian(rng, dim)]
    return DenseOperator(n, d, np.array(members).reshape(2, 3, dim, dim))


def _members(stack):
    return [DenseOperator(stack.n, stack.d, mat)
            for mat in stack.mat.reshape((-1,) + stack.mat.shape[-2:])]


# conjugated sets that are not the last sites, each read in place against
# the layout of its set
STACK_CASES = [(3, 3, (2,)), (3, 3, (1,)), (4, 2, (1, 3)), (2, 4, (1,))]


class _StepCounter:
    """numpy for dense_ops, counting the np.maximum calls, one a step of
    the covariance core."""

    def __init__(self):
        self.steps = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def maximum(self, *args, **kwargs):
        self.steps += 1
        return np.maximum(*args, **kwargs)


class TestStacks:
    """Each member of a stack gets the bits of a call on it alone, and the
    residual's bits do not depend on the roots a step takes."""

    @pytest.mark.parametrize("n,d,conjugated,roots", [
        (*case, roots) for case in STACK_CASES for roots in (1, 2, None)
        if roots is None or roots < 2 * (case[1] - 1)])
    @pytest.mark.filterwarnings("error")
    def test_covariance_residual(self, n, d, conjugated, roots, monkeypatch):
        # frames for 1 or 2 roots a step, or the default bound, which takes
        # all 2 (d - 1) roots at once at these sizes, on the stack's three
        # walled members; the complex rows' magnitudes are taken with no
        # complex-to-real cast warning
        members = _members(_stack(n, d, conjugated, n * d))
        walled = [gather_rows(members[i], conjugated) for i in (0, 2, 3)]
        default = [covariance_residual(f) for f in walled]
        if roots:
            width = sector_layout(n, d, conjugated).members.shape[1]
            monkeypatch.setattr(dense_ops, "_WORK_ENTRIES", roots * 2 * (d ** n + 1) * width)
        counter = _StepCounter()
        monkeypatch.setattr(dense_ops, "np", counter)
        found = [covariance_residual(f) for f in walled]
        monkeypatch.undo()
        assert counter.steps == 3 * 2 * (d - 1) // (roots or 2 * (d - 1))  # all divide evenly
        assert found == default
        assert default[0] <= 1e-12 and 0 < default[1] <= 1e-10 and default[2] > 1e-3

    @pytest.mark.parametrize("n,d,conjugated", STACK_CASES)
    def test_min_eigenvalue(self, n, d, conjugated):
        stack = _stack(n, d, conjugated, 3)
        stacked = dense_ops.min_eigenvalue(stack)
        assert stacked.shape == (2, 3)
        assert np.array_equal(stacked.reshape(-1),
                              [dense_ops.min_eigenvalue(m) for m in _members(stack)])

    def test_nan_member(self):
        # a NaN entry, or a NaN coefficient of a stacked check, names the
        # member's failure as a call on it alone does
        n, d, conjugated = 3, 3, (2,)
        stack = _stack(n, d, conjugated, 9)
        stack.mat[1, 0, 4, 5] = np.nan
        alphas = np.array([0.25, 5.0, np.nan, 0.0])[:, None, None]

        def check(alpha):
            return ent.check_covariant_block_positive(ent.BCS_TERMS, (2,), (1, 1, alpha, -0.1), 3)

        for on_stack, on_member in ((dense_ops.min_eigenvalue, _members(stack)[3]),
                                    (check, np.nan)):
            with pytest.raises(ValueError) as alone:
                on_stack(on_member)
            with pytest.raises(ValueError) as together:
                on_stack(stack if on_stack is dense_ops.min_eigenvalue else alphas)
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
        # a stack with no member gets an empty answer of its shape, and a
        # stacked check with no member no verdict
        stack = DenseOperator(3, 3, np.zeros(shape + (27, 27), complex))
        answer = dense_ops.min_eigenvalue(stack)
        assert isinstance(answer, np.ndarray) and answer.shape == shape
        alphas = np.zeros(shape + (1, 1))
        assert ent.check_covariant_block_positive(ent.BCS_TERMS, (2,), (1, 1, alphas, 0.0), 3) == []


# every admissible projector with n <= 7 at d = 2 and 3, and (6,2) d=4
def _with_a_stray(n, k, d):
    """F_[2,1]([2]) (n = 4, k = 1) or F_[2]([1]) (n = 3) plus one diagram
    that is not walled, its last term: the transposition (1 2) transposed
    on site 1, a plain site, joins two plain sites by a cup.  Returns the
    element and that diagram."""
    mu, alpha = ((2, 1), (2,)) if n == 4 else ((2,), (1,))
    element = f_projector(Partition(mu), Partition(alpha), n, k, d)
    stray = from_permutation(Permutation.from_cycles([(1, 2)], n), {1})
    return element + stray.scale(0.25), stray


class TestRealizeSectors:
    """realize_sectors writes the real part of realize's entries into the
    sector rows (every admissible pair with n <= 7 at d = 2 and 3:
    test_wba_algebra's TestRealize.test_real_is_the_real_part_bit_for_bit)."""

    def test_the_d4_rows_are_the_dense_rows(self):
        n, k, d = 6, 2, 4
        element = f_projector(Partition((2, 2)), Partition((2,)), n, k, d)
        dense = gather_rows(DenseOperator(n, d, realize(element, d).real), wall(n, k))
        rows = realize_sectors(element, d, k)
        assert (rows.n, rows.d, rows.conjugated) == (dense.n, dense.d, dense.conjugated) \
            == (n, d, (5, 6))
        assert rows.rows.dtype == float and np.array_equal(rows.rows, dense.rows)

    @pytest.mark.parametrize("n,k,d", [(3, 1, 3), (4, 1, 2), (4, 1, 3)])
    @pytest.mark.parametrize("chunk", [None, 1])
    def test_a_stray_diagram_is_refused(self, n, k, d, chunk, monkeypatch):
        # the rows hold walled operators only: the stray diagram is named,
        # also when it falls in a later chunk than F's terms (one term a chunk)
        if chunk:
            monkeypatch.setattr(wba_algebra, "_SCATTER_ENTRIES", chunk)
        element, stray = _with_a_stray(n, k, d)
        with pytest.raises(ValueError, match=re.escape(f"the diagram {stray} is not walled "
                                                       f"for k = {k}")):
            realize_sectors(element, d, k)

    def test_a_diagram_and_a_permutation(self):
        n, d, k = 3, 3, 1
        perm = Permutation.from_cycles([(1, 3)], n)
        diagram = from_permutation(perm, {3})
        for x in (diagram, from_permutation(Permutation.identity(n))):
            rows = realize_sectors(x, d, k)
            dense = gather_rows(DenseOperator(n, d, realize(x, d).real), wall(n, k))
            assert np.array_equal(rows.rows, dense.rows)
        # (1 3) untransposed joins a plain and a conjugated site top to bottom
        with pytest.raises(ValueError, match=re.escape("the diagram (1 3) is not walled "
                                                       "for k = 1")):
            realize_sectors(perm, d, k)

    def test_refusals(self):
        with pytest.raises(ValueError, match="size guard"):
            realize_sectors(f_projector(Partition((5, 2)), Partition((4, 2)), 8, 1, 3), 3, 1)
        with pytest.raises(ValueError, match="sector rows of shape"):
            SectorOperator(4, 2, (4,), np.zeros((16, 4)))

    def test_a_stack_of_rows_is_refused(self):
        # a SectorOperator is one operator: a stack of its rows is refused
        rows = realize_sectors(from_permutation(Permutation.identity(3)), 3, 1).rows
        with pytest.raises(ValueError, match=re.escape(f"sector rows of shape {(2,) + rows.shape}")):
            SectorOperator(3, 3, (3,), np.stack([rows] * 2))


class TestCovarianceMemory:
    def test_the_d4_projector_stays_under_its_bound(self):
        # (6,2) d=4: one root's frame is 2 (4097) x 189 entries; with the
        # commutator formed in its gathered array and no step's arrays kept
        # into the next step it reads 37 MB by tracemalloc on the rows in
        # place (45 MB when it also gathered them from the dense F)
        n, k, d = 6, 2, 4
        element = f_projector(Partition((2, 2)), Partition((2,)), n, k, d)
        op = DenseOperator(n, d, realize(element, d).real.copy())
        rows = realize_sectors(element, d, k)
        tracemalloc.start()
        try:
            residual = covariance_residual(rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 50e6, peak / 1e6
        assert residual == covariance_residual(gather_rows(op, wall(n, k))) <= 1e-13


def _perturbed_rows(n, k, d, mu, alpha, seed):
    """F_mu(alpha) by its sector rows with a seeded 1e-3 normal draw added
    to each stored entry (the pads and the last row stay zero)."""
    f = realize_sectors(f_projector(Partition(mu), Partition(alpha), n, k, d), d, k)
    inside = f.layout.members[f.layout.sector] < d ** n
    rows = f.rows.copy()
    rows[:-1][inside] += 1e-3 * np.random.default_rng(seed).standard_normal(inside.sum())
    return SectorOperator(n, d, f.conjugated, rows)


def _walled_stack(conjugated, seed):
    """13 real members at n = 3, d = 3: one walled operator for the set
    plus hermitian sector blocks scaled by 0 and by 1e-12 up to 1e-1."""
    rng = np.random.default_rng(seed)
    same = same_weight(3, 3, conjugated)
    base = _covariant(rng, 3, 3, conjugated).real
    return DenseOperator(3, 3, np.array([base + scale * np.where(same, _hermitian(rng, 27).real, 0)
                                         for scale in [0.0] + [10.0 ** -e for e in range(12, 0, -1)]]))


class TestResidualBits:
    """covariance_residual's bits, as float.hex, on seeded sector rows, each
    operator alone: they pin the core's additions, which take no BLAS call,
    on every layout kind."""

    ROWS = {(6, 2, 2, (3, 1), (2,)): "0x1.2d74992d7b020p-7",
            (5, 2, 3, (2, 1), (1,)): "0x1.3b464587be164p-7",
            (4, 1, 4, (2, 1), (2,)): "0x1.fb68d9c8eb0a0p-8"}
    STACKS = {
        (2,): ["0x1.0000000000000p-50", "0x1.f260000000000p-38", "0x1.9288000000000p-34",
               "0x1.071f600000000p-30", "0x1.1311e20000000p-27", "0x1.602c83073f8a0p-24",
               "0x1.c64bb23000000p-21", "0x1.4952462280000p-17", "0x1.2f58c58388000p-14",
               "0x1.a129704962800p-11", "0x1.3604f1121ca00p-7", "0x1.784dfd8871b40p-4",
               "0x1.ae0db113b3318p-1"],
        (1, 2): ["0x1.0000000000000p-50", "0x1.c8b0cf9a0ead7p-38", "0x1.9bbe800000000p-34",
                 "0x1.8297f0917d5e4p-31", "0x1.e229100000000p-28", "0x1.14bde08000000p-24",
                 "0x1.cc4c6e3f3f726p-21", "0x1.0ccf21dcadc46p-17", "0x1.54ffc3d07c000p-14",
                 "0x1.776653b418000p-11", "0x1.25d3a45d27168p-7", "0x1.611ecaa36d000p-4",
                 "0x1.9d46d910a52bap-1"]}
    COMPLEX = "0x1.7a6f3b18772b7p-17"

    @pytest.mark.parametrize("case", sorted(ROWS))
    def test_perturbed_projector_rows(self, case):
        op = _perturbed_rows(*case, seed=sum(case[:3]))
        assert covariance_residual(op).hex() == self.ROWS[case]

    @pytest.mark.parametrize("conjugated", sorted(STACKS))
    @pytest.mark.parametrize("work", [None, 1])
    def test_a_13_member_stack(self, conjugated, work, monkeypatch):
        # a bound of one entry runs one root at a time
        if work:
            monkeypatch.setattr(dense_ops, "_WORK_ENTRIES", work)
        residuals = [covariance_residual(gather_rows(m, conjugated))
                     for m in _members(_walled_stack(conjugated, 13))]
        assert [r.hex() for r in residuals] == self.STACKS[conjugated]

    def test_a_complex_member(self):
        rng = np.random.default_rng(4)
        same = same_weight(4, 3, (2, 4))
        mat = _covariant(rng, 4, 3, (2, 4)) + 1e-6 * np.where(same, _hermitian(rng, 81), 0)
        assert covariance_residual(gather_rows(DenseOperator(4, 3, mat), (2, 4))).hex() \
            == self.COMPLEX
