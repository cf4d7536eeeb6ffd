import itertools
import tracemalloc

import numpy as np
import pytest

from wba import dense_ops, multilinear_maps as mm
from wba.dense_ops import DenseOperator, random_matrix, random_psd, sup_norm
from wba.multilinear_maps import (
    MapSpec,
    backward_cycle,
    contract,
    cycle_subset_to_one,
    evaluate_cycle_to_one,
    evaluate_one_to_many,
    evaluate_one_to_many_via_pi,
    evaluate_oracle,
    f_projector_map_2to2,
    f_projector_map_3to1,
    forward_cycle,
)
from wba.sym_core import Partition, Permutation, parse_permutation
from wba import verification
from wba.verification import proposition_suite
from wba.tolerances import ORACLE_TOL
from wba.wba_algebra import (
    WbaElement,
    admissible_pairs,
    f_projector,
    from_permutation,
    list_entries,
    list_permutations,
    realize,
    realize_sectors,
)

from test_sectors import gather_rows


@pytest.fixture
def rng():
    return np.random.default_rng(17)


def _kernel(perm, transposed, d):
    """perm^{T_S} by its listed entries."""
    return list_entries(from_permutation(perm, transposed), d)


def spec_for(perm, transposed, n_in, n_out, d):
    return MapSpec(from_permutation(perm, transposed), n_in, n_out, d)


def partial_trace(m, over):
    """The sites in ``over`` traced out by one einsum, the kept sites
    re-packed in order; tracing no site or every site is refused."""
    keep = [s for s in range(1, m.n + 1) if s not in over]
    if not keep or len(keep) == m.n:
        raise ValueError(f"trace out some of the sites 1..{m.n}, not {over}")
    # a traced site's column axis is its row axis
    cols = [t if t + 1 in over else m.n + t for t in range(m.n)]
    out = np.einsum(m.tensor, list(range(m.n)) + cols,
                    [s - 1 for s in keep] + [m.n + s - 1 for s in keep])
    dim = m.d ** len(keep)
    return DenseOperator(len(keep), m.d, out.reshape(dim, dim))


def _reference_contract(kernel, factors, keep):
    """The unfused contraction: the full kernel @ F, then the partial trace."""
    prod = DenseOperator(kernel.n, kernel.d, kernel.mat @ dense_ops.kron_all(factors))
    keep = set(keep)
    if not keep:
        return DenseOperator(0, kernel.d, np.array([[np.trace(prod.mat)]], dtype=complex))
    if len(keep) == kernel.n:
        return prod
    return partial_trace(prod, [s for s in range(1, kernel.n + 1) if s not in keep])


def _compositions(n):
    """Every ordered tiling of n sites by blocks of one or more sites."""
    if n == 0:
        return [[]]
    return [[m] + rest for m in range(1, n + 1) for rest in _compositions(n - m)]


class TestOracle:
    def test_permutation_matmul(self, rng):
        # tr_12[(321) A x B x 1] = AB on the last site
        a, b = (random_matrix(2, 1, rng) for _ in range(2))
        spec = spec_for(parse_permutation("(3 2 1)", 3), frozenset(), 2, 1, 2)
        out = evaluate_oracle(spec, [a, b])
        assert np.allclose(out.mat, a @ b, atol=1e-12)

    def test_identity_kernel(self, rng):
        a, b = (random_matrix(3, 1, rng) for _ in range(2))
        spec = spec_for(parse_permutation("()", 4), frozenset(), 2, 2, 3)
        out = evaluate_oracle(spec, [a, b])
        assert np.allclose(out.mat, np.trace(a) * np.trace(b) * np.eye(9), atol=1e-12)

    def test_full_trace_variant(self, rng):
        a, b, c = (random_matrix(2, 1, rng) for _ in range(3))
        spec = spec_for(parse_permutation("(3 2 1)", 3), frozenset(), 3, 0, 2)
        out = evaluate_oracle(spec, [a, b, c])
        assert out.n == 0
        assert np.isclose(out.mat[0, 0], np.trace(a @ b @ c))

    def test_three_to_two_closed_form(self, rng):
        # tr_123[(12345)^{T2} X1 x X2 x X3 x 1 x 1] = ((X3 X2^T X1 x 1)^R)^{T2}
        d = 2
        x1, x2, x3 = (random_matrix(d, 1, rng) for _ in range(3))
        spec = spec_for(forward_cycle(5), {2}, 3, 2, d)
        out = evaluate_oracle(spec, [x1, x2, x3])
        inner = DenseOperator(2, d, np.kron(x3 @ x2.T @ x1, np.eye(d)))
        closed = dense_ops.partial_transpose(dense_ops.reshuffle_bipartite(inner), (2,))
        assert sup_norm(out.mat - closed.mat) < 1e-12

    def test_untraced_slot_pulls_out(self, rng):
        # tr_12[(321) A x B x C] = Lambda(A, B) C for the two-input map
        a, b, c = (random_matrix(2, 1, rng) for _ in range(3))
        spec = spec_for(parse_permutation("(3 2 1)", 3), frozenset(), 2, 1, 2)
        lam = evaluate_oracle(spec, [a, b])
        kernel = realize(parse_permutation("(3 2 1)", 3), 2)
        direct = partial_trace(
            DenseOperator(3, 2, kernel @ np.kron(np.kron(a, b), c)), (1, 2))
        assert sup_norm(lam.mat @ c - direct.mat) < 1e-12

    def test_slot_count_mismatch(self, rng):
        spec = spec_for(parse_permutation("(1 2)", 2), frozenset(), 1, 1, 2)
        with pytest.raises(ValueError):
            evaluate_oracle(spec, [random_matrix(2, 1, rng)] * 2)


class TestFusedContract:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_unfused_reference(self, n, d, rng):
        # dense complex kernels, every keep subset, every tiling of the sites
        kernel = DenseOperator(n, d, random_matrix(d, n, rng))
        for tiling in _compositions(n):
            factors = [random_matrix(d, m, rng) for m in tiling]
            for size in range(n + 1):
                for keep in itertools.combinations(range(1, n + 1), size):
                    fused = contract(kernel, factors, keep)
                    reference = _reference_contract(kernel, factors, keep)
                    assert fused.n == reference.n == size
                    assert sup_norm(fused.mat - reference.mat) \
                        <= 1e-13 * sup_norm(reference.mat)

    def test_stacks_give_each_members_contraction(self, rng):
        # a stacked kernel and a stacked factor beside a shared one, bit for bit
        d = 2
        kernels = DenseOperator(3, d, np.stack([random_matrix(d, 3, rng) for _ in range(3)]))
        factors = [np.stack([random_matrix(d, 1, rng) for _ in range(3)]),
                   random_matrix(d, 2, rng)]
        for keep in ([], [2], [1, 3], [1, 2, 3]):
            out = contract(kernels, factors, keep)
            assert out.mat.shape == (3, d ** len(keep), d ** len(keep))
            for t in range(3):
                alone = contract(DenseOperator(3, d, kernels.mat[t]),
                                 [factors[0][t], factors[1]], keep)
                assert np.array_equal(out.mat[t], alone.mat)

    def test_unit_factor_and_unsorted_keep(self, rng):
        d = 2
        kernel = DenseOperator(3, d, random_matrix(d, 3, rng))
        factors = [random_matrix(d, 2, rng), np.eye(1), random_matrix(d, 1, rng)]
        fused = contract(kernel, factors, [3, 1, 3])
        reference = _reference_contract(kernel, factors, [1, 3])
        assert sup_norm(fused.mat - reference.mat) <= 1e-13 * sup_norm(reference.mat)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("d", [2, 3])
    def test_diagram_kernels_match_the_reference(self, n, d, rng):
        # the keeps of the suite and of evaluate_oracle: one end site, the
        # first and last of four, every run of output sites after the inputs;
        # every diagram up to n = 4, both n-cycles with every subset at n = 5
        keeps = {(1,), (n,), *(tuple(range(m, n + 1)) for m in range(2, n + 2))}
        if n == 4:
            keeps.add((1, 4))
        perms = ([Permutation(images) for images in itertools.permutations(range(1, n + 1))]
                 if n < 5 else [forward_cycle(n), backward_cycle(n)])
        factors = [random_matrix(d, 1, rng) for _ in range(n)]
        for perm in perms:
            for size in range(n + 1):
                for subset in itertools.combinations(range(1, n + 1), size):
                    kernel = DenseOperator(n, d, realize(from_permutation(perm, subset), d))
                    for keep in keeps:
                        fused = contract(kernel, factors, keep)
                        reference = _reference_contract(kernel, factors, keep)
                        assert sup_norm(fused.mat - reference.mat) \
                            <= 1e-13 * sup_norm(reference.mat)

    def test_members_with_other_supports_give_their_own_contraction(self, rng):
        # a diagram's support with complex weights, one entry zeroed in member 1:
        # the union support adds exact zeros to that member's running sums
        d, n = 3, 4
        diagram = realize(from_permutation(backward_cycle(n), {2}), d)
        mats = diagram * np.stack([random_matrix(d, n, rng) for _ in range(3)])
        rows, cols = np.nonzero(diagram)
        mats[1, rows[40], cols[40]] = 0
        kernels = DenseOperator(n, d, mats)
        factors = [np.stack([random_matrix(d, 1, rng) for _ in range(3)])
                   for _ in range(n)]
        for keep in ([], [4], [1, 4], [2, 3, 4], [1, 2, 3, 4]):
            out = contract(kernels, factors, keep)
            for t in range(3):
                alone = contract(DenseOperator(n, d, mats[t]), [f[t] for f in factors], keep)
                assert np.array_equal(out.mat[t], alone.mat)

    @pytest.mark.parametrize("kernel_stack, factor_stacks", [
        ((), [(), (4,), ()]),           # an unstacked first factor, a stacked later one
        ((4,), [(), (), ()]),           # a stacked kernel, unstacked factors
        ((2, 3), [(), (), (3,)]),       # two kernel axes, a factor on the last one
    ])
    def test_broadcast_stacks_give_each_members_contraction(self, kernel_stack,
                                                            factor_stacks, rng):
        # a diagram's support with complex weights; every member bit for bit
        d, n = 3, 3
        diagram = realize(from_permutation(backward_cycle(n), {2}), d)
        mats = diagram * rng.standard_normal(kernel_stack + diagram.shape) \
            * np.exp(1j * rng.standard_normal(kernel_stack + diagram.shape))
        factors = [rng.standard_normal(s + (d, d)) + 1j * rng.standard_normal(s + (d, d))
                   for s in factor_stacks]
        stack = np.broadcast_shapes(kernel_stack, *factor_stacks)

        def pick(a, lead, member):
            """The array ``a`` with stack axes ``lead`` at a member of ``stack``."""
            return a[member[len(stack) - len(lead):]]

        for keep in ([], [n], [1, n], list(range(1, n + 1))):
            out = contract(DenseOperator(n, d, mats), factors, keep)
            assert out.mat.shape == stack + (d ** len(keep),) * 2
            for member in np.ndindex(stack):
                alone = contract(DenseOperator(n, d, pick(mats, kernel_stack, member)),
                                 [pick(f, s, member) for f, s in zip(factors, factor_stacks)],
                                 keep)
                assert np.array_equal(out.mat[member], alone.mat)

    def test_a_stack_does_not_form_the_kronecker_product(self, rng):
        # 20 tuples at n = 5, d = 3 with one kept site peak below one d^{2n}
        # complex product (945 KB)
        d, n = 3, 5
        kernel = _kernel(backward_cycle(n), {n}, d)
        factors = [np.stack([random_matrix(d, 1, rng) for _ in range(20)])
                   for _ in range(n)]
        tracemalloc.start()
        contract(kernel, factors, [n])
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 16 * d ** (2 * n), peak

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_identity_sites_are_the_explicit_identity_bit_for_bit(self, k, d, rng):
        # both k-cycles with every transposed subset, every split into inputs
        # and kept identity sites, with and without a kept input site
        for perm in (forward_cycle(k), backward_cycle(k)):
            for size in range(k + 1):
                for subset in itertools.combinations(range(1, k + 1), size):
                    kernel = _kernel(perm, subset, d)
                    for n_in in range(1, k):
                        factors = [random_matrix(d, 1, rng) for _ in range(n_in)]
                        eye = np.eye(d ** (k - n_in), dtype=complex)
                        for keep in (range(n_in + 1, k + 1), range(n_in, k + 1)):
                            implicit = contract(kernel, factors, keep).mat
                            explicit = contract(kernel, factors + [eye], keep).mat
                            assert np.array_equal(implicit.view(np.uint64),
                                                  explicit.view(np.uint64))

    def test_identity_sites_of_stacked_werner_kernels(self, rng):
        from wba import entanglement as ent
        for d in (3, 4):
            params, a, b = ent.random_werner_instances(rng, d, 7)
            for s in ((1,), (2,), (1, 3), (2, 3)):
                kernel = dense_ops.partial_transpose(ent.werner_state(params), s)
                for factors in ([a], [a, b], [a[2]], [a, b[0]]):
                    n_in = len(factors)
                    eye = np.eye(d ** (3 - n_in), dtype=complex)
                    implicit = contract(kernel, factors, range(n_in + 1, 4)).mat
                    explicit = contract(kernel, factors + [eye], range(n_in + 1, 4)).mat
                    assert implicit.shape == (7,) + (d ** (3 - n_in),) * 2
                    assert np.array_equal(implicit.view(np.uint64), explicit.view(np.uint64))

    @pytest.mark.parametrize("factor_shapes, keep, message", [
        ([(2, 2)] * 3, [0, 1], "out of range"),
        ([(2, 2)] * 3, [7], "out of range"),
        ([(2, 2)], [3], "do not tile"),      # site 2 is traced and no factor covers it
        ([(2, 2), (4, 4), (2, 2)], [3], "do not tile"),
        ([(2, 2), (4, 2)], [3], "do not tile"),
        ([(2, 2), (3, 3), (2, 2)], [3], "do not tile"),
        ([], [1, 2, 3], "do not tile"),     # no factor, the kernel alone
    ])
    def test_bad_input_fails_before_any_work(self, factor_shapes, keep, message,
                                             monkeypatch, rng):
        def no_work(mat):
            raise AssertionError("the kernel was read before the inputs were checked")

        monkeypatch.setattr(mm, "_support", no_work)
        kernel = DenseOperator(3, 2, random_matrix(2, 3, rng))
        factors = [np.ones(shape, dtype=complex) for shape in factor_shapes]
        with pytest.raises(ValueError, match=message) as err:
            contract(kernel, factors, keep)
        assert "\n" not in str(err.value)


class TestCycleToOne:
    @pytest.mark.parametrize("direction", ["backward", "forward"])
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_vs_oracle(self, direction, k, rng):
        d = 2
        cycle = backward_cycle(k) if direction == "backward" else forward_cycle(k)
        keep = k if direction == "backward" else 1
        for j in range(1, k + 1):
            for _ in range(5):
                mats = [random_matrix(d, 1, rng) for _ in range(k)]
                oracle = contract(_kernel(cycle, {j}, d), mats, [keep])
                closed = evaluate_cycle_to_one(direction, j, mats)
                assert sup_norm(closed.mat - oracle.mat) < 1e-10

    def test_four_to_one_identity(self, rng):
        # tr_1234[(54321)^{T5} X1..X5] = (X1 X2 X3 X4)^T X5
        d = 3
        mats = [random_matrix(d, 1, rng) for _ in range(5)]
        out = evaluate_cycle_to_one("backward", 5, mats)
        assert np.allclose(out.mat, (mats[0] @ mats[1] @ mats[2] @ mats[3]).T @ mats[4])

    def test_transpose_swap(self, rng):
        a, b = (random_matrix(2, 1, rng) for _ in range(2))
        out = evaluate_cycle_to_one("backward", 1, [a, b])
        assert np.allclose(out.mat, a.T @ b)

    def test_identity_inputs(self):
        eye = np.eye(2, dtype=complex)
        for direction in ("backward", "forward"):
            for j in (1, 2, 3):
                out = evaluate_cycle_to_one(direction, j, [eye, eye, eye])
                assert np.array_equal(out.mat, eye)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_docstring_products(self, k, rng):
        # the four documented products, with d read off the inputs
        mats = [random_matrix(3, 1, rng) for _ in range(k)]

        def chain(order, j):
            out = np.eye(3, dtype=complex)
            for i in order:
                out = out @ (mats[i - 1].T if i == j else mats[i - 1])
            return out
        for j in range(1, k + 1):
            backward = (chain(range(1, k), None).T @ mats[-1] if j == k
                        else chain(range(1, k + 1), j))
            forward = (chain(range(k, 1, -1), None).T @ mats[0] if j == 1
                       else chain(range(k, 0, -1), j))
            assert np.allclose(evaluate_cycle_to_one("backward", j, mats).mat, backward)
            assert np.allclose(evaluate_cycle_to_one("forward", j, mats).mat, forward)

    def test_bad_arguments(self, rng):
        mats = [random_matrix(2, 1, rng) for _ in range(3)]
        with pytest.raises(ValueError, match="out of range 1..3"):
            evaluate_cycle_to_one("backward", 4, mats)
        with pytest.raises(ValueError, match="out of range 1..0"):
            evaluate_cycle_to_one("forward", 1, [])
        with pytest.raises(ValueError, match="direction must be forward or backward"):
            evaluate_cycle_to_one("sideways", 1, mats)


class TestTheta:
    def test_empty_subset_plain_product(self, rng):
        mats = [random_matrix(2, 1, rng) for _ in range(3)]
        out = cycle_subset_to_one(frozenset(), mats)
        assert np.allclose(out.mat, mats[0] @ mats[1] @ mats[2])

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("d", [2, 3])
    def test_all_subsets_vs_oracle(self, k, d, rng):
        for size in range(k + 1):
            for subset in itertools.combinations(range(1, k + 1), size):
                s = frozenset(subset)
                for _ in range(3):
                    mats = [random_psd(d, 1, rng).mat for _ in range(k)]
                    oracle = contract(_kernel(backward_cycle(k), s, d), mats, [k])
                    closed = cycle_subset_to_one(s, mats)
                    assert sup_norm(closed.mat - oracle.mat) < 1e-10

    def test_empty_inputs_without_d(self):
        with pytest.raises(ValueError, match="need at least one input"):
            cycle_subset_to_one(set(), [])

    def test_inputs_of_two_sizes_are_refused(self, rng):
        mats = [random_matrix(2, 1, rng), random_matrix(3, 1, rng)]
        with pytest.raises(ValueError, match=r"input shape \(3, 3\) != \(2, 2\)"):
            cycle_subset_to_one({1}, mats)
        with pytest.raises(ValueError, match=r"input shape \(2, 2\) != \(3, 3\)"):
            evaluate_cycle_to_one("forward", 1, mats)

    def test_bar_uses_subset_not_positions(self, rng):
        # with k in S the factors outside S are transposed, in reversed order
        mats = [random_matrix(2, 1, rng) for _ in range(3)]
        out = cycle_subset_to_one(frozenset({1, 3}), mats)
        assert np.allclose(out.mat, mats[1].T @ mats[0] @ mats[2])


class TestOneToMany:
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    @pytest.mark.parametrize("d", [2, 3])
    def test_chain_and_pi_vs_oracle(self, k, d, rng):
        for _ in range(5):
            a = DenseOperator(1, d, random_matrix(d, 1, rng))
            spec = spec_for(forward_cycle(k), {k}, 1, k - 1, d)
            oracle = evaluate_oracle(spec, [a])
            chain = evaluate_one_to_many(a, k)
            via_pi = evaluate_one_to_many_via_pi(a, k)
            assert sup_norm(chain.mat - oracle.mat) < 1e-10
            assert sup_norm(via_pi.mat - oracle.mat) < 1e-10

    def test_k2_is_transpose(self, rng):
        a = DenseOperator(1, 3, random_matrix(3, 1, rng))
        assert np.array_equal(evaluate_one_to_many(a, 2).mat, a.mat.T)
        assert np.array_equal(evaluate_one_to_many_via_pi(a, 2).mat, a.mat.T)

    def test_identity_input_both_paths(self):
        a = DenseOperator(1, 2, np.eye(2, dtype=complex))
        for k in (3, 4):
            spec = spec_for(forward_cycle(k), {k}, 1, k - 1, 2)
            oracle = evaluate_oracle(spec, [a])
            assert sup_norm(evaluate_one_to_many(a, k).mat - oracle.mat) < 1e-12

    def test_chain_permutation_form(self):
        from wba.multilinear_maps import reshuffling_chain_permutation
        from wba.sym_core import Permutation
        # k = 4 (three output sites): the cycle (5 4 3) on six flattened slots
        assert reshuffling_chain_permutation(4) == \
            Permutation.from_cycles([(5, 4, 3)], 6)
        assert reshuffling_chain_permutation(2) == \
            Permutation.from_cycles([(1, 2)], 2)


class TestDispatcher:
    """evaluate_oracle on each kernel form: a diagram or element is realized,
    a dense or sector-row kernel is contracted as it is."""

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("d", [2, 3])
    def test_every_diagram_matches_oracle(self, n, d, rng):
        # every S3/S4 permutation with every transpose subset, every split:
        # the map is the realized kernel @ the inputs (x) 1, partially traced
        mats = [random_matrix(d, 1, rng) for _ in range(n)]
        eye = np.eye(d, dtype=complex)
        for images in itertools.permutations(range(1, n + 1)):
            for size in range(n + 1):
                for subset in itertools.combinations(range(1, n + 1), size):
                    diag = from_permutation(Permutation(images), subset)
                    dense = DenseOperator(n, d, realize(diag, d))
                    for n_in in range(1, n + 1):
                        out = evaluate_oracle(MapSpec(diag, n_in, n - n_in, d), mats[:n_in])
                        reference = _reference_contract(dense, mats[:n_in] + [eye] * (n - n_in),
                                                        range(n_in + 1, n + 1))
                        assert out.n == reference.n == n - n_in
                        assert sup_norm(out.mat - reference.mat) <= 1e-10

    def test_dense_kernel_and_input_checks(self, rng):
        kernel = DenseOperator(3, 2, random_matrix(2, 3, rng))
        spec = MapSpec(kernel, 2, 1, 2)
        inputs = [random_matrix(2, 1, rng) for _ in range(2)]
        reference = _reference_contract(kernel, inputs + [np.eye(2)], [3])
        assert sup_norm(evaluate_oracle(spec, inputs).mat - reference.mat) <= 1e-10
        with pytest.raises(ValueError):
            evaluate_oracle(spec, inputs[:1])
        with pytest.raises(ValueError):
            evaluate_oracle(spec, [inputs[0], random_matrix(3, 1, rng)])

    def test_a_kernel_of_another_dimension_is_refused(self, rng):
        element = f_projector(Partition((2, 1)), Partition((2,)), 4, 1, 3)
        inputs = [random_matrix(2, 1, rng)]
        with pytest.raises(ValueError, match="^kernel local dimension mismatch$"):
            evaluate_oracle(MapSpec(DenseOperator(4, 3, realize(element, 3)), 1, 3, 2), inputs)
        with pytest.raises(ValueError, match="^a sector-form kernel of dimension 3, not d = 2$"):
            evaluate_oracle(MapSpec(realize_sectors(element, 3, 1), 1, 3, 2), inputs)


class TestLargestKernel:
    def test_real_kernel_is_neither_copied_nor_cast(self, rng):
        # the real 729 x 729 F_[2,2]([2]): the oracle gathers its 35,169
        # nonzero entries and holds no array of the kernel's size
        d = 3
        f = realize(f_projector(Partition((2, 2)), Partition((2,)), 6, 2, d), d).real.copy()
        kernel = DenseOperator(6, d, f)
        for n_in in (1, 3, 5):
            spec = MapSpec(kernel, n_in, 6 - n_in, d)
            inputs = [random_psd(d, 1, rng) for _ in range(n_in)]
            tracemalloc.start()
            try:
                out = evaluate_oracle(spec, inputs)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < f.nbytes, (n_in, peak)
            factors = [x.mat for x in inputs] + [np.eye(d ** (6 - n_in))]
            reference = _reference_contract(kernel, factors, range(n_in + 1, 7))
            assert sup_norm(out.mat - reference.mat) <= 1e-10


def _sector_cases():
    """(n, k, d) with k >= 1 for n <= 7 at d = 2 and n <= 6 at d = 3."""
    return [(n, k, d) for d, top in ((2, 7), (3, 6))
            for n in range(2, top + 1) for k in range(1, n // 2 + 1)]


class TestSectorKernel:
    """evaluate_oracle on a kernel held as its weight-sector rows, as ``wba
    projector`` holds F: contract reads the stored entries in the dense
    kernel's row-major order, so the map is the dense kernel's bit for bit."""

    @pytest.mark.parametrize("n,k,d", _sector_cases())
    def test_every_admissible_pair_equals_the_dense_kernel(self, n, k, d, rng):
        # every F_mu(alpha) at every input count: 419 maps over all (n, k, d)
        for alpha, mu in admissible_pairs(n, k, d):
            element = f_projector(mu, alpha, n, k, d)
            rows = realize_sectors(element, d, k)
            dense = DenseOperator(n, d, realize(element, d).real.copy())
            for n_in in range(1, n + 1):
                inputs = [random_matrix(d, 1, rng) for _ in range(n_in)]
                out = evaluate_oracle(MapSpec(rows, n_in, n - n_in, d), inputs)
                assert out.n == n - n_in
                assert np.array_equal(out.mat, evaluate_oracle(MapSpec(dense, n_in, n - n_in, d),
                                                               inputs).mat)

    @pytest.mark.parametrize("n,k,d,mu,alpha", [(6, 2, 3, (2, 2), (2,)), (7, 1, 2, (4, 2), (3, 2))])
    def test_equals_the_dense_kernel(self, n, k, d, mu, alpha, rng):
        # the element, realized as a complex matrix, gives the same map
        element = f_projector(Partition(mu), Partition(alpha), n, k, d)
        rows = realize_sectors(element, d, k)
        for n_in in range(1, n + 1):
            inputs = [random_psd(d, 1, rng) for _ in range(n_in)]
            out = evaluate_oracle(MapSpec(rows, n_in, n - n_in, d), inputs)
            oracle = evaluate_oracle(MapSpec(element, n_in, n - n_in, d), inputs)
            assert out.n == oracle.n == n - n_in
            assert np.array_equal(out.mat, oracle.mat)

    def test_the_d4_map_holds_a_few_times_its_rows(self, rng):
        # (6,2) d=4 with 3 inputs: F's rows are 6 MiB and the map's index,
        # value and term arrays 16 MB at their peak, where its first output
        # alone (1024^2 complex) would be 16 MiB and a real dense F 128 MiB
        n, k, d = 6, 2, 4
        rows = realize_sectors(f_projector(Partition((2, 2)), Partition((2,)), n, k, d), d, k)
        inputs = [random_psd(d, 1, rng) for _ in range(3)]
        tracemalloc.start()
        try:
            evaluate_oracle(MapSpec(rows, 3, n - 3, d), inputs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * rows.rows.nbytes, peak / 1e6

    @pytest.mark.parametrize("shape", [(2, 2, 2), (5, 2, 2)])
    def test_a_stack_of_inputs_gives_each_members_map(self, shape, rng):
        # a stack of length rest = 2 beside an unstacked input, through F's rows
        n, k, d = 4, 1, 2
        rows = realize_sectors(f_projector(Partition((2, 1)), Partition((2,)), n, k, d), d, k)
        spec = MapSpec(rows, 2, 2, d)
        stack, single = rng.standard_normal(shape), random_matrix(d, 1, rng)
        out = evaluate_oracle(spec, [stack, single])
        assert out.mat.shape == shape[:1] + (4, 4)
        for member, x in zip(out.mat, stack):
            assert np.array_equal(member, evaluate_oracle(spec, [x, single]).mat)

    def test_complex_kernel(self, rng):
        # complex coefficients: F (0.5 - 2j) by its sector rows gives the
        # dense kernel's map bit for bit
        n, k, d = 4, 1, 3
        element = f_projector(Partition((2, 1)), Partition((2,)), n, k, d)
        element = WbaElement(n, element.pairings, element.coeffs * complex(0.5, -2.0))
        dense = DenseOperator(n, d, realize(element, d))
        rows = gather_rows(dense, range(n - k + 1, n + 1))
        assert rows.rows.dtype == complex
        for n_in in range(1, n + 1):
            inputs = [random_matrix(d, 1, rng) for _ in range(n_in)]
            out = evaluate_oracle(MapSpec(rows, n_in, n - n_in, d), inputs)
            assert np.array_equal(out.mat, evaluate_oracle(MapSpec(dense, n_in, n - n_in, d),
                                                           inputs).mat)


def _listing_bytes(op):
    """_support's rows, columns and values as (dtype, shape, bytes)."""
    return [(x.dtype, x.shape, x.tobytes()) for x in dense_ops._support(op)]


def _suite_listings(monkeypatch, **suite):
    """(images, mask, d, listing) of each list_permutations call of a
    proposition_suite run."""
    seen = []

    def recording(images, mask, d):
        listed = list_permutations(images, mask, d)
        seen.append((np.array(images), np.array(mask), d, listed))
        return listed

    monkeypatch.setattr(verification, "list_permutations", recording)
    proposition_suite(**suite)
    return seen


def _member(listed, m):
    """Member m of a listing with one member axis, as a listing of its own."""
    return dense_ops.ListedOperator(listed.n, listed.d, listed.rows[m], listed.cols[m],
                                    listed.values[m])


def _members(images, mask, listed):
    """(perm, S, member listing) for each member of a member-stacked listing."""
    return [(Permutation(tuple(int(x) for x in images[m])),
             {int(s) for s in np.flatnonzero(mask[m]) + 1}, _member(listed, m))
            for m in range(len(images))]


def _lists_its_realization(x, d):
    return _listing_bytes(list_entries(x, d)) \
        == _listing_bytes(DenseOperator(x.n, d, realize(x, d)))


class TestListedKernel:
    """list_entries gives _support of the realized matrix bit for bit:
    equal entries summed in term order from zero, zero sums dropped."""

    @pytest.mark.parametrize("n,k,d", [(n, k, d) for (n, k, d) in _sector_cases() if n <= 6])
    def test_every_admissible_projector(self, n, k, d):
        for alpha, mu in admissible_pairs(n, k, d):
            assert _lists_its_realization(f_projector(mu, alpha, n, k, d), d), (mu, alpha)

    def test_every_suite_kernel(self, monkeypatch):
        # each member of a suite listing is its diagram's list_entries, which
        # is the realization's support
        listings = _suite_listings(monkeypatch, seed=0, tuples=1)
        members = [(perm, s, d, listed) for images, mask, d, listed in listings
                   for perm, s, listed in _members(images, mask, listed)]
        assert len(listings) == 36 and len(members) == 106
        for perm, s, d, listed in members:
            diagram = from_permutation(perm, s)
            assert _listing_bytes(listed) == _listing_bytes(list_entries(diagram, d))
            assert _lists_its_realization(diagram, d)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("d", [2, 3])
    def test_random_elements_with_polynomial_coefficients(self, n, d, rng):
        # complex coefficients in d**0..d**2, a repeated pairing and a pair
        # of diagrams of opposite coefficients, whose shared entries cancel
        for _ in range(5):
            diagrams = [from_permutation(Permutation(tuple(rng.permutation(n) + 1)),
                                         set(np.flatnonzero(rng.random(n) < 0.4) + 1))
                        for _ in range(6)]
            pairings = np.concatenate([x.pairings for x in diagrams] + [diagrams[0].pairings])
            coeffs = rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3))
            element = WbaElement(n, pairings, coeffs)
            assert _lists_its_realization(element, d)
            cancelling = WbaElement(n, pairings[:2], [[0.5 - 2j], [-0.5 + 2j]])
            listed = list_entries(cancelling, d)
            assert len(listed.rows) < 2 * d ** n     # the constant digits meet both
            assert _lists_its_realization(cancelling, d)

    def test_a_permutation_is_its_diagram(self):
        perm = parse_permutation("(1 3 2)", 3)
        assert _listing_bytes(list_entries(perm, 3)) \
            == _listing_bytes(list_entries(from_permutation(perm), 3))

    @pytest.mark.parametrize("n,k,d,mu,alpha", [(4, 1, 3, (2, 1), (2,)), (6, 2, 2, (2, 2), (2,))])
    def test_covariance_residual_reads_both_forms_alike(self, n, k, d, mu, alpha):
        # the listed and the realized F give the same sector rows, so the
        # same residual bits, and realize_sectors' real rows its value
        element = f_projector(Partition(mu), Partition(alpha), n, k, d)
        listed = list_entries(element, d)
        written = np.zeros((d ** n,) * 2, dtype=listed.values.dtype)
        written[listed.rows, listed.cols] = listed.values
        wall = range(n - k + 1, n + 1)
        residuals = [dense_ops.covariance_residual(gather_rows(DenseOperator(n, d, mat), wall))
                     for mat in (written, realize(element, d))]
        assert residuals[0].hex() == residuals[1].hex()
        assert residuals[0] == dense_ops.covariance_residual(realize_sectors(element, d, k)) \
            <= 1e-13


def _bytes(x):
    return x.dtype, x.shape, np.ascontiguousarray(x).tobytes()


class TestMemberStacks:
    """A listing whose rows and columns carry member axes, each member its own
    entries: contract gives each member its own contraction bit for bit, as
    verification runs the cases of one contraction shape."""

    @pytest.mark.parametrize("tuples", [1, 20, 41])
    def test_every_suite_stack_is_its_members_alone(self, tuples, monkeypatch):
        stacks = []

        def recording(kernel, factors, keep):
            out = contract(kernel, factors, keep)
            stacks.append((kernel, factors, keep, out))
            return out

        monkeypatch.setattr(mm, "contract", recording)
        proposition_suite(seed=0, tuples=tuples)
        sizes = [len(kernel.rows) for kernel, *_ in stacks]
        assert sum(sizes) >= 106 and max(sizes) > 1
        for kernel, factors, keep, out in stacks:
            items = len(factors[0]) * len(kernel.rows)      # (tuple, member) pairs
            assert out.mat.shape[:2] == (len(factors[0]), len(kernel.rows))
            # gathered terms (d^n nonzeros a column) or output entries, within the bound
            dim = kernel.d ** kernel.n
            columns = out.mat.shape[-1] * np.prod([f.shape[-1] for f in factors]) // dim
            entries = max(dim * columns, out.mat.shape[-1] ** 2)
            assert items == 1 or 16 * items * entries <= verification.STACK_BYTES
            for m in range(len(kernel.rows)):
                alone = contract(_member(kernel, m), [f[:, m] for f in factors], keep)
                assert _bytes(out.mat[:, m]) == _bytes(alone.mat)

    def test_groups_split_across_stacks(self, monkeypatch):
        # 41 tuples fit 12 of prop4's 16 members in a stack at d = 2, one at d = 3
        sizes = []

        def recording(kernel, factors, keep):
            sizes.append(len(kernel.rows))
            return contract(kernel, factors, keep)

        monkeypatch.setattr(mm, "contract", recording)
        proposition_suite(seed=7, tuples=41, only="prop4")
        assert sizes == [12, 4, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]

    @pytest.mark.parametrize("d", [2, 3])
    def test_own_values_and_shared_factors(self, d, rng):
        # members of other values, a factor of each (tuple, member) beside
        # one shared by all, and values shared by the members
        perms = [parse_permutation(c, 3) for c in ("(1 2 3)", "(1 3)", "(2 3)", "()")]
        masks = [[True, False, False], [False, True, True], [False, False, False],
                 [True, True, True]]
        listed = list_permutations([p.images for p in perms], masks, d)
        values = rng.standard_normal(listed.rows.shape) + 1j * rng.standard_normal(listed.rows.shape)
        own = dense_ops.ListedOperator(3, d, listed.rows, listed.cols, values)
        shared = dense_ops.ListedOperator(3, d, listed.rows, listed.cols, values[0])
        factors = [rng.standard_normal((5, 4, d, d)) + 0j, random_matrix(d, 1, rng)]
        for kernel in (own, shared):
            for keep in ([3], [1, 3], [2, 3], [1, 2, 3]):
                out = contract(kernel, factors, keep)
                for m in range(4):
                    alone = contract(_member(kernel, m) if kernel is own else
                                     dense_ops.ListedOperator(3, d, listed.rows[m],
                                                              listed.cols[m], values[0]),
                                     [factors[0][:, m], factors[1]], keep)
                    assert _bytes(out.mat[:, m]) == _bytes(alone.mat)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("d", [2, 3])
    def test_each_member_is_its_diagrams_listing(self, n, d, rng):
        images = np.array([rng.permutation(n) + 1 for _ in range(6)])
        masks = rng.random((6, n)) < 0.5
        listed = list_permutations(images, masks, d)
        for perm, s, member in _members(images, masks, listed):
            assert _listing_bytes(member) \
                == _listing_bytes(list_entries(from_permutation(perm, s), d))

    @pytest.mark.parametrize("rows, cols, values", [
        ((2, 8), (8,), (2, 8)), ((2, 8), (2, 8), (3, 8)), ((2, 8), (2, 8), (7,))])
    def test_one_set_of_entries(self, rows, cols, values):
        with pytest.raises(ValueError, match="one set of entries"):
            dense_ops.ListedOperator(3, 2, np.zeros(rows, np.intp), np.zeros(cols, np.intp),
                                     np.zeros(values))


class TestMultilinearity:
    def test_linearity_in_first_argument(self, rng):
        d = 2
        spec = spec_for(backward_cycle(4), {2, 4}, 3, 1, d)
        x, y, b, c = (random_matrix(d, 1, rng) for _ in range(4))
        lhs = evaluate_oracle(spec, [2.0 * x + 3.0j * y, b, c])
        rhs = 2.0 * evaluate_oracle(spec, [x, b, c]).mat \
            + 3.0j * evaluate_oracle(spec, [y, b, c]).mat
        assert sup_norm(lhs.mat - rhs) < 1e-10


class TestPositivityTransfer:
    def test_projector_kernel_maps_psd_to_psd(self, rng):
        kernel = f_projector(Partition((2, 1)), Partition((2,)), 4, 1, 2)
        for n_in in (1, 2, 3):
            spec = MapSpec(kernel, n_in, 4 - n_in, 2)
            for _ in range(5):
                inputs = [random_psd(2, 1, rng) for _ in range(n_in)]
                out = evaluate_oracle(spec, inputs)
                assert dense_ops.min_eigenvalue(out) >= -1e-8

    def test_block_positive_witness_kernel_gives_positive_map(self, rng):
        # kernel verified block-positive for 1|23 despite a negative
        # eigenvalue; the induced single-input map must stay positive
        from wba import entanglement as ent

        kernel = ent.bcs_kernel(0.25, -0.1, 3)
        verdict = ent.check_block_positive(
            kernel, ent.PartitionSpec.parse("1|23"),
            ent.SearchBudget(seed=2, restarts=16, samples=128))
        assert verdict.classification == ent.WITNESS_CANDIDATE
        spec = MapSpec(kernel, 1, 2, 3)
        for _ in range(10):
            out = evaluate_oracle(spec, [random_psd(3, 1, rng)])
            assert dense_ops.min_eigenvalue(out) >= -1e-8


class TestHandCodedProjectorMaps:
    @pytest.mark.parametrize("d", [2, 3])
    def test_2to2(self, d, rng):
        kernel = f_projector(Partition((2, 1)), Partition((2,)), 4, 1, d)
        spec = MapSpec(kernel, 2, 2, d)
        for _ in range(10):
            a, b = (random_psd(d, 1, rng).mat for _ in range(2))
            closed = f_projector_map_2to2(a, b)
            oracle = evaluate_oracle(spec, [a, b])
            assert sup_norm(closed.mat - oracle.mat) < 1e-10

    @pytest.mark.parametrize("d", [2, 3])
    def test_3to1(self, d, rng):
        kernel = f_projector(Partition((2, 1)), Partition((2,)), 4, 1, d)
        spec = MapSpec(kernel, 3, 1, d)
        for _ in range(10):
            a, b, c = (random_psd(d, 1, rng).mat for _ in range(3))
            closed = f_projector_map_3to1(a, b, c)
            oracle = evaluate_oracle(spec, [a, b, c])
            assert sup_norm(closed.mat - oracle.mat) < 1e-10

    def test_symmetry_in_arguments(self, rng):
        a, b, c = (random_matrix(2, 1, rng) for _ in range(3))
        assert sup_norm(f_projector_map_2to2(a, b).mat
                        - f_projector_map_2to2(b, a).mat) < 1e-12
        assert sup_norm(f_projector_map_3to1(a, b, c).mat
                        - f_projector_map_3to1(c, a, b).mat) < 1e-12


class TestSuiteRunner:
    def test_only_filter(self):
        cases = proposition_suite(seed=1, tuples=2, only="prop5")
        assert cases and all(c["group"] == "prop5" for c in cases)

    def test_filter_is_rng_stable(self):
        full = {c["name"]: c["max_dev"] for c in proposition_suite(seed=3, tuples=2)}
        sub = {c["name"]: c["max_dev"] for c in proposition_suite(seed=3, tuples=2,
                                                                  only="prop4")}
        for name, dev in sub.items():
            assert full[name] == dev

    def test_zero_tuples_is_refused(self):
        with pytest.raises(ValueError, match="tuples >= 1"):
            proposition_suite(tuples=0)

    def test_nan_deviation_fails_its_case(self, monkeypatch):
        # prop4 at d = 2 is one group of 16 members; the NaN is in the middle
        # tuple of a middle member, whether each member and tuple has a
        # stack of its own or all 16 share one
        for stack_bytes in (0, verification.STACK_BYTES):
            seen = []

            def nan_in_one_tuple(s, inputs):
                out = cycle_subset_to_one(s, inputs)
                for t in range(len(out.mat) if s == {2, 3} else 0):
                    if len(seen) == 1:      # the first group's middle tuple
                        out.mat[t, 0, 0] = np.nan
                    seen.append(t)
                return out

            monkeypatch.setattr(verification, "STACK_BYTES", stack_bytes)
            monkeypatch.setattr(mm, "cycle_subset_to_one", nan_in_one_tuple)
            cases = proposition_suite(seed=0, tuples=3, only="prop4")
            failed = [c for c in cases if not c["passed"]]
            assert len(seen) == 6       # three tuples at d = 2 and at d = 3
            assert len(failed) == 1 and np.isnan(failed[0]["max_dev"])
            assert failed[0]["name"] == cases[8]["name"] == "prop4:S={2,3},d=2"

    @pytest.mark.parametrize("only, listed", [("prop6", 0), ("prop5", 8)])
    def test_kernels_are_built_only_for_cases_that_run(self, only, listed, monkeypatch):
        calls = []

        def counting(images, mask, d):
            calls.extend(images)
            return list_permutations(images, mask, d)

        monkeypatch.setattr(verification, "list_permutations", counting)
        cases = proposition_suite(seed=0, tuples=1, only=only)
        assert len(cases) == 8 and len(calls) == listed     # members listed

    def test_every_suite_kernel_has_one_nonzero_per_column(self, monkeypatch):
        # the groups size their stacks by d^n nonzeros per member
        listings = _suite_listings(monkeypatch, seed=0, tuples=1)
        assert sum(len(images) for images, *_ in listings) == 106
        for images, _, d, listed in listings:
            dim = d ** listed.n
            assert listed.rows.shape == listed.values.shape == (len(images), dim)
            assert np.count_nonzero(listed.values) == len(images) * dim

    def test_stack_size_does_not_move_a_deviation(self, monkeypatch):
        stacked = proposition_suite(seed=5, tuples=30)
        monkeypatch.setattr(verification, "STACK_BYTES", 0)
        assert verification.stack_sizes(30, 2) == [1] * 30
        single = proposition_suite(seed=5, tuples=30)
        assert len(stacked) == 114
        assert [(c["name"], c["max_dev"]) for c in stacked] \
            == [(c["name"], c["max_dev"]) for c in single]

    def test_peak_memory_does_not_grow_with_the_tuples(self):
        peaks = []
        for tuples in (20, 100):
            tracemalloc.start()
            proposition_suite(seed=0, tuples=tuples)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 1 << 20, peaks
