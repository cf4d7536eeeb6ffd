import itertools
import math
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wba import dense_ops, entanglement as ent
from wba.dense_ops import (
    DenseOperator,
    haar_unitary,
    min_eigenvalue,
    partial_transpose,
    permutation_on_operator,
    random_matrix,
    random_psd,
    reshuffle_bipartite,
    reshuffle_sites,
    sup_norm,
)
from wba.sym_core import Permutation, parse_permutation
from wba.wba_algebra import from_permutation, realize

from test_multilinear_maps import partial_trace


def rand_op(n, d, rng):
    return DenseOperator(n, d, random_matrix(d, n, rng))


def single(mat, d):
    return DenseOperator(1, d, np.asarray(mat, dtype=complex))


@pytest.fixture
def rng():
    return np.random.default_rng(123)


class TestKron:
    def test_single_factor(self, rng):
        a = rand_op(1, 3, rng)
        assert np.array_equal(dense_ops.kron_all([a.mat]), a.mat)

    def test_trace_multiplicative(self, rng):
        a, b = rand_op(1, 3, rng), rand_op(1, 3, rng)
        assert np.isclose(np.trace(dense_ops.kron_all([a.mat, b.mat])),
                          np.trace(a.mat) * np.trace(b.mat))

    def test_identities(self):
        eye = np.eye(2, dtype=complex)
        assert np.array_equal(dense_ops.kron_all([eye, eye]), np.eye(4))

    def test_kron_all_is_the_left_fold(self, rng):
        mats = [random_matrix(2, 1, rng), random_matrix(3, 1, rng), rng.standard_normal((2, 1))]
        assert np.array_equal(dense_ops.kron_all(mats),
                              np.kron(np.kron(mats[0], mats[1]), mats[2]))
        assert np.array_equal(dense_ops.kron_all(mats[:1]), mats[0])

    @pytest.mark.parametrize("shapes", [
        [(2, 2), (3, 3), (2, 2)],
        [(2, 3), (1, 4), (3, 1), (2, 2)],
        [(3,), (2,), (4,)],
        [(2, 2), (3,)],
        [(5,)],
    ])
    def test_kron_all_is_bit_identical_to_np_kron(self, shapes, rng):
        # square, rectangular, 1-D and mixed-rank factors, each real or complex
        for pattern in itertools.product((False, True), repeat=len(shapes)):
            mats = [rng.standard_normal(shape) + (1j * rng.standard_normal(shape) if cplx else 0)
                    for shape, cplx in zip(shapes, pattern)]
            one_pass = dense_ops.kron_all(mats)
            folded = reduce(np.kron, mats)
            assert one_pass.shape == folded.shape and one_pass.dtype == folded.dtype
            assert one_pass.tobytes() == folded.tobytes()

    def test_kron_all_of_nothing(self):
        with pytest.raises(ValueError, match="need at least one factor"):
            dense_ops.kron_all([])

    def test_kron_all_of_stacks_is_each_members_product(self, rng):
        # stacked factors, broadcast against shared ones, member by member to the bit
        mats = [random_matrix(2, 1, rng)[None] * rng.standard_normal((4, 1, 1)),
                random_matrix(3, 1, rng), rng.standard_normal((4, 1, 3))]
        out = dense_ops.kron_all(mats)
        assert out.shape == (4, 6, 18)
        for t in range(4):
            alone = reduce(np.kron, [m[t] if m.ndim == 3 else m for m in mats])
            assert out[t].tobytes() == alone.tobytes()


class TestStacks:
    def test_reorderings_act_on_each_member(self, rng):
        stack = DenseOperator(2, 2, np.stack([random_matrix(2, 2, rng) for _ in range(3)]))
        for op in (lambda m: partial_transpose(m, (2,)), reshuffle_bipartite,
                   lambda m: reshuffle_sites(m, 1, 2),
                   lambda m: permutation_on_operator(parse_permutation("(1 2 3)", 4), m)):
            out = op(stack)
            assert out.mat.shape == (3, 4, 4)
            for t in range(3):
                assert np.array_equal(out.mat[t], op(DenseOperator(2, 2, stack.mat[t])).mat)

    def test_kron_of_a_stack_with_shared_factors(self, rng):
        stack = DenseOperator(1, 2, np.stack([random_matrix(2, 1, rng) for _ in range(3)]))
        out = dense_ops.kron_all([stack.mat, np.eye(2, dtype=complex)])
        assert out.shape == (3, 4, 4)
        for t in range(3):
            assert np.array_equal(out[t], np.kron(stack.mat[t], np.eye(2)))

    def test_a_stack_of_the_wrong_shape_is_refused(self):
        with pytest.raises(ValueError, match="matrix shape"):
            DenseOperator(2, 2, np.zeros((3, 4, 2)))
        with pytest.raises(ValueError, match="matrix shape"):
            DenseOperator(1, 4, np.zeros(4))


class TestPartialTrace:
    def test_product_factors(self, rng):
        a, b = rand_op(1, 3, rng), rand_op(1, 3, rng)
        out = partial_trace(DenseOperator(2, 3, dense_ops.kron_all([a.mat, b.mat])), (1,))
        assert np.allclose(out.mat, np.trace(a.mat) * b.mat)

    def test_permutation_to_product(self, rng):
        # tr_12[(321) A x B x C] = ABC
        a, b, c = (random_matrix(2, 1, rng) for _ in range(3))
        m = DenseOperator(3, 2, realize(parse_permutation("(3 2 1)", 3), 2)
                          @ np.kron(np.kron(a, b), c))
        out = partial_trace(m, (1, 2))
        assert np.allclose(out.mat, a @ b @ c, atol=1e-12)

    def test_swap_trick(self, rng):
        a, b = (random_matrix(2, 1, rng) for _ in range(2))
        m = realize(parse_permutation("(1 2)", 2), 2) @ np.kron(a, b)
        assert np.isclose(np.trace(m), np.trace(a @ b))

    @pytest.mark.parametrize("n,d", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3)])
    def test_duality(self, n, d, rng):
        # tr[M (1 x N)] = tr[tr_over(M) N], 100 random (M, N) per configuration
        subsets = [s for r in range(1, n)
                   for s in itertools.combinations(range(1, n + 1), r)]
        for i in range(100):
            m = rand_op(n, d, rng)
            over = subsets[i % len(subsets)]
            keep = [s for s in range(1, n + 1) if s not in over]
            nn = rand_op(len(keep), d, rng)
            # 1 x N: N (x) 1 on the sites keep + over, axes moved to site order
            order = keep + list(over)
            axes = [order.index(s) for s in range(1, n + 1)]
            big = np.kron(nn.mat, np.eye(d ** len(over))).reshape((d,) * 2 * n).transpose(
                axes + [a + n for a in axes]).reshape(d ** n, d ** n)
            lhs = np.trace(m.mat @ big)
            rhs = np.trace(partial_trace(m, over).mat @ nn.mat)
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))

    def test_all_sites_rejected(self, rng):
        with pytest.raises(ValueError):
            partial_trace(rand_op(2, 2, rng), (1, 2))


class TestPartialTranspose:
    @given(st.integers(0, 2 ** 31 - 1), st.sampled_from([(2, 2), (3, 2), (2, 3)]))
    @settings(max_examples=25, deadline=None)
    def test_involution(self, seed, shape):
        n, d = shape
        m = rand_op(n, d, np.random.default_rng(seed))
        for r in range(1, n + 1):
            for over in itertools.combinations(range(1, n + 1), r):
                twice = partial_transpose(partial_transpose(m, over), over)
                assert np.array_equal(twice.mat, m.mat)

    def test_transpose_swap_identity(self, rng):
        # tr_1[(12)^{T1} A x B] = A^T B
        a, b = (random_matrix(2, 1, rng) for _ in range(2))
        k = realize(from_permutation(parse_permutation("(1 2)", 2), {1}), 2)
        out = partial_trace(DenseOperator(2, 2, k @ np.kron(a, b)), (1,))
        assert np.allclose(out.mat, a.T @ b, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    def test_swap_becomes_bell(self, d):
        swap = DenseOperator(2, d, realize(parse_permutation("(1 2)", 2), d))
        bell = partial_transpose(swap, (2,))
        phi = np.zeros(d * d, dtype=complex)
        for i in range(d):
            phi[i * d + i] = 1.0 / np.sqrt(d)
        assert np.allclose(bell.mat, d * np.outer(phi, phi.conj()))

    def test_trace_preserved_and_commutes_with_ptrace(self, rng):
        m = rand_op(3, 2, rng)
        assert np.isclose(np.trace(partial_transpose(m, (1, 3)).mat), np.trace(m.mat))
        a = partial_trace(partial_transpose(m, (2,)), (1,))
        b = partial_transpose(partial_trace(m, (1,)), (1,))  # site 2 repacks to 1
        assert np.allclose(a.mat, b.mat)


class TestReshuffle:
    @pytest.mark.parametrize("d", [2, 3])
    def test_identity_reshuffles_to_bell(self, d):
        out = reshuffle_bipartite(DenseOperator(2, d, np.eye(d * d, dtype=complex)))
        phi = np.zeros(d * d, dtype=complex)
        for i in range(d):
            phi[i * d + i] = 1.0 / np.sqrt(d)
        assert np.allclose(out.mat, d * np.outer(phi, phi.conj()))

    def test_cycle_transposed_contracts_to_reshuffle(self, rng):
        # tr_1[(123)^{T2} A x 1 x 1] = (1 x A)^R
        d = 3
        a = random_matrix(d, 1, rng)
        k = realize(from_permutation(parse_permutation("(1 2 3)", 3), {2}), d)
        m = DenseOperator(3, d, k @ np.kron(a, np.eye(d * d)))
        out = partial_trace(m, (1,))
        expect = reshuffle_bipartite(DenseOperator(2, d, np.kron(np.eye(d), a)))
        assert np.allclose(out.mat, expect.mat, atol=1e-12)

    def test_three_factor_relation(self, rng):
        # (A^R B^R)^R = tr_23[ 1 x (23)^{T3} x 1 (A x B) ]
        d = 2
        a, b = rand_op(2, d, rng), rand_op(2, d, rng)
        lhs = reshuffle_bipartite(
            DenseOperator(2, d, reshuffle_bipartite(a).mat @ reshuffle_bipartite(b).mat))
        kernel = realize(from_permutation(
            Permutation.from_cycles([(2, 3)], 4), {3}), d)
        rhs = partial_trace(DenseOperator(4, d, kernel @ np.kron(a.mat, b.mat)), (2, 3))
        assert np.allclose(lhs.mat, rhs.mat, atol=1e-12)

    def test_example_chain(self, rng):
        # tr_1[(1234)^{T4} A x 1 x 1 x 1] = [(A x 1 x 1)^{R_{3,2}}]^{R_{3,1}}
        d = 2
        a = random_matrix(d, 1, rng)
        k = realize(from_permutation(parse_permutation("(1 2 3 4)", 4), {4}), d)
        m = DenseOperator(4, d, k @ np.kron(a, np.eye(d ** 3)))
        direct = partial_trace(m, (1,))
        start = DenseOperator(3, d, np.kron(a, np.eye(d * d)))
        chained = reshuffle_sites(reshuffle_sites(start, 3, 2), 3, 1)
        assert np.allclose(direct.mat, chained.mat, atol=1e-12)

    def test_same_site_is_transpose(self, rng):
        m = rand_op(2, 3, rng)
        out = reshuffle_sites(m, 2, 2)
        assert np.array_equal(out.mat, partial_transpose(m, (2,)).mat)

    def test_involution(self, rng):
        m = rand_op(3, 2, rng)
        for k, l in itertools.product((1, 2, 3), repeat=2):
            twice = reshuffle_sites(reshuffle_sites(m, k, l), k, l)
            assert np.array_equal(twice.mat, m.mat)

    def test_bipartite_convention(self, rng):
        m = rand_op(2, 3, rng)
        assert np.array_equal(reshuffle_sites(m, 2, 1).mat, reshuffle_bipartite(m).mat)

    def test_bipartite_on_basis_elements(self):
        # |i><j| (x) |k><l|  ->  |i><k| (x) |j><l|
        def unit(a, b):
            out = np.zeros((2, 2), dtype=complex)
            out[a, b] = 1
            return out
        for i, j, k, l in itertools.product(range(2), repeat=4):
            m = DenseOperator(2, 2, np.kron(unit(i, j), unit(k, l)))
            assert np.array_equal(reshuffle_bipartite(m).mat, np.kron(unit(i, k), unit(j, l)))

    def test_bipartite_needs_two_sites(self, rng):
        with pytest.raises(ValueError):
            reshuffle_bipartite(rand_op(3, 2, rng))


class TestTauAndPermutation:
    def test_identity_permutation(self, rng):
        m = rand_op(2, 2, rng)
        out = permutation_on_operator(Permutation.identity(4), m)
        assert np.array_equal(out.mat, m.mat)

    def test_matches_literal_flattened_action(self, rng):
        # against the definition: realize pi on the flattened |i><j| -> |i>|j>
        d, n = 2, 2
        m = rand_op(n, d, rng)
        for images in itertools.permutations(range(1, 2 * n + 1)):
            pi = Permutation(images)
            fast = permutation_on_operator(pi, m)
            literal = (realize(pi, d) @ m.mat.reshape(-1)).reshape(m.mat.shape)
            assert np.allclose(fast.mat, literal)

    def test_bipartite_reshuffle_as_permutation(self, rng):
        # swapping flattened slots 2 (row of site 2) and 3 (column of site 1)
        m = rand_op(2, 2, rng)
        pi = Permutation.from_cycles([(2, 3)], 4)
        assert np.array_equal(permutation_on_operator(pi, m).mat,
                              reshuffle_bipartite(m).mat)

    def test_reshuffle_sites_as_permutation(self, rng):
        m = rand_op(3, 2, rng)
        for k, l in itertools.product((1, 2, 3), repeat=2):
            pi = Permutation.from_cycles([(k, 3 + l)], 6)
            assert np.array_equal(permutation_on_operator(pi, m).mat,
                                  reshuffle_sites(m, k, l).mat)

    def test_degree_mismatch(self, rng):
        with pytest.raises(ValueError):
            permutation_on_operator(Permutation.identity(3), rand_op(2, 2, rng))


class TestRandomAndEigen:
    def test_psd_and_hermitian(self):
        m = random_psd(3, 1, 7)
        assert sup_norm(m.mat - m.mat.conj().T) <= 1e-12
        assert min_eigenvalue(m) >= -1e-12

    def test_determinism(self):
        assert np.array_equal(random_psd(2, 2, 99).mat, random_psd(2, 2, 99).mat)

    def test_a_generator_is_drawn_from_as_is(self):
        rng = np.random.default_rng(99)
        first, second = random_psd(2, 1, rng), random_psd(2, 1, rng)
        assert np.array_equal(first.mat, random_psd(2, 1, 99).mat)
        assert not np.array_equal(first.mat, second.mat)

    def test_identity_min_eig(self):
        assert min_eigenvalue(DenseOperator(2, 2, np.eye(4, dtype=complex))) == pytest.approx(1.0)

    def test_diagonal(self):
        m = single(np.diag([2.0, -3.0]), 2)
        assert min_eigenvalue(m) == pytest.approx(-3.0)

    def test_swap_min_eig(self):
        swap = DenseOperator(2, 2, realize(parse_permutation("(1 2)", 2), 2))
        assert min_eigenvalue(swap) == pytest.approx(-1.0)

    def test_rejects_non_hermitian(self):
        m = single([[0, 1], [0, 0]], 2)
        with pytest.raises(ValueError, match="hermitian"):
            min_eigenvalue(m)

    def test_hermiticity_band_is_relative_to_the_operator(self, rng):
        # a 1e-9 asymmetry passes on an operator of norm ~1e6, not on one of norm ~1
        h = random_psd(3, 1, rng).mat
        skew = np.zeros((3, 3), dtype=complex)
        skew[0, 1] = 1e-9
        big = single(1e6 * h / sup_norm(h) + skew, 3)
        assert min_eigenvalue(big) == pytest.approx(np.linalg.eigvalsh(big.mat)[0])
        with pytest.raises(ValueError, match=r"^matrix is not a finite hermitian one "
                                             r"\(deviation 1e-09\)$"):
            min_eigenvalue(single(h / sup_norm(h) + skew, 3))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_entry_fails_past_the_relative_band(self, value):
        # the band of an operator with an infinite entry is no band
        for entries in ([[value, 0], [0, 1]], [[1, value], [0, 1]], [[1e6, 1], [0, value]]):
            with pytest.raises(ValueError, match=r"^matrix is not a finite hermitian one "
                                                 r"\(non-finite entry\)$"):
                min_eigenvalue(single(entries, 2))
        stack = DenseOperator(1, 2, np.array([np.eye(2), [[1e6, 1e-9], [0, value]]], dtype=complex))
        with pytest.raises(ValueError, match="non-finite entry"):
            min_eigenvalue(stack)

    def test_the_hermiticity_check_holds_one_temporary(self):
        # the d = 8 BCS kernel, 512 x 512 complex: the check holds M - M^dagger
        # and its magnitudes, no other copy of the stack
        kernel = ent.bcs_kernel(0.25, -0.1, 8)
        tracemalloc.start()
        try:
            min_eigenvalue(kernel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= kernel.mat.nbytes + kernel.mat.real.nbytes + 2 ** 16, peak / 2 ** 20

    def test_a_real_operator_is_left_as_it_is(self):
        # the difference is taken in a copy, also of a real M
        m = DenseOperator(1, 2, np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match=r"\(deviation 2\)$"):
            min_eigenvalue(m)
        assert m.mat.tolist() == [[1.0, 2.0], [0.0, 1.0]]

    def test_haar_unitary(self):
        u = haar_unitary(3, np.random.default_rng(0))
        assert sup_norm(u @ u.conj().T - np.eye(3)) < 1e-12

    def test_haar_unitary_draws_one_gaussian_matrix(self):
        drawn, replay = np.random.default_rng(5), np.random.default_rng(5)
        u = haar_unitary(3, drawn)
        q, r = np.linalg.qr(random_matrix(3, 1, replay))
        assert np.array_equal(u, q * (np.diag(r) / np.abs(np.diag(r))))
        assert drawn.random() == replay.random()
