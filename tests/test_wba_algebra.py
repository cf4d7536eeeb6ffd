import hashlib
import itertools
import json
import random
import tracemalloc
from fractions import Fraction
from functools import cache
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wba.dense_ops import DenseOperator, haar_unitary, sup_norm
import wba.wba_algebra as wa
from wba.sym_core import (
    Partition,
    Permutation,
    coset_representatives,
    parse_permutation,
    young_projector,
)
from wba.wba_algebra import (
    GroupAlgebraElement,
    WbaElement,
    admissible_pairs,
    compose_diagrams,
    diagram_to_text,
    f_projector,
    from_permutation,
    gamma,
    parse_diagram,
    realize,
    realize_sectors,
    sigma_diagram,
)

from test_sectors import gather_rows


def perm(text, n):
    return parse_permutation(text, n)


def terms(x):
    """{pairing tuple: coefficient row} of an element."""
    return {tuple(p): c for p, c in zip(x.pairings.tolist(), x.coeffs)}


class TestDiagrams:
    # endpoint t - 1 is top_t and endpoint n + t - 1 is bot_t
    def test_bell_pairing(self):
        d = from_permutation(perm("(1 2)", 2), {2})
        # bot_1 <-> bot_2 and top_1 <-> top_2
        assert d.pairing[2] == 3
        assert d.pairing[0] == 1

    def test_identity_strands(self):
        d = WbaElement.identity(3)
        for t in range(1, 4):
            assert d.pairing[t - 1] == 3 + t - 1

    def test_full_cycle_transposed(self):
        d = from_permutation(perm("(1 2 3 4)", 4), {4})
        # bot_1 <-> top_2, bot_2 <-> top_3, bot_3 <-> bot_4, top_1 <-> top_4
        assert d.pairing[4] == 1
        assert d.pairing[5] == 2
        assert d.pairing[6] == 7
        assert d.pairing[0] == 3

    def test_site_out_of_range(self):
        with pytest.raises(ValueError):
            from_permutation(perm("(1 2)", 2), {3})


class TestCompose:
    def test_bell_squares_to_loop(self):
        d = from_permutation(perm("(1 2)", 2), {2})
        result, loops = compose_diagrams(d, d)
        assert result == d and loops == 1

    def test_identity_neutral(self):
        a = from_permutation(perm("(1 3 2)", 3), {1, 3})
        result, loops = compose_diagrams(WbaElement.identity(3), a)
        assert result == a and loops == 0

    def test_appendix_product(self):
        # (34)^{T4} (23) realizes to sum |ijkk><iljl|
        a = from_permutation(perm("(3 4)", 4), {4})
        b = from_permutation(perm("(2 3)", 4))
        result, loops = compose_diagrams(a, b)
        assert loops == 0
        d = 2
        expect = np.zeros((16, 16), dtype=complex)
        for i, j, k, l in itertools.product(range(d), repeat=4):
            row = ((i * d + j) * d + k) * d + k
            col = ((i * d + l) * d + j) * d + l
            expect[row, col] += 1
        assert np.array_equal(realize(result, d), expect)

    def test_symbolic_dense_agreement_random(self):
        rng = random.Random(7)
        group = [Permutation(tuple(p)) for p in itertools.permutations(range(1, 5))]
        for _ in range(200):
            s1 = frozenset(s for s in range(1, 5) if rng.random() < 0.5)
            s2 = frozenset(s for s in range(1, 5) if rng.random() < 0.5)
            a = from_permutation(rng.choice(group), s1)
            b = from_permutation(rng.choice(group), s2)
            result, loops = compose_diagrams(a, b)
            assert np.array_equal(realize(a, 2) @ realize(b, 2),
                                  2 ** loops * realize(result, 2))

    def test_exhaustive_s3(self):
        diagrams = [from_permutation(p, frozenset(s))
                    for p in (Permutation(tuple(q)) for q in itertools.permutations((1, 2, 3)))
                    for r in range(4)
                    for s in itertools.combinations((1, 2, 3), r)]
        assert len(diagrams) == 48
        for d in (2, 3):
            dense = {x: realize(x, d) for x in set(diagrams)}
            for a in set(diagrams):
                for b in set(diagrams):
                    result, loops = compose_diagrams(a, b)
                    assert np.array_equal(dense[a] @ dense[b],
                                          d ** loops * realize(result, d))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_pair_of_matchings(self, n):
        diagrams = [wa.WbaDiagram(n, tuple(row)) for row in _all_matchings(n).tolist()]
        dense = [realize(x, 2) for x in diagrams]
        for a, dense_a in zip(diagrams, dense):
            for b, dense_b in zip(diagrams, dense):
                result, loops = compose_diagrams(a, b)
                assert np.array_equal(dense_a @ dense_b, 2 ** loops * realize(result, 2))


class TestElements:
    def test_scalar_product(self):
        x = WbaElement.identity(2).scale(3.0)
        y = WbaElement.identity(2).scale(-2.0)
        prod = x * y
        assert prod.approx_eq(WbaElement.identity(2).scale(-6.0))

    def test_bell_square_symbolic(self):
        bell = from_permutation(perm("(1 2)", 2), {2})
        sq = bell * bell
        assert len(sq.pairings) == 1
        assert np.array_equal(sq.coeffs, [[0, 1]])
        for d in (2, 3, 4):
            assert np.allclose(realize(sq, d), d * realize(bell, d))

    def test_linearity(self):
        a = from_permutation(perm("(1 2)", 3), {2}).scale(2.0)
        b = from_permutation(perm("(1 2 3)", 3)).scale(1.5)
        c = from_permutation(perm("(1 3)", 3), {1, 3}).scale(-0.5)
        lhs = (a + b) * c
        rhs = a * c + b * c
        assert lhs.approx_eq(rhs)


def _s3_diagrams():
    """The 48 diagrams sigma^{T_S} of S3, every subset S transposed."""
    return [from_permutation(Permutation(p), frozenset(s))
            for p in itertools.permutations((1, 2, 3))
            for r in range(4) for s in itertools.combinations((1, 2, 3), r)]


class TestDiagramsAsElements:
    """A diagram is the one-term element of coefficient 1."""

    def test_is_an_element(self):
        a = from_permutation(perm("(1 2)", 3), {2})
        assert isinstance(a, WbaElement)
        assert a.pairings.tolist() == [list(a.pairing)]
        assert a.coeffs.tolist() == [[1]]

    def test_product_is_the_composition_times_d_to_the_loops(self):
        diagrams = _s3_diagrams()
        for a in diagrams:
            for b in diagrams:
                diag, loops = compose_diagrams(a, b)
                product = a * b
                assert product.pairings.tolist() == [list(diag.pairing)]
                assert product.coeffs.tolist() == [[0] * loops + [1]]

    def test_sum_and_approx_eq(self):
        a = from_permutation(perm("(1 3)", 3), {1, 3})
        b = from_permutation(perm("(1 2)", 3))
        assert terms(a + a) == {a.pairing: [2]}
        assert (a + a).approx_eq(a.scale(2.0))
        assert a.approx_eq(a) and not a.approx_eq(b)
        assert terms(a + b) == {a.pairing: [1], b.pairing: [1]}

    def test_realize_is_the_one_term_element(self):
        for a in _s3_diagrams()[::5]:
            for d in (1, 2, 3):
                element = WbaElement(3, [a.pairing], [[1]])
                assert realize(a, d).tobytes() == realize(element, d).tobytes()

    def test_equality_and_hash_by_matching(self):
        a = from_permutation(perm("(1 2)", 2), {2})
        same = wa.WbaDiagram(2, a.pairing)
        assert a == same and hash(a) == hash(same)
        assert len({a, same, WbaElement.identity(2)}) == 2
        assert a != from_permutation(perm("(1 2)", 2))
        assert a != WbaElement(2, [a.pairing], [[1]])
        with pytest.raises(ValueError, match="read-only"):
            a.pairings[0, 0] = 1

    def test_bad_pairing(self):
        with pytest.raises(ValueError, match="^pairing must cover all 2n endpoints$"):
            wa.WbaDiagram(2, (1, 0))
        with pytest.raises(ValueError, match=r"^pairing is not a fixed-point-free "
                                             r"involution: \(1, 0, 3, 3\)$"):
            wa.WbaDiagram(2, (1, 0, 3, 3))
        with pytest.raises(ValueError, match="fixed-point-free involution"):
            wa.WbaDiagram(2, (1, 2, 3, 0))


class TestGroupAlgebraElement:
    def test_is_the_walled_brauer_element_of_its_permutations(self):
        x = GroupAlgebraElement({perm("(1 2 3)", 3): 2.0, perm("()", 3): -0.5}, 3)
        assert isinstance(x, WbaElement)
        expect = from_permutation(perm("(1 2 3)", 3)).scale(2.0) + \
            from_permutation(perm("()", 3)).scale(-0.5)
        assert terms(x) == terms(expect)
        assert not wa._transposed_forms(x.pairings)[1].any()

    def test_product_composes_the_permutations(self):
        # the left factor acts after the right one
        p, q = perm("(1 2)", 3), perm("(2 3)", 3)
        prod = GroupAlgebraElement({p: 1.0}, 3) * GroupAlgebraElement({q: 1.0}, 3)
        assert terms(prod) == terms(GroupAlgebraElement({p * q: 1.0}, 3))
        for d in (2, 3):
            assert np.array_equal(realize(prod, d), realize(p, d) @ realize(q, d))

    def test_zero_and_dropped_coefficients(self):
        assert GroupAlgebraElement({}, 3).pairings.shape == (0, 6)
        assert len(GroupAlgebraElement({perm("(1 2)", 2): 1e-15}, 2).pairings) == 0
        assert GroupAlgebraElement({}, 2).approx_eq(GroupAlgebraElement({}, 2))

    def test_degree_mismatch_is_refused(self):
        with pytest.raises(ValueError, match="element of S_3, term of S_2"):
            GroupAlgebraElement({perm("(1 2)", 2): 1.0, perm("(1 2)", 3): 1.0}, 3)

    def test_approx_eq_takes_a_tolerance(self):
        x = GroupAlgebraElement({perm("(1 2)", 2): 1.0}, 2)
        y = GroupAlgebraElement({perm("(1 2)", 2): 1.0 + 1e-9}, 2)
        assert not x.approx_eq(y) and x.approx_eq(y, tol=1e-8)


class TestSigma:
    def test_n4_k1(self):
        assert sigma_diagram(4, 1) == from_permutation(perm("(3 4)", 4), {4})

    def test_n2_k1(self):
        assert sigma_diagram(2, 1) == from_permutation(perm("(1 2)", 2), {2})

    def test_n5_k2_is_product_of_factors(self):
        lhs = sigma_diagram(5, 2)
        f1 = from_permutation(perm("(2 5)", 5), {5})
        f2 = from_permutation(perm("(3 4)", 5), {4})
        prod, loops = compose_diagrams(f1, f2)
        assert loops == 0 and prod == lhs

    def test_invalid(self):
        with pytest.raises(ValueError):
            sigma_diagram(3, 2)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_pairs_by_hand(self, n):
        # top a <-> top b and bot a <-> bot b for a = n-2k+j, b = n-j+1;
        # top t <-> bot t on every other site (0-based endpoints)
        for k in range(1, n // 2 + 1):
            pairing = list(range(n, 2 * n)) + list(range(n))
            for j in range(1, k + 1):
                a, b = n - 2 * k + j - 1, n - j
                pairing[a], pairing[b] = b, a
                pairing[n + a], pairing[n + b] = n + b, n + a
            assert sigma_diagram(n, k).pairing == tuple(pairing)


class TestGamma:
    def test_worked_examples(self):
        assert gamma(Partition((2, 1)), Partition((2,)), 4, 1, 2) == 1
        assert gamma(Partition((2, 1)), Partition((1,)), 5, 2, 2) == 3

    def test_k1_closed_form_matches_general(self):
        from wba.sym_core import irrep_dimension, schur_weyl_multiplicity
        for n in (3, 4, 5):
            for d in (2, 3):
                for alpha, mu in admissible_pairs(n, 1, d):
                    expected = Fraction(
                        (n - 1) * schur_weyl_multiplicity(mu, d) * irrep_dimension(alpha),
                        schur_weyl_multiplicity(alpha, d) * irrep_dimension(mu))
                    assert gamma(mu, alpha, n, 1, d) == expected

    def test_unrepresented_rejected(self):
        with pytest.raises(ValueError, match="not represented"):
            gamma(Partition((1, 1, 1)), Partition((1, 1)), 4, 1, 2)

    def test_box_mismatch_rejected(self):
        with pytest.raises(ValueError):
            gamma(Partition((1, 1)), Partition((2,)), 4, 1, 3)


class TestFProjector:
    def test_worked_example_terms(self):
        # the printed positive terms appear with weight 2/6 and the
        # three-cycle times contraction terms with -1/6
        f = f_projector(Partition((2, 1)), Partition((2,)), 4, 1, 2)
        def coeff(text):
            row = terms(f).get(parse_diagram(text, 4).pairing)
            assert row is not None, text
            return row[0].real
        for a in (1, 2, 3):
            assert coeff(f"({a} 4)^T{{4}}") == pytest.approx(1 / 3)
        for rho in ("(1 2 3)", "(1 3 2)"):
            for a in (1, 2, 3):
                prod = Permutation.from_cycles(
                    [tuple(int(c) for c in rho.replace(' ', '')[1:-1])], 4)
                tau = Permutation.from_cycles([(a, 4)], 4)
                from wba.sym_core import compose
                diag = from_permutation(compose(prod, tau), {4})
                assert terms(f)[diag.pairing][0].real == pytest.approx(-1 / 6)

    def test_matches_defining_formula_densely(self):
        d = 2
        f = realize(f_projector(Partition((2, 1)), Partition((2,)), 4, 1, 2), d)
        eye = realize(perm("()", 4), d)
        p12 = realize(perm("(1 2)", 4), d)
        p123, p132 = realize(perm("(1 2 3)", 4), d), realize(perm("(1 3 2)", 4), d)
        p23, p13 = realize(perm("(2 3)", 4), d), realize(perm("(1 3)", 4), d)
        sigma = realize(sigma_diagram(4, 1), d)
        core = (eye + p12) / 2 @ sigma
        direct = (2 * eye - p123 - p132) / 3 @ (core + p23 @ core @ p23 + p13 @ core @ p13)
        assert sup_norm(f - direct) < 1e-12

    @pytest.mark.parametrize("n,k,d", [(4, 1, 2), (5, 2, 2), (4, 1, 3)])
    def test_family_idempotent_orthogonal(self, n, k, d):
        family = [realize(f_projector(mu, alpha, n, k, d), d)
                  for alpha, mu in admissible_pairs(n, k, d)]
        assert len(family) >= 2
        total = np.zeros_like(family[0])
        for i, fi in enumerate(family):
            assert sup_norm(fi @ fi - fi) < 1e-10
            total += fi
            for fj in family[i + 1:]:
                assert sup_norm(fi @ fj) < 1e-10
                assert sup_norm(fj @ fi) < 1e-10
        # the ideal identity F = sum of the family is itself idempotent
        assert sup_norm(total @ total - total) < 1e-10

    @pytest.mark.parametrize("n,k,d", [(4, 1, 2), (5, 2, 2)])
    def test_commutant(self, n, k, d):
        rng = np.random.default_rng(11)
        mats = [realize(f_projector(mu, alpha, n, k, d), d)
                for alpha, mu in admissible_pairs(n, k, d)]
        for _ in range(5):
            u = haar_unitary(d, rng)
            big = np.eye(1, dtype=complex)
            for _ in range(n - k):
                big = np.kron(big, u)
            for _ in range(k):
                big = np.kron(big, u.conj())
            for mat in mats:
                assert sup_norm(mat @ big - big @ mat) < 1e-9

    def test_second_worked_example_structure(self):
        # for n=5, k=2 the transversal is all of S(3) and P_beta is trivial:
        # F = (1/(3*gamma)) [2 id - (123) - (132)] sum_eta eta^-1 sigma eta
        from wba.sym_core import compose
        n, k, d = 5, 2, 2
        f = f_projector(Partition((2, 1)), Partition((1,)), n, k, d)
        sig = sigma_diagram(n, k)
        conjugates = []
        for eta in (Permutation(tuple(p)) for p in itertools.permutations((1, 2, 3))):
            eta5 = eta.extend(n)
            left = from_permutation(eta5.inverse())
            right = from_permutation(eta5)
            conjugates.append(left * sig * right)
        total = sum(conjugates[1:], conjugates[0])
        p_nu = (WbaElement.identity(n).scale(2.0)
                + from_permutation(perm("(1 2 3)", n)).scale(-1.0)
                + from_permutation(perm("(1 3 2)", n)).scale(-1.0))
        expect = (p_nu * total).scale(1.0 / 9.0)
        assert f.approx_eq(expect)
        # the (132) sigma (123) conjugate enters the sum
        eta = perm("(1 2 3)", n)
        conj = from_permutation(eta.inverse()) * sig * from_permutation(eta)
        assert conj.pairings[0].tolist() in total.pairings.tolist()

    def test_transversal_independence(self):
        rng = random.Random(3)
        reps = coset_representatives(4, 1)
        shuffled = []
        for eta in reps:
            # replace eta by (sigma eta) for random sigma in the stabilized subgroup
            sigma = Permutation.identity(3) if rng.random() < 0.5 \
                else perm("(1 2)", 3)
            from wba.sym_core import compose
            shuffled.append(compose(sigma, eta))
        rng.shuffle(shuffled)
        canonical = f_projector(Partition((2, 1)), Partition((2,)), 4, 1, 2)
        other = _pi_block_projector(Partition((2, 1)), Partition((2,)), 4, 1, 2,
                                    representatives=shuffled)
        assert sup_norm(realize(canonical, 2) - realize(other, 2)) < 1e-12


class TestRealize:
    def test_swap_matrix(self):
        swap = realize(perm("(1 2)", 2), 2)
        expect = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
                          dtype=complex)
        assert np.array_equal(swap, expect)

    @pytest.mark.parametrize("d", [2, 3])
    def test_bell_projector(self, d):
        bell = realize(from_permutation(perm("(1 2)", 2), {2}), d)
        phi = np.zeros(d * d, dtype=complex)
        for i in range(d):
            phi[i * d + i] = 1 / np.sqrt(d)
        assert np.allclose(bell, d * np.outer(phi, phi.conj()))

    def test_permutation_unitary(self):
        for p in (perm("(1 2 3)", 3), perm("(1 3)", 3)):
            u = realize(p, 2)
            assert np.array_equal(u @ u.conj().T, np.eye(8))

    @pytest.mark.parametrize("build,d,digest", [
        (lambda: f_projector(Partition((4, 2)), Partition((3, 2)), 7, 1, 2), 2,
         "a32724426d3e51d62ee3f16b6898080e0f52b73580b50850987fda0536654086"),
        (lambda: f_projector(Partition((2, 2)), Partition((2,)), 6, 2, 3), 3,
         "66ff14ab14a24c25b95d73ffe659910f88e1b006201c0708b1164b55a6f875b0"),
        (lambda: from_permutation(perm("(1 3 5)(2 4)", 5), {2, 5}), 3,
         "a882a37ae69e718746c8676914eab25deef0a672b0478ed0dd1769134b3f29ee"),
    ], ids=["n7-k1-d2", "n6-k2-d3", "diagram-n5-d3"])
    def test_bytes_match_recorded_digest(self, build, d, digest):
        # digests of the per-term scatter-add: each entry sums its terms in
        # term order, so the bytes do not depend on how the terms are batched
        mat = realize(build(), d)
        assert mat.dtype == complex
        assert hashlib.sha256(mat.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("n,k,d", [(n, k, d) for d in (2, 3) for k in (1, 2, 3)
                                       for n in range(2 * k, 8)])
    def test_real_is_the_real_part_bit_for_bit(self, n, k, d):
        # the float64 sector rows hold the complex matrix's real part, -0.0
        # included, and nothing between the sectors: every admissible pair
        for alpha, mu in admissible_pairs(n, k, d):
            element = f_projector(mu, alpha, n, k, d)
            rows = realize_sectors(element, d, k)
            real = gather_rows(DenseOperator(n, d, realize(element, d).real), range(n - k + 1, n + 1))
            assert rows.rows.dtype == np.float64
            assert np.array_equal(rows.rows.view(np.int64), real.rows.view(np.int64))

    def test_every_small_pair_is_realized_real(self):
        assert sum(len(admissible_pairs(n, k, d)) for d in (2, 3) for k in (1, 2, 3)
                   for n in range(2 * k, 8)) == 103

    def test_real_refuses_a_non_real_coefficient(self):
        f = f_projector(Partition((2, 1)), Partition((2,)), 4, 1, 2)
        coeffs = f.coeffs.copy()
        coeffs[5, 0] += 1e-3j
        with pytest.raises(ValueError, match="non-real coefficient"):
            realize_sectors(WbaElement(4, f.pairings, coeffs), 2, 1)
        diagram = sigma_diagram(4, 1)
        real = gather_rows(DenseOperator(4, 2, realize(diagram, 2).real), (4,))
        assert np.array_equal(realize_sectors(diagram, 2, 1).rows, real.rows)

    def test_size_guard(self):
        with pytest.raises(ValueError, match="size guard"):
            realize(WbaElement.identity(7), 4)

    def test_size_guard_is_4096(self):
        wa.check_size_guard(12, 2)
        for n, d in [(13, 2), (7, 4)]:
            with pytest.raises(ValueError, match=f"d\\^n = {d ** n} exceeds the size guard 4096"):
                wa.check_size_guard(n, d)


diagrams_s3 = st.sampled_from([
    from_permutation(Permutation(images), frozenset(sites))
    for images in itertools.permutations((1, 2, 3))
    for size in range(4) for sites in itertools.combinations((1, 2, 3), size)])
d_polynomials = st.lists(st.integers(-5, 5).map(complex), min_size=1, max_size=3)


def one_term(diag, poly):
    """poly(d) * diag, with poly[p] the coefficient of d**p."""
    return WbaElement(diag.n, [diag.pairing], [poly])


class TestElementRingLaws:
    @given(*[diagrams_s3] * 3, *[d_polynomials] * 3)
    @settings(max_examples=50, deadline=None)
    def test_ring_laws(self, a, b, c, pa, pb, pc):
        x, y, z = one_term(a, pa), one_term(b, pb), one_term(c, pc)
        assert (x * (y + z)).approx_eq(x * y + x * z)
        assert ((x + y) * z).approx_eq(x * z + y * z)
        # coefficients commute: swapping them between the factors keeps the product
        assert (x * y).approx_eq(one_term(a, pb) * one_term(b, pa))
        for d in (1, 2, 3):
            assert np.allclose(realize(x * y, d), realize(x, d) @ realize(y, d), atol=1e-9)

    def test_loops_shift_powers(self):
        bell = from_permutation(perm("(1 2)", 2), {2})
        square = one_term(bell, [2.0]) * one_term(bell, [0, 0, 1.0])
        assert np.array_equal(square.coeffs, [[0, 0, 0, 2]])
        assert np.array_equal(realize(square, 2), 16 * realize(bell, 2))


class TestElementArrays:
    def test_equal_rows_merge_in_first_appearance_order(self):
        # the matching keys order these rows b, c, a
        a = from_permutation(perm("(1 2)", 2)).pairing
        b = from_permutation(perm("(1 2)", 2), {2}).pairing
        c = WbaElement.identity(2).pairing
        terms = [WbaElement(2, [row], [coeff]) for row, coeff in
                 zip([a, c, b, a, c], [[2, 1], [1, 0], [3, 0], [1, 0], [-1, 0]])]
        x = terms[0] + terms[1] + terms[2] + terms[3] + terms[4]
        assert x.pairings.tolist() == [list(a), list(b)]    # c cancels
        assert np.array_equal(x.coeffs, [[3, 1], [3, 0]])

    def test_constructor_keeps_rows_and_the_callers_array(self):
        a = from_permutation(perm("(1 2)", 2)).pairing
        c = WbaElement.identity(2).pairing
        coeffs = np.array([[2, 1e-300], [0, 0], [1, 0]], complex)
        x = WbaElement(2, [c, a, c], coeffs)
        assert x.pairings.tolist() == [list(c), list(c)]    # the zero row goes, no merge
        assert np.array_equal(x.coeffs, [[2], [1]])
        assert np.array_equal(coeffs, np.array([[2, 1e-300], [0, 0], [1, 0]], complex))

    def test_reduce_takes_zero_rows(self):
        rows, sums = wa._reduce(np.empty((0, 4), np.intp), np.empty((0, 2), complex))
        assert rows.shape == (0, 4) and sums.shape == (0, 2)
        empty = WbaElement(2, np.empty((0, 4), np.intp), np.empty((0, 1)))
        assert len((empty + empty).pairings) == len((empty * empty).pairings) == 0

    def test_f_projector_merges_nothing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("f_projector called _reduce")

        monkeypatch.setattr(wa, "_reduce", refuse)
        x = f_projector(Partition((4, 2)), Partition((3, 2)), 7, 1, 2)
        assert len(x.pairings) == 3216

    @pytest.mark.parametrize("pairing", [(0, 1, 2, 3), (1, 2, 3, 0), (1, 0, 3, 4)],
                             ids=["fixed-points", "not-an-involution", "out-of-range"])
    def test_rejects_a_row_that_is_not_a_matching(self, pairing):
        with pytest.raises(ValueError, match="involution"):
            WbaElement(2, [pairing], [[1.0]])


def _record(x):
    """{"n", "terms"} of an element as the projector report writes it, built
    from the term listing: one coefficient dict per nonzero entry."""
    texts, coeffs = wa._term_listing(x)
    terms = [{"diagram": text, "coeff": [{"power": p, "re": c.real, "im": c.imag}
                                         for p, c in enumerate(row) if c]}
             for text, row in zip(texts, coeffs.tolist())]
    return {"n": x.n, "terms": terms}


class TestSerialization:
    def test_diagram_text_roundtrip(self):
        rng = random.Random(5)
        group = [Permutation(tuple(p)) for p in itertools.permutations(range(1, 5))]
        for _ in range(50):
            s = frozenset(x for x in range(1, 5) if rng.random() < 0.5)
            diag = from_permutation(rng.choice(group), s)
            assert parse_diagram(diagram_to_text(diag), 4) == diag

    def test_transposed_form_is_faithful(self):
        diag = from_permutation(perm("(1 2 3)", 3), {2, 3})
        images, mask = wa._transposed_forms(np.array([diag.pairing]))
        sites = set((np.flatnonzero(mask[0]) + 1).tolist())
        assert from_permutation(Permutation(tuple(images[0].tolist())), sites) == diag

    def test_every_product_diagram_serializes(self):
        # products of transposed permutations stay in transposed-perm form
        diagrams = {from_permutation(Permutation(tuple(p)), frozenset(s))
                    for p in itertools.permutations((1, 2, 3))
                    for r in range(4)
                    for s in itertools.combinations((1, 2, 3), r)}
        for a in diagrams:
            for b in diagrams:
                result, _ = compose_diagrams(a, b)
                assert parse_diagram(diagram_to_text(result), 3) == result

    def test_element_json_roundtrip(self):
        # the record's diagram texts and coefficients rebuild the element
        x = f_projector(Partition((2, 1)), Partition((2,)), 4, 1, 2)
        record = json.loads(json.dumps(_record(x)))
        pairings = [parse_diagram(entry["diagram"], record["n"]).pairing
                    for entry in record["terms"]]
        coeffs = [[complex(c["re"], c["im"]) for c in entry["coeff"]] for entry in record["terms"]]
        assert all(c["power"] == 0 for entry in record["terms"] for c in entry["coeff"])
        assert x.approx_eq(WbaElement(x.n, pairings, coeffs))

    # the digests hold on every platform: no BLAS runs, and each coefficient
    # is one correctly rounded division
    @pytest.mark.parametrize("n,k,d,mu,alpha,digest", [
        (7, 1, 2, (4, 2), (3, 2),
         "7162138dd9c31609e22b4e432e9ad664fe29115fac53571a1c933bf312a46f12"),
        (6, 2, 3, (2, 2), (2,),
         "abd7e8a730ed75b97865276390263dc051ce2bcb80761b7956c74bcb9642e5d0"),
        (8, 1, 2, (5, 2), (4, 2),
         "70e7bcc29a9f3126aa859dd00975a639f0b2db7d11c1b05b9d9d4f7d57e0e703"),
        (8, 2, 2, (3, 3), (3, 1),
         "e2f01fa1db2b4d3bb640aed492f0c13e0140bf05271de9587c05b216d4030844"),
        (7, 2, 2, (3, 2), (2, 1),
         "ec6cde6399713cabe4bbca1976aea76d086e0db0341aa30af7b28b83297fb146"),
    ])
    def test_projector_json_digest(self, n, k, d, mu, alpha, digest):
        record = _record(f_projector(Partition(mu), Partition(alpha), n, k, d))
        text = json.dumps(record, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_two_digit_projector_texts_digest(self):
        # F_[3,2]([]) at (10,5): 11,520 terms with two-digit sites, such as
        # (1 6)(2 7)(3 8)(4 9 5 10)^T{1,2,3,4,5}; the texts hold no floats
        texts, _ = wa._term_listing(f_projector(Partition((3, 2)), Partition(()), 10, 5, 2))
        assert len(texts) == 11520 and "(1 6)(2 7)(3 8)(4 9 5 10)^T{1,2,3,4,5}" in texts
        assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == (
            "93d1f7d4ba3d1367822b2dfc4fa943ed2999be85f2c19181b6485fda69c5a660")

    def test_repr_lists_the_json_diagrams_in_order(self):
        x = f_projector(Partition((2, 1)), Partition((1,)), 5, 2, 2)
        texts, _ = wa._term_listing(x)
        assert [bit.split("] ")[1] for bit in repr(x).split("  +  ")] == texts


def _lift(x, n):
    """An element of C[S(x.n)] on n sites, fixing the added points: each
    permutation read off its bot row (bot n + t - 1 meets top sigma(t) - 1)."""
    images = (x.pairings[:, x.n:] + 1).tolist()
    return GroupAlgebraElement({Permutation(tuple(row)).extend(n): c
                                for row, c in zip(images, x.coeffs[:, 0].tolist())}, n)


def _support_size(mu, alpha):
    """|supp P_mu P_alpha| in C[S(|mu|)], multiplying the young_projector
    coefficients term by term: the image rows of pi o rho, keyed base m."""
    m = mu.n
    (pis, chi_mu), (rhos, chi_alpha) = (
        (x.pairings[:, m:], x.coeffs[:, 0])
        for x in (young_projector(mu), _lift(young_projector(alpha), m)))
    keys = pis[:, rhos] @ m ** np.arange(m)
    _, inverse = np.unique(keys, return_inverse=True)
    sums = np.bincount(inverse.reshape(-1), (chi_mu[:, None] * chi_alpha).real.reshape(-1))
    return int((np.abs(sums) > 1e-12).sum())


def _merge_rows(pairings, weights):
    """Equal rows merged by their bytes and their integer weights summed, in
    order of first appearance."""
    rows = np.ascontiguousarray(pairings).view(f"V{pairings.shape[1] * pairings.itemsize}")
    _, first, inverse = np.unique(rows[:, 0], return_index=True, return_inverse=True)
    sums = np.zeros(len(first), np.int64)
    np.add.at(sums, inverse.reshape(-1), weights)
    order = np.argsort(first)
    return pairings[first[order]], sums[order]


@cache
def _composed_projector_sum(mu, alpha, n, k):
    """P_mu sum_eta eta^-1 (P_alpha sigma) eta by WbaElement products."""
    p_mu = _lift(young_projector(mu), n)
    p_alpha = _lift(young_projector(alpha), n)
    core = p_alpha * sigma_diagram(n, k)
    conjugates = [from_permutation(eta.extend(n).inverse()) * core
                  * from_permutation(eta.extend(n))
                  for eta in coset_representatives(n, k)]
    return p_mu * sum(conjugates[1:], conjugates[0])


def _pi_block_projector(mu, alpha, n, k, d, representatives=None):
    """F_mu(alpha) by the construction that sums P_mu term by term: the core
    eta^-1 (P_alpha sigma) eta is relabelled once per pi of P_mu, in blocks
    of pi merged into the running sum, with the same exact integer weights
    and the same one rounding per term as f_projector."""
    from wba.sym_core import _characters, irrep_dimension

    g = gamma(mu, alpha, n, k, d)
    reps = representatives if representatives is not None else coset_representatives(n, k)
    etas_inv = np.array([eta.extend(n).inverse().images for eta in reps]) - 1
    rhos, chi_alpha = _characters(alpha, n)
    top = etas_inv[:, rhos]
    ends = np.concatenate([top, n + np.broadcast_to(etas_inv[:, None, :], top.shape)], axis=2)
    sigma = np.array(sigma_diagram(n, k).pairing)[None, :]
    core = wa._relabel(sigma, ends.reshape(-1, 2 * n)).reshape(-1, 2 * n)
    core, core_weights = _merge_rows(core, np.broadcast_to(chi_alpha, top.shape[:2]).reshape(-1))
    core, core_weights = core[core_weights != 0], core_weights[core_weights != 0]
    pis, chi_mu = _characters(mu, n)
    total = (np.empty((0, 2 * n), np.intp), np.empty(0, np.int64))
    start = 0
    while start < len(pis):
        step = max(1, max(1 << 12, len(total[0])) // len(core))
        block = pis[start:start + step]
        ends = np.concatenate([block, np.broadcast_to(n + np.arange(n), block.shape)], axis=1)
        pairings = wa._relabel(core, ends).reshape(-1, 2 * n)
        weights = (chi_mu[start:start + step, None] * core_weights).reshape(-1)
        total = _merge_rows(*(np.concatenate(pair) for pair in zip(total, (pairings, weights))))
        start += step
    pairings, weights = total
    scale = (Fraction(irrep_dimension(mu), factorial(mu.n))
             * Fraction(irrep_dimension(alpha), factorial(alpha.n)) / g)
    coeffs = [w * scale.numerator / scale.denominator for w in weights.tolist()]
    return WbaElement(n, pairings, np.array(coeffs, dtype=complex)[:, None])


def _random_matchings(rng, n, count):
    out = np.empty((count, 2 * n), dtype=np.intp)
    for row in out:
        ends = rng.permutation(2 * n)
        row[ends[0::2]], row[ends[1::2]] = ends[1::2], ends[0::2]
    return out


class TestRelabelConstruction:
    @pytest.mark.parametrize("n,k", [(n, k) for k in (1, 2) for n in range(2 * k, 7)])
    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_composed_definition(self, n, k, d):
        pairs = admissible_pairs(n, k, d)
        assert pairs
        for alpha, mu in pairs:
            f = f_projector(mu, alpha, n, k, d)
            ref = _composed_projector_sum(mu, alpha, n, k).scale(
                1.0 / float(gamma(mu, alpha, n, k, d)))
            got, want = terms(f), terms(ref)
            assert set(got) == set(want), (mu, alpha)
            assert f.coeffs.shape[1] == 1
            assert max(abs(got[x][0] - want[x][0]) for x in got) <= 1e-15

    def test_composes_no_diagrams(self, monkeypatch):
        calls = []
        original = wa._compose

        def counting(top, bot):
            calls.append(1)
            return original(top, bot)

        monkeypatch.setattr(wa, "_compose", counting)
        f_projector(Partition((4, 1)), Partition((3, 1)), 6, 1, 2)
        assert not calls
        sigma_diagram(6, 1) * sigma_diagram(6, 1)     # the counter does see compositions
        assert calls == [1]

    @pytest.mark.parametrize("n,k", [(n, k) for k in (1, 2) for n in range(2 * k, 8)])
    def test_one_term_per_eta_and_g(self, n, k):
        # no two (eta, g) give one diagram: |transversal| x |supp P_mu P_alpha|
        # terms, every label pair being admissible at d = n
        for alpha, mu in admissible_pairs(n, k, n):
            f = f_projector(mu, alpha, n, k, n)
            assert len(f.pairings) == len(coset_representatives(n, k)) * _support_size(mu, alpha)

    @pytest.mark.parametrize("n,k", [(n, k) for k in (1, 2) for n in range(2 * k, 8)])
    def test_coefficients_match_the_per_term_rounding(self, n, k):
        # each term's coefficient has the bits of w * num / den rounded for
        # that term alone, w its exact integer weight (read back from the
        # coefficient) and num / den the one rational scale
        from wba.sym_core import irrep_dimension

        for alpha, mu in admissible_pairs(n, k, n):
            f = f_projector(mu, alpha, n, k, n)
            scale = (Fraction(irrep_dimension(mu), factorial(mu.n))
                     * Fraction(irrep_dimension(alpha), factorial(alpha.n))
                     / gamma(mu, alpha, n, k, n))
            weights = [round(Fraction(c) / scale) for c in f.coeffs[:, 0].real.tolist()]
            per_term = [w * scale.numerator / scale.denominator for w in weights]
            assert np.array_equal(f.coeffs[:, 0], per_term), (mu, alpha)

    def test_refuses_past_the_relabel_bound(self):
        # (12,5) [4,3]/[2]: 2520 x 3520 terms, whose relabel would take 1.6 GiB
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="8870400 terms, past the relabel bound"):
                f_projector(Partition((4, 3)), Partition((2,)), 12, 5, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 << 20

    def test_n7_k1_term_count(self):
        f = f_projector(Partition((4, 2)), Partition((3, 2)), 7, 1, 2)
        assert len(f.pairings) == 3216

    def test_empty_alpha(self):
        # n = 2k: P_alpha is the identity and F_[2]([]) sums the conjugates of sigma
        f = f_projector(Partition((2,)), Partition(()), 4, 2, 2)
        mat = realize(f, 2)
        assert len(f.pairings) == 4
        assert sup_norm(mat @ mat - mat) < 1e-12

    def test_coefficients_are_exact_rationals_rounded_once(self):
        # F_[2,1]([1]) at n=5, k=2 is (1/9)[2 id - (123) - (132)] sum_eta eta^-1 sigma eta
        f = f_projector(Partition((2, 1)), Partition((1,)), 5, 2, 2)
        values = set(f.coeffs[:, 0].tolist())
        assert values == {complex(Fraction(2, 9)), complex(Fraction(-1, 9))}


class TestGroupProductConstruction:
    """f_projector against the pi-block reference: the same terms with the
    same bits, only in another order."""

    @staticmethod
    def check(f, ref, d):
        def by_row(x):
            return {row.tobytes(): coeff.tobytes() for row, coeff in zip(x.pairings, x.coeffs)}

        assert f.coeffs.shape[1] == ref.coeffs.shape[1] == 1
        assert len(by_row(f)) == len(f.pairings) and len(by_row(ref)) == len(ref.pairings)
        assert by_row(f) == by_row(ref)
        assert sup_norm(realize(f, d) - realize(ref, d)) <= 1e-14

    @pytest.mark.parametrize("n,k", [(n, k) for k in (1, 2) for n in range(2 * k, 7)])
    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_the_pi_block_reference(self, n, k, d):
        pairs = admissible_pairs(n, k, d)
        assert pairs
        for alpha, mu in pairs:
            self.check(f_projector(mu, alpha, n, k, d),
                       _pi_block_projector(mu, alpha, n, k, d), d)

    def test_n7_k1(self):
        args = (Partition((4, 2)), Partition((3, 2)), 7, 1, 2)
        self.check(f_projector(*args), _pi_block_projector(*args), 2)

    def test_other_transversal(self):
        # sigma eta represents the coset of eta for every sigma in S(n-2k)
        from wba.sym_core import Permutation, compose
        rng = random.Random(5)
        n, k = 6, 1
        stabilizer = [Permutation(tuple(i + 1 for i in p))
                      for p in itertools.permutations(range(n - 2 * k))]
        reps = [compose(rng.choice(stabilizer).extend(n - k), eta)
                for eta in coset_representatives(n, k)]
        rng.shuffle(reps)
        args = (Partition((3, 2)), Partition((2, 2)), n, k, 2)
        self.check(f_projector(*args), _pi_block_projector(*args, representatives=reps), 2)


def _all_matchings(n):
    """Every perfect matching of 2n endpoints, one row each."""
    def matchings(free):
        if not free:
            yield {}
            return
        for b in free[1:]:
            rest = [e for e in free[1:] if e != b]
            for m in matchings(rest):
                yield {**m, free[0]: b, b: free[0]}

    return np.array([[m[e] for e in range(2 * n)] for m in matchings(list(range(2 * n)))])


class TestReduce:
    """_reduce groups rows exactly as tuple keys do: every matching stays
    apart, and repeats merge with their weights summed."""

    @staticmethod
    def check(rows, weights):
        merged, sums = wa._reduce(rows, weights)
        want = {}
        for row, weight in zip(map(tuple, rows.tolist()), weights.tolist()):
            want[row] = want.get(row, 0) + weight
        assert list(map(tuple, merged.tolist())) == list(want)
        assert sums.tolist() == list(want.values())

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_matching_stays_apart(self, n):
        rows = _all_matchings(n)
        assert len(rows) == int(np.prod(np.arange(2 * n - 1, 0, -2)))
        order = np.random.default_rng(n).permutation(len(rows))
        self.check(np.concatenate([rows[order], rows]), np.arange(2 * len(rows)))

    @pytest.mark.parametrize("n", [8, 14])
    def test_merges_like_tuple_keys(self, n):
        rng = np.random.default_rng(n)
        base = _random_matchings(rng, n, 3000)
        rows = np.concatenate([base, base[rng.integers(0, len(base), 1000)]])
        self.check(rows, rng.integers(-5, 6, len(rows)))


def _reference_transposed_form(pairing):
    """(images, S) by the per-diagram scan: the first S, by size and then
    lexicographically, after whose top/bot swap every pair joins a top to a
    bot; images[t - 1] is the top site joined to bot site t."""
    n = len(pairing) // 2

    def swap(e, sites):
        return (e + n) % (2 * n) if e % n + 1 in sites else e

    for size in range(n + 1):
        for subset in itertools.combinations(range(1, n + 1), size):
            images = [0] * n
            for e, f in enumerate(pairing):
                u, v = sorted((swap(e, subset), swap(f, subset)))
                if not u < n <= v:
                    break
                images[v - n] = u + 1
            else:
                return tuple(images), frozenset(subset)
    raise AssertionError(f"no transposed-permutation form for {pairing}")


class TestTransposedForms:
    @staticmethod
    def check(rows):
        images, mask = wa._transposed_forms(rows)
        assert images.shape == mask.shape == (len(rows), rows.shape[1] // 2)
        assert (wa._transposed_matchings(images, mask) == rows).all()
        for row, image_row, mask_row in zip(rows.tolist(), images.tolist(), mask):
            sites = frozenset((np.flatnonzero(mask_row) + 1).tolist())
            assert (tuple(image_row), sites) == _reference_transposed_form(row)
            assert from_permutation(Permutation(tuple(image_row)), sites).pairing == tuple(row)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_every_matching_agrees_with_the_scan(self, n):
        rows = _all_matchings(n)
        assert len(rows) == int(np.prod(np.arange(2 * n - 1, 0, -2)))    # 10,395 at n = 6
        self.check(rows)

    @pytest.mark.parametrize("n", [7, 8])
    def test_random_matchings_agree_with_the_scan(self, n):
        self.check(_random_matchings(np.random.default_rng(n), n, 2000))

    def test_one_row_calls(self):
        # (4 5)^T{5} is (4 5)^T{4}, and {2,4} comes before {2,5}
        diag = from_permutation(perm("(1 3 2)(4 5)", 5), {2, 5})
        images, mask = wa._transposed_forms(np.array([diag.pairing]))
        assert images.tolist() == [list(perm("(1 3 2)(4 5)", 5).images)]
        assert mask.tolist() == [[False, True, False, True, False]]
        assert diagram_to_text(diag) == "(1 3 2)(4 5)^T{2,4}"
        assert diagram_to_text(WbaElement.identity(3)) == "()"

    def test_empty_batch(self):
        images, mask = wa._transposed_forms(np.empty((0, 8), np.intp))
        assert images.shape == mask.shape == (0, 4)

    def test_temporaries_stay_linear_in_the_rows(self):
        # a subset-by-row tensor would take T * 2**n * 2n bytes: 8 MB here
        rows = _random_matchings(np.random.default_rng(0), 8, 2000)
        tracemalloc.start()
        try:
            wa._transposed_forms(rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * rows.nbytes


def _reference_diagram_texts(pairings):
    """Text of each row of ``pairings``, one row at a time: the per-row
    cycle and ^T{...} loops the batched byte rows replace."""
    images, mask = wa._transposed_forms(pairings)
    texts = []
    for images_row, transposed in zip(images.tolist(), mask.tolist()):
        text = "".join("(" + " ".join(map(str, cyc)) + ")"
                       for cyc in Permutation(tuple(images_row)).cycles()) or "()"
        sites = [str(site) for site, on in enumerate(transposed, start=1) if on]
        texts.append(text + "^T{" + ",".join(sites) + "}" if sites else text)
    return texts


class TestDiagramTexts:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_every_matching(self, n):
        rows = _all_matchings(n)
        assert wa._diagram_texts(rows) == _reference_diagram_texts(rows)

    @pytest.mark.parametrize("n", [7, 8, 10, 12])
    def test_random_matchings(self, n):
        rows = _random_matchings(np.random.default_rng(n), n, 2000)
        texts = wa._diagram_texts(rows)
        assert texts == _reference_diagram_texts(rows)
        assert [list(parse_diagram(text, n).pairing) for text in texts[:50]] == rows[:50].tolist()

    def test_empty_batch_single_row_and_identity(self):
        assert wa._diagram_texts(np.empty((0, 8), np.intp)) == []
        assert wa._diagram_texts(np.array([WbaElement.identity(10).pairing])) == ["()"]
        text = "(1 6)(2 7)(3 8)(4 9 5 10)^T{1,2,3,4,5}"
        assert diagram_to_text(parse_diagram(text, 10)) == text

    def test_rows_past_one_chunk_keep_their_order(self):
        # 2 * n * rows entries span several chunks of _SCATTER_ENTRIES
        rows = _random_matchings(np.random.default_rng(3), 6, 3 * wa._SCATTER_ENTRIES // 12 + 5)
        assert wa._diagram_texts(rows) == _reference_diagram_texts(rows)

    def test_temporaries_stay_bounded_by_the_chunk(self):
        # beyond the texts it returns, the pass holds a few chunks of
        # _SCATTER_ENTRIES pairing entries, whatever the number of rows
        rows = _random_matchings(np.random.default_rng(0), 8, 40_000)
        tracemalloc.start()
        try:
            texts = wa._diagram_texts(rows)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(texts) == len(rows)
        assert peak - kept <= 8 * 8 * wa._SCATTER_ENTRIES
        assert peak <= 2 * rows.nbytes


def _transposed_permutations(n, s):
    """The pairings, as tuples, of sigma^{T_S} for the n! permutations sigma
    in lexicographic order of their images, the identity first."""
    images = np.array(list(itertools.permutations(range(1, n + 1))))
    mask = np.array([[site in s for site in range(1, n + 1)]] * len(images))
    return tuple(map(tuple, wa._transposed_matchings(images, mask).tolist()))


THREE_SITE_SUBSETS = [s for size in range(4) for s in itertools.combinations((1, 2, 3), size)]


class TestTraceExponents:
    """The one table builder: tr(D_c^dagger D_a D_b) = d**E[a, c, b] for a
    product-closed basis, E free of d, against the dense traces."""

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("n, s", [(3, s) for s in THREE_SITE_SUBSETS] + [(4, (4,)), (4, (3, 4))],
                             ids=lambda x: "".join(map(str, x)) if isinstance(x, tuple) else str(x))
    def test_the_exponents_give_the_dense_traces(self, n, s, d):
        basis = _transposed_permutations(n, s)
        exponents = wa._trace_exponents(basis)
        assert exponents.shape == (len(basis),) * 3 and not exponents.flags.writeable
        mats = np.array([realize(wa.WbaDiagram(n, pairing), d).real for pairing in basis])
        for a, left in enumerate(mats):
            # tr(D_c^T D_a D_b): the diagrams are real 0/1 matrices
            want = np.einsum("cij,bij->cb", mats, left @ mats)
            assert np.array_equal(float(d) ** exponents[a], want), a

    def test_a_basis_not_closed_under_product_is_refused(self):
        from wba.entanglement import BCS_TERMS

        mask = np.array([[False, True, False]] * len(BCS_TERMS))
        basis = tuple(map(tuple, wa._transposed_matchings(np.array(BCS_TERMS), mask).tolist()))
        with pytest.raises(ValueError, match="lies outside the basis"):
            wa._trace_exponents(basis)

    def test_a_basis_without_the_identity_is_refused(self):
        # (1 2)^{T_2} squares to d (1 2)^{T_2}: a closed span with no
        # identity, and tr(D^dagger D D) = d tr D = d^3
        basis = _transposed_permutations(2, (2,))[1:]
        assert wa._trace_exponents(basis).tolist() == [[[3]]]
        with pytest.raises(ValueError, match="does not hold the identity"):
            wa._algebra_table(basis, 3)

    @pytest.mark.parametrize("s", THREE_SITE_SUBSETS, ids=lambda s: "S" + "".join(map(str, s)))
    def test_the_s3_span_has_rank_5_at_d2_and_6_past_it(self, s):
        basis = _transposed_permutations(3, s)
        assert wa._algebra_table(basis, 2).shape == (6, 5, 5)
        for d in (3, 4, 16):
            table = wa._algebra_table(basis, d)
            assert table.shape == (6, 6, 6) and not table.flags.writeable

    @pytest.mark.parametrize("s", THREE_SITE_SUBSETS, ids=lambda s: "S" + "".join(map(str, s)))
    def test_left_multiplication_has_the_spectrum_of_the_diagram(self, s):
        # each sigma^{T_S} is normal, so its matrix in the orthonormal basis
        # of the trace form has the dense operator's eigenvalues (without
        # multiplicity)
        basis = _transposed_permutations(3, s)
        table = wa._algebra_table(basis, 3)
        for pairing, mat in zip(basis, table):
            dense = np.linalg.eigvals(realize(wa.WbaDiagram(3, pairing), 3))
            got = np.linalg.eigvals(mat)
            assert all(np.abs(dense - value).min() < 1e-9 for value in got)
            assert all(np.abs(got - value).min() < 1e-9 for value in dense)
