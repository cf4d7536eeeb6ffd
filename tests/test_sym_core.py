import hashlib
import itertools
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wba.sym_core import (
    Partition,
    Permutation,
    _characters,
    _group_rows,
    _row_texts,
    _text_rows,
    additions_of_boxes,
    character_of_type,
    compose,
    conjugacy_classes,
    coset_representatives,
    irrep_dimension,
    parse_partition,
    parse_permutation,
    partitions,
    permutation_to_text,
    schur_weyl_multiplicity,
    young_projector,
)
from wba.wba_algebra import GroupAlgebraElement, WbaElement, realize


def perm(text, n):
    return parse_permutation(text, n)


def _group(n):
    """S_n in lexicographic one-line order, from itertools."""
    return [Permutation(tuple(i + 1 for i in p)) for p in itertools.permutations(range(n))]


def _chi(alpha, p):
    return character_of_type(alpha, p.cycle_type())


permutations_st = st.integers(2, 6).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))).map(
    lambda images: Permutation(tuple(images)))


class TestPermutation:
    def test_cycle_convention(self):
        # (134) maps 1->3, 3->4, 4->1
        p = perm("(1 3 4)", 4)
        assert p(1) == 3 and p(3) == 4 and p(4) == 1 and p(2) == 2

    def test_compact_cycle_parse(self):
        assert perm("(134)", 4) == perm("(1 3 4)", 4)

    def test_involution(self):
        p = perm("(1 2)", 2)
        assert compose(p, p) == Permutation.identity(2)

    def test_identity_law(self):
        p = perm("(1 2 3 4)", 4)
        assert compose(Permutation.identity(4), p) == p

    def test_compose_matches_dense_product(self):
        # apply-right-first convention: realizations multiply in order
        p, q = perm("(1 2)", 3), perm("(2 3)", 3)
        assert np.array_equal(realize(compose(p, q), 2), realize(p, 2) @ realize(q, 2))

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            compose(perm("(1 2)", 2), perm("(1 2)", 3))

    def test_not_a_permutation(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 3))

    @given(permutations_st)
    @settings(max_examples=50, deadline=None)
    def test_inverse_roundtrip(self, p):
        assert compose(p, p.inverse()) == Permutation.identity(p.n)

    @given(permutations_st)
    @settings(max_examples=50, deadline=None)
    def test_text_roundtrip(self, p):
        assert parse_permutation(permutation_to_text(p), p.n) == p

    def test_cycle_type(self):
        assert perm("(1 2)(3 4 5)", 6).cycle_type() == (3, 2, 1)

    def test_cycle_texts(self):
        rows = [(1, 2, 3, 4, 5, 6), (2, 1, 3, 4, 5, 6), (3, 1, 2, 5, 4, 6), (2, 3, 1, 5, 6, 4)]
        assert _batched_texts(rows) == ["()", "(1 2)", "(1 3 2)(4 5)", "(1 2 3)(4 5 6)"]
        assert _batched_texts(np.zeros((0, 6), np.intp)) == []


def _batched_texts(rows):
    """Cycle notation of each row of 1-based images by the batched writer
    _text_rows and its reader _row_texts, the path of every listing."""
    return _row_texts(_text_rows(np.asarray(rows, np.intp)))


def _reference_cycle_texts(rows):
    """Cycle notation of each row of 1-based images, one row at a time: the
    per-row loop the batched byte rows replace."""
    return ["".join("(" + " ".join(map(str, cyc)) + ")"
                    for cyc in Permutation(tuple(images)).cycles()) or "()" for images in rows]


class TestBatchedCycleTexts:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_all_of_the_group(self, n):
        rows = (_group_rows(n) + 1).tolist()
        assert _batched_texts(rows) == _reference_cycle_texts(rows)

    @pytest.mark.parametrize("n", [10, 11, 12])
    def test_random_rows_with_two_digit_points(self, n):
        rng = np.random.default_rng(n)
        rows = (rng.permuted(np.tile(np.arange(n), (2000, 1)), axis=1) + 1).tolist()
        batched = _batched_texts(rows)
        assert batched == _reference_cycle_texts(rows)
        assert any(str(n) in text for text in batched)

    def test_empty_batch_single_row_and_identity(self):
        assert _batched_texts(np.zeros((0, 3), np.intp)) == []
        assert _batched_texts([()]) == ["()"]
        assert _batched_texts([tuple(range(1, 11))]) == ["()"]
        assert _batched_texts([(10, 2, 3, 4, 5, 6, 7, 8, 9, 1)]) == ["(1 10)"]
        assert str(perm("(2 11 3)(10 12)", 12)) == "(2 11 3)(10 12)"

    def test_byte_rows_are_fixed_width(self):
        # "(" or " ", the digits, ")" or NUL per point, then "()" and "\n"
        buf = _text_rows(np.array([[2, 3, 1, 4], [1, 2, 3, 4]]), tail=2)
        assert buf.shape == (2, 4 * 3 + 3 + 2)
        assert buf[:, -1].tolist() == [ord("\n")] * 2
        assert _row_texts(buf) == ["(1 2 3)", "()"]


class TestEnumerate:
    @pytest.mark.parametrize("n,size", [(2, 2), (3, 6), (5, 120)])
    def test_sizes(self, n, size):
        rows = _group_rows(n).tolist()
        assert len(rows) == size
        assert len(set(map(tuple, rows))) == size

    def test_guard(self):
        with pytest.raises(ValueError, match="S_8 is past the largest enumerable degree"):
            _group_rows(8)

    @pytest.mark.parametrize("m", range(8))
    def test_group_rows_are_itertools_permutations(self, m):
        rows = _group_rows(m)
        assert rows.shape == (factorial(m), m) and rows.dtype == np.intp
        assert rows.tolist() == [list(p) for p in itertools.permutations(range(m))]

    def test_class_sizes_match_enumeration(self):
        for n in (3, 4, 5):
            counts = {}
            for p in _group(n):
                counts[p.cycle_type()] = counts.get(p.cycle_type(), 0) + 1
            assert counts == dict(conjugacy_classes(n))


def _standard_tableaux_count(shape):
    """Independent dimension oracle: count standard fillings by backtracking."""
    cells = sorted({(i, j) for i, row in enumerate(shape) for j in range(row)})
    n = len(cells)

    def grow(filled):
        if len(filled) == n:
            return 1
        total = 0
        for (i, j) in cells:
            if (i, j) in filled:
                continue
            if (i > 0 and (i - 1, j) not in filled) or (j > 0 and (i, j - 1) not in filled):
                continue
            total += grow(filled | {(i, j)})
        return total

    return grow(frozenset())


def _characters_by_cycle_type(lam, n):
    """Reference for _characters: one Permutation and one cycle_type() per
    element of S(|lam|)."""
    group = _group(lam.n)
    by_type, rows, chars = {}, [], []
    for p in group:
        cycle_type = p.cycle_type()
        if cycle_type not in by_type:
            by_type[cycle_type] = character_of_type(lam, cycle_type)
        if by_type[cycle_type]:
            rows.append(p.images + tuple(range(lam.n + 1, n + 1)))
            chars.append(by_type[cycle_type])
    return np.array(rows, dtype=np.intp).reshape(len(rows), n) - 1, np.array(chars, dtype=np.int64)


class TestCharacters:
    @pytest.mark.parametrize("m", range(8))
    def test_matches_the_cycle_type_loop(self, m):
        for lam in partitions(m):
            for n in (m, m + 2):
                rows, chars = _characters(lam, n)
                ref_rows, ref_chars = _characters_by_cycle_type(lam, n)
                assert rows.dtype == np.intp and chars.dtype == np.int64
                assert np.array_equal(rows, ref_rows) and np.array_equal(chars, ref_chars)

    def test_trivial_rep(self):
        alpha = Partition((3,))
        for p in _group(3):
            assert _chi(alpha, p) == 1

    def test_sign_rep(self):
        assert _chi(Partition((1, 1)), perm("(1 2)", 2)) == -1

    def test_standard_dimension(self):
        assert _chi(Partition((2, 1)), Permutation.identity(3)) == 2

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_dimension_equals_tableaux_count(self, n):
        for alpha in partitions(n):
            assert irrep_dimension(alpha) == _standard_tableaux_count(alpha.parts)
            assert _chi(alpha, Permutation.identity(n)) == irrep_dimension(alpha)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_orthogonality(self, n):
        classes = conjugacy_classes(n)
        for a in partitions(n):
            for b in partitions(n):
                total = sum(size * character_of_type(a, ct) * character_of_type(b, ct)
                            for ct, size in classes)
                assert total == (factorial(n) if a == b else 0)


class TestSchurWeyl:
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_defining_rep(self, d):
        assert schur_weyl_multiplicity(Partition((1,)), d) == d

    def test_too_tall_vanishes(self):
        assert schur_weyl_multiplicity(Partition((1, 1, 1)), 2) == 0

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("d", [2, 3])
    def test_dimension_sum(self, n, d):
        total = sum(schur_weyl_multiplicity(a, d) * irrep_dimension(a)
                    for a in partitions(n))
        assert total == d ** n


class TestYoungProjector:
    def test_symmetrizer_s2(self):
        p = young_projector(Partition((2,)))
        expect = GroupAlgebraElement(
            {Permutation.identity(2): 0.5, perm("(1 2)", 2): 0.5}, 2)
        assert p.approx_eq(expect)

    def test_mixed_s3(self):
        p = young_projector(Partition((2, 1)))
        expect = GroupAlgebraElement(
            {Permutation.identity(3): 2 / 3, perm("(1 2 3)", 3): -1 / 3,
             perm("(1 3 2)", 3): -1 / 3}, 3)
        assert p.approx_eq(expect)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_literal_character_sum(self, n):
        # (d_alpha/n!) sum_pi chi^alpha(pi) pi, term by term over all of S_n
        for a in partitions(n):
            scale = irrep_dimension(a) / factorial(n)
            literal = GroupAlgebraElement(
                {p: scale * _chi(a, p) for p in _group(n)}, n)
            p = young_projector(a)
            assert np.array_equal(p.pairings, literal.pairings)
            assert np.array_equal(p.coeffs, literal.coeffs)

    def test_empty_partition_is_the_unit_of_s0(self):
        p = young_projector(Partition(()))
        assert p.n == 0 and p.pairings.shape == (1, 0) and p.coeffs.tolist() == [[1.0]]
        assert realize(p, 3).tolist() == [[1.0]]

    def test_is_a_walled_brauer_element_with_no_transposed_site(self):
        for a in partitions(4):
            p = young_projector(a)
            assert type(p) is WbaElement
            # bot endpoint n + t - 1 of a permutation diagram meets top sigma(t) - 1
            assert sorted((p.pairings[:, 4:] + 1).tolist()) == sorted(
                list(q.images) for q in _group(4) if _chi(a, q) != 0)

    def test_dense_trace_is_multiplicity_times_dimension(self):
        mat = realize(young_projector(Partition((2,))), 2)
        assert abs(np.trace(mat) - 3) < 1e-12  # m=3, d_alpha=1

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_formal_idempotents_orthogonal_complete(self, n):
        projs = {a: young_projector(a) for a in partitions(n)}
        for a, pa in projs.items():
            for b, pb in projs.items():
                prod = pa * pb
                assert prod.approx_eq(pa if a == b else GroupAlgebraElement({}, n))
        total = GroupAlgebraElement({}, n)
        for pa in projs.values():
            total = total + pa
        assert total.approx_eq(GroupAlgebraElement.identity(n))

    def test_realizations_are_pinned(self):
        # the realized bytes for n = 1..5 in partitions(n) order, d = 2 then
        # 3, as recorded from the dict-of-permutations element these
        # projectors were built as before
        digest = hashlib.sha256()
        for n in range(1, 6):
            for a in partitions(n):
                for d in (2, 3):
                    digest.update(realize(young_projector(a), d).tobytes())
        assert digest.hexdigest() == (
            "319fbd0dd3b08dfe5e94efc2cf909296fb26239adca8099ac84570e3cd30032e")

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("d", [2, 3])
    def test_dense_idempotent(self, n, d):
        for a in partitions(n):
            mat = realize(young_projector(a), d)
            assert np.max(np.abs(mat @ mat - mat)) < 1e-10


def _coset_key_scan(n, k):
    """Reference transversal: the first member of each coset S(n-2k) eta in
    a lexicographic scan of S(n-k), where two permutations share a coset iff
    they agree on eta^-1(n-2k+1), ..., eta^-1(n-k)."""
    reps, seen = [], set()
    for eta in _group(n - k):
        key = tuple(eta.inverse()(x) for x in range(n - 2 * k + 1, n - k + 1))
        if key not in seen:
            seen.add(key)
            reps.append(eta)
    return reps


class TestCosets:
    @pytest.mark.parametrize("n,k", [(n, k) for k in range(1, 8)
                                     for n in range(2 * k, k + 8)])
    def test_matches_the_coset_key_scan(self, n, k):
        assert coset_representatives(n, k) == _coset_key_scan(n, k)

    @pytest.mark.parametrize("n,k,count", [(5, 1, 4), (5, 2, 6), (4, 1, 3)])
    def test_counts(self, n, k, count):
        reps = coset_representatives(n, k)
        assert len(reps) == count
        assert len(reps) == factorial(n - k) // factorial(n - 2 * k)

    def test_count_identity(self):
        for n in range(2, 8):
            for k in range(1, n // 2 + 1):
                assert (factorial(k) * comb(n - k, k) * factorial(n - 2 * k)
                        == factorial(n - k))
                if n - k <= 6:
                    assert len(coset_representatives(n, k)) == \
                        factorial(n - k) // factorial(n - 2 * k)

    def test_k2_spans_full_group(self):
        # with n = 5, k = 2 the stabilized subgroup is trivial
        reps = coset_representatives(5, 2)
        assert sorted(r.images for r in reps) == sorted(
            p.images for p in _group(3))

    def test_k1_coset_equivalence_to_transpositions(self):
        # each representative moves n-1 like some (a, n-1)
        n, k = 5, 1
        reps = coset_representatives(n, k)
        keys = sorted(r.inverse()(n - k) for r in reps)
        assert keys == [1, 2, 3, 4]

    def test_invalid(self):
        with pytest.raises(ValueError):
            coset_representatives(3, 2)  # n - 2k < 0


class TestPartitions:
    def test_parse_print(self):
        p = parse_partition("[3,1,1]")
        assert p == Partition((3, 1, 1))
        assert str(p) == "[3,1,1]"

    def test_parse_empty(self):
        assert parse_partition("[]") == Partition(())
        assert str(parse_partition(" [] ")) == "[]"
        with pytest.raises(ValueError):
            parse_partition("")

    def test_invalid(self):
        with pytest.raises(ValueError):
            Partition((1, 2))
        with pytest.raises(ValueError):
            Partition((2, 0))

    def test_additions(self):
        mus = additions_of_boxes(Partition((2,)), 1)
        assert set(m.parts for m in mus) == {(3,), (2, 1)}
        nus = additions_of_boxes(Partition((1,)), 2)
        assert set(m.parts for m in nus) == {(3,), (2, 1), (1, 1, 1)}
