"""Walled Brauer algebra of partially transposed permutation operators.

A diagram is a perfect matching on 2n endpoints, n "top" (output/row index)
and n "bot" (input/column index).  A permutation sigma is the matching
bot_t <-> top_{sigma(t)}; partially transposing at site s swaps that site's
two endpoints.  Stacking two diagrams and following the lines composes them;
every closed loop that forms contributes one factor of the local dimension d,
so coefficients live in C[d] and results stay dimension-generic until they
are realized as dense matrices.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod

import numpy as np

from .dense_ops import ListedOperator, SectorOperator, sector_layout
from .sym_core import (
    Partition,
    Permutation,
    _characters,
    _point_digits,
    _row_texts,
    _text_rows,
    coset_representatives,
    irrep_dimension,
    parse_permutation,
    parse_token,
    schur_weyl_multiplicity,
)
from .tolerances import COEFF_EPS, COEFF_MATCH, GRAM_CUT

SIZE_GUARD = 4096


def check_size_guard(n: int, d: int) -> None:
    """Raise ValueError when d**n exceeds the dense-realization guard SIZE_GUARD."""
    if d ** n > SIZE_GUARD:
        raise ValueError(f"d^n = {d ** n} exceeds the size guard {SIZE_GUARD}")


# ---------------------------------------------------------------------------
# diagrams
# ---------------------------------------------------------------------------

def from_permutation(p: Permutation, transposed=frozenset()) -> WbaDiagram:
    """Diagram of p^{T_S}: the permutation matching with top/bot swapped on S."""
    n = p.n
    if any(not 1 <= s <= n for s in transposed):
        raise ValueError(f"transposed sites out of range 1..{n}: {sorted(transposed)}")
    mask = np.array([[site in transposed for site in range(1, n + 1)]])
    pairing = _transposed_matchings(np.array([p.images], np.intp), mask)[0]
    return WbaDiagram(n, tuple(pairing.tolist()))


def _compose(top, bot) -> tuple[list[int], int]:
    """Partners of a*b (b applied first) and the number of closed loops,
    for the partner sequences top of a and bot of b.

    a is stacked above b and a's bot t is glued to b's top t: glued point t.
    A line from an outer endpoint (a's top row, b's bot row, which keep their
    ids in the product) crosses glued points until it leaves on the outer
    rows; the glued points no line crosses lie on closed loops, each giving
    a factor d: realize(a) @ realize(b) == d**loops * realize(a*b).
    """
    n = len(top) // 2
    pairing = [-1] * (2 * n)
    crossed = [False] * n
    for start in range(2 * n):
        if pairing[start] >= 0:
            continue
        in_a, end = start < n, start
        # in a the outer endpoints are below n, in b at n or above
        while ((end := (top if in_a else bot)[end]) < n) != in_a:
            crossed[end % n] = True
            in_a, end = not in_a, (end + n) % (2 * n)    # a's bot t <-> b's top t
        pairing[start], pairing[end] = end, start
    loops = 0
    for t in range(n):
        loops += not crossed[t]
        # around a loop: from t through b to glued point bot[t], then through a
        while not crossed[t]:
            crossed[t] = crossed[bot[t]] = True
            t = top[n + bot[t]] - n
    return pairing, loops


def compose_diagrams(a: WbaDiagram, b: WbaDiagram) -> tuple[WbaDiagram, int]:
    """Diagram of a*b (b applied first) and its number of closed loops: the
    walk of ``*`` (_compose) on one pair, a * b being this diagram with its
    coefficient d**loops."""
    if a.n != b.n:
        raise ValueError(f"site count mismatch: {a.n} vs {b.n}")
    pairing, loops = _compose(a.pairing, b.pairing)
    return WbaDiagram(a.n, tuple(pairing)), loops


def _components(p, q) -> int:
    """Components of the union of the matchings p and q on one set of
    endpoints, each a cycle that alternates between their pairs."""
    seen, count = [False] * len(p), 0
    for start in range(len(p)):
        count += not seen[start]
        while not seen[start]:
            seen[start] = seen[p[start]] = True
            start = q[p[start]]
    return count


@lru_cache(maxsize=8)
def _trace_exponents(basis: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """(m, m, m) integers, read only: tr(D_c^dagger D_a D_b) = d**E[a, c, b]
    at every d for the diagrams D_a of the m pairings ``basis`` (tuples of
    2n partners), whose span is closed under product: from m^2 walks of
    _compose, D_a D_b = d**loops D_e, and tr(D_c^dagger D_e), the number of
    unit entries two 0/1 matrices share, is d to the _components of the
    matchings of D_c and D_e.  A product outside the basis is a ValueError."""
    rows = {pairing: e for e, pairing in enumerate(basis)}
    products = [_compose(top, bot) for top in basis for bot in basis]
    index = [rows.get(tuple(pairing), -1) for pairing, _ in products]
    if -1 in index:
        outside = _diagram_texts(np.array([products[index.index(-1)][0]]))[0]
        raise ValueError(f"the product {outside} of two basis diagrams lies outside the basis")
    index, loops = np.array([index, [count for _, count in products]]).reshape(2, len(basis), -1)
    gram = np.array([[_components(p, q) for q in basis] for p in basis])
    exponents = loops[:, None, :] + gram[:, index].swapaxes(0, 1)
    exponents.flags.writeable = False
    return exponents


@lru_cache(maxsize=16)
def _algebra_table(basis: tuple[tuple[int, ...], ...], d: int) -> np.ndarray:
    """(m, r, r) complex, read only: left multiplication by each diagram of
    ``basis`` (as in _trace_exponents) on the span of their operators at d,
    in an orthonormal basis of the trace form G, r the rank of that span.

    With G = U diag(g) U^dagger, less the directions below GRAM_CUT times
    its largest eigenvalue, a diagram's matrix is g^1/2 U^dagger L U g^-1/2
    for L its left multiplication on the diagrams, that is
    g^-1/2 U^dagger (G L) U g^-1/2, and G L is the trace table
    tr(D_c^dagger D_a D_b), read at a the identity for G itself: a basis
    without the identity is a ValueError."""
    n = len(basis[0]) // 2
    if (identity := tuple(range(n, 2 * n)) + tuple(range(n))) not in basis:
        raise ValueError("the basis does not hold the identity diagram")
    products = float(d) ** _trace_exponents(basis)
    spectrum, vectors = np.linalg.eigh(products[basis.index(identity)])
    keep = spectrum > GRAM_CUT * spectrum[-1]
    unit = vectors[:, keep] / np.sqrt(spectrum[keep])
    table = (unit.T @ products @ unit).astype(complex)
    table.flags.writeable = False
    return table


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------

class WbaElement:
    """Formal combination of diagrams with coefficients in C[d], as arrays.

    Row t of ``pairings`` (T, 2n) is a matching laid out as
    ``WbaDiagram.pairing``; row t of ``coeffs`` (T, P) is its coefficient,
    column p multiplying d**p.  The constructor keeps the rows as given and
    drops coefficients of magnitude at most COEFF_EPS and rows left zero;
    ``+`` and ``*`` merge equal rows first (_reduce).
    """

    __slots__ = ("n", "pairings", "coeffs")

    def __init__(self, n: int, pairings, coeffs):
        pairings = np.asarray(pairings, dtype=np.intp)
        coeffs = np.asarray(coeffs, dtype=complex)
        if pairings.ndim != 2 or pairings.shape[1] != 2 * n:
            raise ValueError(f"pairings must have shape (terms, {2 * n})")
        if coeffs.ndim != 2 or len(coeffs) != len(pairings) or not coeffs.shape[1]:
            raise ValueError("coeffs must have one non-empty row per pairing")
        ends = np.arange(2 * n)
        if pairings.size and (
                pairings.min() < 0 or pairings.max() >= 2 * n or (pairings == ends).any()
                or (np.take_along_axis(pairings, pairings, axis=1) != ends).any()):
            raise ValueError("pairings must be fixed-point-free involutions")
        coeffs = np.where(np.abs(coeffs) <= COEFF_EPS, 0, coeffs)
        keep = coeffs.any(axis=1)
        width = 1 + max(np.flatnonzero(coeffs.any(axis=0)), default=0)
        self.n = n
        self.pairings, self.coeffs = pairings[keep], coeffs[keep, :width]

    @staticmethod
    def identity(n: int) -> WbaDiagram:
        return from_permutation(Permutation.identity(n))

    def __add__(self, other: "WbaElement") -> "WbaElement":
        if self.n != other.n:
            raise ValueError("site count mismatch")
        width = max(self.coeffs.shape[1], other.coeffs.shape[1])
        coeffs = [np.pad(x.coeffs, ((0, 0), (0, width - x.coeffs.shape[1])))
                  for x in (self, other)]
        return WbaElement(self.n, *_reduce(np.concatenate([self.pairings, other.pairings]),
                                           np.concatenate(coeffs)))

    def scale(self, c: complex) -> "WbaElement":
        return WbaElement(self.n, self.pairings, self.coeffs * c)

    def __mul__(self, other: "WbaElement") -> "WbaElement":
        """Bilinear extension of diagram composition; loops become d powers."""
        if self.n != other.n:
            raise ValueError("site count mismatch")
        right = other.pairings.tolist()
        products = [_compose(a, b) for a in self.pairings.tolist() for b in right]
        pairings = np.array([pairing for pairing, _ in products], np.intp)
        loops = np.array([count for _, count in products], np.intp)
        # row (a, b) of the product: the polynomial product times d**loops
        pa, pb = self.coeffs.shape[1], other.coeffs.shape[1]
        terms = (self.coeffs[:, None, :, None] * other.coeffs[None, :, None, :]).reshape(
            -1, pa, pb)
        coeffs = np.zeros((len(terms), pa + pb - 1 + max(loops, default=0)), complex)
        rows = np.arange(len(terms))
        for p in range(pa):
            for q in range(pb):
                coeffs[rows, loops + p + q] += terms[:, p, q]
        return WbaElement(self.n, *_reduce(pairings.reshape(-1, 2 * self.n), coeffs))

    def approx_eq(self, other: "WbaElement", tol: float = COEFF_MATCH) -> bool:
        return bool((np.abs((self + other.scale(-1)).coeffs) <= tol).all())

    def __repr__(self):
        bits = []
        for text, row in zip(*_term_listing(self)):
            poly = " + ".join(f"({c:.6g})*d^{p}" for p, c in enumerate(row.tolist()) if c)
            bits.append(f"[{poly}] {text}")
        return "  +  ".join(bits) or "0"


class WbaDiagram(WbaElement):
    """One diagram: the one-term element of coefficient 1, a perfect matching
    on endpoints 0..2n-1 (0..n-1 top, n..2n-1 bot).

    ``pairing[e]`` is the partner of endpoint e; the matching is a
    fixed-point-free involution.  ``pairings`` is it as a read-only row;
    equality and hash go by (n, pairing).
    """

    __slots__ = ("pairing",)

    def __init__(self, n: int, pairing: tuple[int, ...]):
        if len(pairing) != 2 * n:
            raise ValueError("pairing must cover all 2n endpoints")
        for e, f in enumerate(pairing):
            if f == e or not 0 <= f < 2 * n or pairing[f] != e:
                raise ValueError(f"pairing is not a fixed-point-free involution: {pairing}")
        row = np.array([pairing], np.intp)
        row.setflags(write=False)
        self.n, self.pairing, self.pairings, self.coeffs = n, pairing, row, np.array([[1 + 0j]])

    def __eq__(self, other):
        return isinstance(other, WbaDiagram) and (self.n, self.pairing) == (other.n, other.pairing)

    def __hash__(self):
        return hash((self.n, self.pairing))

    def __str__(self) -> str:
        return diagram_to_text(self)


class GroupAlgebraElement(WbaElement):
    """sum_p terms[p] p in C[S_n] from {Permutation: coefficient}: no site transposed."""

    __slots__ = ()

    def __init__(self, terms: dict[Permutation, complex], n: int):
        if other := [p.n for p in terms if p.n != n]:
            raise ValueError(f"degree mismatch: element of S_{n}, term of S_{other[0]}")
        images = np.array([p.images for p in terms], np.intp).reshape(len(terms), n)
        super().__init__(n, *_permutation_terms(images, list(terms.values())))


def _permutation_terms(images: np.ndarray, coeffs) -> tuple[np.ndarray, np.ndarray]:
    """(pairings, coeffs) of sum_t coeffs[t] sigma_t, sigma_t the 1-based row t of images."""
    pairings = _transposed_matchings(images, np.zeros(images.shape, bool))
    return pairings, np.asarray(coeffs, dtype=complex)[:, None]


# ---------------------------------------------------------------------------
# realization, dense or into the weight-sector rows
# ---------------------------------------------------------------------------

# unit entries realize scatters per step, so that its chunk arrays (the flat
# index, the entries, whose buffer first takes the float64 row indices, and
# for the sector rows the float64 column indices) hold 24 bytes an entry,
# 1.5 MiB; and the entries of the pairing rows the text pass writes per
# step: bounds their index arrays and byte rows
_SCATTER_ENTRIES = 1 << 16


def _pair_weights(pairings: np.ndarray, d: int, top: int, bot: int) -> np.ndarray:
    """(T, n) float64 weights of each diagram's n pairs (rows of 2n
    endpoints) in the index top * row + bot * column of its unit entries.

    Entry <i|D|j> is 1 iff the 2n indices agree along every matched pair; a
    pair's value enters the row index at its top endpoints and the column
    index at its bot endpoints, with the big-endian weight of the site.  So
    with the (n, d**n) base-d digits V of every joint value of the pairs
    (_pair_values), weights @ V lists that index for the d**n distinct unit
    entries of each diagram: float64 products that are exact, every index
    being below d**(2n) <= SIZE_GUARD**2 = 2**24."""
    n = pairings.shape[1] // 2
    place = d ** np.arange(n - 1, -1, -1.0)
    weight = np.concatenate([top * place, bot * place])     # of each endpoint
    lower = pairings > np.arange(2 * n)      # each pair by its lower endpoint
    return (weight + weight[pairings])[lower].reshape(len(pairings), n)


def _unit_entries(pairings: np.ndarray, d: int) -> np.ndarray:
    """(T, d**n) flat indices row * d**n + column of the unit entries of
    each diagram of ``pairings``, in the order of _pair_values."""
    n = pairings.shape[1] // 2
    return (_pair_weights(pairings, d, d ** n, 1) @ _pair_values(n, d)).astype(np.intp)


@lru_cache(maxsize=8)
def _pair_values(n: int, d: int) -> np.ndarray:
    """(n, d**n) float64, read only: column v holds the n base-d digits of
    v, first site first (cached: at most 12 x 4096 entries each)."""
    digits = np.indices((d,) * n, dtype=float).reshape(n, d ** n)
    digits.setflags(write=False)
    return digits


def _realizable(x, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The (T, 2n) pairings of x's terms and their complex coefficients at
    d, after the checks: a permutation is its diagram, the element of one
    term of coefficient 1."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if isinstance(x, Permutation):
        x = from_permutation(x)
    if not isinstance(x, WbaElement):
        raise TypeError(f"cannot realize object of type {type(x).__name__}")
    check_size_guard(x.n, d)
    values = x.coeffs[:, 0]
    for p in range(1, x.coeffs.shape[1]):
        values = values + x.coeffs[:, p] * d ** p
    return x.pairings, values


def _scatter(pairings: np.ndarray, values: np.ndarray, d: int, acc: np.ndarray,
             layout=None) -> None:
    """Add the unit entries of the diagrams ``pairings`` times ``values``
    into the flat array ``acc``, complex or float64 (real values): the
    d**n x d**n matrix, or with a ``layout`` the rows of
    dense_ops.SectorOperator.  Entry (i, j) goes to i * d**n + j, or to
    i * width + (j's place in its sector): one np.add.at a chunk, in term
    order, so each entry sums its terms in term order whichever the target,
    and a sector row's entries are the matrix's bit for bit.  The rows take
    only walled diagrams, whose entries all lie within the sectors: a
    diagram with a pair whose two ends change the weight is a ValueError
    that names it."""
    if acc.dtype == float:
        values = values.real
    n = pairings.shape[1] // 2
    dim = d ** n
    digits = _pair_values(n, d)
    step = max(1, _SCATTER_ENTRIES // dim)
    shape = (min(step, len(values)), dim)
    index, entries = np.empty(shape, np.intp), np.empty(shape, acc.dtype)
    rows = entries.view(float).reshape(-1)      # a chunk's row indices, before its entries
    if layout is not None:
        cols = np.empty(shape)
        width, place = layout.members.shape[1], layout.position.astype(float)
        charge = np.where(np.arange(2 * n) < n, 1, -1) * np.tile(np.where(layout.plain, 1, -1), 2)
    for start in range(0, len(values), step):
        terms = pairings[start:start + step]
        row, at = rows[:len(terms) * dim].reshape(-1, dim), index[:len(terms)]
        if layout is None:
            np.matmul(_pair_weights(terms, d, dim, 1), digits, out=row)
        else:
            unwalled = np.flatnonzero((charge[terms] + charge).any(axis=1))
            if len(unwalled):
                raise ValueError(f"the diagram {_diagram_texts(terms[unwalled[:1]])[0]} is not "
                                 f"walled for k = {np.count_nonzero(~layout.plain)}")
            np.matmul(_pair_weights(terms, d, width, 0), digits, out=row)
            col = cols[:len(terms)]
            np.matmul(_pair_weights(terms, d, 0, 1), digits, out=col)
            np.copyto(at, col, casting="unsafe")
            np.take(place, at, out=col, mode="clip")
            row += col
        np.copyto(at, row, casting="unsafe")
        chunk = entries[:len(terms)]
        chunk[:] = values[start:start + step, None]
        # np.add.at adds in index order; flat index and value arrays keep it
        # on its fast path
        np.add.at(acc, at.reshape(-1), chunk.reshape(-1))


def realize(x, d: int) -> np.ndarray:
    """Dense complex matrix on (C^d)^{tensor n} for an element (a diagram is
    one) or a permutation.  Guarded by check_size_guard."""
    pairings, values = _realizable(x, d)
    dim = d ** (pairings.shape[1] // 2)
    out = np.zeros((dim, dim), dtype=complex)
    _scatter(pairings, values, d, out.reshape(-1))
    return out


def list_entries(x, d: int) -> ListedOperator:
    """The nonzero entries of realize(x, d) with no d^n x d^n array: its
    _support bit for bit, T * d^n indices for T terms."""
    pairings, values = _realizable(x, d)
    return _sum_entries(pairings.shape[1] // 2, d, *_entry_index(pairings, d), values)


def _entry_index(pairings: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct flat indices row * d^n + column of the unit
    entries of the diagrams ``pairings`` (T, 2n), and the places (T * d^n,)
    of each term's among them.  check_size_guard keeps the indices exact."""
    check_size_guard(pairings.shape[1] // 2, d)
    entries, where = np.unique(_unit_entries(pairings, d), return_inverse=True)
    return entries, where.reshape(-1)


def _sum_entries(n: int, d: int, entries, where, values: np.ndarray) -> ListedOperator:
    """The ListedOperator sum_t values[..., t] D_t, D_t the diagrams of
    _entry_index's (entries, where), complex ``values`` (..., T) with the
    stack axes in front: one np.add.at from zero sums each entry's terms in
    term order, as realize's scatter does, less entries zero in every member."""
    size, members = len(entries), prod(values.shape[:-1])
    sums = np.zeros(values.shape[:-1] + (size,), dtype=complex)
    # np.add.at adds in index order; a flat index keeps it on its fast path
    index = where if members == 1 else (np.arange(members)[:, None] * size + where).reshape(-1)
    np.add.at(sums.reshape(-1), index, np.repeat(values.reshape(-1), d ** n))
    keep = sums.reshape(members, size).any(axis=0)
    return ListedOperator(n, d, *np.divmod(entries[keep], d ** n), sums[..., keep])


def list_permutations(images: np.ndarray, mask: np.ndarray, d: int) -> ListedOperator:
    """The diagrams sigma^{T_S} of the rows of ``images`` (the 1-based
    images of sigma) and ``mask`` (S, a boolean row each), listed at once
    as a stack with one member a row: rows and columns of shape (members,
    d^n), each member its own d^n unit entries in row-major order, every
    value 1.  A diagram's unit entries are distinct, so each member is
    list_entries(from_permutation(sigma, S), d) bit for bit, sorted, not
    summed.  Guarded by check_size_guard, as list_entries is."""
    images = np.asarray(images, np.intp)
    n = images.shape[1]
    if d < 1:
        raise ValueError("d must be >= 1")
    check_size_guard(n, d)
    flat = np.sort(_unit_entries(_transposed_matchings(images, np.asarray(mask, bool)), d))
    return ListedOperator(n, d, *np.divmod(flat, d ** n), np.ones(flat.shape, complex))


def realize_sectors(x, d: int, k: int) -> SectorOperator:
    """x realized as float64 into its weight-sector rows for U on the first
    n - k sites (x) conj(U) on the last k (dense_ops.SectorOperator, whose
    sector_layout is keyed by those k): realize's scatter, no d^n x d^n
    array.  Each stored entry is the real part of realize's bit for bit.
    Every diagram of x must be walled for k, as those of every F_mu(alpha)
    are, so nothing lies between two sectors and the rows hold all of x.
    A diagram that is not walled (the first is named) or a non-real
    coefficient, or a k outside 0..n, is a ValueError."""
    pairings, values = _realizable(x, d)
    if values.imag.any():
        raise ValueError("the element has a non-real coefficient")
    n = pairings.shape[1] // 2
    if not 0 <= k <= n:     # the range below would read a negative k as 0
        raise ValueError(f"need 0 <= k <= n = {n}, got k = {k}")
    conjugated = tuple(range(n - k + 1, n + 1))
    layout = sector_layout(n, d, conjugated)
    rows = np.zeros((d ** n + 1, layout.members.shape[1]))
    _scatter(pairings, values, d, rows.reshape(-1), layout)
    return SectorOperator(n, d, conjugated, rows)


# ---------------------------------------------------------------------------
# the distinguished generator sigma^(k) and the projectors F_mu(alpha)
# ---------------------------------------------------------------------------

def sigma_diagram(n: int, k: int) -> WbaDiagram:
    """sigma^(k) = (n-2k+1,n)^{T_n} (n-2k+2,n-1)^{T_{n-1}} ...: k disjoint
    cup/cap pairs linking sites n-2k+j and n-j+1, the permutation of those k
    transpositions transposed on sites n-k+1..n."""
    if not n >= 2 * k >= 2:
        raise ValueError(f"need n >= 2k >= 2, got n={n}, k={k}")
    swaps = Permutation.from_cycles([(n - 2 * k + j, n - j + 1) for j in range(1, k + 1)], n)
    return from_permutation(swaps, range(n - k + 1, n + 1))


def gamma(mu: Partition, alpha: Partition, n: int, k: int, d: int) -> Fraction:
    """Normalization k! C(n-k,k) (m_mu/m_alpha) (d_alpha/d_mu) of F_mu(alpha)."""
    if alpha.n != n - 2 * k or mu.n != n - k:
        raise ValueError(
            f"need alpha |- n-2k and mu |- n-k, got |alpha|={alpha.n}, |mu|={mu.n}")
    if not mu.contains(alpha):
        raise ValueError(f"{mu} cannot be obtained from {alpha} by adding boxes")
    m_alpha = schur_weyl_multiplicity(alpha, d)
    m_mu = schur_weyl_multiplicity(mu, d)
    if m_alpha == 0:
        raise ValueError(f"irrep {alpha} not represented at d={d}")
    if m_mu == 0:
        raise ValueError(f"irrep {mu} not represented at d={d}")
    return (Fraction(factorial(k) * comb(n - k, k))
            * Fraction(m_mu, m_alpha)
            * Fraction(irrep_dimension(alpha), irrep_dimension(mu)))


def f_projector(mu: Partition, alpha: Partition, n: int, k: int, d: int) -> WbaElement:
    """Irreducible projector F_mu(alpha) of the walled Brauer algebra.

    F = (1/gamma) P_mu sum_eta eta^-1 (P_alpha (x) sigma^(k)) eta, with P_mu
    supported on sites 1..n-k, P_alpha on sites 1..n-2k, and eta running over
    a transversal of S(n-2k) in S(n-k).  Its dense realization is an
    orthogonal projector commuting with U^(n-k) (x) conj(U)^(k).

    P_mu is central in C[S(n-k)], so F = (1/gamma) sum_eta eta^-1 (P_mu
    P_alpha sigma) eta.  The group-algebra product is formed first, as the
    exact integer weights G[g] = sum_{pi rho = g} chi_mu(pi) chi_alpha(rho)
    on S(n-k), accumulated over blocks of pi in int64.  Each term eta^-1 g
    sigma eta is then sigma relabelled (top row by eta^-1 g, bottom row by
    eta^-1), which closes no loop; the terms come in order of eta, then g in
    lexicographic order.  Each diagram arises from one (eta, g): sigma's
    bottom caps {eta^-1(n-2k+j), n-j+1} fix eta's coset, and its top row then
    fixes g.  So there are |transversal| x |supp G| terms, refused past
    MAX_RELABEL_TERMS before the relabel, and each coefficient is the exact
    G[g] times the one rational (d_mu/(n-k)!) (d_alpha/(n-2k)!) / gamma,
    rounded to float once.
    """
    norm = gamma(mu, alpha, n, k, d)
    m = n - k
    reps = coset_representatives(n, k)
    pis, chi_mu = _characters(mu, m)
    rhos, chi_alpha = _characters(alpha, m)
    # G by the base-m number of g's images: m**m entries (6.6 MB at m = 7), one
    # dot product per key, and ascending keys are lexicographic images
    place = m ** np.arange(m - 1, -1, -1)
    weights = np.zeros(m ** m, np.int64)
    step = factorial(m) // len(rhos)    # a block has at most (n-k)! products
    for start in range(0, len(pis), step):
        products = pis[start:start + step][:, rhos]     # pi o rho, one row each
        np.add.at(weights, (products @ place).reshape(-1),
                  (chi_mu[start:start + step, None] * chi_alpha).reshape(-1))
    support = np.flatnonzero(weights)
    if len(reps) * len(support) > MAX_RELABEL_TERMS:
        raise ValueError(f"F_{mu}({alpha}) has {len(reps) * len(support)} terms, "
                         f"past the relabel bound {MAX_RELABEL_TERMS}")
    images = np.concatenate([support[:, None] // place % m,
                             np.broadcast_to(np.arange(m, n), (len(support), k))], axis=1)
    etas_inv = np.array([eta.extend(n).inverse().images for eta in reps]) - 1
    top = etas_inv[:, images]
    ends = np.concatenate([top, n + np.broadcast_to(etas_inv[:, None, :], top.shape)], axis=2)
    pairings = _relabel(sigma_diagram(n, k).pairings, ends.reshape(-1, 2 * n)).reshape(-1, 2 * n)
    scale = (Fraction(irrep_dimension(mu), factorial(mu.n))
             * Fraction(irrep_dimension(alpha), factorial(alpha.n)) / norm)
    num, den = scale.numerator, scale.denominator
    # int / int is correctly rounded: the one rounding of each exact
    # coefficient, the same in every coset block
    coeffs = np.tile([w * num / den for w in weights[support].tolist()], len(reps))
    return WbaElement(n, pairings, coeffs.astype(complex)[:, None])


# terms f_projector may relabel: every projector with n <= 10 fits (the largest,
# (10,3) [7]/[4], has 1,058,400 terms: 3.8 s and 0.9 GB for f_projector alone);
# the n = 11 and 12 ones past it have 2.8M to 12.7M terms
MAX_RELABEL_TERMS = 1_200_000


def _relabel(pairings: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Pairings (M, 2n) moved by endpoint maps (B, 2n): out[b, m] is the
    matching that joins ends[b, e] and ends[b, f] for every pair (e, f)."""
    moved = pairings[:, np.argsort(ends, axis=1)].swapaxes(0, 1)
    return np.take_along_axis(ends[:, None, :], moved, axis=2)


def _reduce(pairings: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(pairings, weights) with equal rows merged and their weights
    (coefficient rows) summed, in order of first appearance: the order in
    which a term-by-term product meets them, which fixes the summation order
    of ``realize``.  Rows are grouped by the lexicographic order of
    _term_listing; zero rows give zero rows."""
    order = np.lexsort(pairings.T[::-1])    # stable: equal rows in order of appearance
    rows = pairings[order]
    starts = np.flatnonzero(np.r_[len(rows) > 0, (rows[1:] != rows[:-1]).any(axis=1)])
    sums = np.add.reduceat(weights[order], starts)
    appearance = np.argsort(order[starts])
    return pairings[order[starts][appearance]], sums[appearance]


def admissible_pairs(n: int, k: int, d: int) -> list[tuple[Partition, Partition]]:
    """(alpha, mu) label pairs whose projector exists at local dimension d."""
    from .sym_core import additions_of_boxes, partitions

    out = []
    for alpha in partitions(n - 2 * k):
        if schur_weyl_multiplicity(alpha, d) == 0:
            continue
        for mu in additions_of_boxes(alpha, k):
            if schur_weyl_multiplicity(mu, d) > 0:
                out.append((alpha, mu))
    return out


# ---------------------------------------------------------------------------
# text and JSON forms
# ---------------------------------------------------------------------------

def _transposed_forms(pairings: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Canonical (sigma, S) with row == sigma^{T_S} for each row of
    ``pairings`` (T, 2n): the 1-based images (T, n) of sigma and the mask
    (T, n) of S (see _transposed_sites)."""
    mask = _transposed_sites(pairings)
    # the bot ends of the swapped matching meet the top ends sigma(t) - 1
    return _swap_transposed(pairings, mask)[:, mask.shape[1]:] + 1, mask


def _transposed_sites(pairings: np.ndarray) -> np.ndarray:
    """The mask (T, n) of the canonical S of each row of ``pairings`` (T, 2n).

    Every matching admits a form sigma^{T_S} (not uniquely).  A cap or cup
    (a pair within one row) puts exactly one of its two sites in S, a
    top-bot pair both or neither, so following the lines chains the sites
    into closed loops with two valid sides each.  S takes the smaller side
    of every loop, on a tie the side holding the loop's smallest site: the
    first valid S by size, then lexicographically.  n - 1 flat gathers walk
    all loops at once; every temporary is (T, n) or (T, 2n).
    """
    rows, two_n = pairings.shape
    n = two_n // 2
    # number the end of site s on side b (0 top, 1 bot) 2s + b.  The walk
    # leaves its start by the top end and a later site by the bot end exactly
    # where S differs from the start, so the smallest number it leaves by is
    # 2 * (smallest site met) + (S differs there)
    number = 2 * (np.arange(two_n) % n) + (np.arange(two_n) >= n)
    leave = np.empty_like(pairings)
    # reaching the partner f of an end, the walk leaves by f's other end
    leave[:, number] = number[(np.arange(two_n) + n) % two_n][pairings]
    flat = leave.ravel()
    base = np.arange(rows)[:, None] * two_n
    first = leaving = np.broadcast_to(2 * np.arange(n), (rows, n))
    for _ in range(n - 1):
        leaving = flat[base + leaving]
        first = np.minimum(first, leaving)
    loop = np.arange(rows)[:, None] * n + first // 2     # one id per (row, smallest site)
    far = first % 2 == 1    # the site lies on the other side from its loop's smallest
    size = np.bincount(loop.ravel(), minlength=rows * n)
    far_size = np.bincount(loop[far], minlength=rows * n)
    return far == (2 * far_size[loop] < size[loop])


def _swap_transposed(pairings: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Pairings (T, 2n) with top and bot endpoints swapped on the sites of
    each row's mask (T, n): sigma to sigma^{T_S}, and back."""
    rows, n = mask.shape
    ends = np.arange(2 * n)
    # the swap is an involution: e is joined to f iff swap(e) was joined to swap(f)
    swap = np.where(mask[:, ends % n], (ends + n) % (2 * n), ends)
    base = np.arange(rows)[:, None] * (2 * n)
    at = pairings.ravel()[swap + base]
    at += base
    return swap.ravel()[at]


def _transposed_matchings(images: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Pairings (T, 2n) of sigma^{T_S} from the 1-based images (T, n) of
    sigma and the mask (T, n) of S; the inverse of _transposed_forms."""
    n = images.shape[1]
    # top endpoint sigma(t) - 1 is joined to bot endpoint n + t - 1
    plain = np.concatenate([n + np.argsort(images, axis=1), images - 1], axis=1)
    return _swap_transposed(plain, mask)


def _diagram_texts(pairings: np.ndarray) -> list[str]:
    """Text of each row of ``pairings``: sigma in cycle notation, then
    ^T{S} when S is not empty.  The suffix is written into the byte rows of
    _text_rows from the mask, a chunk of _SCATTER_ENTRIES pairing entries at
    a time."""
    n = pairings.shape[1] // 2
    digits = _point_digits(n)
    size = digits.shape[1] + 1      # "," and the digits of one site
    chunk = max(1, _SCATTER_ENTRIES // (2 * n))
    texts = []
    for start in range(0, len(pairings), chunk):
        images, mask = _transposed_forms(pairings[start:start + chunk])
        rows = len(mask)
        tail = n * size + 4     # "^T{", the sites and "}"
        buf = _text_rows(images, tail)
        suffix = buf[:, -tail - 1:-1]
        sites = np.empty((rows, n, size), np.uint8)
        sites[..., 0] = np.where(mask.cumsum(axis=1) > 1, ord(","), 0)  # none before the first
        sites[..., 1:] = digits
        sites *= mask[..., None]
        transposed = mask.any(axis=1)
        suffix[transposed, :3] = np.frombuffer(b"^T{", np.uint8)
        suffix[:, 3:-1] = sites.reshape(rows, n * size)
        suffix[transposed, -1] = ord("}")
        texts += _row_texts(buf)
    return texts


def diagram_to_text(diag: WbaDiagram) -> str:
    return _diagram_texts(diag.pairings)[0]


def parse_diagram(text: str, n: int) -> WbaDiagram:
    """Parse "(1 2 3 4)^T{4}" style diagram text."""
    text = text.strip()
    transposed: frozenset[int] = frozenset()
    if "^T" in text:
        body, _, suffix = text.partition("^T")
        suffix = suffix.strip()
        if not (suffix.startswith("{") and suffix.endswith("}")):
            raise ValueError(f"bad transpose suffix in {text!r}")
        transposed = frozenset(parse_token(tok, "transposed site", text)
                               for tok in suffix[1:-1].split(",") if tok.strip())
        text = body.strip()
    return from_permutation(parse_permutation(text, n), transposed)


def _term_listing(x: WbaElement) -> tuple[list[str], np.ndarray]:
    """The diagram texts and the coefficient rows (T, P) of an element, rows
    in pairing (lexicographic) order: the text and JSON forms."""
    order = np.lexsort(x.pairings.T[::-1])
    return _diagram_texts(x.pairings[order]), x.coeffs[order]
