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

import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, factorial

import numpy as np

from .sym_core import (
    GroupAlgebraElement,
    Partition,
    Permutation,
    _characters,
    coset_representatives,
    cycle_texts,
    irrep_dimension,
    parse_permutation,
    schur_weyl_multiplicity,
)
from .tolerances import COEFF_EPS, COEFF_MATCH

DEFAULT_SIZE_GUARD = 4096


def check_size_guard(n: int, d: int) -> None:
    """Raise ValueError when d**n exceeds the dense-realization guard
    (DEFAULT_SIZE_GUARD; WBA_SIZE_GUARD overrides)."""
    guard = int(os.environ.get("WBA_SIZE_GUARD") or DEFAULT_SIZE_GUARD)
    if d ** n > guard:
        raise ValueError(f"d^n = {d ** n} exceeds the size guard {guard}")


# ---------------------------------------------------------------------------
# diagrams
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WbaDiagram:
    """Perfect matching on endpoints 0..2n-1 (0..n-1 top, n..2n-1 bot).

    ``pairing[e]`` is the partner of endpoint e; the matching is a
    fixed-point-free involution.
    """

    n: int
    pairing: tuple[int, ...]

    def __post_init__(self):
        if len(self.pairing) != 2 * self.n:
            raise ValueError("pairing must cover all 2n endpoints")
        for e, f in enumerate(self.pairing):
            if f == e or not 0 <= f < 2 * self.n or self.pairing[f] != e:
                raise ValueError(f"pairing is not a fixed-point-free involution: {self.pairing}")

    def __str__(self) -> str:
        return diagram_to_text(self)


def from_permutation(p: Permutation, transposed=frozenset()) -> WbaDiagram:
    """Diagram of p^{T_S}: the permutation matching with top/bot swapped on S."""
    n = p.n
    if any(not 1 <= s <= n for s in transposed):
        raise ValueError(f"transposed sites out of range 1..{n}: {sorted(transposed)}")
    mask = np.array([[site in transposed for site in range(1, n + 1)]])
    pairing = _transposed_matchings(np.array([p.images], np.intp), mask)[0]
    return WbaDiagram(n, tuple(pairing.tolist()))


def identity_diagram(n: int) -> WbaDiagram:
    return from_permutation(Permutation.identity(n))


def compose_diagrams(a: WbaDiagram, b: WbaDiagram) -> tuple[WbaDiagram, int]:
    """Diagram of a*b (b applied first) and the number of closed loops.

    a is stacked above b and a's bot row is glued to b's top row; paths
    between the outer rows give the matching of the product, and every
    closed loop in the glued middle contributes a factor d:
    realize(a) @ realize(b) == d**loops * realize(a*b).
    """
    if a.n != b.n:
        raise ValueError(f"site count mismatch: {a.n} vs {b.n}")
    n = a.n
    # vertex ids: 0..2n-1 = a's endpoints, 2n..4n-1 = b's endpoints
    match = list(a.pairing) + [2 * n + e for e in b.pairing]

    def glue(v: int):
        if n <= v < 2 * n:      # a-bot t  <->  b-top t
            return v + n
        if 2 * n <= v < 3 * n:
            return v - n
        return None

    def ext_id(v: int) -> int:  # a-top keeps its id, b-bot becomes result bot
        return v if v < n else v - 2 * n

    seen: set[int] = set()
    pairing = [0] * (2 * n)
    for v0 in list(range(n)) + list(range(3 * n, 4 * n)):
        if v0 in seen:
            continue
        seen.add(v0)
        cur = match[v0]
        seen.add(cur)
        while (g := glue(cur)) is not None:
            cur = g
            seen.add(cur)
            cur = match[cur]
            seen.add(cur)
        u, w = ext_id(v0), ext_id(cur)
        pairing[u], pairing[w] = w, u

    loops = 0
    visited: set[int] = set()
    for v0 in range(n, 3 * n):
        if v0 in seen or v0 in visited:
            continue
        loops += 1
        cur = v0
        while cur not in visited:
            visited.add(cur)
            partner = match[cur]
            visited.add(partner)
            cur = glue(partner)
    return WbaDiagram(n, tuple(pairing)), loops


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------

class WbaElement:
    """Formal combination of diagrams with coefficients in C[d], as arrays.

    Row t of ``pairings`` (T, 2n) is a matching laid out as
    ``WbaDiagram.pairing``; row t of ``coeffs`` (T, P) is its coefficient,
    column p multiplying d**p.  The constructor merges equal rows, summing
    their coefficients, keeps the rows in order of first appearance, and
    drops coefficients of magnitude at most COEFF_EPS and rows left zero.
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
        if len(pairings):
            if (pairings.min() < 0 or pairings.max() >= 2 * n or (pairings == ends).any()
                    or (np.take_along_axis(pairings, pairings, axis=1) != ends).any()):
                raise ValueError("pairings must be fixed-point-free involutions")
            _, pairings, coeffs = _reduce(_matching_key(pairings), pairings, coeffs)
            coeffs[np.abs(coeffs) <= COEFF_EPS] = 0
        keep = coeffs.any(axis=1)
        width = 1 + max(np.flatnonzero(coeffs.any(axis=0)), default=0)
        self.n = n
        self.pairings, self.coeffs = pairings[keep], coeffs[keep, :width]

    @staticmethod
    def from_diagram(diag: WbaDiagram, coeff: complex = 1.0) -> "WbaElement":
        return WbaElement(diag.n, [diag.pairing], [[coeff]])

    @staticmethod
    def from_permutation(p: Permutation, transposed=frozenset(), coeff: complex = 1.0) -> "WbaElement":
        return WbaElement.from_diagram(from_permutation(p, transposed), coeff)

    @staticmethod
    def from_group_algebra(x: GroupAlgebraElement, n: int | None = None) -> "WbaElement":
        n = n if n is not None else x.n
        lifted = x.extend(n) if n > x.n else x
        images = np.array([p.images for p in lifted.terms], np.intp).reshape(-1, lifted.n)
        pairings = _transposed_matchings(images, np.zeros(images.shape, bool))
        return WbaElement(n, pairings, np.array(list(lifted.terms.values()))[:, None])

    @staticmethod
    def identity(n: int) -> "WbaElement":
        return WbaElement.from_diagram(identity_diagram(n))

    def diagrams(self) -> list[WbaDiagram]:
        """The matching of each row, as validated diagrams."""
        return [WbaDiagram(self.n, tuple(p)) for p in self.pairings.tolist()]

    def __add__(self, other: "WbaElement") -> "WbaElement":
        if self.n != other.n:
            raise ValueError("site count mismatch")
        width = max(self.coeffs.shape[1], other.coeffs.shape[1])
        coeffs = [np.pad(x.coeffs, ((0, 0), (0, width - x.coeffs.shape[1])))
                  for x in (self, other)]
        return WbaElement(self.n, np.concatenate([self.pairings, other.pairings]),
                          np.concatenate(coeffs))

    def scale(self, c: complex) -> "WbaElement":
        return WbaElement(self.n, self.pairings, self.coeffs * c)

    def __mul__(self, other: "WbaElement") -> "WbaElement":
        """Bilinear extension of diagram composition; loops become d powers."""
        if self.n != other.n:
            raise ValueError("site count mismatch")
        products = [compose_diagrams(a, b) for a in self.diagrams() for b in other.diagrams()]
        pairings = np.array([diag.pairing for diag, _ in products], np.intp)
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
        return WbaElement(self.n, pairings.reshape(-1, 2 * self.n), coeffs)

    def approx_eq(self, other: "WbaElement") -> bool:
        return bool((np.abs((self + other.scale(-1)).coeffs) <= COEFF_MATCH).all())

    def __repr__(self):
        if not len(self.pairings):
            return "0"
        order = np.lexsort(self.pairings.T[::-1])
        bits = []
        for text, row in zip(_diagram_texts(self.pairings[order]), self.coeffs[order]):
            poly = " + ".join(f"({c:.6g})*d^{p}" for p, c in enumerate(row) if c)
            bits.append(f"[{poly}] {text}")
        return "  +  ".join(bits)


# ---------------------------------------------------------------------------
# dense realization
# ---------------------------------------------------------------------------

# unit entries realize scatters per step: bounds its index arrays
_SCATTER_ENTRIES = 1 << 16


def _flat_positions(pairings: np.ndarray, d: int) -> np.ndarray:
    """(T, d**n) flat positions in the d**n x d**n matrix of the unit
    entries of each diagram (rows of 2n endpoints).

    Entry <i|D|j> is 1 iff the 2n indices agree along every matched pair; a
    pair's value enters the row index at its top endpoints and the column
    index at its bot endpoints, with the big-endian weight of the site.
    Column v of ``values`` holds the n base-d digits of v: every joint value
    of the n pairs once, so the d**n positions of a diagram are distinct.
    """
    n = pairings.shape[1] // 2
    place = d ** np.arange(n - 1, -1, -1)
    weight = np.concatenate([place * d ** n, place])    # of each endpoint
    rows, lower = np.nonzero(pairings > np.arange(2 * n))
    pair_weight = (weight[lower] + weight[pairings[rows, lower]]).reshape(-1, n)
    values = np.arange(d ** n) // place[:, None] % d
    return pair_weight @ values


def realize(x, d: int) -> np.ndarray:
    """Dense matrix on (C^d)^{tensor n} for a diagram, element, permutation,
    or group-algebra element.  Guarded by check_size_guard."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if isinstance(x, Permutation):
        x = from_permutation(x)
    if isinstance(x, GroupAlgebraElement):
        x = WbaElement.from_group_algebra(x)
    if not isinstance(x, (WbaDiagram, WbaElement)):
        raise TypeError(f"cannot realize object of type {type(x).__name__}")
    check_size_guard(x.n, d)
    dim = d ** x.n
    out = np.zeros((dim, dim), dtype=complex)
    flat = out.reshape(-1)
    if isinstance(x, WbaDiagram):
        flat[_flat_positions(np.array([x.pairing]), d)] = 1
        return out
    values = x.coeffs[:, 0]
    for p in range(1, x.coeffs.shape[1]):
        values = values + x.coeffs[:, p] * d ** p
    step = max(1, _SCATTER_ENTRIES // dim)
    for start in range(0, len(values), step):
        # np.add.at adds in index order: each entry sums its terms in term order
        np.add.at(flat, _flat_positions(x.pairings[start:start + step], d),
                  values[start:start + step, None])
    return out


# ---------------------------------------------------------------------------
# the distinguished generator sigma^(k) and the projectors F_mu(alpha)
# ---------------------------------------------------------------------------

def sigma_diagram(n: int, k: int) -> WbaDiagram:
    """Product of k disjoint cup/cap pairs linking sites n-2k+j and n-j+1:
    the permutation of those k transpositions, transposed on sites n-k+1..n."""
    if not n >= 2 * k >= 2:
        raise ValueError(f"need n >= 2k >= 2, got n={n}, k={k}")
    swaps = Permutation.from_cycles([(n - 2 * k + j, n - j + 1) for j in range(1, k + 1)], n)
    return from_permutation(swaps, range(n - k + 1, n + 1))


def sigma_k(n: int, k: int) -> WbaElement:
    """(n-2k+1,n)^{T_n} (n-2k+2,n-1)^{T_{n-1}} ... as a one-diagram element."""
    return WbaElement.from_diagram(sigma_diagram(n, k))


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
    lexicographic order.  Weights are summed exactly per diagram and
    multiplied by the one rational (d_mu/(n-k)!) (d_alpha/(n-2k)!) / gamma,
    rounded to float once per term.
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
    images = np.concatenate([support[:, None] // place % m,
                             np.broadcast_to(np.arange(m, n), (len(support), k))], axis=1)
    etas_inv = np.array([eta.extend(n).inverse().images for eta in reps]) - 1
    top = etas_inv[:, images]
    ends = np.concatenate([top, n + np.broadcast_to(etas_inv[:, None, :], top.shape)], axis=2)
    sigma = np.array(sigma_diagram(n, k).pairing)[None, :]
    pairings = _relabel(sigma, ends.reshape(-1, 2 * n)).reshape(-1, 2 * n)
    _, pairings, weights = _reduce(_matching_key(pairings), pairings,
                                   np.tile(weights[support], len(reps)))
    scale = (Fraction(irrep_dimension(mu), factorial(mu.n))
             * Fraction(irrep_dimension(alpha), factorial(alpha.n)) / norm)
    # int / int is correctly rounded: the one rounding of each exact coefficient
    coeffs = [w * scale.numerator / scale.denominator for w in weights.tolist()]
    return WbaElement(n, pairings, np.array(coeffs, dtype=complex)[:, None])


def _relabel(pairings: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Pairings (M, 2n) moved by endpoint maps (B, 2n): out[b, m] is the
    matching that joins ends[b, e] and ends[b, f] for every pair (e, f)."""
    moved = pairings[:, np.argsort(ends, axis=1)].swapaxes(0, 1)
    return np.take_along_axis(ends[:, None, :], moved, axis=2)


def _matching_key(pairings: np.ndarray) -> np.ndarray:
    """Injective int64 rank of each matching (rows of 2n endpoints).

    Pairs are taken in order of their lower endpoint; pair i contributes the
    position of its upper endpoint among the 2n-2i-1 endpoints still free
    besides the lower one, as the digit of radix 2n-2i-1.  The largest rank,
    (2n-1)!! - 1, stays below 2**63 up to n = 17; f_projector needs n <= 14.
    """
    two_n = pairings.shape[1]
    n = two_n // 2
    upper = pairings[pairings > np.arange(two_n)].reshape(-1, n)
    digits = upper - np.arange(1, n + 1)
    for i in range(n - 1):      # discount the upper ends of earlier pairs
        digits[:, i + 1:] -= upper[:, i + 1:] > upper[:, i:i + 1]
    radices = np.arange(two_n - 1, 0, -2, dtype=np.int64)
    place = np.append(np.cumprod(radices[:0:-1])[::-1], 1)
    return digits @ place


def _reduce(keys: np.ndarray, pairings: np.ndarray,
            weights: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(keys, pairings, weights) with equal keys merged and their weights
    (integers, or coefficient rows) summed, in order of first appearance: the
    order in which a term-by-term product meets them, which fixes the
    summation order of ``realize``."""
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    starts = np.flatnonzero(np.r_[True, sorted_keys[1:] != sorted_keys[:-1]])
    sums = np.add.reduceat(weights[order], starts)
    appearance = np.argsort(order[starts])
    kept = order[starts][appearance]
    return keys[kept], pairings[kept], sums[appearance]


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
    (T, n) of S.

    Every matching admits such a form (not uniquely).  Subsets are walked by
    size, then lexicographically, each tested on all rows still unresolved
    at once, and the first valid one wins; the walk stops when every row is
    resolved.  Every temporary is at most (T, 2n).
    """
    two_n = pairings.shape[1]
    n = two_n // 2
    ends = np.arange(two_n)
    rows, lower = np.nonzero(pairings > ends)
    upper = pairings[rows, lower].reshape(-1, n)
    lower = lower.reshape(-1, n)
    # swapping ends on S turns pair (e, f) into a top-bot pair iff
    # (e < n) ^ (f < n) ^ S[e % n] ^ S[f % n]
    across, lower_site, upper_site = (lower < n) ^ (upper < n), lower % n, upper % n
    mask = np.zeros((len(pairings), n), bool)
    unresolved = np.arange(len(pairings))
    subsets = (c for size in range(n + 1) for c in combinations(range(n), size))
    for subset in subsets:
        if not len(unresolved):
            break
        s = np.zeros(n, bool)
        s[list(subset)] = True
        ok = (across ^ s[lower_site] ^ s[upper_site]).all(axis=1)
        if ok.any():
            mask[unresolved[ok]] = s
            unresolved, across, lower_site, upper_site = (
                a[~ok] for a in (unresolved, across, lower_site, upper_site))
    # the bot ends of the swapped matching meet the top ends sigma(t) - 1
    return _swap_transposed(pairings, mask)[:, n:] + 1, mask


def _swap_transposed(pairings: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Pairings (T, 2n) with top and bot endpoints swapped on the sites of
    each row's mask (T, n): sigma to sigma^{T_S}, and back."""
    n = mask.shape[1]
    ends = np.arange(2 * n)
    # the swap is an involution: e is joined to f iff swap(e) was joined to swap(f)
    swap = np.where(mask[:, ends % n], (ends + n) % (2 * n), ends)
    return np.take_along_axis(swap, np.take_along_axis(pairings, swap, axis=1), axis=1)


def _transposed_matchings(images: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Pairings (T, 2n) of sigma^{T_S} from the 1-based images (T, n) of
    sigma and the mask (T, n) of S; the inverse of _transposed_forms."""
    n = images.shape[1]
    # top endpoint sigma(t) - 1 is joined to bot endpoint n + t - 1
    plain = np.concatenate([n + np.argsort(images, axis=1), images - 1], axis=1)
    return _swap_transposed(plain, mask)


def _diagram_texts(pairings: np.ndarray) -> list[str]:
    """Text of each row of ``pairings``: sigma in cycle notation, then
    ^T{S} when S is not empty."""
    images, mask = _transposed_forms(pairings)
    texts = []
    for text, transposed in zip(cycle_texts(images.tolist()), mask.tolist()):
        sites = [str(site) for site, on in enumerate(transposed, start=1) if on]
        texts.append(text + "^T{" + ",".join(sites) + "}" if sites else text)
    return texts


def diagram_to_text(diag: WbaDiagram) -> str:
    return _diagram_texts(np.array([diag.pairing]))[0]


def parse_diagram(text: str, n: int) -> WbaDiagram:
    """Parse "(1 2 3 4)^T{4}" style diagram text."""
    text = text.strip()
    transposed: frozenset[int] = frozenset()
    if "^T" in text:
        body, _, suffix = text.partition("^T")
        suffix = suffix.strip()
        if not (suffix.startswith("{") and suffix.endswith("}")):
            raise ValueError(f"bad transpose suffix in {text!r}")
        transposed = frozenset(int(tok) for tok in suffix[1:-1].split(",") if tok.strip())
        text = body.strip()
    return from_permutation(parse_permutation(text, n), transposed)


def _element_record(x: WbaElement) -> dict:
    """{"n", "terms"} of an element, rows in pairing order: the JSON form."""
    order = np.lexsort(x.pairings.T[::-1])
    entries = []
    for text, row in zip(_diagram_texts(x.pairings[order]), x.coeffs[order].tolist()):
        coeff = [{"power": p, "re": c.real, "im": c.imag} for p, c in enumerate(row) if c]
        entries.append({"diagram": text, "coeff": coeff})
    return {"n": x.n, "terms": entries}
