"""Positivity and block-positivity machinery on three tensor factors.

Covers the Bardet-Collins-Sapra kernel and its witness region, the
Eggeling-Werner parametrization of U (x) U (x) U - invariant states with the
analytic conditions for positivity of the partial transpose, the twelve
closed-form maps obtained by tracing such states against one or two inputs,
and a see-saw search for the minimum of a hermitian form over product states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import lru_cache

import numpy as np

from . import dense_ops
from .dense_ops import DenseOperator, ListedOperator
from .multilinear_maps import MapSpec, evaluate_oracle
from .sym_core import parse_token
from .tolerances import EIG_TOL, GRAM_CUT, PPT_SLACK, PRODUCT_BAND, SEESAW_STOP, STATE_SLACK
from .verification import stack_sizes
from .wba_algebra import (
    _compose,
    _entry_index,
    _sum_entries,
    _transposed_matchings,
    check_size_guard,
)

PSD = "PSD"
WITNESS_CANDIDATE = "WITNESS_CANDIDATE"
NOT_BLOCK_POSITIVE = "NOT_BLOCK_POSITIVE"
INCONCLUSIVE = "INCONCLUSIVE"


# ---------------------------------------------------------------------------
# Werner parameters: alpha (permutation basis), c (R_k basis), r (expectations)
# ---------------------------------------------------------------------------

def cs_from_rs(rs, d: int):
    """Invert r_k = tr(rho R_k); needs d >= 3 so no R_k vanishes."""
    if d < 3:
        raise ValueError("the r <-> c conversion needs d >= 3")
    rp, rm, r0, r1, r2, r3 = rs
    return (
        6.0 * rp / (d * (d * d + 3 * d + 2)),
        6.0 * rm / (d * (d * d - 3 * d + 2)),
        3.0 * r0 / (2 * d * (d * d - 1)),
        3.0 * r1 / (2 * d * (d * d - 1)),
        3.0 * r2 / (2 * d * (d * d - 1)),
        3.0 * r3 / (2 * d * (d * d - 1)),
    )


def alphas_from_cs(cs):
    """Expand sum_k c_k R_k in the permutation basis: complex numbers for
    floats, complex arrays for arrays of one stack shape.

    The (1 2) coefficient is c+/6 - c-/6 - c1/3 + c2/sqrt(3): R_1 contributes
    -c1/3 and R_2 contributes +c2/sqrt(3) there, mirroring the (3 1)
    coefficient up to the sign of c2.  The imaginary part is i (c3/sqrt(3)),
    so floats and arrays round alike (numpy divides a complex number by a
    real one through its reciprocal).
    """
    cp, cm, c0, c1, c2, c3 = cs
    s3 = math.sqrt(3.0)
    ic3 = 1j * (c3 / s3)
    alphas = (
        cp / 6 + cm / 6 + 2 * c0 / 3,
        cp / 6 - cm / 6 - c1 / 3 + c2 / s3,
        cp / 6 - cm / 6 + 2 * c1 / 3,
        cp / 6 - cm / 6 - c1 / 3 - c2 / s3,
        cp / 6 + cm / 6 - c0 / 3 + ic3,
        cp / 6 + cm / 6 - c0 / 3 - ic3,
    )
    return tuple(np.asarray(a, dtype=complex) if isinstance(a, np.ndarray) else complex(a)
                 for a in alphas)


@dataclass(frozen=True)
class WernerParams:
    """A U (x) U (x) U - invariant operator by its expectations r_k =
    tr(rho R_k) and d >= 3.  Its coefficients on the six permutations,
    ``alphas``, are derived from them once, through the R_k coefficients
    (cs_from_rs, then alphas_from_cs), so the two sets always describe one
    operator.  Stacked parameters hold (T, 1, 1) arrays, from which
    werner_state and the maps give stacks of T."""

    rs: tuple[float, ...]
    d: int
    alphas: tuple[complex, ...] = field(init=False)

    def __post_init__(self):
        rs = tuple(r if isinstance(r, np.ndarray) else float(r) for r in self.rs)
        object.__setattr__(self, "rs", rs)
        object.__setattr__(self, "alphas", alphas_from_cs(cs_from_rs(rs, self.d)))

    @staticmethod
    def from_rs(rs, d: int) -> "WernerParams":
        """WernerParams(rs, d), under the name the existing callers use."""
        return WernerParams(rs, d)

    def is_valid_state(self) -> bool:
        rp, rm, r0, r1, r2, r3 = self.rs
        return (rp >= -STATE_SLACK and rm >= -STATE_SLACK and r0 >= -STATE_SLACK
                and abs(rp + rm + r0 - 1.0) <= STATE_SLACK
                and r1 * r1 + r2 * r2 + r3 * r3 <= r0 * r0 + STATE_SLACK)


def _werner_draw(rng: np.random.Generator):
    """The generator calls of one valid parameter vector: simplex weights for
    (r+, r-, r0), a unit direction and the cube root of a uniform number."""
    simplex = rng.dirichlet((1.0, 1.0, 1.0))
    direction = rng.standard_normal(3)
    direction /= np.linalg.norm(direction)
    return simplex, direction, rng.random() ** (1.0 / 3.0)


def _rs_from_draw(simplex, direction, root) -> tuple:
    """(r+, r-, r0) the simplex weights and (r1, r2, r3) the point r0 * root
    * direction of the radius-r0 ball; draws may be stacked on leading axes."""
    radius = simplex[..., 2] * root
    return (*np.moveaxis(simplex, -1, 0), *np.moveaxis(radius[..., None] * direction, -1, 0))


def random_valid_werner(rng: np.random.Generator, d: int = 3) -> WernerParams:
    """Uniform-ish sample of a valid parameter vector: simplex weights for
    (r+, r-, r0) and a uniform point of the radius-r0 ball for (r1, r2, r3)."""
    return WernerParams.from_rs(_rs_from_draw(*_werner_draw(rng)), d)


def random_werner_instances(rng: np.random.Generator, d: int, count: int):
    """count draws of random_valid_werner and two random_matrix inputs, the
    same stream and bits, as stacked parameters and two (count, d, d) input
    stacks.  Each instance makes four generator calls: the exponentials
    that dirichlet((1, 1, 1)) reads, the direction's normals, the uniform
    number, whose cube root is taken as a Python float as _werner_draw
    takes it, and the inputs' normals.  The rest runs once on the arrays:
    dirichlet's scaling by the reciprocal of the left-to-right sum, and the
    direction's norm by the dot product np.linalg.norm takes."""
    draws = [(rng.standard_exponential(3), rng.standard_normal(3),
              rng.random() ** (1.0 / 3.0), rng.standard_normal((2, 2, d, d)))
             for _ in range(count)]
    weights, direction, root, z = (np.array(x) for x in zip(*draws))
    simplex = weights * (1.0 / (weights[:, 0] + weights[:, 1] + weights[:, 2]))[:, None]
    direction /= np.sqrt(direction[:, None, :] @ direction[:, :, None])[:, 0]
    rs = _rs_from_draw(simplex, direction, root)
    params = WernerParams.from_rs([r[:, None, None] for r in rs], d)
    a, b = dense_ops.complex_gaussian(z).swapaxes(0, 1)
    return params, a, b


# the terms by their 1-based images: the Werner state's in the order of
# WernerParams.alphas, the BCS kernel's (1 2), (3 1), id, (2 3)
WERNER_TERMS = ((1, 2, 3), (2, 1, 3), (1, 3, 2), (3, 2, 1), (2, 3, 1), (3, 1, 2))
BCS_TERMS = ((2, 1, 3), (3, 2, 1), (1, 2, 3), (1, 3, 2))


@lru_cache(maxsize=8)
def _term_index(terms: tuple, s: tuple[int, ...], d: int):
    """wba_algebra._entry_index of the terms' sigma^{T_S}, read only: the
    Werner state, its six rho^{T_S} and the BCS kernel at one d."""
    mask = np.array([[site in s for site in (1, 2, 3)]] * len(terms))
    index = _entry_index(_transposed_matchings(np.array(terms), mask), d)
    for array in index:
        array.flags.writeable = False
    return index


def _coefficient_rows(coeffs) -> np.ndarray:
    """The coefficients of a sum of terms as complex rows, a column a term:
    scalars give one row (T,), (S, 1, 1) arrays among them a stack (S, T),
    the scalars broadcast."""
    if not any(isinstance(c, np.ndarray) for c in coeffs):
        return np.array(coeffs, dtype=complex)
    values = np.empty(np.broadcast(*coeffs).shape + (len(coeffs),), complex)
    for t, c in enumerate(coeffs):
        values[..., t] = c
    return values[..., 0, 0, :]


def _listed(terms: tuple, s: tuple[int, ...], coeffs, d: int) -> ListedOperator:
    """sum_t coeffs[t] terms[t]^{T_S} by its listed entries, each summed in
    term order (wba_algebra._sum_entries): scalar coefficients give one
    operator, (T, 1, 1) arrays among them a stack of T."""
    return _sum_entries(3, d, *_term_index(terms, s, d), _coefficient_rows(coeffs))


def _dense(listed: ListedOperator) -> DenseOperator:
    """The listed operator, or stack, written into d^3 x d^3 matrices."""
    mat = np.zeros(listed.values.shape[:-1] + (listed.d ** 3,) * 2, dtype=complex)
    mat[..., listed.rows, listed.cols] = listed.values
    return DenseOperator(3, listed.d, mat)


@lru_cache(maxsize=2)
def _trace_exponents(s: tuple[int, ...]) -> np.ndarray:
    """(6, 6, 6) integers, read only: tr(D_c^dagger D_a D_b) = d**E[a, c, b]
    for the six diagrams D_a = sigma_a^{T_S}, sigma_a in the order of
    WERNER_TERMS: the group algebra C[S_3] for S = () and the walled Brauer
    algebra B_{2,1} for S = (3,).  Free of d, from 36 compositions
    (wba_algebra._compose): D_a D_b = d**loops D_e, D_c^dagger is the
    diagram of sigma_c^-1, and tr D_e = d**(cycles of sigma_e), as a
    partial transpose keeps the diagonal; in S_3 a permutation with f fixed
    points has (3 + f) // 2 cycles."""
    mask = np.array([[site in s for site in (1, 2, 3)]] * 6)
    pairings = _transposed_matchings(np.array(WERNER_TERMS), mask).tolist()
    products = [_compose(top, bot) for top in pairings for bot in pairings]
    index, loops = np.array([(pairings.index(pairing), count)
                             for pairing, count in products]).T.reshape(2, 6, 6)
    adjoint = [WERNER_TERMS.index(_inverse(sigma)) for sigma in WERNER_TERMS]
    cycles = np.array([(3 + sum(map(int.__eq__, sigma, (1, 2, 3)))) // 2 for sigma in WERNER_TERMS])
    gram = loops[adjoint] + cycles[index[adjoint]]      # tr(D_c^dagger D_e) = d**gram[c, e]
    exponents = loops[:, None, :] + gram[:, index].swapaxes(0, 1)
    exponents.flags.writeable = False
    return exponents


def _inverse(sigma: tuple[int, ...]) -> tuple[int, ...]:
    """The 1-based images of sigma^-1, in plain Python: the tables are built
    on a process's first call, where sym_core.Permutation and np.argsort
    took 30-60 us longer."""
    return tuple(sigma.index(t) + 1 for t in range(1, len(sigma) + 1))


@lru_cache(maxsize=4)
def _algebra_table(s: tuple[int, ...], d: int) -> np.ndarray:
    """(6, r, r) complex, read only: left multiplication by each diagram of
    _trace_exponents(s) on the span of the six diagrams' operators at d, in
    an orthonormal basis of the trace form G (r = 6 for d >= 3, 5 at d = 2,
    where the span has rank 5).

    With G = U diag(g) U^dagger, less the directions below GRAM_CUT times
    its largest eigenvalue, a diagram's matrix is g^1/2 U^dagger L U g^-1/2
    for L its left multiplication on the diagrams, that is
    g^-1/2 U^dagger (G L) U g^-1/2, and G L is the trace table
    tr(D_c^dagger D_a D_b), read at a = 0, the identity, for G itself."""
    products = float(d) ** _trace_exponents(s)
    spectrum, basis = np.linalg.eigh(products[0])
    keep = spectrum > GRAM_CUT * spectrum[-1]
    unit = basis[:, keep] / np.sqrt(spectrum[keep])
    table = (unit.T @ products @ unit).astype(complex)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=8)
def _s3_table(terms: tuple, s: tuple[int, ...], d: int) -> np.ndarray:
    """(T, r, r) complex, read only: the _algebra_table matrix of each
    term's sigma^{T_S}.  A term that is not a permutation of (1, 2, 3) is a
    ValueError, and d^3 is guarded by check_size_guard as a listing is.

    Every S maps onto S = () or (3,) with the operators unchanged up to a
    unitary: sigma^{T_S} is (sigma^-1)^{T_S'} for S' the complement of S,
    and the site swap pi = (j 3) takes sigma^{T_j} to (pi sigma pi)^{T_3}."""
    for term in terms:
        if sorted(term) != [1, 2, 3]:
            raise ValueError(f"term {term} is not a permutation of (1, 2, 3)")
    check_size_guard(3, d)
    if len(s) > 1:
        terms, s = [_inverse(sigma) for sigma in terms], tuple({1, 2, 3} - set(s))
    if s:
        swap = [1, 2, 3]
        swap[s[0] - 1], swap[2] = 3, s[0]
        terms = [tuple(swap[sigma[swap[t] - 1] - 1] for t in range(3)) for sigma in terms]
    table = _algebra_table((3,) if s else (), d)[[WERNER_TERMS.index(tuple(sigma))
                                                  for sigma in terms]]
    table.flags.writeable = False
    return table


def _s3_min_eigenvalue(terms: tuple, s: tuple[int, ...], coeffs, d: int):
    """Least eigenvalue of sum_t coeffs[t] terms[t]^{T_S} on three sites of
    dimension d (the arguments of _listed), or an array of those of each
    member for stacked coefficients: the coefficient rows times _s3_table,
    summed in term order (each member's bits those of a call on it alone),
    then dense_ops.min_eigenvalue of the r x r matrices, which refuses a
    sum that is not finite or not hermitian.

    The diagrams' operators span a *-algebra that holds the sum X, so left
    multiplication by X on that span, hermitian in the trace form, has the
    spectrum of X (Koike 1989; Benkart et al. 1994): no d^3 x d^3 matrix is
    formed."""
    table = _s3_table(terms, s, d)
    rows = _coefficient_rows(coeffs)
    with np.errstate(invalid="ignore"):     # inf * 0: a non-finite sum is refused
        h = (rows[..., None, None] * table).sum(axis=-3)
    return dense_ops.min_eigenvalue(DenseOperator(1, table.shape[-1], h))


def werner_state(params: WernerParams) -> DenseOperator:
    """Dense operator sum_pi alpha_pi pi over the six permutations, or the
    stack of them for stacked parameters: the bits of the dense sum."""
    return _dense(_listed(WERNER_TERMS, (), params.alphas, params.d))


def werner_support(s: tuple[int, ...], d: int) -> int:
    """Nonzero entries of a generic rho^{T_S}, the listing the maps of S
    contract: the same count for every S."""
    return len(_term_index(WERNER_TERMS, s, d)[0])


def werner_ppt_conditions(rs) -> tuple[list[bool], bool]:
    """Six analytic inequalities equivalent, for valid states, to positivity
    of the partial transpose on the first factor: tested at d = 3 and d = 4
    against the eigensolver (the inequalities do not take d).

    The partially transposed invariant state splits into two scalar sectors
    (the symmetric and antisymmetric parts of the complement of the
    contraction ideal) and one 2 x 2 block.  Conditions: (a) r- >= 0;
    (b) the symmetric-sector eigenvalue; (c), (d) the block diagonal;
    (e) the block determinant, r2^2 + r3^2 <= F1 with
    F1 = (1 - r1 - 5 r- - r+)(-1 - r1 + r- + 5 r+)/3;
    (f) the antisymmetric-sector eigenvalue.  (b) and (f) are the forms a
    direct eigensolver comparison confirms; (e) keeps F1 exactly.  The
    equivalence is asserted for valid states only, though the inequalities
    evaluate on any parameter vector.
    """
    rp, rm, _r0, r1, r2, r3 = (float(x) for x in rs)
    f1 = (1 - r1 - 5 * rm - rp) * (-1 - r1 + rm + 5 * rp) / 3.0
    quad = r2 * r2 + r3 * r3
    checks = [
        rm >= -PPT_SLACK,
        5 + 5 * r1 - rp - 5 * rm >= -PPT_SLACK,
        1 - r1 - 5 * rm - rp >= -PPT_SLACK,
        -1 - r1 + rm + 5 * rp >= -PPT_SLACK,
        quad <= f1 + PPT_SLACK,
        1 - r1 + 7 * rm - rp >= -PPT_SLACK,
    ]
    return checks, all(checks)


# ---------------------------------------------------------------------------
# the twelve closed-form maps f_S, g_S
# ---------------------------------------------------------------------------

F_ROWS = ("f1", "f2", "f3", "f12", "f13", "f23")
G_ROWS = ("g1", "g2", "g3", "g12", "g13", "g23")
ROW_SUBSETS = {"1": (1,), "2": (2,), "3": (3,), "12": (1, 2), "13": (1, 3), "23": (2, 3)}


def _row_subset(row: str) -> tuple[int, ...]:
    """S of a map row, "f13" or "g2" say; any other row is a ValueError."""
    if row not in F_ROWS + G_ROWS:
        raise ValueError(f"unknown map row {row!r}; valid rows: {', '.join(F_ROWS + G_ROWS)}")
    return ROW_SUBSETS[row[1:]]


def _trace(x: np.ndarray):
    """Trace of a matrix, or of each member of a stack as a (T, 1, 1) array."""
    t = x.trace(0, -2, -1)
    return t.reshape(t.shape + (1, 1)) if t.ndim else t


def _times(x, y):
    """x * y for two coefficients, or stacks of them, rounded as two scalars
    multiply: numpy's array loop fuses the complex multiply-add and scalar
    math does not, so a stacked map gives each member the bits of a single call."""
    if not (isinstance(x, np.ndarray) or isinstance(y, np.ndarray)):
        return x * y
    x, y = np.asarray(x, dtype=complex), np.asarray(y, dtype=complex)
    out = np.empty(np.broadcast_shapes(x.shape, y.shape), dtype=complex)
    out.real, out.imag = x.real * y.real - x.imag * y.imag, x.real * y.imag + x.imag * y.real
    return out


def eggeling_werner_map_trace(row: str, params: WernerParams, a, b=None) -> DenseOperator:
    """Defining trace formula: the contraction oracle's map of rho^{T_S},
    listed by wba_algebra as sum_pi alpha_pi pi^{T_S}: no d^3 x d^3 matrix,
    and _support(partial_transpose(werner_state(params), S)) bit for bit."""
    rho_ts = _listed(WERNER_TERMS, _row_subset(row), params.alphas, params.d)
    inputs = [a] if row.startswith("f") else [a, b]
    return evaluate_oracle(MapSpec(rho_ts, len(inputs), 3 - len(inputs), params.d), inputs)


def eggeling_werner_map(row: str, params: WernerParams, a, b=None) -> DenseOperator:
    """Closed form of the same map: alpha-weighted sums of products,
    transposes, reshufflings, and partially transposed reshufflings.  With
    stacked parameters and inputs it gives the stack of the maps."""
    _row_subset(row)
    d = params.d
    a1, a2, a3, a4, a5, a6 = params.alphas
    a = np.asarray(a, dtype=complex)
    eye = np.eye(d, dtype=complex)

    if row.startswith("f"):
        def two(x, y):
            return DenseOperator(2, d, dense_ops.kron_all([x, y]))

        def r(x):
            return dense_ops.reshuffle_bipartite(x)

        def rt2(x):
            return dense_ops.partial_transpose(r(x), (2,))

        # per row: the a2 and a4 factors, the reshuffle of the a3, a5, a6
        # terms, and the a5 and a6 Kronecker pairs
        at = a.swapaxes(-1, -2)
        x2, x4, shuffle, pair5, pair6 = {
            "f1": (at, at, rt2, (at, eye), (eye, a)),
            "f2": (at, a, r, (eye, a), (at, eye)),
            "f3": (a, at, r, (a, eye), (eye, at)),
            "f12": (a, at, r, (eye, at), (a, eye)),
            "f13": (at, a, r, (at, eye), (eye, a)),
            "f23": (at, at, rt2, (eye, a), (at, eye)),
        }[row]
        tr_a = _trace(a)
        ee = two(eye, eye)
        terms = (a2 * two(x2, eye).mat + _times(a3, tr_a) * shuffle(ee).mat
                 + a4 * two(eye, x4).mat
                 + a5 * shuffle(two(*pair5)).mat + a6 * shuffle(two(*pair6)).mat)
        return DenseOperator(2, d, _times(a1, tr_a) * ee.mat + terms)

    b = np.asarray(b, dtype=complex)
    at, bt = a.swapaxes(-1, -2), b.swapaxes(-1, -2)
    # per row: the a2 trace pair, the a3 and a4 factors, the a5 and a6 products
    pair2, y3, x4, pair5, pair6 = {
        "g1": ((at, b), b, at, (b, at), (at, b)),
        "g2": ((a, bt), bt, a, (bt, a), (a, bt)),
        "g3": ((a, b), bt, at, (at, bt), (bt, at)),
        "g12": ((at, bt), bt, at, (bt, at), (at, bt)),
        "g13": ((at, b), bt, a, (a, bt), (bt, a)),
        "g23": ((at, b), b, at, (at, b), (b, at)),
    }[row]
    tr_a, tr_b = _trace(a), _trace(b)
    terms = (_times(a2, _trace(pair2[0] @ pair2[1])) * eye + _times(a3, tr_a) * y3
             + _times(a4, tr_b) * x4 + a5 * pair5[0] @ pair5[1] + a6 * pair6[0] @ pair6[1])
    return DenseOperator(1, d, _times(_times(a1, tr_a), tr_b) * eye + terms)


# ---------------------------------------------------------------------------
# Bardet-Collins-Sapra kernel and positivity condition
# ---------------------------------------------------------------------------

def bcs_kernel(alpha, beta, d: int) -> DenseOperator:
    """(1 2)^{T_2} + (1 3) + alpha * id + beta * (2 3)^{T_2} on three factors,
    or the stack of kernels for (T, 1, 1) arrays of alpha and beta.

    It is [(1 2) + (3 1) + alpha * id + beta * (2 3)]^{T_2}, listed by
    wba_algebra with each entry summed in that order: the bits of the dense
    sum, partially transposed.  It commutes with U (x) conj(U) (x) U."""
    if d < 2:
        raise ValueError("need d >= 2")
    return _dense(_listed(BCS_TERMS, (2,), (1, 1, alpha, beta), d))


def bcs_alpha_threshold(beta: float, d: int) -> float:
    """Smallest alpha making the induced single-input map positive at this beta."""
    if beta >= 0:
        return 0.0
    disc = d * d * beta * beta - 4 * (d - 2) * beta + 4
    return (-(2 + d * beta) + math.sqrt(disc)) / 2.0


def bcs_positivity_condition(alpha: float, beta: float, d: int) -> bool:
    """Positivity of the induced map: alpha >= 0 for beta >= 0, else alpha
    above the square-root threshold."""
    if d < 3:
        raise ValueError("the analytic condition is stated for d >= 3")
    return alpha >= bcs_alpha_threshold(beta, d)


# ---------------------------------------------------------------------------
# block-positivity via sampling + see-saw
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartitionSpec:
    """Ordered disjoint site blocks covering 1..n, e.g. 1|23."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not all(self.blocks):
            raise ValueError(f"empty block in {str(self)!r}")
        flat = [s for b in self.blocks for s in b]
        if sorted(flat) != list(range(1, len(flat) + 1)):
            raise ValueError(f"blocks must partition 1..n: {self.blocks}")

    @staticmethod
    def parse(text: str) -> "PartitionSpec":
        """Parse "1|23" style: one digit a site, blocks split by "|"."""
        return PartitionSpec(tuple(tuple(parse_token(ch, "site", text) for ch in part)
                                   for part in text.split("|")))

    @property
    def n(self) -> int:
        return sum(len(b) for b in self.blocks)

    def __str__(self) -> str:
        return "|".join("".join(str(s) for s in b) for b in self.blocks)


@dataclass(frozen=True)
class SearchBudget:
    """Starts, sweeps and seed of the see-saw search of check_block_positive."""

    restarts: int = 64
    iterations: int = 200
    samples: int = 512
    seed: int = 0


@dataclass(frozen=True)
class PositivityVerdict:
    """``sweeps`` counts see-saw sweeps over all starts, ``converged_starts``
    the starts that met the stop rule before the iteration cap; both are 0
    when no search ran.  ``certified`` marks a non-PSD classification that is
    proved, not estimated: ``product_min_estimate`` is then the exact 1|23
    minimum (check_covariant_block_positive) or, for proposition1_check's
    1|2|3 verdict, a proved lower bound.  Two verdicts are equal when every
    field is, the block vectors compared by np.array_equal."""

    classification: str
    min_eig: float
    product_min_estimate: float
    violating_product_state: tuple[np.ndarray, ...] | None = None
    sweeps: int = 0
    converged_starts: int = 0
    certified: bool = False

    def __eq__(self, other):
        if not isinstance(other, PositivityVerdict):
            return NotImplemented
        mine, theirs = self.violating_product_state, other.violating_product_state
        if (mine is None) != (theirs is None) or mine is not None and (
                len(mine) != len(theirs) or not all(map(np.array_equal, mine, theirs))):
            return False
        return all(getattr(self, f.name) == getattr(other, f.name) for f in fields(self)
                   if f.name != "violating_product_state")


def _check_sites(m: DenseOperator, partition: PartitionSpec) -> None:
    if partition.n != m.n:
        raise ValueError(f"partition {partition} has {partition.n} sites, the operator {m.n}")


def _blocked_tensor(m: DenseOperator, partition: PartitionSpec) -> np.ndarray:
    """M with its sites in partition order, the order of the product vectors'
    blocks, as one row axis, then one column axis, per block."""
    _check_sites(m, partition)
    order = [s - 1 for b in partition.blocks for s in b]
    dims = [m.d ** len(b) for b in partition.blocks]
    return dense_ops._reorder(m, order + [m.n + s for s in order]).mat.reshape(dims + dims)


def product_state_value(m: DenseOperator, partition: PartitionSpec, vectors) -> float:
    """<v_1 ... v_l| M |v_1 ... v_l> with the blocks in partition order."""
    return _form_value(_blocked_tensor(m, partition), vectors)


def _form_value(t: np.ndarray, vectors) -> float:
    """<v|M|v> for v the product of ``vectors``, from M's _blocked_tensor ``t``."""
    full = dense_ops.kron_all(vectors)
    return float(np.real(full.conj() @ t.reshape(full.size, full.size) @ full))


def product_state_minimize(m: DenseOperator, partition: PartitionSpec, budget: SearchBudget
                           ) -> tuple[float, tuple[np.ndarray, ...], int, int]:
    """Estimate min over product states by random sampling plus alternating
    ground-eigenvector sweeps (see-saw), multi-restart.

    One start at a time: each start draws its block vectors in turn; a
    restart then sweeps until a sweep improves it by less than SEESAW_STOP
    or the iterations run out.  Returns the first minimum over samples then
    restarts, its block vectors, the sweeps run and the restarts that met
    the stop rule.
    """
    if budget.restarts < 1 or budget.samples < 0:
        raise ValueError("the search needs restarts >= 1 and samples >= 0")
    rng = np.random.default_rng(budget.seed)
    t = _blocked_tensor(m, partition)
    dims = [m.d ** len(b) for b in partition.blocks]
    ell = len(dims)
    best, best_vecs, sweeps, converged = math.inf, None, 0, 0
    for start in range(budget.samples + budget.restarts):
        vecs = []
        for dim in dims:
            v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            vecs.append(v / np.linalg.norm(v))
        value = _form_value(t, vecs)
        if start >= budget.samples:
            for _ in range(budget.iterations):
                sweeps += 1
                current = value
                for i in range(ell):
                    operands = [t, list(range(2 * ell))]
                    for j, v in enumerate(vecs):
                        if j != i:
                            operands += [v.conj(), [j], v, [ell + j]]
                    eff = np.einsum(*operands, [i, ell + i])
                    w, u = np.linalg.eigh((eff + eff.conj().T) / 2.0)
                    vecs[i], value = u[:, 0], w[0]
                if current - value < SEESAW_STOP:
                    converged += 1
                    break
        if value < best:
            best, best_vecs = value, tuple(vecs)
    return float(best), best_vecs, sweeps, converged


def check_block_positive(m: DenseOperator, partition: PartitionSpec,
                         budget: SearchBudget = SearchBudget()) -> PositivityVerdict:
    """Classify a hermitian operator as PSD / witness candidate / negative on
    a product state / inconclusive, for the given site partition.

    The product minimum is only an estimate (no certificate exists for
    block-positivity), but a NOT_BLOCK_POSITIVE verdict always carries a
    concrete violating product state whose value is re-evaluated
    independently of the search.
    """
    _check_sites(m, partition)
    lam = dense_ops.min_eigenvalue(m)     # raises for a non-hermitian m
    if lam >= -EIG_TOL:
        return PositivityVerdict(PSD, lam, lam)
    value, vecs, sweeps, converged = product_state_minimize(m, partition, budget)
    return _classify(m, partition, lam, value, vecs, sweeps=sweeps, converged_starts=converged)


def _classify(m: DenseOperator, partition: PartitionSpec, lam: float, value: float,
              vecs, **fields) -> PositivityVerdict:
    """Verdict of a non-PSD operator from its product minimum ``value`` at
    ``vecs``; a violation is rechecked, and one it does not confirm is never ``certified``."""
    if value >= -PRODUCT_BAND:
        return PositivityVerdict(WITNESS_CANDIDATE, lam, value, **fields)
    recheck = product_state_value(m, partition, vecs)
    if recheck < -PRODUCT_BAND:
        return PositivityVerdict(NOT_BLOCK_POSITIVE, lam, value, vecs, **fields)
    return PositivityVerdict(INCONCLUSIVE, lam, value, **{**fields, "certified": False})


def check_covariant_block_positive(terms: tuple, s: tuple[int, ...], coeffs, d: int):
    """check_block_positive for the cut 1|23 of sum_t coeffs[t] terms[t]^{T_S}
    (the arguments of _listed), a certified verdict with no search.

    By mixed Schur-Weyl duality each sigma^{T_S} commutes with U on the
    plain sites (x) conj(U) on S, for every unitary U, and so does the sum.
    Such a product moves any unit a on site 1 to e_1 and keeps the form, so
    the exact 1|23 minimum over product states is the least eigenvalue of
    the block <e_1|M|e_1> on sites 2 and 3.  The PSD step reads the least
    eigenvalue of the sum from _s3_min_eigenvalue, and a non-PSD verdict is
    ``certified``.  A term that is not a permutation of (1, 2, 3) is a
    ValueError.

    Stacked coefficients give the list of the members' verdicts in
    row-major order, each that of a call on the member alone: one stacked
    least-eigenvalue solve, then the dense M of the non-PSD members alone,
    listed at once, and one stacked eigh of their blocks."""
    lams = _s3_min_eigenvalue(terms, s, coeffs, d)
    stacked, lams = np.ndim(lams) > 0, np.ravel(lams).tolist()
    verdicts = [PositivityVerdict(PSD, lam, lam) if lam >= -EIG_TOL else None for lam in lams]
    negative = [i for i, verdict in enumerate(verdicts) if verdict is None]
    if negative:
        rows = _coefficient_rows(coeffs).reshape(-1, len(terms))[negative]
        mats = _dense(_sum_entries(3, d, *_term_index(terms, s, d), rows)).mat
        values, vectors = np.linalg.eigh(mats.reshape(-1, d, d * d, d, d * d)[:, 0, :, 0])
        partition = PartitionSpec(((1,), (2, 3)))
        for i, mat, value, vector in zip(negative, mats, values[:, 0].tolist(), vectors[:, :, 0]):
            e1 = np.zeros(d, dtype=complex)
            e1[0] = 1.0
            verdicts[i] = _classify(DenseOperator(3, d, mat), partition, lams[i], value,
                                    (e1, vector), certified=True)
    return verdicts if stacked else verdicts[0]


# ---------------------------------------------------------------------------
# cross-validation and scans
# ---------------------------------------------------------------------------

def proposition1_check(params: WernerParams, s, budget=None) -> dict:
    """Positivity of f_S / g_S on PSD inputs against block-positivity of
    rho^{T_S} for 1|23 and 1|2|3 respectively; lists any contradiction.  A
    rho that is not a state (least eigenvalue below -EIG_TOL) is refused.

    rho^{T_S} is the S_3 sum sum_pi alpha_pi pi^{T_S}, so the 1|23 verdict is
    the exact one of check_covariant_block_positive, and lambda_min(rho) is
    _s3_min_eigenvalue's: no dense rho is formed.
    ``budget`` is not read: no search runs, and it stays only for callers
    that pass one.
    The 1|2|3 verdict is proved: <abc|rho^{T_S}|abc> = <a'b'c'|rho|a'b'c'>
    with the factors on S conjugated, so it is PSD with rho^{T_S}, else a
    certified WITNESS_CANDIDATE whose product minimum is the lower bound
    lambda_min(rho).  The inputs are fixed: f_S(|e_1><e_1|) is the block
    <e_1|rho^{T_S}|e_1>, and g_S(|e_1><e_1|, |b><b|) with b = cos t e_1 +
    sin t e_2 at five t in [0, pi/2] must stay above lambda_min(rho) - EIG_TOL.
    """
    s = tuple(sorted(set(s)))
    if s not in ROW_SUBSETS.values():
        raise ValueError(f"subset must be one of {list(ROW_SUBSETS.values())}, got {s}")
    lam_rho = _s3_min_eigenvalue(WERNER_TERMS, (), params.alphas, params.d)
    if lam_rho < -EIG_TOL:
        raise ValueError(f"rho is not a state: least eigenvalue {lam_rho:.3g}")
    row = "".join(str(x) for x in s)
    verdict_f = check_covariant_block_positive(WERNER_TERMS, s, params.alphas, params.d)
    verdict_g = verdict_f if verdict_f.classification == PSD else PositivityVerdict(
        WITNESS_CANDIDATE, verdict_f.min_eig, lam_rho, certified=True)

    e1, e2 = np.eye(params.d)[:2]
    p1 = np.outer(e1, e1)
    f_min = dense_ops.min_eigenvalue(eggeling_werner_map("f" + row, params, p1))
    bs = np.array([math.cos(t) * e1 + math.sin(t) * e2 for t in np.linspace(0.0, math.pi / 2, 5)])
    g_maps = eggeling_werner_map("g" + row, params, p1, bs[:, :, None] * bs[:, None, :])
    g_min = float(dense_ops.min_eigenvalue(g_maps).min())

    contradictions = []
    if (f_min >= -PRODUCT_BAND) != (verdict_f.classification in (PSD, WITNESS_CANDIDATE)):
        contradictions.append(
            f"f_{row}: map minimum {f_min:.3g} vs verdict {verdict_f.classification}")
    if g_min < lam_rho - EIG_TOL:
        contradictions.append(
            f"g_{row}: map minimum {g_min:.3g} below the proved bound {lam_rho:.3g}")
    return {
        "f_sample_min": f_min,
        "g_sample_min": g_min,
        "f_verdict": verdict_f,
        "g_verdict": verdict_g,
        "contradictions": contradictions,
    }


def scan_bcs_region(alpha_values, beta_values, d: int) -> list[dict]:
    """Grid scan: analytic condition, minimum eigenvalue, 1|23 product-state
    minimum and classification per (alpha, beta) point, alpha-major.

    The kernel is an S_3 sum, so the minimum is the exact one of
    check_covariant_block_positive (``certified``), which draws nothing.  The
    points are classified a stack at a time: each stack holds as many
    points as kernels of d^6 entries fit in verification.STACK_BYTES, at
    least one, its non-PSD kernels listed by one call, and each verdict is
    that of the point's kernel alone.  d < 3, where the analytic condition
    is not stated, is refused before any work.
    """
    if d < 3:
        raise ValueError("the analytic condition is stated for d >= 3")
    points = [(alpha, beta) for alpha in alpha_values for beta in beta_values]
    rows, start = [], 0
    for size in stack_sizes(len(points), d ** 6):
        chunk = points[start:start + size]
        start += size
        alphas, betas = np.array(chunk, dtype=float).T[..., None, None]
        verdicts = check_covariant_block_positive(BCS_TERMS, (2,), (1, 1, alphas, betas), d)
        for (alpha, beta), verdict in zip(chunk, verdicts):
            rows.append({
                "alpha": float(alpha),
                "beta": float(beta),
                "analytic_positive": bcs_positivity_condition(alpha, beta, d),
                "min_eig": verdict.min_eig,
                "product_min": verdict.product_min_estimate,
                "class": verdict.classification,
                "certified": verdict.certified,
            })
    return rows
