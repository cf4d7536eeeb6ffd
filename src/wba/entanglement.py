"""Positivity and block-positivity machinery on three tensor factors.

Covers the Bardet-Collins-Sapra kernel and its witness region, the
Eggeling-Werner parametrization of U (x) U (x) U - invariant states with the
analytic conditions for positivity of the partial transpose, the twelve
closed-form maps obtained by tracing such states against one or two inputs,
and a see-saw search for the minimum of a hermitian form over product states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import dense_ops
from .dense_ops import DenseOperator
from .multilinear_maps import MapSpec, evaluate_oracle
from .sym_core import parse_permutation
from .tolerances import ATOL, EIG_TOL, PPT_SLACK, PRODUCT_BAND, SEESAW_STOP, STATE_SLACK
from .verification import stack_sizes
from .wba_algebra import from_permutation, realize

PSD = "PSD"
WITNESS_CANDIDATE = "WITNESS_CANDIDATE"
NOT_BLOCK_POSITIVE = "NOT_BLOCK_POSITIVE"
INCONCLUSIVE = "INCONCLUSIVE"

_PERM_DIAGRAMS = tuple(from_permutation(parse_permutation(t, 3))
                       for t in ("()", "(1 2)", "(2 3)", "(3 1)", "(1 2 3)", "(3 2 1)"))


@lru_cache(maxsize=1)
def _werner_basis(d: int):
    """The support of id, (12), (23), (31), (123), (321) on three factors:
    the flat indices of the entries any permutation hits, each entry's
    pattern (the set of permutations that hit it; 16 at d >= 3), and the
    six permutations and the orthogonal basis R_+, R_-, R_0, R_1, R_2, R_3
    on each pattern.  Each permutation is realized alone for its d^3
    entries, and no d^3 x d^3 matrix is kept.  All read-only: werner_state
    needs them on every call, and callers sweep one d at a time, so only
    the last d is kept."""
    entries = [np.flatnonzero(realize(p, d)) for p in _PERM_DIAGRAMS]
    support, where = np.unique(np.concatenate(entries), return_inverse=True)
    hits = np.zeros((6, support.size), dtype=complex)
    hits[np.arange(6).repeat(d ** 3), where] = 1.0
    perms_p, pattern = np.unique(hits, axis=1, return_inverse=True)
    pattern = pattern.ravel()
    one, p12, p23, p31, p123, p321 = perms_p
    s3 = math.sqrt(3.0)
    rk_p = np.array([
        (one + p12 + p23 + p31 + p123 + p321) / 6.0,
        (one - p12 - p23 - p31 + p123 + p321) / 6.0,
        (2.0 * one - p123 - p321) / 3.0,
        (2.0 * p23 - p31 - p12) / 3.0,
        (p12 - p31) / s3,
        1j * (p123 - p321) / s3,
    ])
    for mat in (support, pattern, perms_p, rk_p):
        mat.flags.writeable = False
    return support, pattern, perms_p, rk_p


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
    """A U (x) U (x) U - invariant operator in all three coordinate systems.
    Stacked parameters hold (T, 1, 1) coefficient arrays, from which
    werner_state and the maps give stacks of T."""

    alphas: tuple[complex, ...]
    cs: tuple[float, ...]
    rs: tuple[float, ...]
    d: int

    @staticmethod
    def from_rs(rs, d: int) -> "WernerParams":
        rs = tuple(r if isinstance(r, np.ndarray) else float(r) for r in rs)
        cs = cs_from_rs(rs, d)
        return WernerParams(alphas_from_cs(cs), cs, rs, d)

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
    stacks: each instance makes its four generator calls in that order, and
    the formulas then run once on the arrays."""
    draws = [(*_werner_draw(rng), rng.standard_normal((2, 2, d, d))) for _ in range(count)]
    simplex, direction, root, z = (np.array(x) for x in zip(*draws))
    rs = _rs_from_draw(simplex, direction, root)
    params = WernerParams.from_rs([r[:, None, None] for r in rs], d)
    a, b = dense_ops.complex_gaussian(z).swapaxes(0, 1)
    return params, a, b


def werner_state(params: WernerParams) -> DenseOperator:
    """Dense operator from the alpha coefficients; cross-checked against the
    R_k expansion, so inconsistent parameter sets are rejected.  Stacked
    parameters give the stack of states, each checked.  Both sums run once
    per pattern of the support, which the entries of a pattern then share:
    the bits of the dense sums, whose other entries are exact zeros."""
    support, pattern, perms_p, rk_p = _werner_basis(params.d)
    mat = sum(a * p for a, p in zip(params.alphas, perms_p))
    mat_c = sum(c * r for c, r in zip(params.cs, rk_p))
    scale = np.maximum(1.0, np.abs(mat).max(axis=-1))
    if (np.abs(mat - mat_c).max(axis=-1) > ATOL * scale).any():
        raise ValueError("alpha and c coefficient sets disagree")
    dim = params.d ** 3
    dense = np.zeros(mat.shape[:-1] + (dim * dim,), dtype=complex)
    dense[..., support] = mat[..., pattern]
    return DenseOperator(3, params.d, dense.reshape(mat.shape[:-2] + (dim, dim)))


def werner_support(d: int) -> int:
    """Nonzero entries of a generic Werner state, the same for each partial transpose."""
    return _werner_basis(d)[0].size


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
    return ROW_SUBSETS[row.lstrip("fg")]


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
    """Defining trace formula: the contraction oracle's map of rho^{T_S}."""
    rho_ts = dense_ops.partial_transpose(werner_state(params), _row_subset(row))
    inputs = [a] if row.startswith("f") else [a, b]
    return evaluate_oracle(MapSpec(rho_ts, len(inputs), 3 - len(inputs), params.d), inputs)


def eggeling_werner_map(row: str, params: WernerParams, a, b=None) -> DenseOperator:
    """Closed form of the same map: alpha-weighted sums of products,
    transposes, reshufflings, and partially transposed reshufflings.  With
    stacked parameters and inputs it gives the stack of the maps."""
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

@lru_cache(maxsize=4)
def _bcs_basis(d: int) -> tuple[np.ndarray, ...]:
    """Dense (1 2)^{T_2}, (1 3), id and (2 3)^{T_2}: the kernel's four terms
    (cached for a few d, read-only)."""
    if d < 2:
        raise ValueError("need d >= 2")
    p = parse_permutation
    basis = (realize(from_permutation(p("(1 2)", 3), {2}), d), realize(p("(3 1)", 3), d),
             realize(p("()", 3), d), realize(from_permutation(p("(2 3)", 3), {2}), d))
    for mat in basis:
        mat.flags.writeable = False
    return basis


def _bcs_from_basis(basis, alpha, beta, d: int) -> DenseOperator:
    """The kernel at (alpha, beta), or the stack of kernels for (T, 1, 1)
    arrays of them."""
    p12_t2, p13, one, p23_t2 = basis
    return DenseOperator(3, d, p12_t2 + p13 + alpha * one + beta * p23_t2)


def bcs_kernel(alpha: float, beta: float, d: int) -> DenseOperator:
    """(1 2)^{T_2} + (1 3) + alpha * id + beta * (2 3)^{T_2} on three factors.

    It commutes with U (x) conj(U) (x) U for every unitary U."""
    return _bcs_from_basis(_bcs_basis(d), alpha, beta, d)


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
        flat = [s for b in self.blocks for s in b]
        if sorted(flat) != list(range(1, len(flat) + 1)):
            raise ValueError(f"blocks must partition 1..n: {self.blocks}")

    @staticmethod
    def parse(text: str) -> "PartitionSpec":
        """Parse "1|23" style."""
        blocks = tuple(tuple(int(ch) for ch in part) for part in text.split("|"))
        return PartitionSpec(blocks)

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
    proved, not estimated: ``product_min_estimate`` is then the exact 1|rest
    minimum (covariant_block_minimum) or, for proposition1_check's 1|2|3
    verdict, a proved lower bound."""

    classification: str
    min_eig: float
    product_min_estimate: float
    violating_product_state: tuple[np.ndarray, ...] | None = None
    sweeps: int = 0
    converged_starts: int = 0
    certified: bool = False


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


def covariant_block_minimum(m: DenseOperator, conjugated):
    """Exact minimum of <a x|M|a x> over unit vectors a on site 1 and x on
    the other sites, with a minimising (a, x), for an M that commutes with
    the tensor product of conj(U) on the sites in ``conjugated`` and U on the
    others, for every unitary U.

    Such a product moves any unit a to e_1 and keeps the form, so the minimum
    is the least eigenvalue of the block <e_1|M|e_1> on the other sites.  The
    commutation is checked, never assumed, over all of U(d) by
    dense_ops.covariance_residual; unless the residual is within ATOL relative
    to M's largest entry, and that bound is finite, the answer is None (a
    refusal): an M with a NaN or infinite entry is refused.

    A stack of M gives the list of the members' answers in row-major order,
    from one covariance check and one eigh of the covariant members' blocks.
    """
    if m.n < 2:
        raise ValueError("the cut 1|rest needs at least two sites")
    d, rest = m.d, m.d ** (m.n - 1)
    mats = m.mat.reshape(-1, d * rest, d * rest)
    bounds = ATOL * np.maximum(1.0, np.abs(mats).max(axis=(1, 2)))   # NaN for a NaN entry
    residuals = np.reshape(dense_ops.covariance_residual(m, conjugated), -1)
    covariant = [i for i, (residual, bound) in enumerate(zip(residuals.tolist(), bounds.tolist()))
                 if residual <= bound < math.inf]
    values, vectors = np.linalg.eigh(mats.reshape(-1, d, rest, d, rest)[covariant, 0, :, 0])
    answers = [None] * len(mats)
    for i, value, vector in zip(covariant, values[:, 0].tolist(), vectors[:, :, 0]):
        e1 = np.zeros(d, dtype=complex)
        e1[0] = 1.0
        answers[i] = (value, (e1, vector))
    return answers if m.mat.ndim > 2 else answers[0]


def check_covariant_block_positive(m: DenseOperator, conjugated):
    """check_block_positive for the cut 1|rest of an operator covariant as
    covariant_block_minimum requires: the PSD step is the same, and the
    product minimum is the exact one, so the verdict is ``certified``.  A
    non-PSD operator that fails the covariance check has no exact minimum
    and is a ValueError; the check runs no search and draws nothing.

    A stack of operators gives the list of the members' verdicts in
    row-major order, each that of a call on the member alone: one stacked
    eigvalsh and one covariance check of the non-PSD members; the error
    names the first of them, in row-major order, that fails it."""
    partition = PartitionSpec(((1,), tuple(range(2, m.n + 1))))
    mats = m.mat.reshape((-1,) + m.mat.shape[-2:])
    lams = dense_ops.min_eigenvalue(DenseOperator(m.n, m.d, mats)).tolist()
    verdicts = [PositivityVerdict(PSD, lam, lam) if lam >= -EIG_TOL else None for lam in lams]
    negative = [i for i, verdict in enumerate(verdicts) if verdict is None]
    if negative:
        exact = covariant_block_minimum(DenseOperator(m.n, m.d, mats[negative]), conjugated)
        for i, found in zip(negative, exact):
            if found is None:
                where = f"stack member {i}" if m.mat.ndim > 2 else "the operator"
                raise ValueError(f"{where} is not PSD and not covariant with conj(U) on sites "
                                 f"{sorted(conjugated)}: no exact 1|rest minimum")
            verdicts[i] = _classify(DenseOperator(m.n, m.d, mats[i]), partition, lams[i],
                                    *found, certified=True)
    return verdicts if m.mat.ndim > 2 else verdicts[0]


# ---------------------------------------------------------------------------
# cross-validation and scans
# ---------------------------------------------------------------------------

def proposition1_check(params: WernerParams, s, budget=None) -> dict:
    """Positivity of f_S / g_S on PSD inputs against block-positivity of
    rho^{T_S} for 1|23 and 1|2|3 respectively; lists any contradiction.  A
    rho that is not a state (least eigenvalue below -EIG_TOL) is refused.

    rho^{T_S} commutes with conj(U) on S and U elsewhere, so the 1|23 verdict
    is the exact one of check_covariant_block_positive.  ``budget`` is not
    read: no search runs, and it stays only for callers that pass one.
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
    rho = werner_state(params)
    lam_rho = dense_ops.min_eigenvalue(rho)
    if lam_rho < -EIG_TOL:
        raise ValueError(f"rho is not a state: least eigenvalue {lam_rho:.3g}")
    row = "".join(str(x) for x in s)
    rho_ts = dense_ops.partial_transpose(rho, s)
    verdict_f = check_covariant_block_positive(rho_ts, s)
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

    The kernel is covariant, so the minimum is the exact one of
    check_covariant_block_positive (``certified``).  Its covariance check runs
    on the U(d) generators and draws nothing; a point whose kernel fails it
    is a ValueError (no finite point does).  The points
    are classified a stack at a time: each stack holds as many kernels as
    fit in verification.STACK_BYTES, at least one, and each verdict is that
    of the point's kernel alone.
    """
    basis = _bcs_basis(d)
    points = [(alpha, beta) for alpha in alpha_values for beta in beta_values]
    rows, start = [], 0
    for size in stack_sizes(len(points), basis[0].size):
        chunk = points[start:start + size]
        start += size
        alphas, betas = np.array(chunk, dtype=float).T[..., None, None]
        verdicts = check_covariant_block_positive(_bcs_from_basis(basis, alphas, betas, d), {2})
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
