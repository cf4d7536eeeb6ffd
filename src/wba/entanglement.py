"""Positivity and block-positivity machinery on three tensor factors.

Covers the Bardet-Collins-Sapra kernel and its witness region, the
Eggeling-Werner parametrization of U (x) U (x) U - invariant states with the
analytic conditions for positivity of the partial transpose, the twelve
closed-form maps obtained by tracing such states against one or two inputs,
and a see-saw search for the minimum of a hermitian form over product states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import dense_ops
from .dense_ops import DenseOperator
from .multilinear_maps import MapSpec, evaluate_oracle
from .sym_core import parse_permutation
from .tolerances import ATOL, EIG_TOL, PPT_SLACK, PRODUCT_BAND, SEESAW_STOP, STATE_SLACK
from .wba_algebra import from_permutation, realize

PSD = "PSD"
WITNESS_CANDIDATE = "WITNESS_CANDIDATE"
NOT_BLOCK_POSITIVE = "NOT_BLOCK_POSITIVE"
INCONCLUSIVE = "INCONCLUSIVE"

_PERM_DIAGRAMS = tuple(from_permutation(parse_permutation(t, 3))
                       for t in ("()", "(1 2)", "(2 3)", "(3 1)", "(1 2 3)", "(3 2 1)"))


@lru_cache(maxsize=1)
def _werner_basis(d: int) -> tuple[tuple[np.ndarray, ...], dict[str, np.ndarray]]:
    """Dense id, (12), (23), (31), (123), (321) on three factors, and the
    orthogonal basis R_+, R_-, R_0, R_1, R_2, R_3 built from them, read-only:
    werner_state needs both on every call, and callers sweep one d at a time,
    so only the last d is kept."""
    perms = tuple(realize(p, d) for p in _PERM_DIAGRAMS)
    one, p12, p23, p31, p123, p321 = perms
    s3 = math.sqrt(3.0)
    rk = {
        "+": (one + p12 + p23 + p31 + p123 + p321) / 6.0,
        "-": (one - p12 - p23 - p31 + p123 + p321) / 6.0,
        "0": (2.0 * one - p123 - p321) / 3.0,
        "1": (2.0 * p23 - p31 - p12) / 3.0,
        "2": (p12 - p31) / s3,
        "3": 1j * (p123 - p321) / s3,
    }
    for mat in (*perms, *rk.values()):
        mat.flags.writeable = False
    return perms, rk


R_KEYS = ("+", "-", "0", "1", "2", "3")


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
    """Expand sum_k c_k R_k in the permutation basis.

    The (1 2) coefficient is c+/6 - c-/6 - c1/3 + c2/sqrt(3): R_1 contributes
    -c1/3 and R_2 contributes +c2/sqrt(3) there, mirroring the (3 1)
    coefficient up to the sign of c2.
    """
    cp, cm, c0, c1, c2, c3 = cs
    s3 = math.sqrt(3.0)
    return (
        complex(cp / 6 + cm / 6 + 2 * c0 / 3),
        complex(cp / 6 - cm / 6 - c1 / 3 + c2 / s3),
        complex(cp / 6 - cm / 6 + 2 * c1 / 3),
        complex(cp / 6 - cm / 6 - c1 / 3 - c2 / s3),
        complex(cp / 6 + cm / 6 - c0 / 3 + 1j * c3 / s3),
        complex(cp / 6 + cm / 6 - c0 / 3 - 1j * c3 / s3),
    )


@dataclass(frozen=True)
class WernerParams:
    """A U (x) U (x) U - invariant operator in all three coordinate systems."""

    alphas: tuple[complex, ...]
    cs: tuple[float, ...]
    rs: tuple[float, ...]
    d: int

    @staticmethod
    def from_rs(rs, d: int) -> "WernerParams":
        rs = tuple(float(r) for r in rs)
        cs = cs_from_rs(rs, d)
        return WernerParams(alphas_from_cs(cs), cs, rs, d)

    @staticmethod
    def stack(params: list["WernerParams"]) -> "WernerParams":
        """T parameter sets of one d as one of (T, 1, 1) coefficient arrays,
        from which werner_state and the maps give stacks of T."""
        columns = [np.array([getattr(p, key) for p in params]).T[..., None, None]
                   for key in ("alphas", "cs", "rs")]
        return WernerParams(*(tuple(c) for c in columns), params[0].d)

    def is_valid_state(self) -> bool:
        rp, rm, r0, r1, r2, r3 = self.rs
        return (rp >= -STATE_SLACK and rm >= -STATE_SLACK and r0 >= -STATE_SLACK
                and abs(rp + rm + r0 - 1.0) <= STATE_SLACK
                and r1 * r1 + r2 * r2 + r3 * r3 <= r0 * r0 + STATE_SLACK)


def random_valid_werner(rng: np.random.Generator, d: int = 3) -> WernerParams:
    """Uniform-ish sample of a valid parameter vector: simplex weights for
    (r+, r-, r0) and a uniform point of the radius-r0 ball for (r1, r2, r3)."""
    rp, rm, r0 = rng.dirichlet((1.0, 1.0, 1.0))
    direction = rng.standard_normal(3)
    direction /= np.linalg.norm(direction)
    radius = r0 * rng.random() ** (1.0 / 3.0)
    r1, r2, r3 = radius * direction
    return WernerParams.from_rs((rp, rm, r0, r1, r2, r3), d)


def werner_state(params: WernerParams) -> DenseOperator:
    """Dense operator from the alpha coefficients; cross-checked against the
    R_k expansion, so inconsistent parameter sets are rejected.  Stacked
    parameters (WernerParams.stack) give the stack of states, each checked."""
    perms, rk = _werner_basis(params.d)
    mat = sum(a * p for a, p in zip(params.alphas, perms))
    mat_c = sum(c * rk[key] for c, key in zip(params.cs, R_KEYS))
    scale = np.maximum(1.0, np.abs(mat).max(axis=(-2, -1)))
    if (np.abs(mat - mat_c).max(axis=(-2, -1)) > ATOL * scale).any():
        raise ValueError("alpha and c coefficient sets disagree")
    return DenseOperator(3, params.d, mat)


def werner_support(d: int) -> int:
    """Nonzero entries of a generic Werner state, the same for each partial transpose."""
    return int(np.count_nonzero(sum(_werner_basis(d)[0])))


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

def _bcs_basis(d: int) -> tuple[np.ndarray, ...]:
    """Dense (1 2)^{T_2}, (1 3), id and (2 3)^{T_2}: the kernel's four terms."""
    if d < 2:
        raise ValueError("need d >= 2")
    p = parse_permutation
    return (realize(from_permutation(p("(1 2)", 3), {2}), d), realize(p("(3 1)", 3), d),
            realize(p("()", 3), d), realize(from_permutation(p("(2 3)", 3), {2}), d))


def _bcs_from_basis(basis, alpha: float, beta: float, d: int) -> DenseOperator:
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
    _check_sites(m, partition)
    order = [s for b in partition.blocks for s in b]
    axes = [s - 1 for s in order] + [m.n + s - 1 for s in order]
    dims = [m.d ** len(b) for b in partition.blocks]
    return m.tensor.transpose(axes).reshape(dims + dims)


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_k a[s, k] b[s, k] per row s, as stacked 1 x n @ n x 1 products:
    these round like the 1-D dot of a single row."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def product_state_value(m: DenseOperator, partition: PartitionSpec, vectors) -> float:
    """<v_1 ... v_l| M |v_1 ... v_l> with the blocks in partition order."""
    full = dense_ops.kron_all(vectors)
    # full lives on block-reordered sites; bring M into the same order
    t = _blocked_tensor(m, partition)
    dim = int(np.prod([m.d ** len(b) for b in partition.blocks]))
    mat = t.reshape(dim, dim)
    return float(np.real(full.conj() @ mat @ full))


def product_state_minimize(m: DenseOperator, partition: PartitionSpec, budget: SearchBudget
                           ) -> tuple[float, tuple[np.ndarray, ...], int, int]:
    """Estimate min over product states by random sampling plus alternating
    ground-eigenvector sweeps (see-saw), multi-restart.

    Every start is a row of one array, drawn as one start at a time would draw
    it; the restarts sweep together, each until a sweep improves it by less
    than SEESAW_STOP.  Returns the first minimum over samples then restarts,
    its block vectors, the sweeps run and the restarts that met the stop rule.
    """
    if budget.restarts < 1 or budget.samples < 0:
        raise ValueError("the search needs restarts >= 1 and samples >= 0")
    rng = np.random.default_rng(budget.seed)
    t = _blocked_tensor(m, partition)
    dims = [m.d ** len(b) for b in partition.blocks]
    ell, starts = len(dims), budget.samples + budget.restarts

    raw = rng.standard_normal((starts, 2 * sum(dims)))
    vecs, offset = [], 0
    for dim in dims:
        v = raw[:, offset:offset + dim] + 1j * raw[:, offset + dim:offset + 2 * dim]
        vecs.append(v / np.sqrt(_row_dot(v.real, v.real) + _row_dot(v.imag, v.imag))[:, None])
        offset += 2 * dim
    full = vecs[0]
    for v in vecs[1:]:
        full = (full[:, :, None] * v[:, None, :]).reshape(starts, -1)
    mat = t.reshape(full.shape[1], -1)
    values = _row_dot((full.conj()[:, None, :] @ mat)[:, 0], full).real

    # see-saw on the restart rows; these views write through to vecs, values
    seesaw_vecs, current = [v[budget.samples:] for v in vecs], values[budget.samples:]
    active = np.arange(budget.restarts)
    sweeps = 0
    for _ in range(budget.iterations):
        if not active.size:
            break
        sweeps += active.size
        sub = [v[active] for v in seesaw_vecs]
        for i in range(ell):
            operands = [t, list(range(2 * ell))]
            for j, v in enumerate(sub):
                if j != i:
                    operands += [v.conj(), [2 * ell, j], v, [2 * ell, ell + j]]
            eff = (np.einsum(*operands, [2 * ell, i, ell + i]) if ell > 1
                   else np.broadcast_to(t, (active.size,) + t.shape))
            w, u = np.linalg.eigh((eff + eff.conj().swapaxes(1, 2)) / 2.0)
            sub[i], value = u[:, :, 0], w[:, 0]
        for v, new in zip(seesaw_vecs, sub):
            v[active] = new
        done = current[active] - value < SEESAW_STOP
        current[active] = value
        active = active[~done]

    best = int(np.argmin(values))
    return (float(values[best]), tuple(v[best].copy() for v in vecs),
            sweeps, budget.restarts - active.size)


def check_block_positive(m: DenseOperator, partition: PartitionSpec,
                         budget: SearchBudget | None = None) -> PositivityVerdict:
    """Classify a hermitian operator as PSD / witness candidate / negative on
    a product state / inconclusive, for the given site partition.

    The product minimum is only an estimate (no certificate exists for
    block-positivity), but a NOT_BLOCK_POSITIVE verdict always carries a
    concrete violating product state whose value is re-evaluated
    independently of the search.
    """
    budget = budget or SearchBudget()
    _check_sites(m, partition)
    lam = dense_ops.min_eigenvalue(m)     # raises for a non-hermitian m
    if lam >= -EIG_TOL:
        return PositivityVerdict(PSD, lam, lam)
    value, vecs, sweeps, converged = product_state_minimize(m, partition, budget)
    return _classify(m, partition, lam, value, vecs,
                     sweeps=sweeps, converged_starts=converged)


def _classify(m: DenseOperator, partition: PartitionSpec, lam: float, value: float,
              vecs, **fields) -> PositivityVerdict:
    """Verdict of a non-PSD operator from its product minimum ``value`` at
    ``vecs``; a violation is re-evaluated before it is reported."""
    if value >= -PRODUCT_BAND:
        return PositivityVerdict(WITNESS_CANDIDATE, lam, value, **fields)
    recheck = product_state_value(m, partition, vecs)
    if recheck < -PRODUCT_BAND:
        return PositivityVerdict(NOT_BLOCK_POSITIVE, lam, value, vecs, **fields)
    return PositivityVerdict(INCONCLUSIVE, lam, value, **fields)


def covariant_block_minimum(m: DenseOperator, conjugated
                            ) -> tuple[float, tuple[np.ndarray, np.ndarray]] | None:
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
    """
    if m.n < 2:
        raise ValueError("the cut 1|rest needs at least two sites")
    d, rest = m.d, m.d ** (m.n - 1)
    bound = ATOL * np.maximum(1.0, dense_ops.sup_norm(m.mat))    # NaN for a NaN entry
    if not dense_ops.covariance_residual(m, conjugated) <= bound < np.inf:
        return None
    values, vectors = np.linalg.eigh(m.mat.reshape(d, rest, d, rest)[0, :, 0, :])
    e1 = np.zeros(d, dtype=complex)
    e1[0] = 1.0
    return float(values[0]), (e1, vectors[:, 0])


def check_covariant_block_positive(m: DenseOperator, conjugated,
                                   budget: SearchBudget | None = None) -> PositivityVerdict:
    """check_block_positive for the cut 1|rest of an operator covariant as
    covariant_block_minimum requires: the PSD step is the same, and the
    product minimum is the exact one, so the verdict is ``certified``.  An
    operator that fails the covariance check gets check_block_positive's
    search, seeded by the budget; the check itself draws nothing."""
    budget = budget or SearchBudget()
    partition = PartitionSpec(((1,), tuple(range(2, m.n + 1))))
    lam = dense_ops.min_eigenvalue(m)
    if lam >= -EIG_TOL:
        return PositivityVerdict(PSD, lam, lam)
    exact = covariant_block_minimum(m, conjugated)
    if exact is None:
        return check_block_positive(m, partition, budget)
    return _classify(m, partition, lam, *exact, certified=True)


# ---------------------------------------------------------------------------
# cross-validation and scans
# ---------------------------------------------------------------------------

def proposition1_check(params: WernerParams, s, budget: SearchBudget | None = None) -> dict:
    """Positivity of f_S / g_S on PSD inputs against block-positivity of
    rho^{T_S} for 1|23 and 1|2|3 respectively; lists any contradiction.  A
    rho that is not a state (least eigenvalue below -EIG_TOL) is refused.

    rho^{T_S} commutes with conj(U) on S and U elsewhere, so the 1|23 verdict
    is the exact one of check_covariant_block_positive (the budget seeds
    only its fallback search).
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
    verdict_f = check_covariant_block_positive(rho_ts, s, budget)
    verdict_g = verdict_f if verdict_f.classification == PSD else PositivityVerdict(
        WITNESS_CANDIDATE, verdict_f.min_eig, lam_rho, certified=True)

    e1, e2 = np.eye(params.d)[:2]
    p1 = np.outer(e1, e1)
    f_min = dense_ops.min_eigenvalue(eggeling_werner_map("f" + row, params, p1))
    bs = [math.cos(t) * e1 + math.sin(t) * e2 for t in np.linspace(0.0, math.pi / 2, 5)]
    g_min = min(dense_ops.min_eigenvalue(eggeling_werner_map("g" + row, params, p1,
                                                             np.outer(b, b))) for b in bs)

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


def scan_bcs_region(alpha_values, beta_values, d: int,
                    budget: SearchBudget | None = None) -> list[dict]:
    """Grid scan: analytic condition, minimum eigenvalue, 1|23 product-state
    minimum and classification per (alpha, beta) point.

    The kernel is covariant, so the minimum is the exact one of
    check_covariant_block_positive (``certified``).  Its covariance check runs
    on the U(d) generators and draws nothing; the budget's search runs only
    if that check fails, each point seeded by the budget seed offset by its
    grid indices.
    """
    budget = budget or SearchBudget()
    basis = _bcs_basis(d)
    rows = []
    for i, alpha in enumerate(alpha_values):
        for j, beta in enumerate(beta_values):
            point_budget = replace(budget, seed=budget.seed + 7919 * i + 104729 * j)
            verdict = check_covariant_block_positive(_bcs_from_basis(basis, alpha, beta, d),
                                                     {2}, point_budget)
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
