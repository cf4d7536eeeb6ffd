"""Evaluation of the multilinear maps induced by kernel operators.

A kernel P on n = n_in + n_out sites defines
    Lambda(X_1, ..., X_{n_in}) = tr_{1..n_in}[ P (X_1 (x) ... (x) X_{n_in}
                                                 (x) 1^{n_out}) ].
``fast_evaluate`` contracts the inputs into the realized kernel one site at
a time and serves every kernel; ``evaluate_oracle`` computes the same map
literally through ``contract``, the one brute-force contraction of the
package (each nonzero kernel entry times the entries of the inputs'
Kronecker product that it meets, the product itself never formed), and is
the ground truth for both it and the closed forms below:
single-cycle kernels with one transposed site reduce to matrix products with
a transpose inserted, those with a transposed subset to products with
transposes on the subset (or on its complement, in reversed order, when the
last site is transposed), and forward cycles with a single input to a chain
of site reshufflings or a single index permutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import dense_ops
from .dense_ops import DenseOperator
from .sym_core import Partition, Permutation
from .wba_algebra import gamma, realize


def forward_cycle(k: int) -> Permutation:
    """(1 2 ... k)."""
    return Permutation.from_cycles([tuple(range(1, k + 1))], k)


def backward_cycle(k: int) -> Permutation:
    """(k ... 2 1) = (1 2 ... k)^-1."""
    return Permutation.from_cycles([tuple(range(k, 0, -1))], k)


def _as_matrix(x, d: int) -> np.ndarray:
    """A d x d input, or a stack of them, as a complex array."""
    if isinstance(x, DenseOperator):
        if x.n != 1 or x.d != d:
            raise ValueError("inputs must be single-site d x d operators")
        return x.mat
    mat = np.asarray(x, dtype=complex)
    if mat.shape[-2:] != (d, d):
        raise ValueError(f"input shape {mat.shape} != ({d}, {d})")
    return mat


@dataclass(frozen=True)
class MapSpec:
    """Kernel plus slot layout: n_in input sites (traced), n_out output sites."""

    kernel: object  # WbaElement | WbaDiagram | DenseOperator
    n_in: int
    n_out: int
    d: int

    def __post_init__(self):
        if self.n_in < 1 or self.n_out < 0:
            raise ValueError("need n_in >= 1 and n_out >= 0")
        if self.sites != self.kernel.n:
            raise ValueError(f"kernel has {self.kernel.n} sites, expected {self.sites}")

    @property
    def sites(self) -> int:
        return self.n_in + self.n_out

    def kernel_matrix(self) -> np.ndarray:
        if isinstance(self.kernel, DenseOperator):
            if self.kernel.d != self.d:
                raise ValueError("kernel local dimension mismatch")
            return self.kernel.mat
        return realize(self.kernel, self.d)


def _support(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of the nonzero entries of a matrix, or of any member
    of a stack of them, in row-major order."""
    return np.nonzero(mat.any(axis=tuple(range(mat.ndim - 2))))


def contract(kernel: DenseOperator, factors, keep) -> DenseOperator:
    """Literal contraction: tr over every site not in ``keep`` of kernel @ F,
    F = F_1 (x) F_2 (x) ..., summed over the kernel's nonzero entries.

    The factors are square and tile the kernel's sites from site 1 on; one
    may cover no site (1 x 1), one or several.  With ``keep`` empty the
    result is the full trace as a 1 x 1 operator, with every site kept it is
    kernel @ F.  With the kernel's rows r split into (traced a_r, kept i_r)
    sites and F's columns likewise, out[i_r, j] gets K[r, c] F[c, (a_r, j)]
    for each nonzero K[r, c] and each kept column j.  F is never formed:
    each factor is gathered only at the entries those terms read, and each
    needed entry of F is the left-to-right product of its factor entries.
    The terms of an output row are added one after another in row-major
    order of the kernel.  This is the ground truth every closed form is
    tested against.  The kernel and the factors may be stacks (leading
    axes, broadcast): the terms run over the union of the members' supports,
    and each member of the result is that member's contraction alone, bit
    for bit (a member's zero entries add exact zeros).
    """
    d, n = kernel.d, kernel.n
    keep = dense_ops._validate_sites(keep, n)
    sites = [next((m for m in range(n + 1) if np.shape(f)[-2:] == (d ** m,) * 2), None)
             for f in factors]
    if None in sites or sum(sites) != n:
        raise ValueError(f"factors of shapes {[np.shape(f) for f in factors]} "
                         f"do not tile {n} sites of dimension {d}")
    rows, cols = _support(kernel.mat)
    place = d ** np.arange(n - 1, -1, -1)       # the weight of each site's digit
    kept = np.array([s in keep for s in range(1, n + 1)], dtype=bool)
    digits = rows[:, None] // place[kept] % d   # each row's kept digits: i_r
    out_row = digits @ place[n - len(keep):]
    # the nonzeros on a (slot, output row i_r) grid, in row-major order down
    # each column; a short column is padded with entry len(rows), a zero
    count = np.bincount(out_row, minlength=d ** len(keep))
    order = np.argsort(out_row, kind="stable")
    slot = np.arange(len(rows)) - (np.cumsum(count) - count)[out_row[order]]
    grid = np.full((count.max(initial=1), count.size), len(rows))
    grid[slot, out_row[order]] = order
    entries = np.zeros(kernel.mat.shape[:-2] + (len(rows) + 1,), dtype=kernel.mat.dtype)
    entries[..., :-1] = kernel.mat[..., rows, cols]
    f_rows = np.append(cols, 0)[grid]
    f_cols = np.append(rows - digits @ place[kept], 0)[grid]     # a_r, the kept digits 0
    ends = np.cumsum(sites)

    def gather(t: int) -> np.ndarray:
        """Factor t's entries that the terms read, its kept columns j_t on axis t."""
        block = slice(ends[t] - sites[t], ends[t])
        low, dim = d ** (n - ends[t]), d ** sites[t]
        free = place[block][kept[block]] // low      # the weights of j_t's digits
        offsets = np.indices((d,) * len(free)).reshape(len(free), d ** len(free)).T @ free
        g = np.asarray(factors[t])[..., (f_rows // low % dim)[..., None],
                                   (f_cols // low % dim)[..., None] + offsets]
        axes = [1] * len(factors)
        axes[t] = len(offsets)
        return g.reshape(g.shape[:-1] + tuple(axes))

    terms = entries[(..., grid) + (None,) * len(factors)] \
        * reduce(np.multiply, map(gather, range(len(factors))))
    terms = terms.reshape(terms.shape[:-len(factors)] + (-1,))
    # np.sum may add the slots pairwise, in a tree that padding zeros would
    # reshape; a running sum adds them in order, so exact zeros change no bit
    out = np.cumsum(terms, axis=-3)[..., -1, :, :]
    return DenseOperator(len(keep), d, out)


def evaluate_oracle(spec: MapSpec, inputs) -> DenseOperator:
    """The map by ``contract``: inputs on sites 1..n_in, identity on the rest."""
    if len(inputs) != spec.n_in:
        raise ValueError(f"expected {spec.n_in} inputs, got {len(inputs)}")
    d = spec.d
    factors = [_as_matrix(x, d) for x in inputs] + [np.eye(d ** spec.n_out, dtype=complex)]
    kernel = DenseOperator(spec.sites, d, spec.kernel_matrix())
    return contract(kernel, factors, range(spec.n_in + 1, spec.sites + 1))


def fast_evaluate(spec: MapSpec, inputs) -> DenseOperator:
    """The map of any kernel, contracting one input at a time into it.

    Each step sums P[a..., b...] X[b, a] over the first remaining row and
    column axes of the kernel tensor, so the output keeps its row-block /
    column-block order; with n_out = 0 the result is the 1 x 1 trace.
    """
    if len(inputs) != spec.n_in:
        raise ValueError(f"expected {spec.n_in} inputs, got {len(inputs)}")
    d = spec.d
    mats = [_as_matrix(x, d) for x in inputs]
    t = spec.kernel_matrix().reshape((d,) * (2 * spec.sites))
    for mat in mats:
        t = np.tensordot(t, mat, axes=([0, t.ndim // 2], [1, 0]))
    dim = d ** spec.n_out
    return DenseOperator(spec.n_out, d, t.reshape(dim, dim))


# ---------------------------------------------------------------------------
# cycle kernels with transposed sites -> matrix products
# ---------------------------------------------------------------------------

def evaluate_cycle_to_one(direction: str, j: int, inputs, d: int | None = None) -> DenseOperator:
    """Closed form of tr over all sites but one of (cycle)^{T_j} X_1...X_k.

    backward (k..1), output on site k:
        j != k:  X_1 ... X_j^T ... X_k        j == k:  (X_1 ... X_{k-1})^T X_k
    forward (1..k), output on site 1:
        j != 1:  X_k ... X_j^T ... X_1        j == 1:  (X_k ... X_2)^T X_1
    (the two j-on-the-kept-site cases are mirror images of each other).
    The backward cycle is cycle_subset_to_one with S = {j}; the forward one
    is its mirror image under the relabelling i -> k+1-i.
    """
    k = len(inputs)
    if not 1 <= j <= k:
        raise ValueError(f"transposed site {j} out of range 1..{k}")
    if direction == "backward":
        return cycle_subset_to_one({j}, inputs, d)
    if direction == "forward":
        return cycle_subset_to_one({k + 1 - j}, inputs[::-1], d)
    raise ValueError(f"direction must be forward or backward, got {direction!r}")


def cycle_subset_to_one(s, inputs, d: int | None = None) -> DenseOperator:
    """tr_{1..k-1}[(k..1)^{T_S} X_1 (x) ... (x) X_k] for any S: a product
    with transposes steered by S.

    theta (k not in S): X_1' ... X_k' with X_i' = X_i^T iff i in S.
    theta-bar (k in S): the product in the order (X_{k-1}, ..., X_1, X_k)
        with exactly the factors whose index is NOT in S transposed.  (The
        subset, not the tuple positions, decides the transposes; this is the
        reading the contraction oracle confirms.)
    Stacked inputs give the stack of the products.
    """
    k = len(inputs)
    if d is None:
        if not k:
            raise ValueError("need at least one input")
        d = inputs[0].shape[-1] if not isinstance(inputs[0], DenseOperator) else inputs[0].d
    mats = [_as_matrix(x, d) for x in inputs]
    s = frozenset(s)
    if any(not 1 <= i <= k for i in s):
        raise ValueError(f"subset out of range 1..{k}: {sorted(s)}")
    bar = k in s
    out = np.eye(d, dtype=complex)
    for i in [*range(k - 1, 0, -1), k] if bar else range(1, k + 1):
        out = out @ (mats[i - 1].swapaxes(-1, -2) if (i in s) != bar else mats[i - 1])
    return DenseOperator(1, d, out)


# ---------------------------------------------------------------------------
# forward cycle with one input -> reshuffling chain / single permutation
# ---------------------------------------------------------------------------

def _one_input_start(a: DenseOperator, k: int) -> DenseOperator:
    if k < 2:
        raise ValueError("need k >= 2")
    if a.n != 1:
        raise ValueError("the input must be a single-site operator")
    eyes = [dense_ops.identity(1, a.d) for _ in range(k - 2)]
    return dense_ops.kron([a] + eyes) if eyes else a


def evaluate_one_to_many(a: DenseOperator, k: int) -> DenseOperator:
    """tr_1[(1..k)^{T_k} A (x) 1 (x) ... (x) 1] via reshufflings on k-1 sites.

    Chain: reshuffle site k-1's ket with the bras of sites k-2, ..., 1 in
    turn.  k = 2 degenerates to the single-site transpose (the empty chain
    would return A itself, which the contraction oracle refutes).
    """
    out = _one_input_start(a, k)
    if k == 2:
        return dense_ops.reshuffle_sites(out, 1, 1)
    for l in range(k - 2, 0, -1):
        out = dense_ops.reshuffle_sites(out, k - 1, l)
    return out


def reshuffling_chain_permutation(k: int) -> Permutation:
    """The S_{2(k-1)} permutation equivalent to the reshuffling chain.

    For kp = k-1 >= 2 it is the cycle (2kp-1, 2kp-2, ..., kp+1, kp) on the
    flattened slots (rows 1..kp, columns kp+1..2kp); for k = 2 it is the
    transposition of the two slots.
    """
    kp = k - 1
    if kp < 1:
        raise ValueError("need k >= 2")
    if kp == 1:
        return Permutation.from_cycles([(1, 2)], 2)
    cycle = tuple(range(2 * kp - 1, kp - 1, -1))
    return Permutation.from_cycles([cycle], 2 * kp)


def evaluate_one_to_many_via_pi(a: DenseOperator, k: int) -> DenseOperator:
    """Same map as evaluate_one_to_many, done as one index permutation."""
    out = _one_input_start(a, k)
    return dense_ops.permutation_on_operator(reshuffling_chain_permutation(k), out)


# ---------------------------------------------------------------------------
# hand-coded closed forms of the (n=4, k=1) mixed-symmetry projector maps
# ---------------------------------------------------------------------------

def _mixed_symmetry_scale(d: int) -> float:
    # the unnormalized projector expansion is dimension-generic; only the
    # scalar normalization (1 at d=2) varies with d
    return 1.0 / float(gamma(Partition((2, 1)), Partition((2,)), 4, 1, d))


def f_projector_map_2to2(a: np.ndarray, b: np.ndarray) -> DenseOperator:
    """Two-input map of the mixed-symmetry projector on 3+1 sites.

    Closed form of tr_12[F (A (x) B (x) 1 (x) 1)] for F = F_{(2,1)}((2)),
    whose unnormalized expansion carries +1/3 on the six order-two
    permutations that move the transposed site and -1/6 on the twelve
    order-three-and-four ones.  Symmetric in A <-> B.
    """
    d = a.shape[0]
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    eye = np.eye(d, dtype=complex)

    def two(x, y):
        return DenseOperator(2, d, dense_ops.kron_all([x, y]))

    r = dense_ops.reshuffle_bipartite
    tra, trb = np.trace(a), np.trace(b)
    pos = (trb * two(eye, a.T).mat + tra * two(eye, b.T).mat
           + (tra * trb + np.trace(a @ b)) * r(two(eye, eye)).mat
           + two(b, a.T).mat + two(a, b.T).mat)
    neg = (r(two(b @ a, eye)).mat + r(two(a @ b, eye)).mat
           + r(two(b, a.T)).mat + r(two(a, b.T)).mat
           + r(two(eye, b.T @ a.T)).mat + r(two(eye, a.T @ b.T)).mat
           + two(eye, a.T @ b.T).mat + two(eye, b.T @ a.T).mat
           + trb * (r(two(a, eye)).mat + r(two(eye, a.T)).mat)
           + tra * (r(two(b, eye)).mat + r(two(eye, b.T)).mat))
    return DenseOperator(2, d, _mixed_symmetry_scale(d) * (pos / 3.0 - neg / 6.0))


def f_projector_map_3to1(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> DenseOperator:
    """Three-input map of the same projector: tr_123[F (A (x) B (x) C (x) 1)].

    Fully symmetric: +1/3 on each transposed factor weighted by the other
    traces (single and pair), -1/6 on the transposed three-letter words and
    the trace-weighted transposed pair products.
    """
    d = a.shape[0]
    a, b, c = (np.asarray(x, dtype=complex) for x in (a, b, c))
    tra, trb, trc = np.trace(a), np.trace(b), np.trace(c)
    pos = ((trb * trc + np.trace(b @ c)) * a.T
           + (tra * trc + np.trace(a @ c)) * b.T
           + (tra * trb + np.trace(a @ b)) * c.T)
    words = [a @ c @ b, b @ a @ c, c @ b @ a, a @ b @ c, b @ c @ a, c @ a @ b]
    neg = sum(w.T for w in words)
    neg = neg + (trc * (a.T @ b.T + b.T @ a.T)
                 + trb * (a.T @ c.T + c.T @ a.T)
                 + tra * (b.T @ c.T + c.T @ b.T))
    return DenseOperator(1, d, _mixed_symmetry_scale(d) * (pos / 3.0 - neg / 6.0))
