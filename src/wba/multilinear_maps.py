"""Evaluation of the multilinear maps induced by kernel operators.

A kernel P on n = n_in + n_out sites defines
    Lambda(X_1, ..., X_{n_in}) = tr_{1..n_in}[ P (X_1 (x) ... (x) X_{n_in}
                                                 (x) 1^{n_out}) ].
``fast_evaluate`` contracts the inputs into the realized kernel one site at
a time, in a summation order it fixes, and serves every kernel, real or
complex; it holds the kernel plus two arrays of the first output's size,
no copy of the kernel.  ``evaluate_oracle`` computes the same map
literally through ``contract``, the one brute-force contraction of the
package (each nonzero kernel entry times the entries of the inputs'
Kronecker product that it meets, one flat gather per input and one bincount
in the kernel's order, the product never formed and the identity on the
output sites taken as a delta, not a factor), and is the ground truth
for both it and the closed forms below: single-cycle kernels with one
transposed site reduce to matrix products with a transpose inserted, those
with a transposed subset to products with transposes on the subset (or on
its complement, in reversed order, when the last site is transposed), and
forward cycles with a single input to a chain of site reshufflings or a
single index permutation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dense_ops
from .dense_ops import DenseOperator, SectorOperator
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

    kernel: object  # WbaElement | WbaDiagram | DenseOperator | SectorOperator
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
        """The kernel's d^n x d^n matrix; a sector-form kernel's rows are
        scattered into one (for the oracle)."""
        if isinstance(self.kernel, (DenseOperator, SectorOperator)):
            if self.kernel.d != self.d:
                raise ValueError("kernel local dimension mismatch")
            if isinstance(self.kernel, SectorOperator):
                return self.kernel.matrix()
            return self.kernel.mat
        return realize(self.kernel, self.d)


def _support(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of the nonzero entries of a matrix, or of any member
    of a stack of them, in row-major order."""
    return np.divmod(np.flatnonzero(mat.any(axis=tuple(range(mat.ndim - 2)))), mat.shape[-1])


def contract(kernel: DenseOperator, factors, keep) -> DenseOperator:
    """Literal contraction: tr over every site not in ``keep`` of kernel @ F,
    F = F_1 (x) F_2 (x) ... (x) 1, summed over the kernel's nonzero entries.

    The factors (at least one) are square and tile the kernel's sites from
    site 1 on; one may cover no site (1 x 1), one or several.  The sites
    after the last factor carry the identity and must be kept.  With
    ``keep`` empty the result is the full trace as a 1 x 1 operator, with
    every site kept it is kernel @ F.  With the kernel's rows r split into (traced a_r, kept i_r)
    sites and F's columns likewise, out[i_r, j] gets K[r, c] F[c, (a_r, j)]
    for each nonzero K[r, c] and each kept column j that the identity does
    not zero: j's identity-site digits are c's, so only the kept sites a
    factor covers give K[r, c] more than one term.  F is never formed: each
    factor is gathered once, at flat indices, and the terms are multiplied
    in place as K ((F_1 F_2) ...); one ``np.bincount`` adds each output
    entry's terms in row-major order of the kernel.  This is the ground
    truth every closed form is tested against.  The kernel and the factors
    may be stacks (leading axes, broadcast): the terms run over the union of
    the members' supports, and each member of the result is that member's
    contraction alone, bit for bit (a member's zero entries add exact zeros).
    """
    d, n = kernel.d, kernel.n
    keep = dense_ops._validate_sites(keep, n)
    sites = [next((m for m in range(n + 1) if np.shape(f)[-2:] == (d ** m,) * 2), None)
             for f in factors]
    covered = sum(s or 0 for s in sites)
    if not factors or None in sites or covered > n \
            or not set(range(covered + 1, n + 1)) <= set(keep):
        raise ValueError(f"factors of shapes {[np.shape(f) for f in factors]} "
                         f"do not tile {n} sites of dimension {d} up to kept identity sites")
    factors = [np.asarray(f) for f in factors]
    rows, cols = _support(kernel.mat)
    place = d ** np.arange(n - 1, -1, -1)       # the weight of each site's digit
    kept = np.array([s in keep for s in range(1, n + 1)], dtype=bool)
    width, ident = d ** len(keep), d ** (n - covered)   # kept columns, identity columns
    i_r = (rows[:, None] // place[kept] % d) @ place[n - len(keep):]    # r's output row
    spread = (np.arange(width)[:, None] // place[n - len(keep):] % d) @ place[kept]
    free = spread[::ident]                      # the kept columns on covered sites
    f_cols = (rows - spread[i_r])[:, None] + free       # (a_r, j): r's kept digits made j's
    stack = np.broadcast_shapes(kernel.mat.shape[:-2], *(f.shape[:-2] for f in factors))
    terms = np.empty(stack + f_cols.shape, dtype=np.result_type(kernel.mat, *factors))
    low = d ** n
    for t, (f, m) in enumerate(zip(factors, sites)):
        span, low = d ** m, low // d ** m       # factor t's dimension, its last site's weight
        g = f.reshape(f.shape[:-2] + (span * span,))[
            ..., cols[:, None] // low % span * span + f_cols // low % span]
        if t:
            terms *= g
        else:
            terms[...] = g
    np.multiply(kernel.mat[..., rows, cols, None], terms, out=terms)
    # one bin per (stack member, i_r, j), each added in input order: K's row-major
    # order; j is the free kept column followed by c's identity digits
    cells = ((i_r * width + cols % ident)[:, None] + np.arange(0, width, ident)).ravel()
    out = np.empty(np.prod(stack, dtype=int) * width ** 2, dtype=complex)
    bins = (np.arange(0, out.size, width ** 2)[:, None] + cells).ravel()
    out.real = np.bincount(bins, terms.real.ravel(), out.size)
    out.imag = np.bincount(bins, terms.imag.ravel(), out.size)
    return DenseOperator(len(keep), d, out.reshape(stack + (width, width)))


def evaluate_oracle(spec: MapSpec, inputs) -> DenseOperator:
    """The map by ``contract``: inputs on sites 1..n_in, identity on the rest."""
    if len(inputs) != spec.n_in:
        raise ValueError(f"expected {spec.n_in} inputs, got {len(inputs)}")
    kernel = DenseOperator(spec.sites, spec.d, spec.kernel_matrix())
    return contract(kernel, [_as_matrix(x, spec.d) for x in inputs],
                    range(spec.n_in + 1, spec.sites + 1))


# sector-row entries _first_input reads at once: with the index and term
# arrays of their nonzero entries (about 90 bytes each) it holds some 6 MB
_BAND_ENTRIES = 1 << 16


def _first_input(kernel: SectorOperator, x: np.ndarray) -> np.ndarray:
    """fast_evaluate's first step on a kernel given by its sector rows:
    the sum over the stored nonzero entries K[r, c] = K[(a, i), (b, j)] of
    K[r, c] X[b, a] into out[i, j], one np.bincount per real and imaginary
    part.  The output rows i come a band at a time, with the kernel rows
    (a, i) of every a, so each entry is summed within one band.  Each term
    is the dense step's product, and a band is read in order of a, then i,
    then b by the basis order within a sector, so each entry adds its terms
    in the (a, b) order of the dense step; the terms it skips are exact
    zeros, which leave a sum that starts at +0 as it is."""
    layout, d = kernel.layout, kernel.d
    dim, width = d ** kernel.n, kernel.rows.shape[1]
    rest = dim // d
    blocks = kernel.rows[:dim].reshape(d, rest, width)
    band = max(1, _BAND_ENTRIES // (d * width))
    out = np.empty((rest, rest), dtype=complex)
    for lo in range(0, rest, band):
        part = blocks[:, lo:lo + band]
        a, i, p = np.nonzero(part)
        c = layout.members[layout.sector[a * rest + lo + i], p]
        bins = i * rest + c % rest
        terms = part[a, i, p] * x[c // rest, a]
        size = part.shape[1] * rest
        out.real[lo:lo + band] = np.bincount(bins, terms.real, size).reshape(-1, rest)
        out.imag[lo:lo + band] = np.bincount(bins, terms.imag, size).reshape(-1, rest)
    return out


def fast_evaluate(spec: MapSpec, inputs) -> DenseOperator:
    """The map of any kernel, contracting one input at a time into it.

    Each step views the current tensor T as (d, rest, d, rest), its first
    row and column sites split off, and sums X[b, a] T[a, :, b, :] in the
    fixed order of (a, b) into one preallocated complex array through one
    scratch array, so the output keeps its row-block / column-block order
    and the kernel, real or complex, is neither copied nor cast: the working
    set is the kernel plus two arrays of the first output's size.  A kernel
    given by its sector rows (SectorOperator) takes its first input over
    the stored entries alone (_first_input), in the same order, and is never
    made dense.  With n_out = 0 the result is the 1 x 1 trace.  Each input
    is one d x d matrix; a stack of them is a ValueError.
    """
    if len(inputs) != spec.n_in:
        raise ValueError(f"expected {spec.n_in} inputs, got {len(inputs)}")
    d = spec.d
    mats = [_as_matrix(x, d) for x in inputs]
    for mat in mats:
        if mat.shape != (d, d):
            raise ValueError(f"input shape {mat.shape} is not one ({d}, {d}) matrix")
    if isinstance(spec.kernel, SectorOperator):
        if spec.kernel.d != d or spec.kernel.rows.ndim != 2:
            raise ValueError("a sector-form kernel must be one operator of dimension d")
        t, mats = _first_input(spec.kernel, mats[0]), mats[1:]
    else:
        t = spec.kernel_matrix()
    for mat in mats:
        rest = t.shape[0] // d
        t = t.reshape(d, rest, d, rest)
        out = np.zeros((rest, rest), dtype=complex)
        scratch = np.empty_like(out)
        for a in range(d):
            for b in range(d):
                out += np.multiply(t[a, :, b, :], mat[b, a], out=scratch)
        t = out
    return DenseOperator(spec.n_out, d, t)


# ---------------------------------------------------------------------------
# cycle kernels with transposed sites -> matrix products
# ---------------------------------------------------------------------------

def evaluate_cycle_to_one(direction: str, j: int, inputs) -> DenseOperator:
    """Closed form of tr over all sites but one of (cycle)^{T_j} X_1...X_k.

    backward (k..1), output on site k:
        j != k:  X_1 ... X_j^T ... X_k        j == k:  (X_1 ... X_{k-1})^T X_k
    forward (1..k), output on site 1:
        j != 1:  X_k ... X_j^T ... X_1        j == 1:  (X_k ... X_2)^T X_1
    (the two j-on-the-kept-site cases are mirror images of each other).
    The backward cycle is cycle_subset_to_one with S = {j}; the forward one
    is its mirror image under the relabelling i -> k+1-i.  d is read from
    the inputs, as there.
    """
    k = len(inputs)
    if not 1 <= j <= k:
        raise ValueError(f"transposed site {j} out of range 1..{k}")
    if direction == "backward":
        return cycle_subset_to_one({j}, inputs)
    if direction == "forward":
        return cycle_subset_to_one({k + 1 - j}, inputs[::-1])
    raise ValueError(f"direction must be forward or backward, got {direction!r}")


def cycle_subset_to_one(s, inputs) -> DenseOperator:
    """tr_{1..k-1}[(k..1)^{T_S} X_1 (x) ... (x) X_k] for any S: a product
    with transposes steered by S.

    theta (k not in S): X_1' ... X_k' with X_i' = X_i^T iff i in S.
    theta-bar (k in S): the product in the order (X_{k-1}, ..., X_1, X_k)
        with exactly the factors whose index is NOT in S transposed.  (The
        subset, not the tuple positions, decides the transposes; this is the
        reading the contraction oracle confirms.)
    Stacked inputs give the stack of the products.  d is read from the first
    input (d x d matrices or single-site operators, or stacks of them); an
    input of another size is a ValueError.
    """
    k = len(inputs)
    if not k:
        raise ValueError("need at least one input")
    d = inputs[0].d if isinstance(inputs[0], DenseOperator) else np.shape(inputs[0])[-1]
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
