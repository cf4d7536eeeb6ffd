"""Dense operators on (C^d)^{tensor n} and their index gymnastics.

Row/column indices pack big-endian in site order (site 1 most significant),
so <i|sigma|j> = prod_t delta(i_{sigma(t)}, j_t) holds literally and
``kron_all`` is the numpy Kronecker product of a whole list, entry for entry.
An operator's matrix may carry leading stack axes, one operator per entry:
``kron_all``, ``kron`` and the axis reorderings act on each member alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import prod

import numpy as np

from .sym_core import Permutation
from .tolerances import ATOL


@dataclass(frozen=True)
class DenseOperator:
    """Complex matrix on (C^d)^{tensor n} remembering its factor shape, or a
    stack of them (leading axes before the d^n x d^n ones)."""

    n: int
    d: int
    mat: np.ndarray

    def __post_init__(self):
        dim = self.d ** self.n
        if self.mat.shape[-2:] != (dim, dim):
            raise ValueError(f"matrix shape {self.mat.shape} != ({dim}, {dim})")

    @property
    def tensor(self) -> np.ndarray:
        """View with the stack axes, then 2n axes: row axes 1..n, column axes 1..n."""
        return self.mat.reshape(self.mat.shape[:-2] + (self.d,) * (2 * self.n))


def identity(n: int, d: int) -> DenseOperator:
    return DenseOperator(n, d, np.eye(d ** n, dtype=complex))


def sup_norm(mat: np.ndarray) -> float:
    """Largest entry magnitude; the tolerance norm used throughout."""
    return float(np.max(np.abs(mat))) if mat.size else 0.0


def _validate_sites(sites, n: int) -> tuple[int, ...]:
    sites = tuple(sorted(set(sites)))
    if any(not 1 <= s <= n for s in sites):
        raise ValueError(f"sites out of range 1..{n}: {sites}")
    return sites


def kron_all(mats) -> np.ndarray:
    """Kronecker product of a non-empty list of arrays, first factor most
    significant, in one pass: factor f is spread over axes f, p + f, ... of
    one grid and the factors are multiplied there left to right, so each
    entry is bit-identical to reduce(np.kron, mats) and needs no transpose.
    Axes before the last two are stack axes, broadcast across the factors:
    a stack's product is that of each member alone."""
    mats = [np.asarray(m) for m in mats]
    if not mats:
        raise ValueError("need at least one factor")
    nd, p = max(m.ndim for m in mats), len(mats)
    lead = max(nd - 2, 0)   # stack axes, broadcast; the Kronecker axes follow
    shapes = [(1,) * (nd - m.ndim) + m.shape for m in mats]  # np.kron's padding
    spread = []
    for f, (m, shape) in enumerate(zip(mats, shapes)):
        grid = [*shape[:lead]] + [1] * ((nd - lead) * p)
        grid[lead + f::p] = shape[lead:]
        spread.append(m.reshape(grid))
    out = reduce(np.multiply, spread)
    dims = [prod(axis) for axis in zip(*shapes)]
    dims[:lead] = out.shape[:lead]
    return out.reshape(dims)


def kron(factors: list[DenseOperator]) -> DenseOperator:
    """Tensor product in listed order; site 1 comes from the first factor."""
    if not factors:
        raise ValueError("need at least one factor")
    d = factors[0].d
    if any(f.d != d for f in factors):
        raise ValueError("local dimension mismatch among factors")
    return DenseOperator(sum(f.n for f in factors), d, kron_all([f.mat for f in factors]))


def _reorder(m: DenseOperator, axes) -> DenseOperator:
    """m with its 2n tensor axes reordered (axis t of the result is axis
    axes[t] of m), packed back to d^n x d^n; stack axes stay in front."""
    lead = m.mat.ndim - 2
    if lead:
        axes = [*range(lead), *(a + lead for a in axes)]
    return DenseOperator(m.n, m.d, m.tensor.transpose(axes).reshape(m.mat.shape))


def partial_transpose(m: DenseOperator, over) -> DenseOperator:
    """Swap row and column indices on the listed sites (computational basis)."""
    over = _validate_sites(over, m.n)
    axes = list(range(2 * m.n))
    for s in over:
        axes[s - 1], axes[m.n + s - 1] = axes[m.n + s - 1], axes[s - 1]
    return _reorder(m, axes)


def reshuffle_bipartite(m: DenseOperator) -> DenseOperator:
    """|i><j| (x) |k><l|  ->  |i><k| (x) |j><l|  (two sites only)."""
    if m.n != 2:
        raise ValueError("reshuffle_bipartite needs n = 2; use reshuffle_sites")
    return reshuffle_sites(m, 2, 1)


def reshuffle_sites(m: DenseOperator, ket_site: int, bra_site: int) -> DenseOperator:
    """Exchange the ket (row) index of one site with the bra (column) index
    of another: row slot ket_site takes what column slot bra_site held and
    vice versa.  reshuffle_sites(m, 2, 1) equals reshuffle_bipartite(m), and
    ket_site == bra_site is the single-site partial transpose."""
    for s in (ket_site, bra_site):
        if not 1 <= s <= m.n:
            raise ValueError(f"site {s} out of range 1..{m.n}")
    axes = list(range(2 * m.n))
    a, b = ket_site - 1, m.n + bra_site - 1
    axes[a], axes[b] = axes[b], axes[a]
    return _reorder(m, axes)


def permutation_on_operator(pi: Permutation, m: DenseOperator) -> DenseOperator:
    """Act with pi in S_{2n} on the operator flattened as |i><j| -> |i>|j>.

    Slots 1..n are the row indices, n+1..2n the column indices; slot t of the
    image holds what slot pi^-1(t) held.
    """
    if pi.n != 2 * m.n:
        raise ValueError(f"need a permutation of degree 2n = {2 * m.n}, got {pi.n}")
    inv = pi.inverse()
    return _reorder(m, [inv(t) - 1 for t in range(1, 2 * m.n + 1)])


def covariance_residual(m: DenseOperator, conjugated) -> float:
    """Largest sup_norm of [M, A_X] over the simple-root matrices X = E_{a,a+1}
    and E_{a+1,a} of gl(d), where A_X is X summed over the sites not in
    ``conjugated`` minus X^T summed over those in it: the derived action of
    U -> U on the plain sites (x) conj(U) on the conjugated ones.  These X
    generate sl(d) and the identity acts as a scalar, so, U(d) being
    connected, M commutes with every such product of unitaries exactly when
    the residual is 0 (the walled-Brauer form of Schur-Weyl duality).

    One site's X moves one index slice: [M, E_ab on site s] adds M's column
    slice a of s into column slice b and subtracts its row slice b from row
    slice a; the minus sign and the transpose of a conjugated site exchange
    the roles of its row and column.  All of it runs on one accumulator of
    M's size and dtype, with no product and no random draw."""
    n, d, t = m.n, m.d, m.tensor
    conjugated = _validate_sites(conjugated, n)
    acc = np.empty_like(t)
    worst = 0.0
    for a, b in [(c, c + 1) for c in range(d - 1)] + [(c + 1, c) for c in range(d - 1)]:
        acc.fill(0)
        for s in range(n):
            into, outof = (s, n + s) if s + 1 in conjugated else (n + s, s)
            for axis, src, dst, ufunc in ((into, a, b, np.add), (outof, b, a, np.subtract)):
                view = acc[(..., dst) + (slice(None),) * (2 * n - 1 - axis)]
                ufunc(view, t[(..., src) + (slice(None),) * (2 * n - 1 - axis)], out=view)
        worst = max(worst, float(np.abs(acc, out=acc).real.max()))
    return worst


def random_matrix(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Square complex Gaussian matrix (entries N(0,1/2) + i N(0,1/2))."""
    dim = d ** n
    return (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)


def random_psd(d: int, n: int, seed) -> DenseOperator:
    """G G^dagger for a seeded complex Gaussian G; hermitian and PSD."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    g = random_matrix(d, n, rng)
    return DenseOperator(n, d, g @ g.conj().T)


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    q, r = np.linalg.qr(random_matrix(d, 1, rng))
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def min_eigenvalue(m: DenseOperator) -> float:
    dev = sup_norm(m.mat - m.mat.conj().T)
    if dev > ATOL:
        raise ValueError(f"matrix is not hermitian (deviation {dev:.3g})")
    return float(np.linalg.eigvalsh(m.mat)[0])


def matrix_to_json_rows(mat: np.ndarray) -> list[list[dict]]:
    """Array-of-rows with {re, im} entries, the matrix wire format."""
    return [[{"re": float(v.real), "im": float(v.imag)} for v in row] for row in mat]
