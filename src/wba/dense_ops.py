"""Dense operators on (C^d)^{tensor n} and their index gymnastics.

Row/column indices pack big-endian in site order (site 1 most significant),
so <i|sigma|j> = prod_t delta(i_{sigma(t)}, j_t) holds literally and
``kron_all`` is the numpy Kronecker product of a whole list, entry for entry.
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
    """Complex matrix on (C^d)^{tensor n} remembering its factor shape."""

    n: int
    d: int
    mat: np.ndarray

    def __post_init__(self):
        dim = self.d ** self.n
        if self.mat.shape != (dim, dim):
            raise ValueError(f"matrix shape {self.mat.shape} != ({dim}, {dim})")

    @property
    def tensor(self) -> np.ndarray:
        """View with 2n axes: row axes 1..n then column axes 1..n."""
        return self.mat.reshape((self.d,) * (2 * self.n))


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
    entry is bit-identical to reduce(np.kron, mats) and needs no transpose."""
    mats = [np.asarray(m) for m in mats]
    if not mats:
        raise ValueError("need at least one factor")
    nd, p = max(m.ndim for m in mats), len(mats)
    shapes = [(1,) * (nd - m.ndim) + m.shape for m in mats]  # np.kron's padding
    spread = [m.reshape([shape[i // p] if i % p == f else 1 for i in range(nd * p)])
              for f, (m, shape) in enumerate(zip(mats, shapes))]
    return reduce(np.multiply, spread).reshape([prod(axis) for axis in zip(*shapes)])


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
    axes[t] of m), packed back to d^n x d^n."""
    dim = m.d ** m.n
    return DenseOperator(m.n, m.d, m.tensor.transpose(axes).reshape(dim, dim))


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
