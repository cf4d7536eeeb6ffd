"""Dense operators on (C^d)^{tensor n} and their index gymnastics.

Row/column indices pack big-endian in site order (site 1 most significant),
so <i|sigma|j> = prod_t delta(i_{sigma(t)}, j_t) holds literally and
``kron_all`` is the numpy Kronecker product of a whole list, entry for entry.
An operator's matrix may carry leading stack axes, one operator per entry:
``kron_all``, the axis reorderings and ``min_eigenvalue`` act on each member
alone, bit for bit as on a call of its own.  A walled operator may be held
as its weight-sector rows (SectorOperator), which ``covariance_residual``
and ``idempotence_residual`` read in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
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


# weight-sector layouts kept at once; each holds a few index arrays of about d^n entries
_LAYOUTS = 8
# frame entries a covariance step takes at once (a frame is 2 (d^n + 1) x
# width, one a simple root): it bounds the roots a step moves together, not
# the entries, as a step takes at least one root, twice the entries of the
# rows (1.55M at (6,2) d=4)
_WORK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class SectorLayout:
    """The weight sectors of (C^d)^{tensor n} for U on the plain sites and
    conj(U) on the conjugated ones: basis index i has the weight
    w_c = #{plain sites holding c} - #{conjugated sites holding c}, and the
    diagonal unitaries act on it by one phase per weight.  Any sites may be
    the conjugated ones; sectors are numbered by their first basis index
    and keep the basis order within.

    ``below`` serves covariance_residual: for each simple root X = E_ab, the
    raising (c, c + 1) then the lowering (c + 1, c), and each index, the
    sector w from which [M_w, A_X] maps into that index's sector."""

    plain: np.ndarray       # (n,) whether each site is plain, not conjugated
    sector: np.ndarray      # (d^n,) sector of each basis index
    position: np.ndarray    # (d^n,) its place in that sector
    members: np.ndarray     # (sectors + 1, width): each sector's indices by place, padded with
                            # d^n; width exceeds the largest sector and the last row is all pad
    below: np.ndarray       # (roots, d^n): for index i of weight w, the sector of weight
                            # w - e_a + e_b, or -1 (the all-pad row of members)

    def __post_init__(self):
        for array in vars(self).values():     # cached and shared: read only
            array.setflags(write=False)


def sector_layout(n: int, d: int, conjugated) -> SectorLayout:
    """The weight sectors of n sites of dimension d with the sites in
    ``conjugated`` conjugated (cached by the sorted sites, a few at a time)."""
    return _sector_layout(n, d, _validate_sites(conjugated, n))


@lru_cache(maxsize=_LAYOUTS)
def _sector_layout(n: int, d: int, conjugated: tuple[int, ...]) -> SectorLayout:
    dim = d ** n
    place = d ** np.arange(n - 1, -1, -1)
    digits = np.arange(dim) // place[:, None] % d
    plain = np.array([s not in conjugated for s in range(1, n + 1)], dtype=bool)
    weights = (np.eye(d, dtype=int)[digits] * np.where(plain, 1, -1)[:, None, None]).sum(0)
    numbers: dict[tuple, int] = {}      # weight -> sector, numbered by first index
    sector = np.array([numbers.setdefault(w, len(numbers)) for w in map(tuple, weights.tolist())])
    sizes = np.bincount(sector)
    order = np.argsort(sector, kind="stable")
    position = np.empty(dim, dtype=np.intp)
    position[order] = np.arange(dim) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    members = np.full((len(sizes) + 1, sizes.max() + 1), dim)
    members[sector, position] = np.arange(dim)
    # A_X turns digit x into y on a site, (x, y) = (a, b) on a plain site,
    # (b, a) on a conjugated one (A_X has -X^T there): that takes weight w to
    # w - e_a + e_b, and if some index has it, some index of weight w holds an x
    c = np.arange(d - 1)
    a, b = np.r_[c, c + 1][:, None], np.r_[c + 1, c][:, None]
    x, y = np.where(plain, a, b), np.where(plain, b, a)
    root, site, index = np.nonzero(digits == x[..., None])
    below = np.full((len(a), len(sizes)), -1)
    below[root, sector[index]] = sector[index + (y - x)[root, site] * place[site]]
    return SectorLayout(plain, sector, position, members, below[:, sector])


@dataclass(frozen=True)
class SectorOperator:
    """A walled operator M on (C^d)^{tensor n} by its entries within the
    weight sectors of sector_layout(n, d, conjugated), which hold all of M.

    ``rows`` is (d^n + 1, width): row i holds M[i, j] for the j of i's
    sector by place, and the pads and the last row are zero.
    realize_sectors writes them."""

    n: int
    d: int
    conjugated: tuple[int, ...]
    rows: np.ndarray

    def __post_init__(self):
        shape = (self.d ** self.n + 1, self.layout.members.shape[1])
        if self.rows.shape != shape:
            raise ValueError(f"sector rows of shape {self.rows.shape} != {shape}")

    @property
    def layout(self) -> SectorLayout:
        return sector_layout(self.n, self.d, self.conjugated)


@dataclass(frozen=True)
class ListedOperator:
    """An operator on (C^d)^{tensor n}, or a stack of them, by its listed
    entries: ``rows`` and ``cols`` in row-major order, no pair twice, and
    ``values`` with the stack axes in front of the entry axis.  Entries not
    listed are zero.  wba_algebra.list_entries writes a diagram's or an
    element's, with no d^n x d^n array.

    ``rows`` and ``cols`` may carry member axes in front of the entry axis
    too, each member listing its own entries (as many for every member):
    wba_algebra.list_permutations writes a stack of diagrams so.  The
    member axes broadcast with the values' stack axes, as stack axes do."""

    n: int
    d: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        rows, values = self.rows.shape, self.values.shape
        if rows != self.cols.shape or rows[-1:] != values[-1:] \
                or any(a != b and 1 not in (a, b) for a, b in zip(rows[::-1], values[::-1])):
            raise ValueError(f"rows {self.rows.shape}, columns {self.cols.shape} and values "
                             f"{self.values.shape} do not list one set of entries")


def _support(op) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, columns and values of the operator's stored entries in row-major
    order, the one reader of them (multilinear_maps.contract's): for a
    DenseOperator its nonzero entries, those of any member of its stack (the
    values with the stack axes in front), for a SectorOperator its stored
    entries, whose places within a sector follow the basis order, and for a
    ListedOperator its listing as it is, rows and columns with their member
    axes if they have any."""
    if isinstance(op, ListedOperator):
        return op.rows, op.cols, op.values
    if isinstance(op, SectorOperator):
        layout, width = op.layout, op.rows.shape[1]
        rows, place = np.divmod(np.flatnonzero(op.rows[:op.d ** op.n]), width)
        return rows, layout.members[layout.sector[rows], place], op.rows[rows, place]
    mat = op.mat
    rows, cols = np.divmod(np.flatnonzero(mat.any(axis=tuple(range(mat.ndim - 2)))),
                           mat.shape[-1])
    return rows, cols, mat[..., rows, cols]


def covariance_residual(f: SectorOperator) -> float:
    """How far a walled M, given by its sector rows, is from commuting with
    U on the plain sites (x) conj(U) on f.conjugated, for every unitary U:
    the largest sup_norm of [M, A_X] over the simple-root matrices
    X = E_{a,a+1} and E_{a+1,a} of gl(d), where A_X is X summed over the
    plain sites minus X^T summed over the conjugated ones: the derived
    action.  The sector rows hold all of M, so M commutes with the diagonal
    unitaries.

    These X generate sl(d), the identity acts as a scalar and U(d) is
    connected, so the residual is 0 exactly when M commutes with every such
    product (the walled-Brauer form of Schur-Weyl duality).  A_X moves one
    site's index between a and b, which maps sector w to w + e_a - e_b, so
    [M_w, A_X] has only the blocks from w to w + e_a - e_b.  They are formed
    from M's blocks packed by place, by column for M A_X and by row for
    A_X M, on the (d,)*n grid of indices: each site's move, for all the
    roots of one kind that a step holds, is one in-place add or subtract of
    two strided views of that grid, with no index table, no product and no
    random draw; f.rows is read in place, and each step takes the roots
    whose frames fit in _WORK_ENTRIES entries (at least one)."""
    layout, rows = f.layout, f.rows
    dim, width = rows.shape[0] - 1, rows.shape[1]
    roots, dtype, d = len(layout.below), rows.dtype, len(layout.below) // 2 + 1
    spans = layout.members * width
    # M's blocks by column, then minus them by row, and per root a frame for
    # M A_X by column, then -A_X M by row: each a (d,)*n grid of index rows
    packed = np.empty((2, dim, width), dtype=dtype)
    rows.reshape(-1).take(spans[layout.sector] + layout.position[:, None], out=packed[0],
                          mode="clip")
    np.negative(rows[:dim], out=packed[1])
    step = max(1, min(roots, _WORK_ENTRIES // (2 * (dim + 1) * width)))     # roots at once
    moved = np.empty((step, 2, dim + 1, width), dtype=dtype)
    frame, half, ahead, size = moved.strides[:2] + packed.strides[:1] + (dtype.itemsize,)
    worst = 0.0
    for lo in range(0, roots, step):
        hi = min(roots, lo + step)
        frames = moved[:hi - lo]
        frames.fill(0)
        # the step's raising roots (c, c + 1), then its lowering ones (c + 1, c)
        for first, last in ((lo, min(hi, d - 1)), (max(lo, d - 1), hi)):
            for s, plain in enumerate(layout.plain.tolist() if first < last else ()):
                # the frames' rows with digit y on site s by column and x by row
                # take packed's with x and y, for the first root's c; each next
                # root of the step is a frame and a digit on
                c, digit = first % (d - 1), packed.strides[1] * d ** (len(layout.plain) - 1 - s)
                y = c + (plain == (first < d - 1))
                x, shape = 2 * c + 1 - y, (last - first, 2, d ** s, digit // size)
                into = np.ndarray(shape, dtype, moved, (first - lo) * frame + y * digit,
                                  (frame + digit, half + (x - y) * digit, d * digit, size))
                source = np.ndarray(shape, dtype, packed, x * digit,
                                    (digit, ahead + (y - x) * digit, d * digit, size))
                (np.add if plain else np.subtract)(into, source, out=into)
        # the block (w + e_a - e_b, w) read from both sides at row i and
        # the p-th index j of w: at [i, p] by row, at [j, place of i] by
        # column; the commutator is formed in the gathered array, and no
        # step's arrays outlive it
        by_column = spans.take(layout.below[lo:hi], axis=0)
        by_column += (layout.position[:, None]
                      + np.arange(hi - lo)[:, None, None] * (2 * (dim + 1) * width))
        commutator = frames.reshape(-1).take(by_column)
        del by_column
        commutator += frames[:, 1, :dim]
        magnitude = np.abs(commutator, out=commutator if commutator.dtype.kind == "f" else None)
        worst = np.maximum(worst, magnitude.max())      # sup_norm, NaN kept
        del commutator, magnitude
    return float(worst)


def idempotence_residual(f: SectorOperator) -> float:
    """sup_norm(M @ M - M) for a walled M given by its sector rows: the
    largest of |M_w M_w - M_w| over the blocks M_w of the weight sectors,
    which hold all of M, so no d^n x d^n product is formed."""
    dim, worst = f.d ** f.n, []
    for members in f.layout.members[:-1]:
        members = members[members < dim]
        block = f.rows[members, :len(members)]
        worst.append(sup_norm(block @ block - block))
    return float(np.max(worst))


def complex_gaussian(z: np.ndarray) -> np.ndarray:
    """(re + i im) / sqrt(2) of raw standard normals z of shape
    (..., 2, dim, dim): complex Gaussian matrices, entries N(0,1/2) + i N(0,1/2)."""
    return (z[..., 0, :, :] + 1j * z[..., 1, :, :]) / np.sqrt(2)


def random_matrix(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Square d^n x d^n complex Gaussian matrix, from one (2, d^n, d^n) draw of normals."""
    return complex_gaussian(rng.standard_normal((2, d ** n, d ** n)))


def random_psd(d: int, n: int, seed) -> DenseOperator:
    """G G^dagger for a complex Gaussian G drawn from ``seed``, a Generator
    (used as is) or a seed; hermitian and PSD."""
    g = random_matrix(d, n, np.random.default_rng(seed))
    return DenseOperator(n, d, g @ g.conj().T)


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    q, r = np.linalg.qr(random_matrix(d, 1, rng))
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def min_eigenvalue(m: DenseOperator):
    """Least eigenvalue of a finite hermitian M (within ATOL times
    max(1, sup_norm(M))), or an array of those of each member of a stack,
    from one stacked eigvalsh.  The norm is taken only for the members past
    ATOL itself.  The first member in row-major order that is not finite or
    not hermitian raises the one-line message a call on it alone raises."""
    mats = m.mat.reshape((-1,) + m.mat.shape[-2:])
    diff = mats.swapaxes(1, 2).copy()      # |M - M^dagger| in this one copy, each step in place
    np.conjugate(diff, out=diff)
    with np.errstate(invalid="ignore"):     # inf - inf: a non-finite member fails either way
        np.subtract(mats, diff, out=diff)
    dev = np.abs(diff, out=diff).real.max(axis=(1, 2))     # via numpy's bounded cast buffer
    del diff
    passed = dev <= ATOL
    if not passed.all():
        wide = np.flatnonzero(~passed)
        scale = np.abs(mats[wide]).max(axis=(1, 2))     # inf or NaN fails below
        passed[wide] = np.isfinite(scale) & (dev[wide] <= ATOL * np.maximum(1.0, scale))
    if not passed.all():
        first = np.argmin(passed)
        if not np.isfinite(mats[first]).all():
            raise ValueError("matrix is not a finite hermitian one (non-finite entry)")
        raise ValueError(f"matrix is not a finite hermitian one (deviation {dev[first]:.3g})")
    least = np.linalg.eigvalsh(m.mat)[..., 0]
    return least if least.ndim else float(least)
