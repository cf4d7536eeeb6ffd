"""Dense operators on (C^d)^{tensor n} and their index gymnastics.

Row/column indices pack big-endian in site order (site 1 most significant),
so <i|sigma|j> = prod_t delta(i_{sigma(t)}, j_t) holds literally and
``kron_all`` is the numpy Kronecker product of a whole list, entry for entry.
An operator's matrix may carry leading stack axes, one operator per entry:
``kron_all``, ``kron``, the axis reorderings, ``covariance_residual`` and
``min_eigenvalue`` act on each member alone, bit for bit as on a call of its own.
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


# weight-sector layouts kept at once; each holds a few index arrays of about d^n entries
_LAYOUTS = 8
# frame entries a covariance step takes at once (a frame is 2 (d^n + 1) x
# width, one a simple root and member): it bounds the roots a step runs, or
# for a stack the members a group holds, not the entries, since a step takes
# at least one root of one member (1.55M entries at (6,2) d=4); it also
# bounds the band of rows _sector_rows scans between the sectors
_WORK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class SectorLayout:
    """The weight sectors of (C^d)^{tensor n} for U on the plain sites and
    conj(U) on the conjugated ones: basis index i has the weight
    w_c = #{plain sites holding c} - #{conjugated sites holding c}, and the
    diagonal unitaries act on it by one phase per weight.  The conjugated
    sites are the last k; sectors are numbered by their first basis index
    and keep the basis order within.

    ``below`` and ``moves`` serve covariance_residual, whose simple roots
    X = E_ab come in _simple_roots order.  Each root has a frame of
    2 (d^n + 1) rows of packed blocks: M A_X by column, then A_X M by row."""

    plain: np.ndarray       # (n,) whether the sites of moves are plain: the first n - k
    sector: np.ndarray      # (d^n,) sector of each basis index
    position: np.ndarray    # (d^n,) its place in that sector
    members: np.ndarray     # (sectors + 1, width): each sector's indices by place, padded with
                            # d^n; width exceeds the largest sector and the last row is all pad
    below: np.ndarray       # (roots, d^n): for index i of weight w, the sector of weight
                            # w - e_a + e_b, or -1 (the all-pad row of members)
    moves: np.ndarray       # (roots, n, 2, 2 d^(n-1)): for one site's index move, the frame
                            # rows it adds into, then the packed rows it adds

    def __post_init__(self):
        for array in vars(self).values():     # cached and shared: read only
            array.setflags(write=False)


def _simple_roots(d: int) -> np.ndarray:
    """(2(d-1), 2) array of the (a, b) of X = E_ab: the raising, then the lowering."""
    return np.array([(c, c + 1) for c in range(d - 1)] + [(c + 1, c) for c in range(d - 1)],
                    dtype=int).reshape(-1, 2)


@lru_cache(maxsize=_LAYOUTS)
def sector_layout(n: int, d: int, k: int) -> SectorLayout:
    """The weight sectors of n sites of dimension d with the last k
    conjugated (cached, a few layouts at a time)."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n = {n}, got k = {k}")
    dim = d ** n
    place = d ** np.arange(n - 1, -1, -1)
    digits = np.arange(dim) // place[:, None] % d
    plain = np.arange(n) < n - k
    weights = (np.eye(d, dtype=int)[digits] * np.where(plain, 1, -1)[:, None, None]).sum(0)
    numbers: dict[tuple, int] = {}      # weight -> sector, numbered by first index
    sector = np.array([numbers.setdefault(w, len(numbers)) for w in map(tuple, weights.tolist())])
    sizes = np.bincount(sector)
    order = np.argsort(sector, kind="stable")
    position = np.empty(dim, dtype=np.intp)
    position[order] = np.arange(dim) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    members = np.full((len(sizes) + 1, sizes.max() + 1), dim)
    members[sector, position] = np.arange(dim)
    # M A_X takes M's columns with digit x on a site to digit y, and A_X M its
    # rows with digit y to digit x: (x, y) = (a, b) on a plain site, (b, a) on
    # a conjugated one (A_X has -X^T there); the packed rows are M's blocks by
    # column, then minus them by row
    roots = _simple_roots(d)
    a, b = roots[:, :1], roots[:, 1:]
    x, y = np.where(plain, a, b), np.where(plain, b, a)
    shift = ((x - y) * place)[..., None]
    into_y, into_x = (np.nonzero(digits == target[..., None])[2].reshape(len(roots), n, dim // d)
                      for target in (y, x))
    # a digit x turned to y takes weight w to w - e_a + e_b; if some index has
    # that weight, some index of weight w holds an x
    below = np.full((len(roots), len(sizes)), -1)
    below[np.arange(len(roots))[:, None, None], sector[into_x]] = sector[into_x - shift]
    below = below[:, sector]
    frames = (np.arange(len(roots)) * 2 * (dim + 1))[:, None, None]
    moves = np.empty((len(roots), n, 2, 2, dim // d), dtype=int)
    moves[:, :, 0, 0], moves[:, :, 0, 1] = into_y + frames, into_x + frames + dim + 1
    moves[:, :, 1, 0], moves[:, :, 1, 1] = into_y + shift, into_x - shift + dim
    moves = moves.reshape(len(roots), n, 2, 2 * dim // d)
    return SectorLayout(plain, sector, position, members, below, moves)


def _conjugated_last(m: DenseOperator, conjugated) -> tuple[np.ndarray, int]:
    """M's matrix with the conjugated sites moved last, and their number.

    U -> conj(U) maps U(d) onto itself, so M commutes with U on the plain
    sites (x) conj(U) on the conjugated ones for every U exactly when it
    does with the sides exchanged: the weights change sign, and the sectors
    and the residuals below stay the same.  So the side of at most n/2
    sites is taken as the conjugated one, and M's sites are reordered only
    when those are not already the last."""
    n = m.n
    conjugated = _validate_sites(conjugated, n)
    if 2 * len(conjugated) > n:
        conjugated = tuple(s for s in range(1, n + 1) if s not in conjugated)
    k = len(conjugated)
    if conjugated != tuple(range(n - k + 1, n + 1)):
        sites = [s for s in range(n) if s + 1 not in conjugated] + [s - 1 for s in conjugated]
        m = _reorder(m, sites + [n + s for s in sites])
    return m.mat, k


@dataclass(frozen=True)
class SectorOperator:
    """An operator on (C^d)^{tensor n} by its entries within the weight
    sectors of sector_layout(n, d, k), or a stack of them (leading axes).

    ``rows`` is (..., d^n + 1, width): row i holds M[i, j] for the j of i's
    sector by place, and the pads and the last row are zero.  ``off`` is the
    largest |M| between two different sectors (an array for a stack): those
    entries are not kept, so the operator stored is M's block-diagonal part.
    realize_sectors writes the rows of an element, sector_form gathers them
    from a dense matrix."""

    n: int
    d: int
    k: int
    rows: np.ndarray
    off: float | np.ndarray

    def __post_init__(self):
        shape = (self.d ** self.n + 1, self.layout.members.shape[1])
        if self.rows.shape[-2:] != shape:
            raise ValueError(f"sector rows of shape {self.rows.shape} != {shape}")

    @property
    def layout(self) -> SectorLayout:
        return sector_layout(self.n, self.d, self.k)

    def matrix(self) -> np.ndarray:
        """The d^n x d^n matrix of the stored entries (zero off the sectors)."""
        layout, dim = self.layout, self.d ** self.n
        mat = np.zeros(self.rows.shape[:-2] + (dim, dim + 1), self.rows.dtype)  # pads: column d^n
        mat[..., np.arange(dim)[:, None], layout.members[layout.sector]] = self.rows[..., :dim, :]
        return np.ascontiguousarray(mat[..., :dim])


def _sector_rows(mat: np.ndarray, layout: SectorLayout):
    """The rows of SectorOperator gathered from M, and the largest |M|
    between two different sectors: 0 when M has no other nonzero entry,
    else found a band of rows at a time.  A stack of M gives the stack of
    rows and an array of those largest |M|."""
    lead, dim = mat.shape[:-2], mat.shape[-1]
    cols = layout.members[layout.sector]
    rows = np.zeros(lead + (dim + 1, cols.shape[1]), dtype=mat.dtype)
    np.copyto(rows[..., :dim, :], mat[..., np.arange(dim)[:, None], np.minimum(cols, dim - 1)],
              where=cols < dim)
    off = np.zeros(lead)
    if np.count_nonzero(mat) != np.count_nonzero(rows):     # some member has entries outside
        spill = np.count_nonzero(mat, axis=(-2, -1)) != np.count_nonzero(rows, axis=(-2, -1))
        outside, bands = mat[spill], []
        step = max(1, _WORK_ENTRIES // (len(outside) * dim))
        for lo in range(0, dim, step):
            band = np.abs(outside[:, lo:lo + step])
            band[:, layout.sector[lo:lo + step, None] == layout.sector] = 0
            bands.append(band.max(axis=(-2, -1)))
        off[spill] = np.max(bands, axis=0)
    return rows, (off if lead else float(off))


def sector_form(m: DenseOperator, conjugated) -> SectorOperator:
    """M (or a stack of M) by its weight-sector rows for U on the plain
    sites (x) conj(U) on the sites in ``conjugated``, gathered from its
    matrix; M's sites are moved first when the conjugated side of at most
    n/2 sites is not the last (_conjugated_last)."""
    mat, k = _conjugated_last(m, conjugated)
    return SectorOperator(m.n, m.d, k, *_sector_rows(mat, sector_layout(m.n, m.d, k)))


def _covariance_residuals(rows: np.ndarray, worst: np.ndarray, layout: SectorLayout) -> np.ndarray:
    """sector_covariance_residual of each member of a (members, d^n + 1,
    width) stack of sector rows, starting from ``worst``, their largest
    entries off the sectors.  The member axis runs last, so each packed or
    frame row is one gather for the stack."""
    count, dim, width = len(rows), rows.shape[1] - 1, rows.shape[2]
    rows = rows.reshape(count, -1).swapaxes(0, 1)
    spans = layout.members * width
    packed = np.concatenate([rows[spans[layout.sector] + layout.position[:, None]],
                             -rows[:dim * width].reshape(dim, width, count)])
    frame = 2 * (dim + 1)
    step = max(1, min(len(layout.moves), _WORK_ENTRIES // (count * frame * width)))  # roots at once
    moved = np.empty((step * frame, width, count), dtype=rows.dtype)
    for lo in range(0, len(layout.moves), step):
        moves = layout.moves[lo:lo + step]
        into = moves[:, :, 0] - lo * frame
        frames = moved[:len(moves) * frame]
        frames.fill(0)
        for s, plain in enumerate(layout.plain):
            ufunc = np.add if plain else np.subtract
            frames[into[:, s]] = ufunc(frames[into[:, s]], packed[moves[:, s, 1]])
        # the block (w + e_a - e_b, w) read from both sides at row i and
        # the p-th index j of w: at [i, p] by row, at [j, place of i] by
        # column; the commutator is formed in the gathered array, and no
        # step's arrays outlive it
        by_column = spans[layout.below[lo:lo + step]]
        by_column += (layout.position[:, None]
                      + (np.arange(len(moves)) * frame * width)[:, None, None])
        commutator = frames.reshape(-1, count)[by_column]
        del by_column
        commutator += frames.reshape(len(moves), 2, dim + 1, width, count)[:, 1, :dim]
        magnitude = np.abs(commutator, out=commutator if commutator.dtype.kind == "f" else None)
        del commutator
        worst = np.maximum(worst, magnitude.max(axis=(0, 1, 2)))   # sup_norm per member
        del magnitude
    return worst


def sector_covariance_residual(f: SectorOperator):
    """covariance_residual of an operator, or a stack, given by its sector
    rows, which are read in place.  The members run in groups whose frames
    fit in _WORK_ENTRIES entries together, one member at a time when one
    frame alone does not fit."""
    lead, shape = f.rows.shape[:-2], f.rows.shape[-2:]
    rows, off = f.rows.reshape((-1,) + shape), np.reshape(f.off, -1)
    group = max(1, _WORK_ENTRIES // (2 * shape[0] * shape[1]))
    worst = np.empty(len(rows))
    for lo in range(0, len(rows), group):
        worst[lo:lo + group] = _covariance_residuals(rows[lo:lo + group], off[lo:lo + group],
                                                     f.layout)
    return worst.reshape(lead) if lead else float(worst[0])


def covariance_residual(m: DenseOperator, conjugated):
    """How far M is from commuting with U on the plain sites (x) conj(U) on
    the sites in ``conjugated``, for every unitary U: the larger of

    * the largest |M| between two different weight sectors (sector_layout),
      which is 0 exactly when M commutes with the diagonal unitaries, and
    * the largest sup_norm of [M_w, A_X] over the simple-root matrices
      X = E_{a,a+1} and E_{a+1,a} of gl(d), where M_w is M's block-diagonal
      part and A_X is X summed over the plain sites minus X^T summed over
      the conjugated ones: the derived action.

    These X generate sl(d), the identity acts as a scalar and U(d) is
    connected, so the residual is 0 exactly when M commutes with every such
    product (the walled-Brauer form of Schur-Weyl duality).  A_X moves one
    site's index between a and b, which maps sector w to w + e_a - e_b, so
    [M_w, A_X] has only the blocks from w to w + e_a - e_b.  They are formed
    from M's blocks packed by place, by column for M A_X and by row for
    A_X M: each site's move adds 2 d^(n-1) packed rows into others, with no
    product and no random draw.  M's sector rows are gathered by
    sector_form and checked by sector_covariance_residual, the one core.

    A stack of M (leading axes) gives an array of the stack's shape, each
    member's residual bit-identical to a call on that member alone."""
    return sector_covariance_residual(sector_form(m, conjugated))


def idempotence_residual(f: SectorOperator) -> float:
    """sup_norm(M @ M - M) for an M given by its sector rows: the largest of
    |M_w M_w - M_w| over the blocks M_w of the weight sectors, together
    with the largest |M| between two different sectors, so no d^n x d^n
    product is formed."""
    if f.rows.ndim != 2:
        raise ValueError("the idempotence check takes one operator, not a stack")
    dim, worst = f.d ** f.n, [f.off]
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
    """Least eigenvalue of a finite hermitian M (within ATOL), or an array of
    those of each member of a stack, from one stacked eigvalsh.  The first
    member in row-major order that is not finite or not hermitian raises the
    one-line message a call on it alone raises."""
    mats = m.mat.reshape((-1,) + m.mat.shape[-2:])
    with np.errstate(invalid="ignore"):     # inf - inf: a non-finite member fails either way
        dev = np.abs(mats - mats.conj().swapaxes(1, 2)).max(axis=(1, 2))
    passed = dev <= ATOL
    if not passed.all():
        first = np.argmin(passed)
        if not np.isfinite(mats[first]).all():
            raise ValueError("matrix is not a finite hermitian one (non-finite entry)")
        raise ValueError(f"matrix is not a finite hermitian one (deviation {dev[first]:.3g})")
    least = np.linalg.eigvalsh(m.mat)[..., 0]
    return least if least.ndim else float(least)
