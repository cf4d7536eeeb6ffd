"""Symmetric-group combinatorics.

Permutations in one-line/cycle notation, integer partitions, irreducible
characters via the Murnaghan-Nakayama rule, Schur-Weyl dimensions and
multiplicities, Young projectors as formal group-algebra elements, and
coset transversals used to build walled-Brauer projectors.

Everything here is exact integer/rational combinatorics except the
group-algebra coefficients, which are stored as complex floats.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cache
from math import comb, factorial, prod

import numpy as np

from .tolerances import COEFF_EPS, COEFF_MATCH

MAX_ENUM_DEGREE = 7


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Permutation:
    """A permutation of {1..n}; ``images[i-1]`` is the image of i."""

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(self.images)}: {self.images!r}")

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(1, n + 1)))

    @staticmethod
    def from_cycles(cycles, n: int) -> "Permutation":
        """Build from cycles like [(1,3,4),(2,5)]; (134) maps 1->3, 3->4, 4->1."""
        images = list(range(1, n + 1))
        seen = set()
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + type(cyc)((cyc[0],))):
                if a in seen:
                    raise ValueError(f"point {a} appears twice in cycles")
                seen.add(a)
                images[a - 1] = b
        return Permutation(tuple(images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, j in enumerate(self.images, start=1):
            inv[j - 1] = i
        return Permutation(tuple(inv))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its smallest point."""
        return _cycles(self.images)

    def cycle_type(self) -> tuple[int, ...]:
        """All cycle lengths (fixed points included), sorted descending."""
        lengths = [len(c) for c in self.cycles()]
        lengths += [1] * (self.n - sum(lengths))
        return tuple(sorted(lengths, reverse=True))

    def extend(self, n: int) -> "Permutation":
        """Embed into S_n fixing the added points; n >= self.n."""
        if n < self.n:
            raise ValueError("cannot shrink a permutation")
        return Permutation(self.images + tuple(range(self.n + 1, n + 1)))

    def __mul__(self, other: "Permutation") -> "Permutation":
        return compose(self, other)

    def __str__(self) -> str:
        return permutation_to_text(self)


def compose(p: Permutation, q: Permutation) -> Permutation:
    """p after q: (p*q)(i) = p(q(i)), so dense realizations multiply in order."""
    if p.n != q.n:
        raise ValueError(f"degree mismatch: {p.n} vs {q.n}")
    return Permutation(tuple(p.images[j - 1] for j in q.images))


def enumerate_group(n: int) -> list[Permutation]:
    """All of S_n in lexicographic one-line order."""
    if not 1 <= n <= MAX_ENUM_DEGREE:
        raise ValueError(f"n must be in 1..{MAX_ENUM_DEGREE}, got {n}")
    return [Permutation(tuple(images)) for images in (_group_rows(n) + 1).tolist()]


def _group_rows(m: int) -> np.ndarray:
    """S_m as an (m!, m) array of 0-based one-line images, lexicographic; S_0 is one row."""
    if m > MAX_ENUM_DEGREE:
        raise ValueError(f"S_{m} is past the largest enumerable degree, {MAX_ENUM_DEGREE}")
    flat = itertools.chain.from_iterable(itertools.permutations(range(m)))
    return np.fromiter(flat, np.intp, factorial(m) * m).reshape(factorial(m), m)


def _cycles(images) -> list[tuple[int, ...]]:
    """Nontrivial cycles of the permutation with 1-based one-line ``images``,
    each starting at its smallest point."""
    out, seen = [], [False] * (len(images) + 1)
    for start, cur in enumerate(images, start=1):
        if seen[start] or cur == start:
            continue
        cyc = [start]
        while cur != start:
            cyc.append(cur)
            seen[cur] = True
            cur = images[cur - 1]
        out.append(tuple(cyc))
    return out


def permutation_to_text(p: Permutation) -> str:
    return cycle_texts([p.images])[0]


def cycle_texts(rows) -> list[str]:
    """Cycle notation of each permutation given by a row of 1-based one-line
    images; "()" for the identity."""
    return ["".join("(" + " ".join(map(str, cyc)) + ")" for cyc in _cycles(images)) or "()"
            for images in rows]


def parse_permutation(text: str, n: int) -> Permutation:
    """Parse cycle notation like "(1 2 3)(4 5)"; "()" or "id" is the identity.

    Inside parentheses, points may be separated by spaces or commas; a run
    of bare digits like "(134)" is read digit-by-digit.
    """
    text = text.strip()
    if text in ("", "()", "id"):
        return Permutation.identity(n)
    if not re.fullmatch(r"(\([^()]*\))+", text):
        raise ValueError(f"bad cycle notation: {text!r}")
    cycles = []
    for body in re.findall(r"\(([^()]*)\)", text):
        body = body.strip()
        if not body:
            continue
        if re.search(r"[\s,]", body):
            points = [int(tok) for tok in re.split(r"[\s,]+", body) if tok]
        elif body.isdigit():
            points = [int(ch) for ch in body]
        else:
            raise ValueError(f"bad cycle body: {body!r}")
        if any(not 1 <= x <= n for x in points):
            raise ValueError(f"cycle point out of range 1..{n}: {points}")
        cycles.append(tuple(points))
    return Permutation.from_cycles(cycles, n)


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Partition:
    """Integer partition as a weakly decreasing tuple of positive parts."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if any(p < 1 for p in self.parts):
            raise ValueError(f"parts must be positive: {self.parts}")
        if any(self.parts[i] < self.parts[i + 1] for i in range(len(self.parts) - 1)):
            raise ValueError(f"parts must be weakly decreasing: {self.parts}")

    @property
    def n(self) -> int:
        return sum(self.parts)

    def cells(self):
        """(row, col) pairs, 0-based."""
        for i, row_len in enumerate(self.parts):
            for j in range(row_len):
                yield i, j

    def hook_length(self, i: int, j: int) -> int:
        arm = self.parts[i] - j - 1
        leg = sum(1 for r in range(i + 1, len(self.parts)) if self.parts[r] > j)
        return arm + leg + 1

    def contains(self, other: "Partition") -> bool:
        o = other.parts + (0,) * (len(self.parts) - len(other.parts))
        return len(other.parts) <= len(self.parts) and all(
            s >= t for s, t in zip(self.parts, o))

    def __str__(self) -> str:
        return "[" + ",".join(str(p) for p in self.parts) + "]"


def parse_partition(text: str) -> Partition:
    """Parse "[3,1,1]" (brackets optional); "[]" is the empty partition."""
    if text.strip() == "[]":
        return Partition(())
    body = text.strip().strip("[]")
    if not body:
        raise ValueError("empty partition")
    return Partition(tuple(int(tok) for tok in body.split(",")))


@cache
def partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n in reverse-lexicographic order."""

    def gen(total, largest):
        if total == 0:
            yield ()
            return
        for first in range(min(total, largest), 0, -1):
            for rest in gen(total - first, first):
                yield (first,) + rest

    return tuple(Partition(p) for p in gen(n, n))


def additions_of_boxes(alpha: Partition, k: int) -> list[Partition]:
    """Partitions of alpha.n + k containing alpha (any placement of k boxes)."""
    return [mu for mu in partitions(alpha.n + k) if mu.contains(alpha)]


# ---------------------------------------------------------------------------
# characters and dimensions
# ---------------------------------------------------------------------------

@cache
def _mn_character(shape: tuple[int, ...], cycles: tuple[int, ...]) -> int:
    # Murnaghan-Nakayama by first-column hook (beta) numbers: removing a
    # border strip of length t is moving one beta number down by t; the
    # sign is (-1)^(number of beta numbers jumped over).
    if not cycles:
        return 1 if not shape else 0
    t, rest = cycles[0], cycles[1:]
    r = len(shape)
    beta = [shape[i] + (r - 1 - i) for i in range(r)]
    bset = set(beta)
    total = 0
    for b in beta:
        if b - t < 0 or (b - t) in bset:
            continue
        crossed = sum(1 for x in beta if b - t < x < b)
        new_beta = sorted((bset - {b}) | {b - t}, reverse=True)
        new_shape = tuple(new_beta[i] - (r - 1 - i) for i in range(r))
        new_shape = tuple(x for x in new_shape if x > 0)
        total += (-1) ** crossed * _mn_character(new_shape, rest)
    return total


def character_of_type(alpha: Partition, cycle_type: tuple[int, ...]) -> int:
    """chi^alpha on the conjugacy class with the given cycle type."""
    if sum(cycle_type) != alpha.n:
        raise ValueError(f"cycle type {cycle_type} does not match degree {alpha.n}")
    return _mn_character(alpha.parts, tuple(sorted(cycle_type, reverse=True)))


def character(alpha: Partition, class_of: Permutation) -> int:
    if alpha.n != class_of.n:
        raise ValueError(f"degree mismatch: partition of {alpha.n}, permutation of {class_of.n}")
    return character_of_type(alpha, class_of.cycle_type())


def _characters(lam: Partition, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Permutations rho of S(|lam|) with chi_lam(rho) != 0, as 0-based image
    rows fixing |lam|..n-1, and their integer characters."""
    m = lam.n
    rows = _group_rows(m)
    # fixed-point counts of rho^1..rho^m determine the cycle type: one base-(m+1) key
    key, power = np.zeros(len(rows), np.int64), rows
    for _ in range(m):
        key = key * (m + 1) + (power == np.arange(m)).sum(axis=1)
        power = np.take_along_axis(rows, power, axis=1)
    _, first, cls = np.unique(key, return_index=True, return_inverse=True)
    chars = np.array([character_of_type(lam, Permutation(tuple(rows[r] + 1)).cycle_type())
                      for r in first], dtype=np.int64)[cls]
    keep = chars != 0
    fixed = np.broadcast_to(np.arange(m, n), (int(keep.sum()), n - m))
    return np.concatenate([rows[keep], fixed], axis=1), chars[keep]


def irrep_dimension(alpha: Partition) -> int:
    """Dimension of the S_n irrep (hook length formula)."""
    hooks = prod(alpha.hook_length(i, j) for i, j in alpha.cells())
    dim, rem = divmod(factorial(alpha.n), hooks)
    assert rem == 0
    return dim


def schur_weyl_multiplicity(alpha: Partition, d: int) -> int:
    """Dimension of the GL_d irrep labelled alpha; 0 when height(alpha) > d.

    Hook content formula: prod over cells of (d + col - row) / hook.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    num = prod(d + j - i for i, j in alpha.cells())
    if num == 0:
        return 0
    hooks = prod(alpha.hook_length(i, j) for i, j in alpha.cells())
    m, rem = divmod(num, hooks)
    assert rem == 0
    return m


def conjugacy_classes(n: int) -> list[tuple[tuple[int, ...], int]]:
    """(cycle_type, class size) for every class of S_n."""
    out = []
    for lam in partitions(n):
        counts = {}
        for part in lam.parts:
            counts[part] = counts.get(part, 0) + 1
        z = prod(factorial(m) * (length ** m) for length, m in counts.items())
        out.append((lam.parts, factorial(n) // z))
    return out


# ---------------------------------------------------------------------------
# group algebra
# ---------------------------------------------------------------------------

class GroupAlgebraElement:
    """A finite formal combination of permutations of common degree."""

    __slots__ = ("terms", "n")

    def __init__(self, terms: dict[Permutation, complex], n: int):
        self.n = n
        clean = {}
        for p, c in terms.items():
            if p.n != n:
                raise ValueError(f"degree mismatch: element of S_{n}, term of S_{p.n}")
            if abs(c) > COEFF_EPS:
                clean[p] = complex(c)
        self.terms = clean

    @staticmethod
    def identity(n: int) -> "GroupAlgebraElement":
        return GroupAlgebraElement({Permutation.identity(n): 1.0}, n)

    def __add__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        if self.n != other.n:
            raise ValueError("degree mismatch")
        terms = dict(self.terms)
        for p, c in other.terms.items():
            terms[p] = terms.get(p, 0.0) + c
        return GroupAlgebraElement(terms, self.n)

    def __mul__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        """Convolution product; left factor acts after the right one."""
        if self.n != other.n:
            raise ValueError("degree mismatch")
        terms: dict[Permutation, complex] = {}
        for p, cp in self.terms.items():
            for q, cq in other.terms.items():
                r = compose(p, q)
                terms[r] = terms.get(r, 0.0) + cp * cq
        return GroupAlgebraElement(terms, self.n)

    def extend(self, n: int) -> "GroupAlgebraElement":
        return GroupAlgebraElement({p.extend(n): c for p, c in self.terms.items()}, n)

    def approx_eq(self, other: "GroupAlgebraElement", tol: float = COEFF_MATCH) -> bool:
        keys = set(self.terms) | set(other.terms)
        return all(abs(self.terms.get(p, 0.0) - other.terms.get(p, 0.0)) <= tol for p in keys)

    def __repr__(self):
        bits = [f"({c:.6g})*{p}" for p, c in sorted(self.terms.items(), key=lambda t: t[0].images)]
        return " + ".join(bits) if bits else "0"


def young_projector(alpha: Partition) -> GroupAlgebraElement:
    """Central idempotent (d_alpha/n!) sum_pi chi^alpha(pi^-1) pi of C[S_n].

    chi is a class function and pi, pi^-1 are conjugate, so chi(pi^-1)=chi(pi).
    """
    n = alpha.n
    scale = irrep_dimension(alpha) / factorial(n)
    rows, chars = _characters(alpha, n)
    terms = {Permutation(tuple(row)): scale * chi
             for row, chi in zip((rows + 1).tolist(), chars.tolist())}
    return GroupAlgebraElement(terms, n)


# ---------------------------------------------------------------------------
# coset transversal for the walled-Brauer projector sum
# ---------------------------------------------------------------------------

def coset_representatives(n: int, k: int) -> list[Permutation]:
    """Transversal of S(n-2k) (acting on 1..n-2k) inside S(n-k).

    The coset S(n-2k) eta holds every arrangement of the small values
    1..n-2k over the places eta gives them; its lexicographically smallest
    member, the one whose small values increase, is kept, in lexicographic
    order.  Any other transversal yields the same projector, since the
    conjugated operator commutes with S(n-2k).
    """
    if k < 1 or n - 2 * k < 0:
        raise ValueError(f"need k >= 1 and n - 2k >= 0, got n={n}, k={k}")
    rows = _group_rows(n - k)
    small = rows[rows < n - 2 * k].reshape(len(rows), n - 2 * k)
    reps = (rows[(np.diff(small, axis=1) > 0).all(axis=1)] + 1).tolist()
    assert len(reps) == factorial(n - k) // factorial(n - 2 * k)
    return [Permutation(tuple(images)) for images in reps]
