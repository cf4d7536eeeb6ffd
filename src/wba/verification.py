"""Oracle-equivalence suite for the closed-form map evaluations.

Each case evaluates a closed form and the literal contraction oracle on
seeded random inputs, a stack of tuples at a time, and records the worst
sup-norm deviation.  The suite is what `wba verify-props` runs and what the
acceptance tests assert on.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from . import dense_ops, multilinear_maps as mm
from .dense_ops import DenseOperator, ListedOperator
from .sym_core import Permutation
from .tolerances import ORACLE_TOL
from .wba_algebra import from_permutation, list_entries


# bytes a stack holds: a case's tuples (and scan-bcs' kernels) run in
# stacks of as many as fit in this, at least one a stack
STACK_BYTES = 1 << 18


def stack_sizes(count: int, entries: int) -> list[int]:
    """Sizes of the stacks that cover count items of entries complex entries
    each.  A tuple of the oracle holds the larger of its gathered terms (the
    kernel's d^n nonzeros, one per basis column of a diagram, times the kept
    columns of the sites a factor covers; the identity sites add none) and
    its d^out x d^out output."""
    size = max(1, STACK_BYTES // (16 * entries))
    return [min(size, count - start) for start in range(0, count, size)]


def _draw(rng, t: int, count: int, dim: int) -> list[np.ndarray]:
    """t tuples of count complex Gaussian dim x dim matrices, as count stacks
    of t: the stream of t * count ``random_matrix`` calls, tuple by tuple."""
    z = rng.standard_normal((t, count, 2, dim, dim))
    return list(dense_ops.complex_gaussian(z).swapaxes(0, 1))


def _kernel(perm: Permutation, transposed, d: int) -> ListedOperator:
    """perm^{T_S} by its d^n listed entries, built once per case and shared
    by its tuples."""
    return list_entries(from_permutation(perm, transposed), d)


def proposition_suite(seed: int = 0, tuples: int = 20, d_values=(2, 3),
                      k_max: int = 5, only: str | None = None,
                      tol: float = ORACLE_TOL) -> list[dict]:
    """Run the full closed-form vs oracle suite; returns one record per case."""
    if tuples < 1:
        raise ValueError(f"need tuples >= 1, got {tuples}")
    cases = []
    case_idx = 0

    def run(group: str, name: str, d: int, out: int, inputs, kernel, deviation):
        """One case: deviation(kernel, mats) is closed form - oracle on a stack
        of tuples of inputs = (count, dim) matrices, with an output on out
        sites; kernel (perm, transposed) is listed only if the case runs.
        The inputs cover the first sites and the identity the rest, all of
        them output sites, so a tuple gathers the kernel's d^n nonzeros (one
        diagram) times the d^out * dim^count / d^n kept columns on covered
        sites; it holds at least its d^out x d^out output, the closed form's
        where no kernel runs."""
        nonlocal case_idx
        case_idx += 1
        if only and not group.startswith(only):
            return
        rng = np.random.default_rng((seed, case_idx))
        kernel = kernel and _kernel(*kernel, d)
        count, dim = inputs
        gathered = d ** out * dim ** count if kernel else 0
        entries = max(gathered, d ** (2 * out))
        # np.max, not max(): a NaN deviation must fail its case
        max_dev = float(np.max([dense_ops.sup_norm(deviation(kernel, _draw(rng, t, *inputs)))
                                for t in stack_sizes(tuples, entries)]))
        cases.append({"group": group, "name": name,
                      "max_dev": max_dev, "passed": max_dev < tol})

    # single transposed site on a full cycle, output on one site
    for d in d_values:
        for k in range(2, k_max + 1):
            for direction, cyc, keep in (("backward", mm.backward_cycle(k), k),
                                         ("forward", mm.forward_cycle(k), 1)):
                for j in range(1, k + 1):
                    run("prop3", f"prop3:{direction},k={k},j={j},d={d}", d, 1, (k, d),
                        (cyc, {j}), lambda kernel, mats: (
                            mm.evaluate_cycle_to_one(direction, j, mats).mat
                            - mm.contract(kernel, mats, [keep]).mat))

    # transposed subsets on the backward cycle, k = 4
    for d in d_values:
        k = 4
        for size in range(k + 1):
            for subset in combinations(range(1, k + 1), size):
                s = frozenset(subset)
                label = "{" + ",".join(str(x) for x in sorted(s)) + "}"
                run("prop4", f"prop4:S={label},d={d}", d, 1, (k, d),
                    (mm.backward_cycle(k), s), lambda kernel, mats: (
                        mm.cycle_subset_to_one(s, mats).mat
                        - mm.contract(kernel, mats, [k]).mat))

    # one input to k-1 outputs: reshuffling chain and its permutation form
    for d in d_values:
        for k in range(2, k_max + 1):
            def chain(kernel, mats):
                a = DenseOperator(1, d, mats[0])
                oracle = mm.evaluate_oracle(mm.MapSpec(kernel, 1, k - 1, d), [a])
                return mm.evaluate_one_to_many(a, k).mat - oracle.mat
            run("prop5", f"prop5:k={k},d={d}", d, k - 1, (1, d),
                (mm.forward_cycle(k), {k}), chain)

            run("prop6", f"prop6:k={k},d={d}", d, k - 1, (1, d), None, lambda _, mats: (
                mm.evaluate_one_to_many(DenseOperator(1, d, mats[0]), k).mat
                - mm.evaluate_one_to_many_via_pi(DenseOperator(1, d, mats[0]), k).mat))

    # literal identities
    for d in d_values:
        run("identity", f"identity:4to1,d={d}", d, 1, (5, d), (mm.backward_cycle(5), {5}),
            lambda kernel, x: ((x[0] @ x[1] @ x[2] @ x[3]).swapaxes(-1, -2) @ x[4]
                               - mm.contract(kernel, x, [5]).mat))
        run("identity", f"identity:transpose-swap,d={d}", d, 1, (2, d),
            (mm.backward_cycle(2), {1}),
            lambda kernel, x: x[0].swapaxes(-1, -2) @ x[1] - mm.contract(kernel, x, [2]).mat)

        def re3(kernel, mats):
            a, b = (DenseOperator(2, d, m) for m in mats)
            r = dense_ops.reshuffle_bipartite
            lhs = r(DenseOperator(2, d, r(a).mat @ r(b).mat))
            return lhs.mat - mm.contract(kernel, mats, (1, 4)).mat
        run("identity", f"identity:re3,d={d}", d, 2, (2, d * d),
            (Permutation.from_cycles([(2, 3)], 4), {3}), re3)

        def example11(kernel, mats):
            a = DenseOperator(1, d, mats[0])
            oracle = mm.evaluate_oracle(mm.MapSpec(kernel, 1, 3, d), [a])
            eye = np.eye(d, dtype=complex)
            start = DenseOperator(3, d, dense_ops.kron_all([a.mat, eye, eye]))
            chained = dense_ops.reshuffle_sites(
                dense_ops.reshuffle_sites(start, 3, 2), 3, 1)
            return chained.mat - oracle.mat
        run("identity", f"identity:example-1to3,d={d}", d, 3, (1, d),
            (mm.forward_cycle(4), {4}), example11)

        def three_to_two(kernel, mats):
            x1, x2, x3 = mats
            oracle = mm.evaluate_oracle(mm.MapSpec(kernel, 3, 2, d), mats)
            inner = DenseOperator(2, d, dense_ops.kron_all(
                [x3 @ x2.swapaxes(-1, -2) @ x1, np.eye(d, dtype=complex)]))
            closed = dense_ops.partial_transpose(dense_ops.reshuffle_bipartite(inner), (2,))
            return closed.mat - oracle.mat
        run("identity", f"identity:3to2,d={d}", d, 2, (3, d),
            (mm.forward_cycle(5), {2}), three_to_two)

    return cases
