"""Oracle-equivalence suite for the closed-form map evaluations.

Each case evaluates a closed form and the literal contraction oracle on
seeded random inputs, a stack of tuples at a time, and records the worst
sup-norm deviation.  Consecutive cases of one contraction shape run as a
group: their kernels are listed at once and contracted as member stacks.
The suite is what `wba verify-props` runs and what the acceptance tests
assert on.
"""

from __future__ import annotations

from itertools import combinations, groupby

import numpy as np

from . import dense_ops, multilinear_maps as mm
from .dense_ops import DenseOperator, ListedOperator
from .sym_core import Permutation
from .tolerances import ORACLE_TOL
from .wba_algebra import list_permutations


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


def _draw(rngs, t: int, count: int, dim: int) -> np.ndarray:
    """(members, t, count, dim, dim): for each generator, t tuples of count
    complex Gaussian dim x dim matrices, the stream of t * count
    ``random_matrix`` calls, tuple by tuple."""
    z = np.empty((len(rngs), t, count, 2, dim, dim))
    for rng, member in zip(rngs, z):
        rng.standard_normal(out=member)
    return dense_ops.complex_gaussian(z)


def _run_group(cases: list, seed: int, tuples: int, d: int, out: int, inputs,
               keep) -> list[float]:
    """max_dev of each case of a group of one contraction shape: d, an
    output on out sites, inputs = (count, dim) matrices and kernels on
    perm.n sites traced over all but ``keep``.  A case is (case_idx, closed,
    perm, S): closed(mats), its closed form on a stack of tuples, is checked
    against the contraction of perm^{T_S}, or stands alone where perm is None.
    The kernels are listed at once, one member each; a stack holds as many
    whole members with all their tuples as fit in STACK_BYTES, or one
    member's tuples in stacks that do, and runs one ``contract``.  Each case
    draws from its own default_rng((seed, case_idx)) in the stacks it would
    take alone, and contract gives each member its own contraction bit for
    bit, so each deviation is that of its case run alone.  A tuple of a
    member holds the larger of its gathered terms (the diagram's d^n
    nonzeros times the d^out * dim^count / d^n kept columns on covered
    sites; the identity sites are all output sites) and its d^out x d^out
    output."""
    listed = cases[0][2] is not None
    count, dim = inputs
    if listed:
        kernels = list_permutations(
            [perm.images for _, _, perm, _ in cases],
            [[site in s for site in range(1, perm.n + 1)] for _, _, perm, s in cases], d)
    entries = max(d ** out * dim ** count if listed else 0, d ** (2 * out))
    rngs = [np.random.default_rng((seed, idx)) for idx, *_ in cases]
    devs = [[] for _ in cases]
    first = 0
    for members in stack_sizes(len(cases), tuples * entries):
        span = slice(first, first + members)
        first += members
        for t in stack_sizes(tuples, members * entries):
            mats = _draw(rngs[span], t, count, dim)
            if listed:      # input f of every (tuple, member) in one array
                kernel = ListedOperator(kernels.n, d, kernels.rows[span], kernels.cols[span],
                                        kernels.values[span])
                oracle = mm.contract(kernel, list(mats.swapaxes(0, 2)), keep).mat
            for m, (_, closed, *_) in enumerate(cases[span]):
                dev = closed(list(mats[m].swapaxes(0, 1)))
                devs[span.start + m].append(dense_ops.sup_norm(dev - oracle[:, m] if listed
                                                               else dev))
    # np.max, not max(): a NaN deviation must fail its case
    return [float(np.max(dev)) for dev in devs]


def proposition_suite(seed: int = 0, tuples: int = 20, d_values=(2, 3),
                      k_max: int = 5, only: str | None = None,
                      tol: float = ORACLE_TOL) -> list[dict]:
    """Run the full closed-form vs oracle suite; returns one record per case,
    in the suite's order."""
    if tuples < 1:
        raise ValueError(f"need tuples >= 1, got {tuples}")
    queued = []
    case_idx = 0

    def run(group: str, name: str, d: int, out: int, inputs, closed, kernel=None):
        """Queue one case (_run_group) with kernel = (perm, S, keep) or None;
        consecutive queued cases of one contraction shape run as a group,
        and a filtered-out case is not queued, so its kernel is not listed."""
        nonlocal case_idx
        case_idx += 1
        if only and not group.startswith(only):
            return
        perm, s, keep = kernel or (None, None, ())
        shape = (d, out, inputs, tuple(keep))
        key = (*shape, perm.n) if kernel else case_idx
        queued.append((key, shape, group, name, (case_idx, closed, perm, s)))

    # single transposed site on a full cycle, output on one site
    for d in d_values:
        for k in range(2, k_max + 1):
            for direction, cyc, keep in (("backward", mm.backward_cycle(k), k),
                                         ("forward", mm.forward_cycle(k), 1)):
                for j in range(1, k + 1):
                    run("prop3", f"prop3:{direction},k={k},j={j},d={d}", d, 1, (k, d),
                        lambda mats, direction=direction, j=j:
                            mm.evaluate_cycle_to_one(direction, j, mats).mat,
                        (cyc, {j}, [keep]))

    # transposed subsets on the backward cycle, k = 4
    for d in d_values:
        k = 4
        for size in range(k + 1):
            for subset in combinations(range(1, k + 1), size):
                s = frozenset(subset)
                label = "{" + ",".join(str(x) for x in sorted(s)) + "}"
                run("prop4", f"prop4:S={label},d={d}", d, 1, (k, d),
                    lambda mats, s=s: mm.cycle_subset_to_one(s, mats).mat,
                    (mm.backward_cycle(k), s, [k]))

    # one input to k-1 outputs: reshuffling chain and its permutation form
    for d in d_values:
        for k in range(2, k_max + 1):
            run("prop5", f"prop5:k={k},d={d}", d, k - 1, (1, d),
                lambda mats, d=d, k=k: mm.evaluate_one_to_many(DenseOperator(1, d, mats[0]), k).mat,
                (mm.forward_cycle(k), {k}, range(2, k + 1)))

            run("prop6", f"prop6:k={k},d={d}", d, k - 1, (1, d), lambda mats, d=d, k=k: (
                mm.evaluate_one_to_many(DenseOperator(1, d, mats[0]), k).mat
                - mm.evaluate_one_to_many_via_pi(DenseOperator(1, d, mats[0]), k).mat))

    # literal identities
    for d in d_values:
        run("identity", f"identity:4to1,d={d}", d, 1, (5, d),
            lambda x: (x[0] @ x[1] @ x[2] @ x[3]).swapaxes(-1, -2) @ x[4],
            (mm.backward_cycle(5), {5}, [5]))
        run("identity", f"identity:transpose-swap,d={d}", d, 1, (2, d),
            lambda x: x[0].swapaxes(-1, -2) @ x[1], (mm.backward_cycle(2), {1}, [2]))

        def re3(mats, d=d):
            a, b = (DenseOperator(2, d, m) for m in mats)
            r = dense_ops.reshuffle_bipartite
            return r(DenseOperator(2, d, r(a).mat @ r(b).mat)).mat
        run("identity", f"identity:re3,d={d}", d, 2, (2, d * d), re3,
            (Permutation.from_cycles([(2, 3)], 4), {3}, (1, 4)))

        def example11(mats, d=d):
            eye = np.eye(d, dtype=complex)
            start = DenseOperator(3, d, dense_ops.kron_all([mats[0], eye, eye]))
            return dense_ops.reshuffle_sites(dense_ops.reshuffle_sites(start, 3, 2), 3, 1).mat
        run("identity", f"identity:example-1to3,d={d}", d, 3, (1, d), example11,
            (mm.forward_cycle(4), {4}, range(2, 5)))

        def three_to_two(mats, d=d):
            x1, x2, x3 = mats
            inner = DenseOperator(2, d, dense_ops.kron_all(
                [x3 @ x2.swapaxes(-1, -2) @ x1, np.eye(d, dtype=complex)]))
            return dense_ops.partial_transpose(dense_ops.reshuffle_bipartite(inner), (2,)).mat
        run("identity", f"identity:3to2,d={d}", d, 2, (3, d), three_to_two,
            (mm.forward_cycle(5), {2}, range(4, 6)))

    cases = []
    for _, batch in groupby(queued, key=lambda queue: queue[0]):
        batch = list(batch)
        devs = _run_group([case for *_, case in batch], seed, tuples, *batch[0][1])
        cases += [{"group": group, "name": name, "max_dev": dev, "passed": dev < tol}
                  for (_, _, group, name, _), dev in zip(batch, devs)]
    return cases
