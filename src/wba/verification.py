"""Oracle-equivalence suite for the closed-form map evaluations.

Each case evaluates a closed form and the literal contraction oracle on
seeded random inputs and records the worst sup-norm deviation.  The suite
is what `wba verify-props` runs and what the acceptance tests assert on.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from . import dense_ops, multilinear_maps as mm
from .dense_ops import DenseOperator
from .sym_core import Permutation
from .tolerances import ORACLE_TOL
from .wba_algebra import from_permutation, realize


def _rand_mats(rng, d: int, count: int) -> list[np.ndarray]:
    return [dense_ops.random_matrix(d, 1, rng) for _ in range(count)]


def _kernel(perm: Permutation, transposed, d: int) -> DenseOperator:
    """Dense perm^{T_S}, realized once per case and shared by its tuples."""
    return DenseOperator(perm.n, d, realize(from_permutation(perm, transposed), d))


def proposition_suite(seed: int = 0, tuples: int = 20, d_values=(2, 3),
                      k_max: int = 5, only: str | None = None,
                      tol: float = ORACLE_TOL) -> list[dict]:
    """Run the full closed-form vs oracle suite; returns one record per case."""
    cases = []
    case_idx = 0

    def run(group: str, name: str, fn):
        nonlocal case_idx
        case_idx += 1
        if only and not group.startswith(only):
            return
        rng = np.random.default_rng((seed, case_idx))
        max_dev = 0.0
        for _ in range(tuples):
            max_dev = max(max_dev, fn(rng))
        cases.append({"group": group, "name": name,
                      "max_dev": max_dev, "passed": max_dev < tol})

    # single transposed site on a full cycle, output on one site
    for d in d_values:
        for k in range(2, k_max + 1):
            for direction, cyc, keep in (("backward", mm.backward_cycle(k), k),
                                         ("forward", mm.forward_cycle(k), 1)):
                for j in range(1, k + 1):
                    def case(rng, d=d, k=k, direction=direction, keep=keep, j=j,
                             kernel=_kernel(cyc, {j}, d)):
                        mats = _rand_mats(rng, d, k)
                        oracle = mm.contract(kernel, mats, [keep])
                        closed = mm.evaluate_cycle_to_one(direction, j, mats, d)
                        return dense_ops.sup_norm(closed.mat - oracle.mat)
                    run("prop3", f"prop3:{direction},k={k},j={j},d={d}", case)

    # transposed subsets on the backward cycle, k = 4
    for d in d_values:
        k = 4
        for size in range(k + 1):
            for subset in combinations(range(1, k + 1), size):
                s = frozenset(subset)

                def case(rng, d=d, k=k, s=s, kernel=_kernel(mm.backward_cycle(k), s, d)):
                    mats = _rand_mats(rng, d, k)
                    oracle = mm.contract(kernel, mats, [k])
                    closed = mm.cycle_subset_to_one(s, mats, d)
                    return dense_ops.sup_norm(closed.mat - oracle.mat)
                label = "{" + ",".join(str(x) for x in sorted(s)) + "}"
                run("prop4", f"prop4:S={label},d={d}", case)

    # one input to k-1 outputs: reshuffling chain and its permutation form
    for d in d_values:
        for k in range(2, k_max + 1):
            def case_chain(rng, d=d, k=k, spec=mm.MapSpec(
                    _kernel(mm.forward_cycle(k), {k}, d), n_in=1, n_out=k - 1, d=d)):
                a = DenseOperator(1, d, dense_ops.random_matrix(d, 1, rng))
                oracle = mm.evaluate_oracle(spec, [a])
                closed = mm.evaluate_one_to_many(a, k)
                return dense_ops.sup_norm(closed.mat - oracle.mat)
            run("prop5", f"prop5:k={k},d={d}", case_chain)

            def case_pi(rng, d=d, k=k):
                a = DenseOperator(1, d, dense_ops.random_matrix(d, 1, rng))
                chain = mm.evaluate_one_to_many(a, k)
                via_pi = mm.evaluate_one_to_many_via_pi(a, k)
                return dense_ops.sup_norm(chain.mat - via_pi.mat)
            run("prop6", f"prop6:k={k},d={d}", case_pi)

    # literal identities
    for d in d_values:
        def eq_4to1(rng, d=d, kernel=_kernel(mm.backward_cycle(5), {5}, d)):
            mats = _rand_mats(rng, d, 5)
            oracle = mm.contract(kernel, mats, [5])
            closed = (mats[0] @ mats[1] @ mats[2] @ mats[3]).T @ mats[4]
            return dense_ops.sup_norm(closed - oracle.mat)
        run("identity", f"identity:4to1,d={d}", eq_4to1)

        def swap_transpose(rng, d=d, kernel=_kernel(mm.backward_cycle(2), {1}, d)):
            a, b = _rand_mats(rng, d, 2)
            oracle = mm.contract(kernel, [a, b], [2])
            return dense_ops.sup_norm(a.T @ b - oracle.mat)
        run("identity", f"identity:transpose-swap,d={d}", swap_transpose)

        def re3(rng, d=d, kernel=_kernel(Permutation.from_cycles([(2, 3)], 4), {3}, d)):
            a = DenseOperator(2, d, dense_ops.random_matrix(d, 2, rng))
            b = DenseOperator(2, d, dense_ops.random_matrix(d, 2, rng))
            r = dense_ops.reshuffle_bipartite
            lhs = r(DenseOperator(2, d, r(a).mat @ r(b).mat))
            rhs = mm.contract(kernel, [a.mat, b.mat], (1, 4))
            return dense_ops.sup_norm(lhs.mat - rhs.mat)
        run("identity", f"identity:re3,d={d}", re3)

        def example11(rng, d=d, spec=mm.MapSpec(
                _kernel(mm.forward_cycle(4), {4}, d), n_in=1, n_out=3, d=d)):
            a = DenseOperator(1, d, dense_ops.random_matrix(d, 1, rng))
            oracle = mm.evaluate_oracle(spec, [a])
            start = dense_ops.kron([a, dense_ops.identity(1, d), dense_ops.identity(1, d)])
            chained = dense_ops.reshuffle_sites(
                dense_ops.reshuffle_sites(start, 3, 2), 3, 1)
            return dense_ops.sup_norm(chained.mat - oracle.mat)
        run("identity", f"identity:example-1to3,d={d}", example11)

        def three_to_two(rng, d=d, spec=mm.MapSpec(
                _kernel(mm.forward_cycle(5), {2}, d), n_in=3, n_out=2, d=d)):
            x1, x2, x3 = _rand_mats(rng, d, 3)
            oracle = mm.evaluate_oracle(spec, [x1, x2, x3])
            inner = DenseOperator(
                2, d, dense_ops.kron_all([x3 @ x2.T @ x1, np.eye(d, dtype=complex)]))
            closed = dense_ops.partial_transpose(dense_ops.reshuffle_bipartite(inner), (2,))
            return dense_ops.sup_norm(closed.mat - oracle.mat)
        run("identity", f"identity:3to2,d={d}", three_to_two)

    return cases
