"""Command-line front end.

Subcommands: verify-props, projector, scan-bcs, werner-ppt, ew-maps, compose.
All numeric work is seeded and the emitted JSON/CSV is byte-stable for a
fixed configuration.  Exit codes: 0 success, 1 bad flags, 2 numerical
failure/contradiction.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from contextlib import contextmanager
from json.encoder import encode_basestring_ascii

import numpy as np

from . import dense_ops, entanglement as ent, multilinear_maps as mm
from .sym_core import parse_partition
from .tolerances import ORACLE_TOL, PPT_EIGENCHECK, RANGE_FUZZ
from .verification import proposition_suite, stack_sizes
from .wba_algebra import (
    _term_listing,
    check_size_guard,
    compose_diagrams,
    diagram_to_text,
    f_projector,
    gamma,
    parse_diagram,
    realize,
)


class CliError(Exception):
    """A failure that main reports as one "error: <message>" stderr line,
    exiting with ``code``: 1 for bad flags, 2 for a numerical failure."""

    def __init__(self, message: str, code: int = 1):
        super().__init__(message)
        self.code = code


@contextmanager
def _fails_with(code: int, prefix: str = ""):
    """Re-raise a ValueError from the block as CliError(prefix + message, code)."""
    try:
        yield
    except ValueError as exc:
        raise CliError(f"{prefix}{exc}", code) from None


class _Parser(argparse.ArgumentParser):
    # bad flags exit 1, not argparse's 2, on one error line
    def error(self, message):
        raise CliError(message)


# flags that take a range or a list, whose value may start with a minus sign
_SIGNED_VALUE_FLAGS = ("--alpha", "--beta", "--r")


def _attach_signed_values(argv: list[str]) -> list[str]:
    """Rewrite "--flag VALUE" as "--flag=VALUE" for a range or list flag whose
    VALUE starts with "-", like "-0.5:0.1:0.02" or "-0.1,0,0": argparse reads
    a detached value that looks like a flag as a missing argument."""
    out = []
    for token in argv:
        if (out and out[-1] in _SIGNED_VALUE_FLAGS and token.startswith("-")
                and not token.startswith("--")):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


# largest (alpha, beta) grid scan-bcs accepts; a point takes about a millisecond
MAX_SCAN_POINTS = 100_000


def _fmt(x: float) -> str:
    return f"{x:.12g}"


# stands where the term list goes in the indented report; no report field holds a NUL
_TERMS_SLOT = "\0terms"


def _report_json(report: dict, texts: list[str], coeffs: np.ndarray) -> str:
    """A projector report as ``json.dumps(report, sort_keys=True, indent=2)``
    writes it, byte for byte, with the listing of _term_listing (texts and
    coefficient rows) under report["element"]["terms"]: each entry is
    {"coeff": [{"im", "power", "re"}, ...], "diagram"}, one coeff per nonzero
    entry.  ``indent`` selects the stdlib's pure-Python encoder, so the term
    list is written here from a per-entry template; its numbers come from
    compact (C) dumps, which write them as the indented one does
    (float.__repr__, NaN, Infinity), the diagrams from encode_basestring_ascii."""
    rows, powers = np.nonzero(coeffs)
    values = coeffs[rows, powers]
    triples = zip(*[json.dumps(column.tolist())[1:-1].split(", ")
                    for column in (values.imag, powers, values.real)])
    coeff = '{\n            "im": %s,\n            "power": %s,\n            "re": %s\n          }'
    entries = []
    for text, count in zip(texts, np.count_nonzero(coeffs, axis=1).tolist()):
        items = ",\n          ".join([coeff % next(triples) for _ in range(count)])
        entries.append('{\n        "coeff": %s,\n        "diagram": %s\n      }' % (
            f"[\n          {items}\n        ]" if items else "[]",
            encode_basestring_ascii(text)))
    listing = "[\n      " + ",\n      ".join(entries) + "\n    ]" if entries else "[]"
    shell = {**report, "element": {**report["element"], "terms": _TERMS_SLOT}}
    text = json.dumps(shell, sort_keys=True, indent=2)
    return text.replace(json.dumps(_TERMS_SLOT), listing, 1)


def _atomic_write(path: str, text: str) -> None:
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".wba-")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise CliError(f"--out {path}: {exc.strerror or exc}") from None


def _emit(text: str, out: str | None) -> None:
    if out:
        _atomic_write(out, text)
        return
    try:
        print(text, end="" if text.endswith("\n") else "\n", flush=True)
    except BrokenPipeError:
        # the reader has gone: the output counts as delivered; devnull takes the exit flush
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _parse_range(text: str) -> list[float]:
    """start:stop:step, inclusive of stop up to float fuzz."""
    try:
        start, stop, step = (float(tok) for tok in text.split(":"))
    except ValueError:
        raise ValueError(f"bad range {text!r}; expected start:stop:step") from None
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValueError(f"range {text!r} is not finite")
    if step <= 0:
        raise ValueError("range step must be positive")
    values, i = [], 0
    while (v := start + i * step) <= stop + RANGE_FUZZ:
        if len(values) == MAX_SCAN_POINTS:
            raise ValueError(f"range {text!r} has more than {MAX_SCAN_POINTS} points")
        if values and round(v, 12) == values[-1]:
            raise ValueError(f"range {text!r} repeats {values[-1]:g}: the step is too small")
        values.append(round(v, 12))
        i += 1
    if not values:
        raise ValueError(f"empty range {text!r}: start exceeds stop")
    return values


def _check_minimum(args, **minimums) -> None:
    """Fail on the first flag below its minimum."""
    for name, low in minimums.items():
        if getattr(args, name) < low:
            raise CliError(f"--{name} must be >= {low}, got {getattr(args, name)}")


def _check_tolerance(args) -> None:
    if not (math.isfinite(args.tolerance) and args.tolerance > 0):
        raise CliError(f"--tolerance must be finite and positive, got {args.tolerance}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_verify_props(args) -> int:
    _check_minimum(args, tuples=1, seed=0)
    _check_tolerance(args)
    cases = proposition_suite(seed=args.seed, tuples=args.tuples, only=args.only,
                              tol=args.tolerance)
    if not cases:
        raise CliError(f"no cases match --only {args.only!r}")
    failed = [c for c in cases if not c["passed"]]
    if args.format == "json":
        payload = [{**c, "max_dev": _fmt(c["max_dev"])} for c in cases]
        _emit(json.dumps(payload, sort_keys=True, indent=2), args.out)
    else:
        lines = [f"{'case':40s} {'max deviation':>14s}  status"]
        for c in cases:
            status = "pass" if c["passed"] else "FAIL"
            lines.append(f"{c['name']:40s} {c['max_dev']:14.3e}  {status}")
        lines.append(f"{len(cases) - len(failed)}/{len(cases)} cases passed "
                     f"(tolerance {args.tolerance:g})")
        _emit("\n".join(lines) + "\n", args.out)
    return 2 if failed else 0


def cmd_projector(args) -> int:
    _check_minimum(args, n=1, d=1, k=1, seed=0)
    with _fails_with(1, "bad partition: "):
        mu, alpha = parse_partition(args.mu), parse_partition(args.alpha)
    if args.emit_map is not None and not 1 <= args.emit_map <= args.n:
        raise CliError(f"--emit-map must be in 1..{args.n}")
    with _fails_with(2):
        g = gamma(mu, alpha, args.n, args.k, args.d)
        check_size_guard(args.n, args.d)
        element = f_projector(mu, alpha, args.n, args.k, args.d)
        f = realize(element, args.d)
    if f.imag.any():
        raise CliError(f"F_{mu}({alpha}) has a non-real entry", 2)
    # F should commute with U on the first n-k sites (x) conj(U) on the last
    # k: both checks run on its weight sectors and count any entry off them
    f = dense_ops.DenseOperator(args.n, args.d, np.ascontiguousarray(f.real))
    conjugated = range(args.n - args.k + 1, args.n + 1)
    idem = dense_ops.idempotence_residual(f, conjugated)
    comm = dense_ops.covariance_residual(f, conjugated)

    report = {
        "n": args.n, "k": args.k, "d": args.d,
        "mu": str(mu), "alpha": str(alpha),
        "gamma": str(g),
        "terms": len(element.pairings),
        "idempotence_residual": _fmt(idem),
        "commutant_residual": _fmt(comm),
        "element": {"n": element.n},
    }
    texts, coeffs = _term_listing(element)
    if args.emit_map is not None:
        n_in = args.emit_map
        spec = mm.MapSpec(f, n_in=n_in, n_out=args.n - n_in, d=args.d)
        rng = np.random.default_rng(args.seed)
        inputs = [dense_ops.random_psd(args.d, 1, rng) for _ in range(n_in)]
        out = mm.fast_evaluate(spec, inputs)
        report["map_inputs"] = n_in
        report["map_output_min_eig"] = _fmt(dense_ops.min_eigenvalue(out))
    if args.format == "json":
        _emit(_report_json(report, texts, coeffs), args.out)
    else:
        lines = [f"F_{report['mu']}({report['alpha']}) on n={args.n} sites, "
                 f"k={args.k} transposed, d={args.d}",
                 f"gamma = {report['gamma']}",
                 f"terms = {report['terms']}",
                 f"idempotence residual = {report['idempotence_residual']}",
                 f"commutant residual   = {report['commutant_residual']}"]
        for text, row in zip(texts, coeffs.tolist()):
            val = " + ".join(f"({c.real:.6g}{c.imag:+.6g}i) d^{p}" for p, c in enumerate(row) if c)
            lines.append(f"  [{val}]  {text}")
        if "map_output_min_eig" in report:
            lines.append(f"map on {report['map_inputs']} random PSD inputs: "
                         f"output min eigenvalue = {report['map_output_min_eig']}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_scan_bcs(args) -> int:
    _check_minimum(args, d=3, seed=0)
    ranges = []
    for flag in ("alpha", "beta"):
        with _fails_with(1, f"--{flag}: "):
            ranges.append(_parse_range(getattr(args, flag)))
    points = len(ranges[0]) * len(ranges[1])
    if points > MAX_SCAN_POINTS:
        raise CliError(f"--alpha/--beta: the grid has {points} points, "
                       f"more than {MAX_SCAN_POINTS}")
    with _fails_with(2):
        check_size_guard(3, args.d)
    rows = ent.scan_bcs_region(*ranges, args.d, ent.SearchBudget(seed=args.seed))
    lines = ["alpha,beta,analytic_positive,min_eig,product_min,class"]
    for r in rows:
        lines.append(",".join([
            _fmt(r["alpha"]), _fmt(r["beta"]), str(r["analytic_positive"]).lower(),
            _fmt(r["min_eig"]), _fmt(r["product_min"]), r["class"]]))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_werner_ppt(args) -> int:
    _check_minimum(args, d=3)
    with _fails_with(2):
        check_size_guard(3, args.d)
    with _fails_with(1):
        rs = tuple(float(tok) for tok in args.r.split(","))
        if len(rs) != 6:
            raise ValueError("expected 6 comma-separated values r+,r-,r0,r1,r2,r3")
        params = ent.WernerParams.from_rs(rs, args.d)
        with np.errstate(all="ignore"):     # non-finite input is reported below
            rho = ent.werner_state(params)
        if not (all(map(math.isfinite, rs)) and np.isfinite(rho.mat).all()):
            raise ValueError(f"--r {args.r!r} has a non-finite value or operator entry")
    checks, overall = ent.werner_ppt_conditions(rs)
    valid = params.is_valid_state()
    min_eig = dense_ops.min_eigenvalue(dense_ops.partial_transpose(rho, (1,)))
    eig_ppt = min_eig >= -PPT_EIGENCHECK
    payload = {
        "r": [_fmt(x) for x in rs],
        "d": args.d,
        "valid_state": valid,
        "conditions": dict(zip(
            ["r_minus_nonneg", "symmetric_sector", "block_diag_1", "block_diag_2",
             "block_determinant_f1", "antisymmetric_sector"], checks)),
        "overall": overall,
        "min_eig_partial_transpose_1": _fmt(min_eig),
        "eigencheck_ppt": eig_ppt,
        "consistent": (overall == eig_ppt) if valid else None,
    }
    _emit(json.dumps(payload, sort_keys=True, indent=2), args.out)
    if valid and overall != eig_ppt:
        instance = {
            "r": list(rs),
            "analytic": overall,
            "eigencheck": eig_ppt,
            "partial_transpose_matrix": dense_ops.matrix_to_json_rows(
                dense_ops.partial_transpose(rho, (1,)).mat),
        }
        print("contradiction between the analytic conditions and the eigencheck:",
              file=sys.stderr)
        print(json.dumps(instance, sort_keys=True), file=sys.stderr)
        return 2
    return 0


def cmd_ew_maps(args) -> int:
    _check_minimum(args, d=3, instances=1, seed=0)
    _check_tolerance(args)
    rows = ent.F_ROWS + ent.G_ROWS if args.row == "all" else (args.row,)
    bad = [r for r in rows if r not in ent.F_ROWS + ent.G_ROWS]
    if bad:
        raise CliError(f"unknown rows {bad}; valid: {ent.F_ROWS + ent.G_ROWS}")
    with _fails_with(2):
        check_size_guard(3, args.d)
    rng = np.random.default_rng(args.seed)
    support = ent.werner_support(args.d)
    results = {}
    for row in rows:
        devs = []
        # an instance gathers the kernel's nonzeros times the output entries
        outputs = args.d ** (2 if row.startswith("f") else 1)
        for t in stack_sizes(args.instances, support * outputs):
            # per instance: the parameters, then a, then b (drawn for f rows too)
            drawn = [(ent.random_valid_werner(rng, args.d), dense_ops.random_matrix(args.d, 1, rng),
                      dense_ops.random_matrix(args.d, 1, rng)) for _ in range(t)]
            params, a, b = zip(*drawn)
            params, a = ent.WernerParams.stack(params), np.array(a)
            b = np.array(b) if row.startswith("g") else None
            closed = ent.eggeling_werner_map(row, params, a, b)
            trace = ent.eggeling_werner_map_trace(row, params, a, b)
            devs.append(dense_ops.sup_norm(closed.mat - trace.mat))
        results[row] = float(np.max(devs))      # np.max, not max(): NaN fails the row
    worst = float(np.max(list(results.values())))
    payload = {
        "d": args.d, "instances": args.instances, "seed": args.seed,
        "deviation": {row: _fmt(dev) for row, dev in results.items()},
        "tolerance": _fmt(args.tolerance),
        "passed": worst < args.tolerance,
    }
    _emit(json.dumps(payload, sort_keys=True, indent=2), args.out)
    return 0 if worst < args.tolerance else 2


def cmd_compose(args) -> int:
    _check_minimum(args, n=1)
    with _fails_with(1):
        a = parse_diagram(args.left, args.n)
        b = parse_diagram(args.right, args.n)
    diag, loops = compose_diagrams(a, b)
    _emit(f"left   : {diagram_to_text(a)}\n"
          f"right  : {diagram_to_text(b)}\n"
          f"product: {diagram_to_text(diag)}\n"
          f"loops  : {loops}  (coefficient d^{loops})\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wba", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, summary, *flags, seeds=None):
        """Subcommand with --out, the named shared flags, and --seed when
        ``seeds`` says what it seeds."""
        p = sub.add_parser(name, help=summary)
        p.add_argument("--out", default=None, help="write output to this file atomically")
        if seeds:
            p.add_argument("--seed", type=int, default=0, help=f"seeds {seeds}")
        if "tolerance" in flags:
            p.add_argument("--tolerance", type=float, default=ORACLE_TOL)
        if "format" in flags:
            p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(func=func)
        return p

    p = add("verify-props", cmd_verify_props, "closed forms vs contraction oracle",
            "tolerance", "format", seeds="the random input tuples")
    p.add_argument("--only", default=None, help="run only case groups with this prefix")
    p.add_argument("--tuples", type=int, default=20)

    p = add("projector", cmd_projector, "build an irreducible walled-Brauer projector",
            "format", seeds="only the --emit-map inputs; without --emit-map it changes nothing")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--mu", required=True, help='partition of n-k, e.g. "[2,1]"')
    p.add_argument("--alpha", required=True, help='partition of n-2k, e.g. "[2]"')
    p.add_argument("--emit-map", type=int, default=None, metavar="INPUTS",
                   help="evaluate the induced map on this many random PSD inputs")

    p = add("scan-bcs", cmd_scan_bcs, "scan the kernel family over an (alpha, beta) grid",
            seeds="only the fallback search, run when a covariance check fails")
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--alpha", required=True, help="range start:stop:step")
    p.add_argument("--beta", required=True, help="range start:stop:step")

    p = add("werner-ppt", cmd_werner_ppt, "analytic partial-transpose conditions vs eigencheck")
    p.add_argument("--r", required=True, help='six values "r+,r-,r0,r1,r2,r3"')
    p.add_argument("--d", type=int, default=3)

    p = add("ew-maps", cmd_ew_maps, "closed-form invariant-state maps vs trace definition",
            "tolerance", seeds="the random Werner parameters and inputs")
    p.add_argument("--row", default="all",
                   help="one of f1,f2,f3,f12,f13,f23,g1,...,g23 or 'all'")
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--instances", type=int, default=50)

    p = add("compose", cmd_compose, "diagram calculator: product and loop count")
    p.add_argument("left", help='diagram text, e.g. "(1 2)^T{2}"')
    p.add_argument("right")
    p.add_argument("--n", type=int, required=True, help="number of sites")

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser().parse_args(_attach_signed_values(argv))
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except SystemExit as exc:   # --help
        return exc.code if isinstance(exc.code, int) else 1


if __name__ == "__main__":
    sys.exit(main())
