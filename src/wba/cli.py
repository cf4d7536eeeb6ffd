"""Command-line front end.

Subcommands: verify-props, projector, scan-bcs, werner-ppt, ew-maps, compose.
All numeric work is seeded and the emitted JSON/CSV is byte-stable for a
fixed configuration: the package, numpy, its BLAS and LAPACK, and the BLAS
thread count (OPENBLAS_NUM_THREADS and the like).  The thread count can
move the last digits of eigensolver values: ``projector``'s
``map_output_min_eig`` (--n 6 --k 2 --d 3 --mu "[2,2]" --alpha "[2]"
--emit-map 1 --seed 11 prints -1.03248475699e-15 on one thread and
-1.19874850315e-15 on two), ``scan-bcs``'s ``min_eig`` and ``product_min``
and ``werner-ppt``'s ``min_eig_partial_transpose_1``.  The golden files of
the tests match on one thread and on two.  The ``min_eig`` of ``scan-bcs``
and ``werner-ppt`` comes from a 6 x 6 matrix of the diagram algebra of its
S (wba_algebra._algebra_table), and its digits below about 1e-13 times the
operator's largest entry depend on that route.  Exit codes: 0 success,
1 bad flags, 2 numerical failure/contradiction.

Each subcommand has its own parser, built on its first use, so a call parses
its arguments once; the listing of wba --help shows the paragraphs above.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys
import tempfile
from collections.abc import Iterator
from contextlib import contextmanager
from functools import cache
from json.encoder import encode_basestring_ascii

import numpy as np

from . import dense_ops, entanglement as ent, multilinear_maps as mm
from .sym_core import parse_partition, parse_token
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
    realize_sectors,
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


# largest (alpha, beta) grid scan-bcs accepts; at d = 3 a point takes 0.012-0.015 ms
# on a 2-core Xeon: about 1.4-1.5 s for the largest grid, 2 ms for the 11 x 13 grid,
# in process, and 1.7-1.9 s for the largest as a fresh wba scan-bcs
MAX_SCAN_POINTS = 100_000


def _fmt(x: float) -> str:
    return f"{x:.12g}"


# stands where the term list goes in the indented report; no report field holds a NUL
_TERMS_SLOT = "\0terms"

# terms of the listing written per piece: bounds the piece's text
_LISTING_CHUNK = 1 << 12


def _distinct_rows(coeffs: np.ndarray) -> tuple[list[list[complex]], list[int]]:
    """The distinct rows of ``coeffs`` (T, P), compared by bit pattern (so
    -0.0 and 0.0, and NaN payloads, stay apart), as lists, and each row's
    index into them, from one np.unique over a byte view of the rows.  With
    return_inverse, np.unique stays off the path that imports numpy.ma."""
    width = coeffs.shape[1]
    rows = coeffs.view(np.dtype((np.void, coeffs.itemsize * width))).reshape(-1)
    distinct, inverse = np.unique(rows, return_inverse=True)
    return distinct.view(coeffs.dtype).reshape(-1, width).tolist(), inverse.tolist()


def _report_json(report: dict, texts: list[str], coeffs: np.ndarray) -> Iterator[str]:
    """The pieces of a projector report as ``json.dumps(report,
    sort_keys=True, indent=2)`` writes it, byte for byte, with the listing
    of _term_listing (texts and coefficient rows) under
    report["element"]["terms"]: each entry is {"coeff": [{"im", "power",
    "re"}, ...], "diagram"}, one coeff per nonzero entry.

    The head and tail are the indented dump of the report around the
    listing.  Each distinct coefficient row is dumped once by the stdlib,
    indented as a nested value is, at its depth; the listing is then
    written _LISTING_CHUNK terms a piece, each piece one join of its
    entries.  A projector's coefficients are integers times one rational,
    so its listing holds few distinct rows (at most 22 over every
    admissible pair from (7,1) to (9,3)); a listing of T distinct rows
    pays T pure-Python dumps (2.4 s for 153,552)."""
    shell = {**report, "element": {**report["element"], "terms": _TERMS_SLOT}}
    head, _, tail = json.dumps(shell, sort_keys=True, indent=2).partition(
        json.dumps(_TERMS_SLOT))
    yield head
    if not texts:
        yield "[]"
        yield tail
        return
    rows, inverse = _distinct_rows(coeffs)
    values = [json.dumps([{"im": c.imag, "power": p, "re": c.real} for p, c in enumerate(row) if c],
                         indent=2).replace("\n", "\n        ") for row in rows]
    for lo in range(0, len(texts), _LISTING_CHUNK):
        yield ("[\n      " if lo == 0 else ",\n      ") + ",\n      ".join([
            f'{{\n        "coeff": {values[i]},\n        "diagram": '
            f'{encode_basestring_ascii(text)}\n      }}'
            for i, text in zip(inverse[lo:lo + _LISTING_CHUNK], texts[lo:lo + _LISTING_CHUNK])])
    yield "\n    ]"
    yield tail


def _report_text(report: dict, texts: list[str], coeffs: np.ndarray) -> Iterator[str]:
    """The pieces of a projector report as text: the header lines, the
    listing of _term_listing one line per term, _LISTING_CHUNK terms a
    piece, and the map line if the report has one.  Each distinct
    coefficient row (by bit pattern, _distinct_rows) is formatted once."""
    yield (f"F_{report['mu']}({report['alpha']}) on n={report['n']} sites, "
           f"k={report['k']} transposed, d={report['d']}\n"
           f"gamma = {report['gamma']}\n"
           f"terms = {report['terms']}\n"
           f"idempotence residual = {report['idempotence_residual']}\n"
           f"commutant residual   = {report['commutant_residual']}\n")
    if texts:
        rows, inverse = _distinct_rows(coeffs)
        values = [" + ".join(f"({c.real:.6g}{c.imag:+.6g}i) d^{p}" for p, c in enumerate(row) if c)
                  for row in rows]
        for lo in range(0, len(texts), _LISTING_CHUNK):
            yield "".join([f"  [{values[i]}]  {text}\n" for i, text in zip(
                inverse[lo:lo + _LISTING_CHUNK], texts[lo:lo + _LISTING_CHUNK])])
    if "map_output_min_eig" in report:
        yield (f"map on {report['map_inputs']} random PSD inputs: "
               f"output min eigenvalue = {report['map_output_min_eig']}\n")


def _write_out(path: str, parts) -> None:
    """Write the strings ``parts`` as a shell redirect does: through
    symlinks, straight into a FIFO or device, and by an atomic replace that
    keeps a regular file's mode (0o666 less the umask for a new file)."""
    target = os.path.realpath(path)
    try:
        if os.path.lexists(target) and not os.path.isfile(target):   # a link here is a loop
            with open(target, "w") as handle:
                handle.writelines(parts)
            return
        umask = os.umask(0)
        os.umask(umask)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".wba-")
        try:
            os.fchmod(fd, os.stat(target).st_mode & 0o7777 if os.path.exists(target)
                      else 0o666 & ~umask)
            with os.fdopen(fd, "w") as handle:
                handle.writelines(parts)
            os.replace(tmp, target)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise CliError(f"--out {path}: {exc.strerror or exc}") from None


def _ended(parts):
    """The strings ``parts``, then a newline unless the last ends with one."""
    last = ""
    for last in parts:
        yield last
    if not last.endswith("\n"):
        yield "\n"


def _emit(text, out: str | None) -> None:
    """Write ``text``, a string or an iterable of strings written in order,
    ending with a newline, to ``out`` or to stdout."""
    parts = _ended((text,) if isinstance(text, str) else text)
    if out:
        _write_out(out, parts)
        return
    try:
        write = sys.stdout.write
        for part in parts:
            write(part)
        sys.stdout.flush()
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
    # the stop fuzz and the rounding of the points scale down with a small step
    fuzz, digits = min(RANGE_FUZZ, 1e-3 * step), max(12, 3 - math.floor(math.log10(step)))
    values, i = [], 0
    while (v := start + i * step) <= stop + fuzz:
        if len(values) == MAX_SCAN_POINTS:
            raise ValueError(f"range {text!r} has more than {MAX_SCAN_POINTS} points")
        if values and round(v, digits) == values[-1]:
            raise ValueError(f"range {text!r} repeats {values[-1]:g}: the step is too small")
        values.append(round(v, digits))
        i += 1
    if not values:
        raise ValueError(f"empty range {text!r}: start exceeds stop")
    return values


def _check_minimum(args, **minimums) -> None:
    """Fail on the first flag below its minimum."""
    for name, low in minimums.items():
        if getattr(args, name) < low:
            raise CliError(f"--{name} must be >= {low}, got {getattr(args, name)}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_verify_props(args) -> int:
    _check_minimum(args, tuples=1, seed=0)
    cases = proposition_suite(seed=args.seed, tuples=args.tuples, only=args.only)
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
                     f"(tolerance {ORACLE_TOL:g})")
        _emit("\n".join(lines) + "\n", args.out)
    return 2 if failed else 0


def cmd_projector(args) -> int:
    _check_minimum(args, n=1, d=1, k=1, seed=0)
    if args.n < 2 * args.k:
        raise CliError(f"--n must be >= 2k = {2 * args.k}, got {args.n}")
    with _fails_with(1, "bad partition: "):
        mu, alpha = parse_partition(args.mu), parse_partition(args.alpha)
    if args.emit_map is not None and not 1 <= args.emit_map <= args.n:
        raise CliError(f"--emit-map must be in 1..{args.n}")
    with _fails_with(2):
        g = gamma(mu, alpha, args.n, args.k, args.d)
        check_size_guard(args.n, args.d)
        element = f_projector(mu, alpha, args.n, args.k, args.d)
        f = realize_sectors(element, args.d, args.k)
    # F should commute with U on the first n-k sites (x) conj(U) on the last
    # k: it is held as its weight-sector rows, which both checks and the map
    # read; every diagram of F is walled, so none of its entries lies off them
    idem = dense_ops.idempotence_residual(f)
    comm = dense_ops.covariance_residual(f)

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
        with _fails_with(2):
            least = dense_ops.min_eigenvalue(mm.evaluate_oracle(spec, inputs))
        report["map_inputs"] = n_in
        report["map_output_min_eig"] = _fmt(least)
    _emit((_report_json if args.format == "json" else _report_text)(report, texts, coeffs),
          args.out)
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
        with np.errstate(over="ignore", invalid="ignore"):     # min_eigenvalue refuses inf/nan
            rows = ent.scan_bcs_region(*ranges, args.d)
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
    with _fails_with(1, "--r: "):
        rs = tuple(parse_token(tok, "value", args.r, float) for tok in args.r.split(","))
    with _fails_with(1):
        if len(rs) != 6:
            raise ValueError("expected 6 comma-separated values r+,r-,r0,r1,r2,r3")
        params = ent.WernerParams.from_rs(rs, args.d)
        if not all(map(cmath.isfinite, rs + params.alphas)):
            raise ValueError(f"--r {args.r!r} has a non-finite value or operator coefficient")
    checks, overall = ent.werner_ppt_conditions(rs)
    valid = params.is_valid_state()
    with _fails_with(2):
        min_eig = ent._s3_min_eigenvalue(ent.WERNER_TERMS, (1,), params.alphas, args.d)
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
        print(f"error: the analytic PPT conditions ({overall}) and the eigencheck ({eig_ppt}, "
              f"least eigenvalue {_fmt(min_eig)}) disagree on the valid state --r {args.r}",
              file=sys.stderr)
        return 2
    return 0


def cmd_ew_maps(args) -> int:
    _check_minimum(args, d=3, instances=1, seed=0)
    rows = ent.F_ROWS + ent.G_ROWS if args.row == "all" else (args.row,)
    with _fails_with(1, "--row: "):
        for row in rows:
            ent._row_subset(row)
    with _fails_with(2):
        check_size_guard(3, args.d)
    rng = np.random.default_rng(args.seed)
    results = {}
    for row in rows:
        devs = []
        # the inputs cover no output site, so an instance gathers the nonzeros
        # of the row's rho^{T_S}, once each, or holds its output if that is larger
        support = ent.werner_support(ent._row_subset(row), args.d)
        outputs = args.d ** (2 if row.startswith("f") else 1)
        for t in stack_sizes(args.instances, max(support, outputs ** 2)):
            # per instance: the parameters, then a, then b (drawn for f rows too)
            params, a, b = ent.random_werner_instances(rng, args.d, t)
            b = b if row.startswith("g") else None
            closed = ent.eggeling_werner_map(row, params, a, b)
            trace = ent.eggeling_werner_map_trace(row, params, a, b)
            devs.append(dense_ops.sup_norm(closed.mat - trace.mat))
        results[row] = float(np.max(devs))      # np.max, not max(): NaN fails the row
    worst = float(np.max(list(results.values())))
    payload = {
        "d": args.d, "instances": args.instances, "seed": args.seed,
        "deviation": {row: _fmt(dev) for row, dev in results.items()},
        "tolerance": _fmt(ORACLE_TOL),
        "passed": worst < ORACLE_TOL,
    }
    _emit(json.dumps(payload, sort_keys=True, indent=2), args.out)
    return 0 if worst < ORACLE_TOL else 2


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

_INT = dict(type=int, required=True)
_D3 = dict(type=int, default=3)
_SEED = dict(type=int, default=0)
_FORMAT = dict(choices=("text", "json"), default="text")
_RANGE = dict(required=True, help="range start:stop:step")

# each subcommand: its cmd_* function (main calls the one bound to its name in
# this module, so a wrapper bound there runs), summary and flags after --out
_COMMANDS = {
    "verify-props": (cmd_verify_props, "closed forms vs contraction oracle", [
        ("--seed", dict(_SEED, help="seeds the random input tuples")), ("--format", _FORMAT),
        ("--only", dict(default=None, help="run only case groups with this prefix")),
        ("--tuples", dict(type=int, default=20))]),
    "projector": (cmd_projector, "build an irreducible walled-Brauer projector", [
        ("--seed", dict(_SEED, help="seeds only the --emit-map inputs; without --emit-map "
                                    "it changes nothing")), ("--format", _FORMAT),
        ("--n", _INT), ("--k", _INT), ("--d", _INT),
        ("--mu", dict(required=True, help='partition of n-k, e.g. "[2,1]"')),
        ("--alpha", dict(required=True, help='partition of n-2k, e.g. "[2]"')),
        ("--emit-map", dict(type=int, default=None, metavar="INPUTS",
                            help="evaluate the induced map on this many random PSD inputs"))]),
    "scan-bcs": (cmd_scan_bcs, "scan the kernel family over an (alpha, beta) grid", [
        ("--seed", dict(_SEED, help="seeds nothing: every verdict is exact and draws nothing; "
                                    "it is still checked (>= 0) for scripts that pass it")),
        ("--d", _D3), ("--alpha", _RANGE), ("--beta", _RANGE)]),
    "werner-ppt": (cmd_werner_ppt, "analytic partial-transpose conditions vs eigencheck", [
        ("--r", dict(required=True, help='six values "r+,r-,r0,r1,r2,r3"')), ("--d", _D3)]),
    "ew-maps": (cmd_ew_maps, "closed-form invariant-state maps vs trace definition", [
        ("--seed", dict(_SEED, help="seeds the random Werner parameters and inputs")),
        ("--row", dict(default="all", help="one of f1,f2,f3,f12,f13,f23,g1,...,g23 or 'all'")),
        ("--d", _D3), ("--instances", dict(type=int, default=50))]),
    "compose": (cmd_compose, "diagram calculator: product and loop count", [
        ("left", dict(help='diagram text, e.g. "(1 2)^T{2}"')), ("right", {}),
        ("--n", dict(type=int, required=True, help="number of sites"))]),
}


@cache
def build_parser(name: str | None = None) -> argparse.ArgumentParser:
    """The parser of subcommand ``name``, prog "wba <name>": --out, then its
    flags; with no name, the listing parser of the subcommands by name and
    summary, which prints wba --help and raises the command errors."""
    if name is None:
        parser = _Parser(prog="wba", description=__doc__.rsplit("\n\n", 1)[0])
        sub = parser.add_subparsers(dest="command", required=True)
        for command, (_, summary, _) in _COMMANDS.items():
            sub.add_parser(command, help=summary)
        return parser
    parser = _Parser(prog=f"wba {name}")
    parser.add_argument("--out", default=None, help="write output to this file atomically")
    for flag, options in _COMMANDS[name][2]:
        parser.add_argument(flag, **options)
    return parser


def main(argv=None) -> int:
    argv = _attach_signed_values(sys.argv[1:] if argv is None else argv)
    try:
        if not argv or argv[0] not in _COMMANDS:    # the help, or one error line
            argv = argv[argv.index(build_parser().parse_args(argv).command):]   # past a "--"
        args = build_parser(argv[0]).parse_args(argv[1:])
        return globals()[_COMMANDS[argv[0]][0].__name__](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except SystemExit as exc:   # --help
        return exc.code if isinstance(exc.code, int) else 1


if __name__ == "__main__":
    sys.exit(main())
