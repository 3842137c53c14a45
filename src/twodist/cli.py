"""Command-line interface.

Subcommands: bound, table, search, oracle, check, construct, feasible.
Exit status 0 means success, 2 means the query itself is infeasible or
not well defined (no code exists / verification failed); usage and tool
errors exit with 1 so "no" answers stay distinguishable from failures.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import bounds as bounds_mod
from . import constructions, feasibility, search, tables
from .core import (
    MAX_ALPHABET,
    TwoDistParams,
    distance_distribution,
    is_antipodal,
    read_code,
    strength,
    verify_two_distance,
    write_code,
    write_digits,
)

OK, NO, FAIL = 0, 2, 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not the semantic 2
        self.print_usage(sys.stderr)
        print(f"twodist: error: {message}", file=sys.stderr)
        raise SystemExit(FAIL)


# construct: family -> (parameter count, linear, builder(args, *params)), in the order of
# --help; a linear family's builder returns a GeneratorMatrix, any other a Code
_FAMILIES = {
    "dm": (3, False, lambda args, *ps: constructions.dm_code(*ps)),
    "simplex": (2, True, lambda args, *ps: constructions.seed_code("simplex", *ps)),
    "mds2": (2, True, lambda args, *ps: constructions.seed_code("mds2", *ps)),
    "su1": (5, True, lambda args, *ps: constructions.su1_code(
        *ps, mode="union" if args.union else "remove")),
    "su2": (3, True, lambda args, *ps: constructions.su2_code(*ps)),
    "arc": (1, True, lambda args, q: constructions.arc_code(q)),
    "pencil": (2, True, lambda args, *ps: constructions.pencil_code(*ps)),
    "weight2": (1, False, lambda args, n: constructions.small_family_code(
        "weight2", n, q=2 if args.q is None else args.q)),
    "bin-2-2d": (2, False, lambda args, n, delta: constructions.small_family_code(
        "bin-2-2d", n, delta=delta)),
    "disjoint": (2, False, lambda args, n, d: constructions.small_family_code(
        "disjoint", n, d=d)),
    "ternary13": (1, False, lambda args, n: constructions.small_family_code("ternary13", n)),
}


def _params_args(p: argparse.ArgumentParser):
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--delta", type=int, required=True)


def _shared_args(p: argparse.ArgumentParser, *names: str):
    # accept the global flags after the subcommand too; SUPPRESS keeps the
    # root parser's value when the flag is absent at this level
    if "seed" in names:
        p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    if "format" in names:
        p.add_argument("--format", default=argparse.SUPPRESS)
    if "external" in names:
        p.add_argument("--external-bounds", metavar="CSV", default=argparse.SUPPRESS)


def build_parser() -> _Parser:
    parser = _Parser(prog="twodist", description=__doc__)
    parser.add_argument("--external-bounds", metavar="CSV", help="best-known A_q(n,d) table")
    parser.add_argument("--format", default=None, help="output format where applicable")
    parser.add_argument("--seed", type=int, default=1, help="PRNG seed for search")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="upper bounds for one parameter set")
    _params_args(p)
    _shared_args(p, "format", "external")

    p = sub.add_parser("table", help="grid of cells for fixed q and delta")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--d-min", type=int, default=1)
    p.add_argument("--d-max", type=int, default=None)
    p.add_argument("--search-restarts", type=int, default=0, help="enable random search per cell")
    p.add_argument("--oracle-max", type=int, default=0, help="exact oracle when candidates fit")
    _shared_args(p, "seed", "format", "external")

    p = sub.add_parser("search", help="randomized greedy lower bound")
    _params_args(p)
    p.add_argument("--restarts", type=int, default=1000)
    p.add_argument("--stop-at", type=int, default=None)
    p.add_argument("-o", "--output", default=None, help="write the best code found")
    _shared_args(p, "seed")

    p = sub.add_parser("oracle", help="exact value by exhaustive clique search")
    _params_args(p)
    p.add_argument("--max-vertices", type=int, default=2000)

    p = sub.add_parser("check", help="verify a code file")
    p.add_argument("file")
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--delta", type=int, default=None)

    p = sub.add_parser("construct", help="emit a catalog construction")
    p.add_argument("family", choices=list(_FAMILIES))
    p.add_argument("params", type=int, nargs="*")
    p.add_argument("--union", action="store_true", help="su1: add instead of remove")
    p.add_argument("--complement", action="store_true", help="emit the complementary code")
    p.add_argument("--generator", action="store_true", help="write 'k n q' matrix form")
    p.add_argument("--q", type=int, default=None, help="weight2: alphabet (default 2)")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("feasible", help="linear two-weight parameter screens")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--w1", type=int, required=True)
    p.add_argument("--w2", type=int, required=True)
    p.add_argument("--s", type=int, default=None)
    _shared_args(p, "format")
    return parser


def _load_external(args) -> dict[tuple[int, int, int], int] | None:
    if not args.external_bounds:
        return None
    return bounds_mod.read_external_bounds(Path(args.external_bounds).read_text())


def _cmd_bound(args) -> int:
    params = TwoDistParams(args.q, args.n, args.d, args.delta)
    report = bounds_mod.best_upper_bound(params, _load_external(args))
    if args.format == "json":
        payload = {
            "params": {"q": params.q, "n": params.n, "d": params.d, "delta": params.delta},
            "status": report.status.kind,
            "best": report.best,
            "methods": {e.method: e.value for e in report.entries},
            "note": report.status.note,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"q={params.q} n={params.n} distances {{{params.d}, {params.d2}}}")
        for e in report.entries:
            value = "-" if e.value is None else str(e.value)
            note = f"  ({e.note})" if e.note else ""
            print(f"  {e.method:<8} {value}{note}")
        if report.status.kind == "not_well_defined":
            print(f"  not well defined: {report.status.note}")
        elif report.status.kind == "exact":
            print(f"  exact    {report.status.lo}")
        else:
            print(f"  best     {report.best}  [{','.join(report.status.methods)}]")
    return NO if report.status.kind == "not_well_defined" else OK


def _cmd_table(args) -> int:
    fmt = args.format or "markdown"
    spec = tables.TableSpec(
        q=args.q, delta=args.delta, n_min=args.n_min, n_max=args.n_max,
        d_min=args.d_min, d_max=args.d_max, fmt=fmt,
    )
    cfg = None
    if args.search_restarts:
        cfg = search.SearchConfig(seed=args.seed, restarts=args.search_restarts)
    options = tables.CellOptions(
        external=_load_external(args), search_cfg=cfg,
        oracle_max_vertices=args.oracle_max,
    )
    sys.stdout.write(tables.render_table(spec, options))
    return OK


def _cmd_search(args) -> int:
    params = TwoDistParams(args.q, args.n, args.d, args.delta)
    if args.output and params.q > MAX_ALPHABET:  # refused before the search, not after it
        raise ValueError(f"file format supports q <= {MAX_ALPHABET}")
    cfg = search.SearchConfig(seed=args.seed, restarts=args.restarts, stop_at=args.stop_at)
    result = search.random_greedy(params, cfg)
    kind = "two-distance" if result.report.ok else (
        "equidistant" if result.report.equidistant else "incomplete"
    )
    print(
        f"best {result.size} words ({kind}) after {result.restarts_run} restarts"
        f" (found at restart {result.restart_index})"
    )
    print(f"observed distances: {list(result.report.observed)}")
    if args.output:
        Path(args.output).write_text(write_code(result.code))
        print(f"wrote {args.output}")
    return OK if result.report.ok else NO


def _cmd_oracle(args) -> int:
    params = TwoDistParams(args.q, args.n, args.d, args.delta)
    total = search.candidate_count(params)
    value = search.exhaustive_maximum(params, args.max_vertices)
    print(f"A_{params.q}({params.n}, {{{params.d},{params.d2}}}) = {value}"
          f"  ({total} candidate words)")
    return OK


def _cmd_check(args) -> int:
    if (args.d is None) != (args.delta is None):
        raise ValueError("check takes --d and --delta together or neither")
    code = read_code(Path(args.file).read_text())
    params = None if args.d is None else TwoDistParams(code.q, code.n, args.d, args.delta)
    dist = distance_distribution(code)
    observed = dist.support()
    print(f"q={code.q} n={code.n} words={code.size}")
    print(f"observed distances: {list(observed)}")
    print(f"strength: {strength(code)}")
    print(f"antipodal: {is_antipodal(code)}")
    nonzero = {j: str(dist.a(j)) for j in range(code.n + 1) if dist.a(j) > 0}
    print(f"distribution: {nonzero}")
    if params is not None:
        report = verify_two_distance(code, params)
        if report.ok:
            print(f"ok: exactly the distances {{{params.d}, {params.d2}}}")
            return OK
        if report.equidistant:
            print("equidistant: only one of the two distances occurs")
        else:
            print("not a code with the requested two distances")
        return NO
    return OK if len(observed) == 2 else NO


def _cmd_construct(args) -> int:
    fam, ps = args.family, args.params
    count, linear, build = _FAMILIES[fam]
    if len(ps) != count:
        raise ValueError(f"{fam} expects {count} integer parameters, got {len(ps)}")
    if args.q is not None and fam != "weight2":
        raise ValueError("--q applies to weight2 only")
    if args.union and fam != "su1":
        raise ValueError("--union applies to su1 only")
    for flag in ("complement", "generator"):
        if getattr(args, flag) and not linear:
            raise ValueError(f"--{flag} needs a linear family")
    obj = build(args, *ps)
    if args.complement:
        obj = constructions.complementary_code(obj)

    if not linear:
        text = write_code(obj)
    elif args.generator:
        text = write_digits(f"{obj.k} {obj.n} {obj.q}", obj.q, obj.rows)
    elif obj.q ** obj.k > 4096:
        raise ValueError("code too large to expand; use --generator")
    else:
        text = write_code(obj.span())
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    return OK


def _cmd_feasible(args) -> int:
    lp = feasibility.LinearParams(q=args.q, k=args.k, n=args.n, w1=args.w1, w2=args.w2, s=args.s)
    result = feasibility.linear_screens(lp)
    if args.format == "json":
        screens = [dataclasses.asdict(line) for line in result.lines]
        print(json.dumps({"params": dataclasses.asdict(lp), "screens": screens}, indent=2))
    else:
        for line in result.lines:
            print(f"{line.verdict.upper():<10} {line.screen}: {line.detail}")
    return NO if result.refuted else OK


def _discard_stdout() -> None:
    """Point the file descriptor under `sys.stdout`, if it has one, at devnull."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError):  # io.UnsupportedOperation is an OSError
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse help/usage paths
        return int(exc.code or 0)
    handlers = {
        "bound": _cmd_bound,
        "table": _cmd_table,
        "search": _cmd_search,
        "oracle": _cmd_oracle,
        "check": _cmd_check,
        "construct": _cmd_construct,
        "feasible": _cmd_feasible,
    }
    # formats rendered besides the text report; table's spec checks its own, so any passes here
    formats = {"bound": ("json",), "feasible": ("json",), "table": (args.format,)}
    try:
        if args.format is not None and args.format not in formats.get(args.command, ()):
            raise ValueError(f"unsupported format {args.format!r}")
        status = handlers[args.command](args)
        sys.stdout.flush()  # so that a reader gone early shows here, not at exit
        return status
    except BrokenPipeError:
        # the reader closed the pipe (`| head -1`): stop quietly, as the
        # Python docs advise for SIGPIPE, with stdout sent to devnull so the
        # interpreter's flush at exit finds nothing to fail on
        _discard_stdout()
        return FAIL
    # CodeFormatError and ExternalBoundsError are ValueErrors; OSError covers
    # unreadable inputs and unwritable outputs, MemoryError an array numpy
    # cannot allocate
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAIL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
