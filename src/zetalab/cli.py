"""Command-line surface.

Exit codes: 0 when everything requested passed, 1 when any claim or scan
failed, 2 on usage errors.  Numeric output is printed with 17 significant
digits so values round-trip through text.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from typing import List, Optional

from . import analytic, arith, comb, laplace, verify
from .verify import fmt17


# Every command runs on one thread.  perfbench/run.py records this value in
# its provenance, so the function stays.
def _threads_default() -> int:
    return 1


class _Parser(argparse.ArgumentParser):
    """Takes every token that float() reads, -inf and -1e5 too, as a value, not an option.

    argparse's own negative-number pattern knows only forms such as -5 and -.5.
    """

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def _parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="zetalab",
        description="Evaluate prime-counting functions, run identity claims, and scan bounds.",
    )
    sub = p.add_subparsers(dest="command")

    ev = sub.add_parser("eval", help="evaluate one function at a point")
    ev.add_argument("function", choices=["pi", "j", "psi", "li", "lie", "zeta", "r", "rint"])
    ev.add_argument("argument", type=float)

    ck = sub.add_parser("check", help="run claims from the registry")
    ck.add_argument("claim", nargs="?", help="claim id, e.g. C9")
    ck.add_argument("--all", action="store_true", help="run the whole catalog")
    ck.add_argument("--max", type=float, default=None, help="range ceiling override")
    ck.add_argument("--s", default=None, help="comma-separated s grid override")
    ck.add_argument("--points", type=int, default=None)
    ck.add_argument("--format", choices=["csv", "json"], default=None)
    ck.add_argument("--out", default="-")

    sc = sub.add_parser("scan", help="scan one bound over a range")
    sc.add_argument("bound", help="bound id, e.g. B2")
    sc.add_argument("--from", dest="lo", type=float, default=None)
    sc.add_argument("--to", dest="hi", type=float, default=None)
    sc.add_argument("--mode", choices=["every-integer", "every-jump", "log-grid"], default=None)
    sc.add_argument("--points", type=int, default=None, help="log-grid points (default 10000)")
    sc.add_argument("--convention", choices=["li", "offset"], default=None)
    sc.add_argument("--format", choices=["csv", "json"], default=None)
    sc.add_argument("--out", default="-")

    lpp = sub.add_parser("laplace", help="bracket a transform pair on an s grid")
    lpp.add_argument("pair", help="pair id: " + ", ".join(laplace.PAIR_IDS))
    lpp.add_argument("--s", default="1.5,2,3,5,10")
    lpp.add_argument("--limit", type=float, default=verify.DEFAULT_COMB_LIMIT)
    lpp.add_argument("--x-max", type=float, default=None)
    return p


def _cmd_eval(args) -> int:
    x = args.argument
    fn = args.function
    if fn == "pi":
        print(arith.pi_count(x))
        return 0
    value = {
        "j": lambda: arith.j_value(x),
        "psi": lambda: arith.psi_value(x),
        "li": lambda: analytic.li_pv(x),
        "lie": lambda: analytic.lie(x),
        "zeta": lambda: analytic.zeta_real(x),
        "r": lambda: comb.r_value(x),
        "rint": lambda: comb.r_integral(x),
    }[fn]()
    print(fmt17(value))
    return 0


# the defaults each check option overrides; --max sets the first its claim has
_OPTION_KEYS = {"max": ("limit", "n_grid", "x_hi", "x_max"), "s": ("s_grid",), "points": ("points",)}


def _claim_params(args, claim_id: str) -> Optional[dict]:
    params = {}
    defaults = verify.CLAIMS[claim_id].defaults
    refused = [f"--{opt}" for opt, keys in _OPTION_KEYS.items()
               if getattr(args, opt) is not None and not any(k in defaults for k in keys)]
    if refused and not args.all:  # --all gives each option to the claims that take it
        raise ValueError(f"claim {claim_id} takes no {' or '.join(refused)}")
    if args.max is not None:
        if not math.isfinite(args.max):
            raise ValueError(f"--max must be finite, got {args.max:g}")
        # the claim's smallest abscissa: the first prime for a limit, the grid's start otherwise
        if "limit" in defaults:
            if args.max > verify.LIMIT_CEILING:
                raise ValueError(
                    f"--max {args.max:g} is above {claim_id}'s ceiling {verify.LIMIT_CEILING:g}: "
                    "its work spans the whole range"
                )
            params["limit"] = int(args.max)
            least, name = 2, "x"
        elif "n_grid" in defaults:
            params["n_grid"] = [n for n in defaults["n_grid"] if n <= args.max]
            least, name = defaults["n_grid"][0], "N"
        elif "x_hi" in defaults:
            params["x_hi"] = args.max
            least, name = defaults["x_lo"], "x"
        elif "x_max" in defaults:
            params["x_max"] = int(args.max)
            least, name = verify.M1_X_MIN, "x"
        else:
            least = None
        if least is not None and args.max < least:
            raise ValueError(
                f"--max {args.max:g} leaves {claim_id} no {name} to check; its smallest is {least:g}"
            )
    if args.s is not None and "s_grid" in defaults:
        params["s_grid"] = [float(t) for t in args.s.split(",")]
    if args.points is not None and "points" in defaults:
        if args.points < 1:
            raise ValueError(f"--points must be at least 1, got {args.points}")
        params["points"] = args.points
    return params or None


def _cmd_check(args) -> int:
    if not args.all and not args.claim:
        print("check needs a claim id or --all", file=sys.stderr)
        return 2
    ids = list(verify.CLAIMS) if args.all else [args.claim]
    for cid in ids:
        if cid not in verify.CLAIMS:
            print(f"unknown claim id {cid!r}", file=sys.stderr)
            return 2
    rowless = [cid for cid in ids if cid in verify.ROWLESS_CLAIMS]
    if args.format == "csv" and rowless:  # refused before any claim runs
        raise ValueError(verify.NO_CLAIM_CSV.format(rowless[0]))
    results = [verify.run_claim(cid, _claim_params(args, cid)) for cid in ids]
    for r in results:
        print(
            f"{r.id} {r.verdict} max_abs_residual={fmt17(r.max_abs_residual)} "
            f"tolerance={fmt17(r.tolerance)} at={fmt17(r.arg_extremum)}"
        )
    if args.format:
        verify.emit_report(results, args.format, args.out)
    return 0 if all(r.passed for r in results) else 1


def _cmd_scan(args) -> int:
    mode = args.mode.replace("-", "_") if args.mode else None
    points = {} if args.points is None else {"points": args.points}
    if points and mode != "log_grid":  # no bound scans a log grid by default
        raise ValueError("--points applies to --mode log-grid only")
    rows_to_stdout = args.format == "csv" and args.out == "-"
    with verify.open_text(args.out) if args.format == "csv" else contextlib.nullcontext() as sink:
        report = verify.scan_bound(
            args.bound, args.lo, args.hi, mode,
            convention=args.convention, row_sink=sink, keep_rows=False, **points,
        )
    print(
        f"{report.bound_id} {'pass' if report.passed else 'fail'} "
        f"rows={report.n_rows} failures={report.n_failures} "
        f"min_margin={fmt17(report.min_margin)} at={fmt17(report.argmin_x)}",
        file=sys.stderr if rows_to_stdout else sys.stdout,
    )
    if args.format == "json":
        verify.emit_report([report], "json", args.out)
    return 0 if report.passed else 1


def _cmd_laplace(args) -> int:
    if args.limit > verify.LIMIT_CEILING:
        raise ValueError(
            f"--limit {args.limit:g} is above the ceiling {verify.LIMIT_CEILING:g}: "
            "a comb's work spans the whole range"
        )
    grid = [float(t) for t in args.s.split(",")]
    ok = True
    for s in grid:
        br = laplace.laplace_pair(args.pair, s, limit=args.limit, x_max=args.x_max)
        contained = br.contains()
        ok &= contained
        print(
            f"{br.pair_id} s={fmt17(s)} bracket=[{fmt17(br.numeric_lo)}, {fmt17(br.numeric_hi)}] "
            f"closed_form={fmt17(br.closed_form)} width={fmt17(br.width)} "
            f"{'contained' if contained else 'ESCAPED'}"
        )
    return 0 if ok else 1


def dispatch(argv: Optional[List[str]] = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "scan":
            return _cmd_scan(args)
        if args.command == "laplace":
            return _cmd_laplace(args)
    except (ValueError, OverflowError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    parser.print_usage(sys.stderr)
    return 2


def main() -> None:
    sys.exit(dispatch())
