"""Command-line front end.

Five subcommands: `eval` (numeric value of a sum specification),
`reduce` (closed form in the constant basis, with a numeric
cross-check), `verify` (certify one catalog identity), `constants`
(the reference table of printed values), and `suite` (the full
regression catalog).

Exit codes: 0 success or all-pass, 1 usage or parse error, 2 divergent
or uncovered input, 3 verification failure (including a `reduce`
cross-check that fails). JSON output always carries a schema version
field "v": 1.
"""

from __future__ import annotations

import argparse
import json
import sys

from mpmath import mp

from . import __version__
from .kernel import (
    GUARD_DIGITS,
    AccelerationError,
    DivergentSumError,
    EulerSumError,
    SumSpecSyntaxError,
    UnsupportedReductionError,
    at_dps,
    fmt_significant,
)
from .sumspec import format_sumspec, parse_sumspec
from .engine import eval_sum, lihalf_value
from .algebra import sv_numeric, sv_text, sv_to_json
from .reduce import reduce_quadratic
from .verify import run_suite, suite_ok, table_constants
from .verify import verify as verify_identity

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_VERIFY = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_common(p: argparse.ArgumentParser, default_digits: int = 30) -> None:
    p.add_argument("--digits", type=int, default=default_digits,
                   help="significant digits requested (>= 5, default "
                        f"{default_digits})")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="output format (default text)")
    p.add_argument("--max-terms", type=int, default=None, dest="max_terms",
                   help="series term budget of each evaluation (>= 100)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="eulersum",
        description="Evaluate, reduce, and certify nonlinear Euler sums.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{eval,reduce,verify,constants,suite}")

    p = sub.add_parser("eval", help="numeric value of a sum specification")
    p.add_argument("spec", help='e.g. "h(2)*h(3)/n alt"')
    _add_common(p)

    p = sub.add_parser("reduce",
                       help="closed form of a covered sum specification")
    p.add_argument("spec", help='e.g. "h(2)*h(3)/n alt"')
    _add_common(p)

    p = sub.add_parser("verify", help="certify one catalog identity")
    p.add_argument("--id", required=True, dest="tag", metavar="TAG",
                   help='catalog tag, e.g. "Eq(3.7)" or "cor2_7(3,0)"')
    _add_common(p, default_digits=25)

    p = sub.add_parser("constants",
                       help="reference table of printed constants")
    _add_common(p)

    p = sub.add_parser("suite", help="run the full regression catalog")
    _add_common(p, default_digits=25)

    return parser


def _emit(payload: dict) -> None:
    print(json.dumps({"v": 1, **payload}))


def _error_bound(value, digits: int) -> str:
    """Decimal ulp-style bound for a value carrying `digits` good digits."""
    with at_dps(digits + GUARD_DIGITS):
        v = mp.mpf(value)
        if v == 0:
            return f"1e-{digits}"
        exp = int(mp.floor(mp.log(abs(v), 10)))
        return f"1e{exp - digits + 1:+d}"


def _cmd_eval(args) -> int:
    spec = parse_sumspec(args.spec)
    val = eval_sum(spec, args.digits, max_terms=args.max_terms)
    text = fmt_significant(val.value, args.digits)
    if args.format == "json":
        _emit({
            "command": "eval",
            "spec": format_sumspec(spec),
            "digits": args.digits,
            "value": text,
            "errorBound": _error_bound(val.value, args.digits),
        })
    else:
        print(text)
    return EXIT_OK


def _cmd_reduce(args) -> int:
    spec = parse_sumspec(args.spec)
    reduced = reduce_quadratic(spec)
    digits = args.digits
    direct = eval_sum(spec, digits, max_terms=args.max_terms)
    approx = sv_numeric(reduced, digits, max_terms=args.max_terms)
    with at_dps(digits + GUARD_DIGITS):
        delta = abs(mp.mpf(direct.value) - mp.mpf(approx.value))
        delta_text = mp.nstr(delta, 3)
    if args.format == "json":
        _emit({
            "command": "reduce",
            "spec": format_sumspec(spec),
            "digits": digits,
            "reduced": sv_to_json(reduced),
            "text": sv_text(reduced),
            "value": fmt_significant(approx.value, digits),
            "crossCheckDelta": delta_text,
        })
    else:
        print(f"{format_sumspec(spec)}")
        print(f"  = {sv_text(reduced)}")
        print(f"cross-check delta = {delta_text} at {digits} digits")
    if not direct.eq_to(approx, digits):
        print(f"eulersum: reduction of {format_sumspec(spec)} disagrees with "
              f"its direct value at {digits} digits", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _report_text(report) -> str:
    lines = [
        f"identity:         {report.provenance}",
        f"status:           {report.status}",
        f"digits requested: {report.digits_requested}",
        f"digits agreed:    {report.digits_agreed}",
    ]
    if report.lhs_value is not None:
        d = report.digits_requested
        lines.insert(2, "lhs:              "
                     + fmt_significant(report.lhs_value.value, d))
        lines.insert(3, "rhs:              "
                     + fmt_significant(report.rhs_value.value, d))
        lines.insert(4, "|lhs-rhs|:        "
                     + mp.nstr(report.abs_diff.value, 3))
    if report.negative_control:
        lines.append("negative control: expected to fail")
    if report.note:
        lines.append(f"note:             {report.note}")
    lines.append(f"elapsed:          {report.elapsed:.2f}s")
    return "\n".join(lines)


def _cmd_verify(args) -> int:
    report = verify_identity(args.tag, args.digits,
                             max_terms=args.max_terms)
    if args.format == "json":
        _emit(report.to_json())
    else:
        print(_report_text(report))
    return EXIT_OK if report.passed else EXIT_VERIFY


def _cmd_constants(args) -> int:
    entries = []
    for tag, spec, _printed, _cap in table_constants():
        name = tag[len("table:"):]
        if spec:
            val = eval_sum(spec, args.digits, max_terms=args.max_terms)
        else:
            val = lihalf_value(4, args.digits)
        entries.append((name, fmt_significant(val.value, args.digits)))
    if args.format == "json":
        _emit({
            "command": "constants",
            "digits": args.digits,
            "entries": [{"name": n, "value": v} for n, v in entries],
        })
    else:
        width = max(len(n) for n, _ in entries)
        for name, value in entries:
            print(f"{name:<{width}s} = {value}")
    return EXIT_OK


def _cmd_suite(args) -> int:
    reports = run_suite(args.digits, max_terms=args.max_terms)
    ok = suite_ok(reports)
    if args.format == "json":
        for r in reports:
            _emit(r.to_json())
        _emit({
            "command": "suite",
            "digits": args.digits,
            "entries": len(reports),
            "ok": ok,
        })
    else:
        for r in reports:
            print(r.row())
        good = sum(1 for r in reports if r.ok)
        print(f"suite: {good}/{len(reports)} entries as expected -> "
              + ("OK" if ok else "FAILED"))
    return EXIT_OK if ok else EXIT_VERIFY


_DISPATCH = {
    "eval": _cmd_eval,
    "reduce": _cmd_reduce,
    "verify": _cmd_verify,
    "constants": _cmd_constants,
    "suite": _cmd_suite,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.digits < 5:
        parser.error("digits must be >= 5")
    if args.max_terms is not None and args.max_terms < 100:
        parser.error("max-terms must be >= 100")
    try:
        return _DISPATCH[args.command](args)
    except SumSpecSyntaxError as exc:
        print(f"eulersum: parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DivergentSumError, UnsupportedReductionError,
            AccelerationError) as exc:
        print(f"eulersum: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ValueError as exc:
        print(f"eulersum: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EulerSumError as exc:
        print(f"eulersum: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    raise SystemExit(main())
