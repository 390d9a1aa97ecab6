"""Reference values for the eval workloads, built from mpmath alone.

Nothing here imports eulersum. A sum  sum_n s_n F(n) / n^q  (s_n the
optional alternating sign, F a product of h(k) and l(k) partial sums) is
summed as pairs of consecutive terms, g(m) = t(2m-1) + t(2m), which is a
smooth function of m even when l factors or the sign oscillate:

    h(k) at x      = zeta(k) - zeta(k, x+1)        (k >= 2)
    h(1) at x      = digamma(x+1) + euler
    l(k) at 2m     = h(k) at 2m - 2^(1-k) h(k) at m
    l(k) at 2m-1   = l(k) at 2m + (2m)^-k

The first HEAD pairs are summed directly with running partial sums; the
rest is mpmath's Euler-Maclaurin summation (`mp.sumem`) of the analytic
g. Every value is computed with two different heads and kept only when
the two agree to REF_DIGITS + 2 digits.

    python3 perfbench/refs.py                 # rebuild perfbench/references.json
    python3 perfbench/refs.py --seed 7        # rebuild one seed's references
                                              # from scratch and compare
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import mpmath as mp

from workloads import ALTERNATING_SPECS, POSITIVE_SPECS, WORKLOADS, Spec, requests

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "references.json"
OUT_DIR = HERE / "out"
REF_DIGITS = 32
HEADS = (1000, 1500)


def _h(k: int, x):
    if k == 1:
        return mp.digamma(x + 1) + mp.euler
    return mp.zeta(k) - mp.zeta(k, x + 1)


def _pair_term(spec: Spec):
    """g(m) = t(2m-1) + t(2m) from analytic factor values."""
    q = spec.power

    def g(m):
        even, odd = mp.mpf(1), mp.mpf(1)
        n2 = 2 * m
        for kind, k, e in spec.factors:
            step = mp.power(n2, -k)
            if kind == "h":
                at2m = _h(k, n2)
                at_odd = at2m - step
            else:
                at2m = _h(k, n2) - mp.mpf(2) ** (1 - k) * _h(k, m)
                at_odd = at2m + step
            even *= at2m ** e
            odd *= at_odd ** e
        t_odd = odd / mp.power(n2 - 1, q)
        t_even = even / mp.power(n2, q)
        return t_odd - t_even if spec.alt else t_odd + t_even

    return g


def _head(spec: Spec, pairs: int):
    """sum of t(n) for n = 1 .. 2*pairs with running partial sums."""
    run = {(kind, k): mp.mpf(0) for kind, k, _ in spec.factors}
    total = mp.mpf(0)
    for n in range(1, 2 * pairs + 1):
        sign = 1 if n % 2 else -1
        for kind, k in run:
            step = mp.power(n, -k)
            run[(kind, k)] += step if kind == "h" else sign * step
        t = mp.power(n, -spec.power)
        for kind, k, e in spec.factors:
            t *= run[(kind, k)] ** e
        total += sign * t if spec.alt else t
    return total


def reference(text: str, digits: int = REF_DIGITS) -> str:
    """The value of the sum `text` to `digits` significant digits."""
    spec = Spec.parse(text)
    if spec.power < 1 or (spec.power == 1 and not spec.alt):
        raise ValueError(f"{text} diverges")
    values = []
    with mp.workdps(digits + 15):
        g = _pair_term(spec)
        for pairs in HEADS:
            values.append(_head(spec, pairs)
                          + mp.sumem(g, [pairs + 1, mp.inf]))
        a, b = values
        if abs(a - b) > mp.mpf(10) ** -(digits + 2) * max(1, abs(a)):
            raise ArithmeticError(f"reference for {text} did not settle: "
                                  f"{mp.nstr(a, 20)} vs {mp.nstr(b, 20)}")
        return mp.nstr(b, digits, strip_zeros=False)


def eval_specs() -> list[str]:
    return sorted(set(ALTERNATING_SPECS + POSITIVE_SPECS))


def load() -> dict[str, str]:
    """The committed reference table: spec text -> value string."""
    return json.loads(REFERENCE_FILE.read_text())["values"]


def _build(specs: list[str]) -> dict[str, str]:
    out = {}
    for text in specs:
        t0 = time.perf_counter()
        out[text] = reference(text)
        print(f"{text:24s} {out[text]}  ({time.perf_counter() - t0:.1f} s)",
              file=sys.stderr, flush=True)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int,
                    help="rebuild only this seed's eval specs, write them "
                         "under perfbench/out and compare with the table")
    args = ap.parse_args(argv)
    if args.seed is None:
        values = _build(eval_specs())
        REFERENCE_FILE.write_text(json.dumps(
            {"digits": REF_DIGITS, "values": values}, indent=1) + "\n")
        return 0
    specs = sorted({r["spec"] for w in WORKLOADS if w.startswith("eval-")
                    for r in requests(w, args.seed)})
    values = _build(specs)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"refs-seed{args.seed}.json").write_text(
        json.dumps({"digits": REF_DIGITS, "values": values}, indent=1) + "\n")
    table = load()
    bad = [s for s in specs if table.get(s) != values[s]]
    for s in bad:
        print(f"MISMATCH {s}: table {table.get(s)} rebuilt {values[s]}",
              file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
