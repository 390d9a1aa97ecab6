"""Numeric certification of identities and the fixed regression suite.

Every verify target is one check: two certified sides, a digit cap and a
negative-control flag. `verify` builds the check of an identity object,
a suite tag (looked up whole, never taken apart) or a family instance
tag, and compares its sides in a `VerificationReport`. `run_suite` walks
the suite's checks in order: printed reference constants, the benchmark
identities, closed forms cross-checked against the double-series
evaluator, brute-force cross-checks of the degree-one formulas, and a
deliberately perturbed identity that must fail (the negative control).

Brute-force reference values here are computed from direct partial sums
plus Euler-Maclaurin and Hurwitz-zeta tails using mpmath primitives
only, independently of the package's own summation engine, so the two
routes certify each other.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable

from mpmath import mp

from .kernel import (
    GUARD_DIGITS,
    AccelerationError,
    PrecReal,
    at_dps,
    fmt_significant,
)
from .engine import eval_sum, eval_I, eval_R, lihalf_value
from .algebra import (
    Atom,
    SymbolicValue,
    parse_symbolic,
    sv_add,
    sv_numeric,
    sv_term,
)
from .reduce import (
    Identity,
    SeriesIdentity,
    euler_linear,
    fs_odd_linear,
    integral_I_closed,
    resolve_tag,
)

__all__ = [
    "VerificationReport",
    "verify",
    "run_suite",
    "suite_tags",
    "suite_ok",
    "table_constants",
    "brute_euler",
    "brute_fs",
]


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one lhs-vs-rhs comparison.

    status is "pass", "fail", or "inconclusive": a side's value could not
    be certified, because the term budget ran out or the lo and hi runs
    disagreed. The pass rule is
    absDiff < 10**(3 - digitsRequested) * max(1, |lhs|): a three-digit
    margin absorbs terminal rounding in printed reference values.
    A negative-control report is expected to fail; suite_ok accounts
    for that.
    """

    provenance: str
    lhs_value: PrecReal | None
    rhs_value: PrecReal | None
    abs_diff: PrecReal | None
    digits_requested: int
    digits_agreed: int
    status: str
    negative_control: bool
    elapsed: float
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    @property
    def ok(self) -> bool:
        """Did this entry behave as the suite expects?"""
        if self.negative_control:
            return self.status == "fail"
        return self.status == "pass"

    def to_json(self) -> dict:
        def num(v: PrecReal | None) -> str | None:
            if v is None:
                return None
            return fmt_significant(v.value, min(v.digits + 2, 40))

        return {
            "provenance": self.provenance,
            "lhsValue": num(self.lhs_value),
            "rhsValue": num(self.rhs_value),
            "absDiff": num(self.abs_diff),
            "digitsRequested": self.digits_requested,
            "digitsAgreed": self.digits_agreed,
            "pass": self.passed,
            "status": self.status,
            "negativeControl": self.negative_control,
            "elapsedSeconds": round(self.elapsed, 3),
            "note": self.note,
        }

    def row(self) -> str:
        mark = {"pass": "pass", "fail": "FAIL", "inconclusive": "????"}
        mark = mark[self.status]
        if self.negative_control:
            mark += " (expected fail)" if self.status == "fail" else " (!)"
        diff = "-" if self.abs_diff is None else mp.nstr(
            mp.mpf(self.abs_diff.value), 3)
        return (f"{self.provenance:24s} {mark:18s} agreed={self.digits_agreed:3d}"
                f"/{self.digits_requested:<3d} absdiff={diff:12s}"
                f" {self.elapsed:6.2f}s")


def _report(provenance: str, lhs: PrecReal, rhs: PrecReal, digits: int,
            negative_control: bool, t0: float, note: str = "") -> VerificationReport:
    with at_dps(digits + GUARD_DIGITS):
        lv = mp.mpf(lhs.value)
        rv = mp.mpf(rhs.value)
        diff = abs(lv - rv)
        scale = max(mp.mpf(1), abs(lv))
        passed = diff < mp.mpf(10) ** (3 - digits) * scale
        if diff == 0:
            agreed = digits
        else:
            rel = diff / scale
            agreed = int(mp.floor(-mp.log(rel, 10)))
            agreed = max(0, min(digits, agreed))
    return VerificationReport(
        provenance=provenance,
        lhs_value=lhs,
        rhs_value=rhs,
        abs_diff=PrecReal(diff, digits),
        digits_requested=digits,
        digits_agreed=agreed,
        status="pass" if passed else "fail",
        negative_control=negative_control,
        elapsed=time.perf_counter() - t0,
        note=note,
    )


def _inconclusive(provenance: str, digits: int, negative_control: bool,
                  t0: float, exc: Exception) -> VerificationReport:
    return VerificationReport(
        provenance=provenance,
        lhs_value=None,
        rhs_value=None,
        abs_diff=None,
        digits_requested=digits,
        digits_agreed=0,
        status="inconclusive",
        negative_control=negative_control,
        elapsed=time.perf_counter() - t0,
        note=str(exc),
    )


# ---------------------------------------------------------------------------
# Printed reference constants (opaque catalog data; the trailing digits of
# the source table carry rounding noise, so comparisons cap the requested
# precision per entry).
# ---------------------------------------------------------------------------

_TABLE_CONSTANTS: tuple[tuple[str, str, str, int], ...] = (
    # tag, sum spec ("" for the polylog entry), printed value, digit cap
    ("table:Li4(1/2)", "",
     "0.5174790616738993863307581618988629456", 35),
    ("table:l(1)/n^5 alt", "l(1)/n^5 alt",
     "0.987441426403299713771650007985", 28),
    ("table:l(2)/n^4", "l(2)/n^4",
     "1.06358224101814909880154833539", 28),
    ("table:h(2)/n^4 alt", "h(2)/n^4 alt",
     "0.934707899349253255197542851216", 28),
    ("table:h(1)/n^5 alt", "h(1)/n^5 alt",
     "0.959151942504318157165421137321", 28),
    ("table:l(1)/n^5", "l(1)/n^5",
     "1.02005194570145237930331996837", 28),
    ("table:l(1)*h(2)/n^3", "l(1)*h(2)/n^3",
     "1.15935334356951415975457027807", 26),
    ("table:l(1)*h(3)/n^2", "l(1)*h(3)/n^2",
     "1.47723102170162037670053143416", 28),
)


def table_constants() -> list[tuple[str, str, str, int]]:
    """(tag, spec, printed value, digit cap) for the reference table."""
    return [(t, s, v, c) for t, s, v, c in _TABLE_CONSTANTS]


# ---------------------------------------------------------------------------
# Brute-force reference values (engine-independent).
# ---------------------------------------------------------------------------

_BRUTE_N = 10 ** 3
_BRUTE_DPS = 30
_BRUTE_PAIRS: tuple[tuple[int, int], ...] = tuple(
    [(1, k) for k in range(2, 9)] + [(2, 3), (3, 2), (2, 5), (4, 3)])


@lru_cache(maxsize=1)
def _brute_partials() -> dict[tuple[int, int], mp.mpf]:
    """One shared pass: sum_{n<=N} w_n(p)/n^q for every catalog pair,
    where w_n(p) is the plain harmonic partial sum of order p.

    Truncation bound at N = _BRUTE_N: the error of `_brute_tail` is at
    most the first Euler-Maclaurin term it leaves out, summed over n > N,
    which is below p(p+1)(p+2)/720 * N**-(p+q+2)/(p+q+2) for p >= 2 and
    1/240 * N**-(q+7)/(q+7) for p = 1. At N = 10**3 the largest over the
    catalog pairs is 1.2e-23, for (3, 2): far below the 12 digits the
    brute entries claim (_BRUTE_DIGITS_CAP). Rounding in the 30-digit
    partial sums adds about N * 10**-30.
    """
    with at_dps(_BRUTE_DPS):
        orders = sorted({p for p, _ in _BRUTE_PAIRS})
        qmax = max(q for _, q in _BRUTE_PAIRS)
        run = {p: mp.mpf(0) for p in orders}
        acc = {pair: mp.mpf(0) for pair in _BRUTE_PAIRS}
        for n in range(1, _BRUTE_N + 1):
            inv = 1 / mp.mpf(n)
            powers = [mp.mpf(1)]
            for _ in range(max(qmax, max(orders))):
                powers.append(powers[-1] * inv)
            for p in orders:
                run[p] += powers[p]
            for p, q in _BRUTE_PAIRS:
                acc[(p, q)] += run[p] * powers[q]
        return dict(acc)


def _brute_tail(p: int, q: int) -> mp.mpf:
    """sum_{n>N} w_n(p)/n^q via Euler-Maclaurin and Hurwitz zetas."""
    N = _BRUTE_N
    a = N + 1
    if p == 1:
        # H_n = ln n + gamma + 1/(2n) - 1/(12 n^2) + 1/(120 n^4) - ...
        t = -mp.zeta(q, a, 1)                      # sum ln(n)/n^q
        t += mp.euler * mp.zeta(q, a)
        t += mp.zeta(q + 1, a) / 2
        t -= mp.zeta(q + 2, a) / 12
        t += mp.zeta(q + 4, a) / 120
        t -= mp.zeta(q + 6, a) / 252
        return t
    # w_n(p) = zeta(p) - r_p(n),
    # r_p(n) = n^(1-p)/(p-1) - n^(-p)/2 + (p/12) n^(-p-1) + O(n^(-p-3))
    t = mp.zeta(p) * mp.zeta(q, a)
    t -= mp.zeta(p + q - 1, a) / (p - 1)
    t += mp.zeta(p + q, a) / 2
    t -= p * mp.zeta(p + q + 1, a) / 12
    return t


def brute_euler(k: int, digits: int = 16) -> PrecReal:
    """Reference value of sum_n H_n/n^k by direct summation plus tails."""
    if not 2 <= k <= 8:
        raise ValueError("brute table covers k = 2..8")
    with at_dps(_BRUTE_DPS):
        val = _brute_partials()[(1, k)] + _brute_tail(1, k)
    return PrecReal(val, digits)


def brute_fs(p: int, q: int, digits: int = 16) -> PrecReal:
    """Reference value of sum_n w_n(p)/n^q for the catalog pairs."""
    if (p, q) not in _BRUTE_PAIRS:
        raise ValueError(f"brute table has no pair ({p},{q})")
    with at_dps(_BRUTE_DPS):
        val = _brute_partials()[(p, q)] + _brute_tail(p, q)
    return PrecReal(val, digits)


_BRUTE_DIGITS_CAP = 12


# ---------------------------------------------------------------------------
# Checks: one per verify target, one path from tag to report.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Check:
    """Two sides, each (digits, max_terms) -> certified PrecReal; a digit
    cap (None for none); and whether the entry is a negative control."""

    lhs: Callable[[int, int | None], PrecReal]
    rhs: Callable[[int, int | None], PrecReal]
    cap: int | None = None
    control: bool = False


def _symbolic(value: SymbolicValue) -> Callable[[int, int | None], PrecReal]:
    return lambda d, m: sv_numeric(value, d, max_terms=m)


def _identity_check(ident: Identity | SeriesIdentity) -> _Check:
    return _Check(ident.numeric_lhs, ident.numeric_rhs)


def _catalog_check(tag: str) -> _Check:
    return _identity_check(resolve_tag(tag))


def _table_check(spec: str, printed: str, cap: int) -> _Check:
    def rhs(digits: int, max_terms: int | None) -> PrecReal:
        with at_dps(len(printed) + 10):
            return PrecReal(mp.mpf(printed), digits)

    if spec:
        return _Check(lambda d, m: eval_sum(spec, d, max_terms=m), rhs, cap)
    return _Check(lambda d, m: lihalf_value(4, d), rhs, cap)


def _r_check(p: int, q: int, closed: str) -> _Check:
    return _Check(lambda d, m: eval_R(p, q, d, max_terms=m),
                  _symbolic(parse_symbolic(closed)))


def _integral_check(p: int, q: int) -> _Check:
    return _Check(_symbolic(integral_I_closed(p, q)),
                  lambda d, m: eval_I(p, q, 1, d, max_terms=m))


def _brute_check(closed: Callable[..., SymbolicValue],
                 brute: Callable[..., PrecReal], *params: int) -> _Check:
    return _Check(_symbolic(closed(*params)),
                  lambda d, m: brute(*params, d), _BRUTE_DIGITS_CAP)


def _negative_control() -> _Check:
    base = resolve_tag("Eq(3.6)")
    bump = sv_term(Fraction(3, 5) - Fraction(3, 4), [(Atom.zeta(3), 2)])
    ident = Identity("NegControl:Eq(3.6)", base.lhs, sv_add(base.rhs, bump))
    return _Check(ident.numeric_lhs, ident.numeric_rhs, control=True)


# The fixed regression suite: each tag, in execution order, with the factory
# of its check. Factories run per call, so nothing evaluates at import.
_SUITE: dict[str, Callable[[], _Check]] = {
    **{tag: partial(_table_check, spec, printed, cap)
       for tag, spec, printed, cap in _TABLE_CONSTANTS},
    **{tag: partial(_catalog_check, tag)
       for tag in ("S1:h(1)/n^3 alt", "S1:l(1)/n^3 alt", "S1:l(2)/n^2",
                   "S1:h(2)/n^2 alt", *(f"Eq(3.{k})" for k in range(6, 12)))},
    "R(4,1)": partial(_r_check, 4, 1,
                      "-31/16*z(5)*ln2 + 1*LS{l(1)/n^5 alt}"),
    "R(2,3)": partial(_r_check, 2, 3,
                      "-3/4*z(3)^2 + -31/16*z(5)*ln2 + 7/8*z(6)"
                      " + 1*LS{l(1)/n^5 alt}"),
    "closing": partial(_catalog_check, "closing"),
    **{f"I({p},{q})": partial(_integral_check, p, q)
       for p, q in ((1, 1), (1, 2), (2, 2), (2, 3), (3, 2))},
    **{f"brute:euler({k})": partial(_brute_check, euler_linear, brute_euler, k)
       for k in range(2, 9)},
    **{f"brute:fs({p},{q})": partial(_brute_check, fs_odd_linear, brute_fs,
                                     p, q)
       for p, q in _BRUTE_PAIRS if p > 1},
    **{tag: partial(_catalog_check, tag)
       for tag in ("thm2_5(1,2)", "thm2_5(2,1)", "thm2_5(2,2)")},
    "NegControl:Eq(3.6)": _negative_control,
}


def _resolve(target) -> tuple[str, _Check]:
    """Report name and check of an identity object or a tag."""
    if not isinstance(target, (Identity, SeriesIdentity)):
        tag = str(target).strip()
        factory = _SUITE.get(tag)
        if factory is not None:
            return tag, factory()
        target = resolve_tag(tag)
    return target.provenance, _identity_check(target)


def verify(target, digits: int = 25,
           max_terms: int | None = None) -> VerificationReport:
    """Certify one identity at `digits` digits.

    `target` is an `Identity` or `SeriesIdentity`, or a tag: a suite tag
    (see `suite_tags`) or a family instance such as "cor2_7(3,0)". Every
    sum is evaluated under the term budget `max_terms`. A value that
    cannot be certified yields an inconclusive report instead of an
    exception; anything else propagates.
    """
    if digits < 5:
        raise ValueError("digits must be >= 5")
    # one clock for the whole call, tag resolution included
    t0 = time.perf_counter()
    name, check = _resolve(target)
    eff = digits if check.cap is None else min(digits, check.cap)
    try:
        lhs = check.lhs(eff, max_terms)
        rhs = check.rhs(eff, max_terms)
    except AccelerationError as exc:
        return _inconclusive(name, eff, check.control, t0, exc)
    note = f"requested digits capped at {check.cap}" if eff < digits else ""
    return _report(name, lhs, rhs, eff, check.control, t0, note)


def suite_tags() -> list[str]:
    """The fixed regression-suite catalog, in execution order."""
    return list(_SUITE)


def run_suite(digits: int = 25,
              max_terms: int | None = None) -> list[VerificationReport]:
    """Verify the whole fixed catalog in order. Always runs every entry."""
    return [verify(tag, digits, max_terms=max_terms) for tag in _SUITE]


def suite_ok(reports) -> bool:
    """True when every entry behaved as expected (controls must fail)."""
    return all(r.ok for r in reports)
