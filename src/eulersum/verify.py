"""Numeric certification of identities and the fixed regression suite.

`verify` evaluates both sides of one identity at a requested precision
and returns a `VerificationReport`; `run_suite` walks the fixed catalog:
printed reference constants, the benchmark identities, closed forms
cross-checked against the double-series evaluator, brute-force
cross-checks of the degree-one formulas, and a deliberately perturbed
identity that must fail (the negative control).

Brute-force reference values here are computed from direct partial sums
plus Euler-Maclaurin and Hurwitz-zeta tails using mpmath primitives
only, independently of the package's own summation engine, so the two
routes certify each other.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

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
    sv_add,
    sv_numeric,
    sv_sub,
    sv_term,
    sym_linear,
)
from .reduce import (
    Identity,
    SeriesIdentity,
    euler_linear,
    fs_odd_linear,
    integral_I_closed,
    regression_identities,
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

    status is "pass", "fail", or "inconclusive" (evaluation budget
    exhausted before both sides were available). The pass rule is
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


def _printed_value(text: str, digits: int) -> PrecReal:
    with at_dps(len(text) + 10):
        return PrecReal(mp.mpf(text), digits)


# The two endpoint-integral values printed with explicit closed forms.
def _r_display(tag: str) -> tuple[tuple[int, int], SymbolicValue]:
    alt_l1_5 = sym_linear("l(1)/n^5 alt")
    if tag == "R(4,1)":
        val = sv_sub(alt_l1_5,
                     sv_term(Fraction(31, 16), [(Atom.zeta(5), 1),
                                                (Atom.ln2(), 1)]))
        return (4, 1), val
    if tag == "R(2,3)":
        val = sv_add(
            alt_l1_5,
            sv_term(Fraction(7, 8), [(Atom.zeta(6), 1)]),
            sv_term(Fraction(-3, 4), [(Atom.zeta(3), 2)]),
            sv_term(Fraction(-31, 16), [(Atom.zeta(5), 1),
                                        (Atom.ln2(), 1)]),
        )
        return (2, 3), val
    raise ValueError(f"unknown R display {tag!r}")


def _negative_control() -> Identity:
    base = next(i for i in regression_identities()
                if i.provenance == "Eq(3.6)")
    bump = sv_term(Fraction(3, 5) - Fraction(3, 4), [(Atom.zeta(3), 2)])
    return Identity("NegControl:Eq(3.6)", base.lhs,
                    sv_add(base.rhs, bump))


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
# Tag resolution and verification.
# ---------------------------------------------------------------------------


def _special_job(tag: str, max_terms: int | None):
    """Resolve suite-only tags; returns (lhs_fn, rhs_fn, cap, control)
    or None when the tag belongs to the identity catalog."""
    for t, spec, printed, cap in _TABLE_CONSTANTS:
        if tag == t:
            if spec:
                lhs = lambda d: eval_sum(spec, d, max_terms=max_terms)
            else:
                lhs = lambda d: lihalf_value(4, d)
            rhs = lambda d: _printed_value(printed, d)
            return lhs, rhs, cap, False
    if tag in ("R(4,1)", "R(2,3)"):
        (p, q), sym = _r_display(tag)
        return (lambda d: eval_R(p, q, d, max_terms=max_terms),
                lambda d: sv_numeric(sym, d, max_terms=max_terms), None, False)
    if tag.startswith("I(") and tag.endswith(")"):
        inner = tag[2:-1].split(",")
        if len(inner) == 2:
            p, q = int(inner[0]), int(inner[1])
            sym = integral_I_closed(p, q)
            return (lambda d: sv_numeric(sym, d, max_terms=max_terms),
                    lambda d: eval_I(p, q, 1, d, max_terms=max_terms),
                    None, False)
    if tag.startswith("brute:euler(") and tag.endswith(")"):
        k = int(tag[len("brute:euler("):-1])
        sym = euler_linear(k)
        return (lambda d: sv_numeric(sym, d, max_terms=max_terms),
                lambda d: brute_euler(k, d), _BRUTE_DIGITS_CAP, False)
    if tag.startswith("brute:fs(") and tag.endswith(")"):
        p, q = (int(x) for x in tag[len("brute:fs("):-1].split(","))
        sym = fs_odd_linear(p, q)
        return (lambda d: sv_numeric(sym, d, max_terms=max_terms),
                lambda d: brute_fs(p, q, d), _BRUTE_DIGITS_CAP, False)
    if tag == "NegControl:Eq(3.6)":
        ident = _negative_control()
        return (lambda d: ident.numeric_lhs(d, max_terms=max_terms),
                lambda d: ident.numeric_rhs(d, max_terms=max_terms),
                None, True)
    return None


def verify(target, digits: int = 25, args=None,
           max_terms: int | None = None) -> VerificationReport:
    """Certify one identity (object or catalog tag) at `digits` digits.

    Series identities accept optional rational `args`. Every sum is
    evaluated under the term budget `max_terms`. Budget exhaustion yields
    an inconclusive report instead of an exception; anything else
    propagates.
    """
    if digits < 5:
        raise ValueError("digits must be >= 5")
    # one clock for the whole call, tag resolution included
    t0 = time.perf_counter()
    if not isinstance(target, (Identity, SeriesIdentity)):
        tag = str(target).strip()
        job = _special_job(tag, max_terms)
        if job is not None:
            lhs_fn, rhs_fn, cap, control = job
            eff = min(digits, cap) if cap is not None else digits
            try:
                lhs = lhs_fn(eff)
                rhs = rhs_fn(eff)
            except AccelerationError as exc:
                return _inconclusive(tag, eff, control, t0, exc)
            note = f"requested digits capped at {cap}" if cap is not None \
                and digits > cap else ""
            return _report(tag, lhs, rhs, eff, control, t0, note)
        target = resolve_tag(tag)
    extra = {"args": args} if isinstance(target, SeriesIdentity) else {}
    try:
        lhs = target.numeric_lhs(digits, max_terms=max_terms, **extra)
        rhs = target.numeric_rhs(digits, max_terms=max_terms, **extra)
    except AccelerationError as exc:
        return _inconclusive(target.provenance, digits, False, t0, exc)
    return _report(target.provenance, lhs, rhs, digits, False, t0)


def suite_tags() -> list[str]:
    """The fixed regression-suite catalog, in execution order."""
    tags = [t for t, _, _, _ in _TABLE_CONSTANTS]
    tags += ["S1:h(1)/n^3 alt", "S1:l(1)/n^3 alt", "S1:l(2)/n^2",
             "S1:h(2)/n^2 alt"]
    tags += [f"Eq(3.{k})" for k in range(6, 12)]
    tags += ["R(4,1)", "R(2,3)", "closing"]
    tags += ["I(1,1)", "I(1,2)", "I(2,2)", "I(2,3)", "I(3,2)"]
    tags += [f"brute:euler({k})" for k in range(2, 9)]
    tags += ["brute:fs(2,3)", "brute:fs(3,2)", "brute:fs(2,5)",
             "brute:fs(4,3)"]
    tags += ["thm2_5(1,2)", "thm2_5(2,1)", "thm2_5(2,2)"]
    tags += ["NegControl:Eq(3.6)"]
    return tags


def run_suite(digits: int = 25,
              max_terms: int | None = None) -> list[VerificationReport]:
    """Verify the whole fixed catalog in order. Always runs every entry."""
    return [verify(tag, digits, max_terms=max_terms) for tag in suite_tags()]


def suite_ok(reports) -> bool:
    """True when every entry behaved as expected (controls must fail)."""
    return all(r.ok for r in reports)
