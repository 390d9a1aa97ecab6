"""Closed forms and identity generators for the covered sum families.

This module turns sums described by `SumSpec` into exact symbolic values
over the constant basis of `algebra` (zeta values, ln 2, Li_k(1/2), and
unresolved degree-one sums kept as atoms), and assembles the parameterized
identity families the verifier certifies.

Layers, bottom up:

  * partial-fraction coefficients for 1/(x^s (1-x)^t);
  * closed forms for degree-one sums: the classical harmonic formula,
    the odd-weight formula for {h(p)/n^q}, a closed form for odd-power
    {l(1)/n^w}, and a frozen table of low-weight alternating entries,
    all behind `linear_lookup`;
  * closed forms for the polylog-product integrals at 1 and -1;
  * `Identity` (fixed sums, symbolic right side) and `SeriesIdentity`
    (polylog/series terms on both sides) plus the family generators
    behind `identity_family`; every family parameter, the rational
    arguments of the series families included, is bound when the
    identity is built;
  * `reduce_quadratic`, which eliminates the two covered families of
    degree-two alternating sums through the generated identities;
  * `regression_identities`, a hard-coded list of fixed benchmark
    identities addressed by opaque catalog tags.

Catalog tags ("Eq(3.7)", "cor2_7", ...) are opaque strings fixed by the
package interface; code never derives anything from their spelling.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Callable, Sequence

from mpmath import mp

from .kernel import (
    DivergentSumError,
    EulerSumError,
    PrecReal,
    Rational,
    Run,
    UnsupportedReductionError,
    binomial_exact,
    certified,
    mpf_from_fraction,
)
from .sumspec import Factor, SumSpec, format_sumspec, parse_sumspec
from .engine import (
    _I_run,
    _R_run,
    _eval_raw,
    _polylog_run,
    _series_run,
)
from .algebra import (
    Atom,
    SymbolicValue,
    fold_even_zetas,
    normalize,
    parse_symbolic,
    sv_add,
    sv_mul,
    sv_numeric,
    sv_pow,
    sv_rational,
    sv_scale,
    sv_sub,
    sv_term,
    sv_text,
    sv_to_json,
    sv_zero,
    sym_linear,
    sym_ln2,
    sym_zeta,
    sym_zetabar,
    weight_of,
)

__all__ = [
    "Identity",
    "SeriesIdentity",
    "STerm",
    "pf_coeffs",
    "product_expand",
    "euler_linear",
    "fs_odd_linear",
    "linear_lookup",
    "integral_I_closed",
    "integral_at_minus1",
    "identity_family",
    "family_names",
    "reduce_quadratic",
    "regression_identities",
    "resolve_tag",
    "regression_tags",
]


def _as_spec(spec: SumSpec | str) -> SumSpec:
    return parse_sumspec(spec) if isinstance(spec, str) else spec


def _zeta(k: int) -> SymbolicValue:
    # prefactor orders in every schedule stay >= 2; anything else is a bug
    if k < 2:
        raise EulerSumError(f"schedule produced zeta({k})")
    return sym_zeta(k)


def _zeta_or_zero(k: int) -> SymbolicValue:
    """zeta(k) with the order-1 value taken as 0.

    Only the two closed forms whose stated convention requires it call
    this; everywhere else an order-1 zeta raises.
    """
    return sv_zero() if k == 1 else sym_zeta(k)


# ---------------------------------------------------------------------------
# Partial fractions and the degree-one closed forms.
# ---------------------------------------------------------------------------


def pf_coeffs(s: int, t: int) -> tuple[list[Fraction], list[Fraction]]:
    """Coefficients A, B of 1/(x^s (1-x)^t) = sum A_j/x^j + sum B_j/(1-x)^j.

    A_j = C(s+t-j-1, s-j) for j = 1..s and B_j = C(s+t-j-1, t-j) for
    j = 1..t; exact binomials, so the expansion is an identity of rational
    functions.
    """
    if s < 1 or t < 1:
        raise ValueError("need s >= 1 and t >= 1")
    a = [Fraction(binomial_exact(s + t - j - 1, s - j)) for j in range(1, s + 1)]
    b = [Fraction(binomial_exact(s + t - j - 1, t - j)) for j in range(1, t + 1)]
    return a, b


def euler_linear(k: int) -> SymbolicValue:
    """Closed form of sum_n H_n/n^k for k >= 2.

    (1/2)[(k+2) zeta(k+1) - sum_{i=1}^{k-2} zeta(k-i) zeta(i+1)].
    """
    if k < 2:
        raise ValueError("need k >= 2")
    acc = sv_scale(sym_zeta(k + 1), Fraction(k + 2, 2))
    for i in range(1, k - 1):
        acc = sv_sub(acc, sv_scale(sv_mul(_zeta(k - i), _zeta(i + 1)),
                                   Fraction(1, 2)))
    return acc


def fs_odd_linear(p: int, q: int) -> SymbolicValue:
    """Closed form of sum_n h(p)_n/n^q for odd weight p + q, q >= 2.

    Zeta polynomial with binomial coefficients; order-1 zeta values that
    the stated formula formally produces are taken as 0.
    """
    if p < 1:
        raise ValueError("need p >= 1")
    if q < 2:
        raise ValueError("need q >= 2")
    m = p + q
    if m % 2 == 0:
        raise ValueError("need odd weight p + q")
    sgn = (-1) ** p
    c0 = (Fraction(1, 2)
          - Fraction(sgn, 2) * binomial_exact(m - 1, p)
          - Fraction(sgn, 2) * binomial_exact(m - 1, q))
    acc = sv_scale(sym_zeta(m), c0)
    if p % 2 == 1:
        acc = sv_add(acc, sv_mul(_zeta_or_zero(p), _zeta_or_zero(q)))
    for k in range(1, p // 2 + 1):
        c = sgn * binomial_exact(m - 2 * k - 1, q - 1)
        acc = sv_add(acc, sv_scale(
            sv_mul(sym_zeta(2 * k), _zeta_or_zero(m - 2 * k)), c))
    for k in range(1, q // 2 + 1):
        c = sgn * binomial_exact(m - 2 * k - 1, p - 1)
        acc = sv_add(acc, sv_scale(
            sv_mul(sym_zeta(2 * k), _zeta_or_zero(m - 2 * k)), c))
    return acc


def _l1_odd_power_closed(w: int) -> SymbolicValue:
    """Closed form of sum_n L_n(1)/n^w for odd w >= 3.

    ln2 (zb(w) + z(w)) - (1/2) sum_{i=1}^{w-2} (-1)^(i-1) zb(1+i) zb(w-i).
    """
    if w < 3 or w % 2 == 0:
        raise ValueError("need odd w >= 3")
    acc = sv_mul(sym_ln2(), sv_add(sym_zetabar(w), sym_zeta(w)))
    for i in range(1, w - 1):
        acc = sv_sub(acc, sv_scale(
            sv_mul(sym_zetabar(1 + i), sym_zetabar(w - i)),
            Fraction((-1) ** (i - 1), 2)))
    return acc


# Low-weight alternating and mixed entries with no formula route, written
# as parseable term strings. tests/test_reduce.py certifies every entry
# against the summation engine to 25 digits.
_FROZEN_ENTRIES: dict[str, str] = {
    # weight 3
    "h(1)/n^2 alt": "5/8*z(3)",
    "l(1)/n^2": "-1/4*z(3) + 3/2*z(2)*ln2",
    "l(1)/n^2 alt": "-5/8*z(3) + 3/2*z(2)*ln2",
    # weight 4
    "h(1)/n^3 alt":
        "11/4*z(4) + -7/4*z(3)*ln2 + 1/2*z(2)*ln2^2 + -1/12*ln2^4 + -2*lih(4)",
    "l(1)/n^3 alt":
        "3/2*z(4) + 1/2*z(2)*ln2^2 + -1/12*ln2^4 + -2*lih(4)",
    "l(2)/n^2":
        "85/16*z(4) + -7/2*z(3)*ln2 + 1*z(2)*ln2^2 + -1/6*ln2^4 + -4*lih(4)",
    "h(2)/n^2 alt":
        "-51/16*z(4) + 7/2*z(3)*ln2 + -1*z(2)*ln2^2 + 1/6*ln2^4 + 4*lih(4)",
    # weight 5
    "h(1)/n^4 alt": "59/32*z(5) + -1/2*z(2)*z(3)",
    "h(2)/n^3 alt": "-11/32*z(5) + 5/8*z(2)*z(3)",
    "h(3)/n^2 alt": "-21/32*z(5) + 3/4*z(2)*z(3)",
    "l(1)/n^4": "-17/16*z(5) + 3/8*z(2)*z(3) + 15/8*z(4)*ln2",
    "l(1)/n^4 alt": "-59/32*z(5) + 3/4*z(2)*z(3) + 15/8*z(4)*ln2",
    "l(2)/n^3": "51/32*z(5) + -1/4*z(2)*z(3)",
    "l(2)/n^3 alt": "83/16*z(5) + -9/4*z(2)*z(3)",
    "l(3)/n^2": "41/32*z(5) + 1/8*z(2)*z(3)",
    "l(3)/n^2 alt": "-67/16*z(5) + 21/8*z(2)*z(3)",
}

# Canonical degree-one spec -> closed form.
_TABLE: dict[str, SymbolicValue] = {
    format_sumspec(parse_sumspec(key)): parse_symbolic(text)
    for key, text in _FROZEN_ENTRIES.items()}


def _table_lookup(spec: SumSpec | str) -> SymbolicValue | None:
    return _TABLE.get(format_sumspec(_as_spec(spec)))


def linear_lookup(spec: SumSpec | str) -> SymbolicValue | None:
    """Closed form of a degree-one sum, or None when it stays an atom.

    Routes, in order: the frozen table; the classical formula for
    {h(1)/n^k}; the odd-weight formula for {h(p)/n^q}; the odd-power
    closed form for {l(1)/n^w}. Alternating sums outside the table and
    everything of even weight beyond it miss.
    """
    spec = _as_spec(spec)
    if spec.degree != 1:
        raise ValueError("linear_lookup needs a degree-one sum")
    if not spec.converges():
        raise DivergentSumError(f"{spec} diverges")
    hit = _table_lookup(spec)
    if hit is not None:
        return hit
    if spec.alternating:
        return None
    f = spec.factors[0]
    if f.kind == "h" and f.order == 1 and spec.power >= 2:
        return euler_linear(spec.power)
    if (f.kind == "h" and f.order >= 2 and spec.power >= 2
            and (f.order + spec.power) % 2 == 1):
        return fs_odd_linear(f.order, spec.power)
    if (f.kind == "l" and f.order == 1 and spec.power >= 3
            and spec.power % 2 == 1):
        return _l1_odd_power_closed(spec.power)
    return None


def _linear_value(spec: SumSpec | str) -> SymbolicValue:
    # closed form when covered, atom otherwise
    spec = _as_spec(spec)
    hit = linear_lookup(spec)
    return hit if hit is not None else sym_linear(spec)


# ---------------------------------------------------------------------------
# Polylog-product integrals at the endpoints.
# ---------------------------------------------------------------------------


def integral_I_closed(p: int, q: int) -> SymbolicValue:
    """Zeta polynomial equal to int_0^1 Li_p(t) Li_q(t)/t dt.

    alternating-sign pairing of zeta products plus, with sign (-1)^(q-1),
    the closed form of {h(1)/n^(p+q)}. The trailing block's overall sign
    follows the parity of q; fixing it to the even-q branch's printed
    orientation would make the value negative for q = 2, p = 1 while the
    integrand is positive, so the parity form is used and certified
    against the double-series evaluator.
    """
    if p < 1 or q < 1:
        raise ValueError("need p >= 1 and q >= 1")
    acc = sv_zero()
    for i in range(1, q):
        acc = sv_add(acc, sv_scale(
            sv_mul(_zeta(q + 1 - i), _zeta(p + i)), (-1) ** (i - 1)))
    return sv_add(acc, sv_scale(euler_linear(p + q), (-1) ** (q - 1)))


def integral_at_minus1(family: str, p: int, q: int) -> SymbolicValue:
    """Symbolic value of the endpoint integral at -1.

    family "I": int_0^{-1} Li_p(t) Li_q(t)/t dt; family "R": the same
    with the first polylog at negated argument. The residual degree-one
    sum {l(1)/n^(p+q)} (alternating for "R") stays an atom; alternating
    zeta values are normalized and even-zeta products folded so the
    result reads over {zeta, ln2, atoms}.
    """
    if family not in ("I", "R"):
        raise ValueError("family must be 'I' or 'R'")
    if p < 1 or q < 1:
        raise ValueError("need p >= 1 and q >= 1")
    w = p + q
    acc = sv_zero()
    if family == "I":
        for i in range(1, q):
            acc = sv_add(acc, sv_scale(
                sv_mul(sym_zetabar(p + i), sym_zetabar(q + 1 - i)),
                (-1) ** (i - 1)))
        acc = sv_sub(acc, sv_scale(
            sv_mul(sym_ln2(), sv_add(sym_zetabar(w), sym_zeta(w))),
            (-1) ** q))
        acc = sv_add(acc, sv_scale(
            sym_linear(SumSpec((Factor("l", 1),), w)), (-1) ** q))
    else:
        for i in range(1, q):
            acc = sv_sub(acc, sv_scale(
                sv_mul(_zeta(p + i), sym_zetabar(q + 1 - i)),
                (-1) ** (i - 1)))
        acc = sv_add(acc, sv_scale(
            sv_mul(sym_ln2(), sv_add(sym_zeta(w), sym_zetabar(w))),
            (-1) ** q))
        acc = sv_sub(acc, sv_scale(
            sym_linear(SumSpec((Factor("l", 1),), w, alternating=True)),
            (-1) ** q))
    return fold_even_zetas(normalize(acc))


# ---------------------------------------------------------------------------
# Identity containers.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Identity:
    """A fixed linear combination of sums equal to a symbolic value.

    lhs holds (spec, coefficient) pairs; rhs is exact. Construction
    checks convergence and weight homogeneity, so a malformed schedule
    fails loudly instead of producing a subtly wrong identity.
    """

    provenance: str
    lhs: tuple[tuple[SumSpec, Fraction], ...]
    rhs: SymbolicValue
    parameters: tuple | None = None

    def __post_init__(self):
        object.__setattr__(
            self, "lhs",
            tuple((_as_spec(s), Fraction(c)) for s, c in self.lhs))
        weights = {spec.weight for spec, _ in self.lhs}
        for spec, _ in self.lhs:
            if not spec.converges():
                raise DivergentSumError(f"{spec} diverges")
        if len(weights) > 1:
            raise ValueError(
                f"{self.provenance}: mixed weights {sorted(weights)}")
        wr = weight_of(self.rhs)
        if weights and wr is not None and wr not in weights:
            raise ValueError(
                f"{self.provenance}: weight {wr} right side against "
                f"weight {weights.pop()} sums")

    @property
    def weight(self) -> int | None:
        if self.lhs:
            return self.lhs[0][0].weight
        return weight_of(self.rhs)

    def numeric_lhs(self, digits: int = 30,
                    max_terms: int | None = None) -> PrecReal:
        """The left side's combination, certified once as a whole under one
        term budget of `max_terms` (see `sv_numeric`)."""
        return certified(
            lambda dps, budget, boost: mp.fsum(
                mpf_from_fraction(coeff) * _eval_raw(spec, dps, budget, boost)
                for spec, coeff in self.lhs),
            digits, f"{self.provenance} left side", max_terms)

    def numeric_rhs(self, digits: int = 30,
                    max_terms: int | None = None) -> PrecReal:
        return sv_numeric(self.rhs, digits, max_terms=max_terms)

    def lhs_text(self) -> str:
        if not self.lhs:
            return "0"
        chunks = []
        for spec, coeff in self.lhs:
            chunks.append(f"{coeff}*{{{spec}}}")
        return " + ".join(chunks)

    def __str__(self) -> str:
        return f"{self.provenance}: {self.lhs_text()} = {sv_text(self.rhs)}"

    def to_json(self) -> dict:
        obj = {
            "provenance": self.provenance,
            "lhs": [{"spec": str(spec), "coeff": str(coeff)}
                    for spec, coeff in self.lhs],
            "rhs": sv_to_json(self.rhs),
        }
        if self.parameters is not None:
            obj["parameters"] = [str(par) for par in self.parameters]
        return obj


@dataclass(frozen=True)
class STerm:
    """One multiplicative term of a series identity.

    The present parts multiply: a rational coefficient, polylog factors,
    an optional log(1 - arg) factor, an optional inner-weighted series
    sum_n prod_i w_n(l_i, a_i) outer^n / n^power (with w_n(l, a) the
    partial sum of a^j/j^l, and outer^n replaced by outer^n - 1 when
    minus_one is set), and an optional endpoint integral.
    """

    coeff: Fraction = Fraction(1)
    polylogs: tuple[tuple[int, Fraction], ...] = ()
    ln1m: Fraction | None = None
    factors: tuple[tuple[int, Fraction], ...] = ()
    power: int = 0
    outer: Fraction | None = None
    minus_one: bool = False
    integral: tuple[str, int, int, Fraction] | None = None

    def pieces(self) -> list[str]:
        out = [str(self.coeff)]
        for order, arg in self.polylogs:
            out.append(f"Li_{order}({arg})")
        if self.ln1m is not None:
            out.append(f"log(1-({self.ln1m}))")
        if self.integral is not None:
            fam, p, q, arg = self.integral
            out.append(f"{fam}[{p},{q}]({arg})")
        if self.outer is not None:
            inner = ",".join(f"w({l};{a})" for l, a in self.factors)
            tail = f"({self.outer})^n"
            if self.minus_one:
                tail += "-1"
            out.append(f"Sum[{inner}; {tail}/n^{self.power}]")
        return out

    def __str__(self) -> str:
        return "*".join(self.pieces())

    def to_json(self) -> dict:
        obj: dict = {"coeff": str(self.coeff)}
        if self.polylogs:
            obj["polylogs"] = [[o, str(a)] for o, a in self.polylogs]
        if self.ln1m is not None:
            obj["log1m"] = str(self.ln1m)
        if self.integral is not None:
            fam, p, q, arg = self.integral
            obj["integral"] = {"family": fam, "p": p, "q": q, "arg": str(arg)}
        if self.outer is not None:
            obj["series"] = {
                "factors": [[l, str(a)] for l, a in self.factors],
                "power": self.power,
                "outer": str(self.outer),
                "minusOne": self.minus_one,
            }
        return obj


def _sterm_run(term: STerm) -> Run:
    """Run function for the value of one series-identity term."""
    runs = [_polylog_run(order, arg) for order, arg in term.polylogs]
    if term.ln1m is not None:
        runs.append(lambda dps, budget, boost:
                    mp.log(1 - mpf_from_fraction(term.ln1m)))
    if term.integral is not None:
        fam, p, q, arg = term.integral
        if fam == "I":
            runs.append(_I_run(p, q, arg))
        elif fam == "R":
            if arg != -1:
                raise ValueError("R integrals evaluate at -1 only")
            runs.append(_R_run(p, q))
        else:
            raise ValueError(f"unknown integral family {fam!r}")
    if term.outer is not None:
        series = _series_run(term.factors, term.power, term.outer)
        if term.minus_one:
            plain = series
            at_one = _series_run(term.factors, term.power, Fraction(1))
            series = lambda dps, budget, boost: \
                plain(dps, budget, boost) - at_one(dps, budget, boost)
        runs.append(series)

    def run(dps: int, budget, boost: int) -> mp.mpf:
        val = mpf_from_fraction(term.coeff)
        for part in runs:
            val *= part(dps, budget, boost)
        return val

    return run


def _series_term_converges(term: STerm) -> bool:
    outers = [term.outer] if term.outer is not None else []
    if term.minus_one:
        outers.append(Fraction(1))
    for z in outers:
        if abs(z) < 1:
            continue
        if z == -1 and term.power >= 1:
            continue
        if z == 1 and term.power >= 2:
            continue
        return False
    for order, arg in term.polylogs:
        if order == 1 and arg == 1:
            return False
    if term.ln1m is not None and term.ln1m >= 1:
        return False
    return True


@dataclass(frozen=True)
class SeriesIdentity:
    """An identity between two term lists, with every argument bound.

    The family generators bind their rational arguments when they build
    the terms; both sides must agree numerically. Construction rejects a
    divergent term, as `Identity` does.
    """

    provenance: str
    lhs: tuple[STerm, ...]
    rhs: tuple[STerm, ...]
    parameters: tuple | None = None

    def __post_init__(self):
        for term in self.lhs + self.rhs:
            if not _series_term_converges(term):
                raise DivergentSumError(
                    f"{self.provenance}: divergent term {term}")

    def numeric_lhs(self, digits: int = 30,
                    max_terms: int | None = None) -> PrecReal:
        return self._side(self.lhs, "left", digits, max_terms)

    def numeric_rhs(self, digits: int = 30,
                    max_terms: int | None = None) -> PrecReal:
        return self._side(self.rhs, "right", digits, max_terms)

    def _side(self, terms: tuple[STerm, ...], side: str, digits: int,
              max_terms: int | None) -> PrecReal:
        runs = [_sterm_run(t) for t in terms]
        return certified(
            lambda dps, budget, boost:
                mp.fsum(part(dps, budget, boost) for part in runs),
            digits, f"{self.provenance} {side} side", max_terms)

    def __str__(self) -> str:
        fmt = lambda ts: " + ".join(f"({t})" for t in ts) if ts else "0"
        return f"{self.provenance}: {fmt(self.lhs)} = {fmt(self.rhs)}"

    def to_json(self) -> dict:
        obj = {
            "provenance": self.provenance,
            "lhs": [t.to_json() for t in self.lhs],
            "rhs": [t.to_json() for t in self.rhs],
        }
        if self.parameters is not None:
            obj["parameters"] = [str(par) for par in self.parameters]
        return obj


# ---------------------------------------------------------------------------
# Shared schedule blocks.
# ---------------------------------------------------------------------------


def _h_bundle(a: int, shift: int, alternating: bool) -> SymbolicValue:
    """sum_{j=2}^{a} {h(j)/n^(a+1+shift-j)} + 2 {h(1)/n^(a+shift)}.

    Every constituent resolves through linear_lookup when covered; the
    alternating flag applies to each constituent sum.
    """
    acc = sv_scale(
        _linear_value(SumSpec((Factor("h", 1),), a + shift, alternating)), 2)
    for j in range(2, a + 1):
        acc = sv_add(acc, _linear_value(
            SumSpec((Factor("h", j),), a + 1 + shift - j, alternating)))
    return acc


def _l_bundle(a: int, shift: int) -> SymbolicValue:
    """{l(1)/n^(a+shift) alt} - {l(1)/n^(a+shift)}
    - sum_{j=2}^{a} {l(j)/n^(a+1+shift-j)}.

    Series coefficients of the log(1+x) polylog product carry the
    order-1 factor twice, once alternating and once plain; the printed
    source drops the plain copy, which its own fixed-weight instances
    contradict. The corrected bundle is pinned numerically at three
    parameter points (see the workspace notes).
    """
    acc = _linear_value(SumSpec((Factor("l", 1),), a + shift,
                                alternating=True))
    acc = sv_sub(acc, _linear_value(SumSpec((Factor("l", 1),), a + shift)))
    for j in range(2, a + 1):
        acc = sv_sub(acc, _linear_value(
            SumSpec((Factor("l", j),), a + 1 + shift - j)))
    return acc


def _pair_specs(p: int, s: int, first: str, second: str,
                alternating: bool) -> tuple[SumSpec, SumSpec]:
    # the two companion sums {X_n Y_n(s)/n^p} and {X_n Y_n(p)/n^s}
    one = SumSpec((Factor(first, 1), Factor(second, s)), p, alternating)
    two = SumSpec((Factor(first, 1), Factor(second, p)), s, alternating)
    return one, two


# ---------------------------------------------------------------------------
# Family generators.
# ---------------------------------------------------------------------------


def _check_pm(name: str, p: int, m: int, pmin: int) -> None:
    if p < pmin:
        raise ValueError(f"{name} needs p >= {pmin}")
    if m < 0:
        raise ValueError(f"{name} needs m >= 0")


def _sched(zeta: Callable[[int], SymbolicValue],
           bundle: Callable[[int, int], SymbolicValue],
           a: int, b: int) -> SymbolicValue:
    """The bundle schedule shared by the pair identities, with
    e_i = (-1)**(i-1) and every index i >= 1:

        + sum_{i<b}   e_i zeta(b+1-i) bundle(a-1, i)
        + sum_{i<b-1} e_i zeta(b-i)   bundle(a, i)
        - sum_{i<a-1} e_i zeta(a-i)   bundle(b, i)
        - sum_{i<a}   e_i zeta(a+1-i) bundle(b-1, i)
    """
    acc = sv_zero()
    for sign, z0, top, shift in ((1, b + 1, b, a - 1), (1, b, b - 1, a),
                                 (-1, a, a - 1, b), (-1, a + 1, a, b - 1)):
        for i in range(1, top):
            acc = sv_add(acc, sv_scale(sv_mul(zeta(z0 - i), bundle(shift, i)),
                                       sign * (-1) ** (i - 1)))
    return acc


def _harmonic_pair(p: int, m: int, gap: int = 1) -> Identity:
    """{h(1)h(s)/n^p} + {h(1)h(p)/n^s} for odd gap s = p+2m+1 (cor2_6),
    or their difference for even gap s = p+2m+2 (thm2_8), via endpoint
    integrals."""
    name = "cor2_6" if gap == 1 else "thm2_8"
    _check_pm(name, p, m, 2)
    s = p + 2 * m + gap
    sign = Fraction((-1) ** p)
    one, two = _pair_specs(p, s, "h", "h", False)
    rhs = sv_add(
        sv_scale(integral_I_closed(p - 1, s + 1), s + 1),
        sv_scale(integral_I_closed(p, s), s - p),
        sv_scale(integral_I_closed(p + 1, s - 1), -(p + 1)),
        _sched(_zeta, lambda a, i: _h_bundle(a, i, False), p, s))
    return Identity("%s(%d,%d)" % (name, p, m),
                    ((one, sign), (two, sign * (-1) ** (gap - 1))), rhs,
                    (p, m))


def _harmonic_pair_alt(p: int, m: int) -> Identity:
    """{l(1)h(s)/n^p} + {l(1)h(p)/n^s} via endpoint integrals at -1."""
    _check_pm("cor2_7", p, m, 2)
    s = p + 2 * m + 1
    sign = Fraction((-1) ** p)
    one, two = _pair_specs(p, s, "l", "h", False)
    rhs = sv_zero()
    rhs = sv_add(rhs, sv_scale(integral_at_minus1("I", p + 1, s - 1), p + 1))
    rhs = sv_sub(rhs, sv_scale(integral_at_minus1("I", p, s), 2 * m + 1))
    rhs = sv_sub(rhs, sv_scale(integral_at_minus1("I", p - 1, s + 1), s + 1))
    ln_part = sv_zero()
    for power, order in ((p, s), (s, p)):
        for alt in (True, False):
            ln_part = sv_add(ln_part, _linear_value(
                SumSpec((Factor("h", order),), power, alt)))
    rhs = sv_add(rhs, sv_scale(sv_mul(sym_ln2(), ln_part), sign))
    rhs = sv_add(rhs, _sched(sym_zetabar, lambda a, i: _h_bundle(a, i, True),
                             s, p))
    return Identity("cor2_7(%d,%d)" % (p, m),
                    ((one, sign), (two, sign)), rhs, (p, m))


# The printed source carries the outer sign of this family's sums as
# (-1)^n while its weight-6 instances carry (-1)^(n-1); the numeric pin
# (documented in the workspace notes) confirms the (-1)^n reading, hence
# the extra -1 on the alternating-spec coefficients.
_ALT_PAIR_SIGN = -1


def _alternating_pair(p: int, m: int) -> Identity:
    """{l(1)l(s)/n^p alt} + {l(1)l(p)/n^s alt} via mixed integrals at -1."""
    _check_pm("thm2_9", p, m, 2)
    s = p + 2 * m + 1
    sign = Fraction(_ALT_PAIR_SIGN * (-1) ** p)
    one, two = _pair_specs(p, s, "l", "l", True)
    rhs = sv_zero()
    for icoeff, rcoeff, ip, iq in ((s, 1, s + 1, p - 1),
                                   (-(p - 1), -1, p, s),
                                   (s - 1, 1, s, p),
                                   (-p, -1, p + 1, s - 1)):
        rhs = sv_add(rhs, sv_scale(integral_at_minus1("I", ip, iq), icoeff))
        rhs = sv_add(rhs, sv_scale(integral_at_minus1("R", ip, iq), rcoeff))
    ln_part = sv_zero()
    for power, order in ((p, s), (s, p)):
        for alt in (True, False):
            ln_part = sv_sub(ln_part, _linear_value(
                SumSpec((Factor("l", order),), power, alt)))
    rhs = sv_add(rhs, sv_scale(sv_mul(sym_ln2(), ln_part),
                               Fraction((-1) ** p)))
    rhs = sv_add(rhs, _sched(sym_zetabar, _l_bundle, s, p))
    return Identity("thm2_9(%d,%d)" % (p, m),
                    ((one, sign), (two, sign)), rhs, (p, m))


def _stuffle_harmonic(p: int, m: int) -> Identity:
    """Three-sum shuffle relation: {l(1)h(s)/n^p} + {l(1)h(p)/n^s} +
    {h(p)h(s)/n alt} against degree-one sums and zeta products."""
    _check_pm("cor3_2", p, m, 2)
    s = p + 2 * m + 1
    one, two = _pair_specs(p, s, "l", "h", False)
    cross = SumSpec((Factor("h", p), Factor("h", s)), 1, alternating=True)
    rhs = sv_add(
        _linear_value(SumSpec((Factor("h", p),), s + 1, alternating=True)),
        _linear_value(SumSpec((Factor("l", 1),), p + s)),
        _linear_value(SumSpec((Factor("h", s),), p + 1, alternating=True)),
        sv_mul(sym_ln2(), sv_mul(_zeta(s), _zeta(p))),
        sv_scale(sym_zetabar(p + s + 1), -1),
    )
    return Identity("cor3_2(%d,%d)" % (p, m),
                    ((one, Fraction(1)), (two, Fraction(1)),
                     (cross, Fraction(1))), rhs, (p, m))


def _stuffle_alternating(p: int, m: int) -> Identity:
    """Three-sum shuffle relation for the all-alternating family."""
    _check_pm("cor3_3", p, m, 1)
    s = p + 2 * m + 1
    one, two = _pair_specs(p, s, "l", "l", True)
    cross = SumSpec((Factor("l", p), Factor("l", s)), 1, alternating=True)
    rhs = sv_add(
        _linear_value(SumSpec((Factor("l", p),), s + 1)),
        _linear_value(SumSpec((Factor("l", 1),), p + s)),
        _linear_value(SumSpec((Factor("l", s),), p + 1)),
        sv_mul(sym_ln2(), sv_mul(sym_zetabar(s), sym_zetabar(p))),
        sv_scale(sym_zetabar(p + s + 1), -1),
    )
    return Identity("cor3_3(%d,%d)" % (p, m),
                    ((one, Fraction(1)), (two, Fraction(1)),
                     (cross, Fraction(1))), rhs, (p, m))


def _integral_route_relation(s: int, t: int) -> Identity:
    """Relation among {h(1)h(j)/n^(2s+t-j)} sums from equating the two
    expansion routes of the squared-polylog integral.

    The two routes for int_0^1 Li_s^2 Li_t / x dx express it through the
    same family of degree-two sums with different coefficient schedules;
    their difference is a checkable identity. When s = t the schedules
    coincide and the relation degenerates to an equality of the two
    integral closed forms.
    """
    if s < 1 or t < 1:
        raise ValueError("need s >= 1 and t >= 1")
    a_ss, _ = pf_coeffs(s, s)
    a_st, b_st = pf_coeffs(s, t)
    coeffs: dict[int, Fraction] = {}
    for j in range(1, s + 1):
        coeffs[j] = coeffs.get(j, Fraction(0)) \
            + 2 * Fraction((-1) ** (t - 1)) * a_ss[j - 1] \
            - Fraction((-1) ** (s - 1)) * a_st[j - 1]
    for j in range(1, t + 1):
        coeffs[j] = coeffs.get(j, Fraction(0)) \
            - Fraction((-1) ** (s - 1)) * b_st[j - 1]
    lhs = tuple(
        (SumSpec((Factor("h", 1), Factor("h", j)), 2 * s + t - j), c)
        for j, c in sorted(coeffs.items()) if c != 0)
    rhs = sv_zero()
    # closed parts of the second route
    for i in range(1, s):
        block = sv_zero()
        for j in range(1, s + 1):
            block = sv_add(block, sv_scale(
                _linear_value(SumSpec((Factor("h", j),), s + t + i - j)),
                a_st[j - 1]))
        for j in range(1, t + 1):
            block = sv_add(block, sv_scale(
                _linear_value(SumSpec((Factor("h", j),), s + t + i - j)),
                b_st[j - 1]))
        rhs = sv_add(rhs, sv_scale(sv_mul(_zeta(s + 1 - i), block),
                                   (-1) ** (i - 1)))
    rhs = sv_sub(rhs, sv_scale(integral_I_closed(s, s + t),
                               sum(a_st) + sum(b_st)))
    # minus the closed parts of the first route
    for j in range(1, s + 1):
        for i in range(1, t):
            rhs = sv_sub(rhs, sv_scale(
                sv_mul(_zeta(t + 1 - i),
                       _linear_value(SumSpec((Factor("h", j),),
                                             2 * s + i - j))),
                2 * a_ss[j - 1] * Fraction((-1) ** (i - 1))))
    rhs = sv_add(rhs, sv_scale(integral_I_closed(2 * s, t), 2 * sum(a_ss)))
    return Identity("thm2_5(%d,%d)" % (s, t), lhs, rhs, (s, t))


def _weighted_pair_series(p: int, m: int, x: Rational) -> SeriesIdentity:
    """Generating-function form of the harmonic pair identity, evaluable
    at any rational |x| <= 1 except x = 1 (where log(1-x) diverges)."""
    _check_pm("thm2_6", p, m, 2)
    xf = Fraction(x)
    if abs(xf) > 1 or xf == 1:
        raise ValueError("need |x| <= 1 with x != 1")
    s = p + 2 * m + 1
    sign = Fraction((-1) ** p)
    one_f = Fraction(1)
    lhs = (
        STerm(coeff=sign, factors=((s, one_f), (1, xf)), power=p,
              outer=one_f),
        STerm(coeff=sign, factors=((p, one_f), (1, xf)), power=s,
              outer=one_f),
    )
    rhs: list[STerm] = [
        STerm(coeff=Fraction(s + 1), integral=("I", p - 1, s + 1, xf)),
        STerm(coeff=Fraction(2 * m + 1), integral=("I", p, s, xf)),
        STerm(coeff=Fraction(-(p + 1)), integral=("I", p + 1, s - 1, xf)),
        STerm(coeff=sign, ln1m=xf, factors=((s, one_f),), power=p,
              outer=xf, minus_one=True),
        STerm(coeff=sign, ln1m=xf, factors=((p, one_f),), power=s,
              outer=xf, minus_one=True),
    ]

    def bundle(a: int, i: int, li_order: int, c: Fraction) -> None:
        rhs.append(STerm(coeff=2 * c, polylogs=((li_order, xf),),
                         factors=((1, one_f),), power=a + i, outer=xf))
        for j in range(2, a + 1):
            rhs.append(STerm(coeff=c, polylogs=((li_order, xf),),
                             factors=((j, one_f),),
                             power=a + 1 + i - j, outer=xf))

    for i in range(1, s):
        bundle(p - 1, i, s + 1 - i, Fraction((-1) ** (i - 1)))
    for i in range(1, s - 1):
        bundle(p, i, s - i, Fraction((-1) ** (i - 1)))
    for i in range(1, p - 1):
        bundle(s, i, p - i, Fraction(-((-1) ** (i - 1))))
    for i in range(1, p):
        bundle(s - 1, i, p + 1 - i, Fraction(-((-1) ** (i - 1))))
    return SeriesIdentity("thm2_6(%d,%d,%s)" % (p, m, xf), lhs, tuple(rhs),
                          (p, m, xf))


def _triple_partial_relation(l1: int, l2: int, m: int, x: Rational,
                             y: Rational, z: Rational) -> SeriesIdentity:
    """Symmetric three-way relation among weighted partial-sum series."""
    if min(l1, l2, m) < 1:
        raise ValueError("need l1, l2, m >= 1")
    xf, yf, zf = Fraction(x), Fraction(y), Fraction(z)
    for arg in (xf, yf, zf):
        if abs(arg) > 1:
            raise ValueError("need |x|, |y|, |z| <= 1")
    lhs = (
        STerm(factors=((l1, xf), (l2, yf)), power=m, outer=zf),
        STerm(factors=((l1, xf), (m, zf)), power=l2, outer=yf),
        STerm(factors=((l2, yf), (m, zf)), power=l1, outer=xf),
    )
    rhs = (
        STerm(factors=((m, zf),), power=l1 + l2, outer=xf * yf),
        STerm(factors=((l1, xf),), power=m + l2, outer=yf * zf),
        STerm(factors=((l2, yf),), power=l1 + m, outer=xf * zf),
        STerm(polylogs=((m, zf), (l1, xf), (l2, yf))),
        STerm(coeff=Fraction(-1), polylogs=((l1 + l2 + m, xf * yf * zf),)),
    )
    return SeriesIdentity(
        "sym3_1(%d,%d,%d,%s,%s,%s)" % (l1, l2, m, xf, yf, zf), lhs, rhs,
        (l1, l2, m, xf, yf, zf))


def product_expand(s: int, t: int, x: Rational) -> SeriesIdentity:
    """Product of two polylogs as inner-weighted series minus a polylog.

    Li_s(x) Li_t(x) = sum_j A_j sum_n h(j)_n x^n/n^(s+t-j)
                    + sum_j B_j (same) - (sum A + sum B) Li_{s+t}(x),
    with (A, B) = pf_coeffs(s, t). Domain: |x| < 1, or x = -1 when every
    series converges; construction rejects a divergent term. Negating the
    argument gives the companion expansion of products against
    log(1+x)-type series.
    """
    if s < 1 or t < 1:
        raise ValueError("need s >= 1 and t >= 1")
    xf = Fraction(x)
    a, b = pf_coeffs(s, t)
    one_f = Fraction(1)
    lhs = (STerm(polylogs=((s, xf), (t, xf))),)
    rhs = tuple(STerm(coeff=c, factors=((j, one_f),), power=s + t - j,
                      outer=xf)
                for coeffs in (a, b) for j, c in enumerate(coeffs, 1))
    rhs += (STerm(coeff=-(sum(a) + sum(b)), polylogs=((s + t, xf),)),)
    return SeriesIdentity("product_expand(%d,%d,%s)" % (s, t, xf), lhs, rhs,
                          (s, t, xf))


# name -> (builder, parameter coercions)
_FAMILIES: dict[str, tuple[Callable, tuple[type, ...]]] = {
    "cor2_6": (_harmonic_pair, (int, int)),
    "cor2_7": (_harmonic_pair_alt, (int, int)),
    "thm2_5": (_integral_route_relation, (int, int)),
    "thm2_6": (_weighted_pair_series, (int, int, Fraction)),
    "thm2_8": (lambda p, m: _harmonic_pair(p, m, gap=2), (int, int)),
    "thm2_9": (_alternating_pair, (int, int)),
    "sym3_1": (_triple_partial_relation,
               (int, int, int, Fraction, Fraction, Fraction)),
    "cor3_2": (_stuffle_harmonic, (int, int)),
    "cor3_3": (_stuffle_alternating, (int, int)),
    "product_expand": (product_expand, (int, int, Fraction)),
}


def family_names() -> list[str]:
    return sorted(_FAMILIES)


def _coerce_param(value, kind: type):
    if kind is int:
        f = Fraction(value)
        if f.denominator != 1:
            raise ValueError(f"expected an integer parameter, got {value!r}")
        return int(f)
    return Fraction(value)


def identity_family(name: str, params: Sequence = ()) -> Identity | SeriesIdentity:
    """Build one parameterized identity by catalog name.

    Parameters may arrive as ints, Fractions, or strings; they are
    coerced per the family signature. Unknown names list the catalog.
    """
    if name not in _FAMILIES:
        raise ValueError(
            f"unknown identity family {name!r}; known: "
            + ", ".join(family_names()))
    builder, kinds = _FAMILIES[name]
    params = tuple(params)
    if len(params) != len(kinds):
        raise ValueError(
            f"{name} takes {len(kinds)} parameter(s), got {len(params)}")
    args = [_coerce_param(v, k) for v, k in zip(params, kinds)]
    return builder(*args)


# ---------------------------------------------------------------------------
# Atom rewriting passes and the quadratic reducer.
# ---------------------------------------------------------------------------


def _rewrite_atoms(v: SymbolicValue,
                   rule: Callable[[Atom], SymbolicValue | None]
                   ) -> SymbolicValue:
    """Replace every atom occurrence for which `rule` returns a value."""
    out = sv_zero()
    for mono, coeff in v:
        piece = sv_rational(coeff)
        for atom, exp in mono.powers:
            repl = rule(atom)
            if repl is None:
                piece = sv_mul(piece, sv_term(1, [(atom, exp)]))
            else:
                piece = sv_mul(piece, sv_pow(repl, exp))
        out = sv_add(out, piece)
    return out


def _resolve_linear_atoms(v: SymbolicValue) -> SymbolicValue:
    def rule(atom: Atom) -> SymbolicValue | None:
        if atom.tag != "ls":
            return None
        return linear_lookup(atom.spec)

    return _rewrite_atoms(v, rule)


def _swap_rule(atom: Atom) -> SymbolicValue | None:
    # {h(a)/n^b alt} = z(a) zb(b) + zb(a+b) - {l(b)/n^a} for a >= 2;
    # applied only when it does not raise the outer power (a >= b), which
    # keeps the preferred atom basis of the fixed-weight benchmarks
    if atom.tag != "ls":
        return None
    spec = atom.spec
    if not spec.alternating or spec.degree != 1:
        return None
    f = spec.factors[0]
    if f.kind != "h" or f.exponent != 1 or f.order < 2:
        return None
    a, b = f.order, spec.power
    if a < b:
        return None
    return sv_add(
        sv_mul(_zeta(a), sym_zetabar(b)),
        sym_zetabar(a + b),
        sv_scale(sym_linear(SumSpec((Factor("l", b),), a)), -1),
    )


_COVERED_NOTE = (
    "covered: h(p)*h(p+2m+1)/n alt with p >= 2, m >= 0; "
    "l(p)*l(p+2m+1)/n alt with p >= 2, m >= 0; any degree-one sum")


def reduce_quadratic(spec: SumSpec | str) -> SymbolicValue:
    """Reduce a covered degree-two alternating sum to the constant basis.

    The two covered families are eliminated between the shuffle relation
    and the corresponding endpoint-integral identity; remaining
    degree-one sums resolve through linear_lookup and misses stay atoms.
    Degree-one input delegates to the lookup directly. The result is
    normalized (alternating zetas rewritten, even-zeta products folded).
    """
    spec = _as_spec(spec)
    if not spec.converges():
        raise DivergentSumError(f"{spec} diverges")
    if spec.degree == 1:
        value = _linear_value(spec)
        return fold_even_zetas(normalize(value))
    if (spec.degree != 2 or spec.power != 1 or not spec.alternating
            or len(spec.factors) != 2):
        raise UnsupportedReductionError(
            f"no reduction rule for {spec}; {_COVERED_NOTE}")
    f1, f2 = spec.factors
    kinds = {f1.kind, f2.kind}
    if len(kinds) != 1 or f1.exponent != 1 or f2.exponent != 1:
        raise UnsupportedReductionError(
            f"no reduction rule for {spec}; {_COVERED_NOTE}")
    p, s = sorted((f1.order, f2.order))
    if p < 2 or (s - p) % 2 == 0 or s == p:
        raise UnsupportedReductionError(
            f"no reduction rule for {spec}; {_COVERED_NOTE}")
    m = (s - p - 1) // 2
    kind = kinds.pop()
    if kind == "h":
        stuffle = _stuffle_harmonic(p, m)
        pair = _harmonic_pair_alt(p, m)
    else:
        stuffle = _stuffle_alternating(p, m)
        pair = _alternating_pair(p, m)
    # stuffle: pair_one + pair_two + target = stuffle.rhs
    # pair:    c * (pair_one + pair_two)    = pair.rhs
    c = pair.lhs[0][1]
    total = sv_sub(stuffle.rhs, sv_scale(pair.rhs, Fraction(1) / c))
    total = _resolve_linear_atoms(total)
    total = _rewrite_atoms(total, _swap_rule)
    total = _resolve_linear_atoms(total)
    return fold_even_zetas(normalize(total))


# ---------------------------------------------------------------------------
# Fixed benchmark identities.
# ---------------------------------------------------------------------------


def _ident(tag: str, lhs: Sequence[tuple[str, int | str]],
           rhs: str) -> Identity:
    return Identity(
        tag,
        tuple((parse_sumspec(spec), Fraction(c)) for spec, c in lhs),
        parse_symbolic(rhs),
    )


def regression_identities() -> list[Identity]:
    """The fixed list of benchmark identities, by opaque catalog tag.

    Right sides are transcribed constants; nothing here is generated.
    The four weight-4 degree-one entries coincide with the frozen table.
    """
    return list(_regression_identities())


@cache
def _regression_identities() -> tuple[Identity, ...]:
    ids = [
        _ident("Eq(3.6)",
               [("l(1)*h(3)/n^2", 1), ("l(1)*h(2)/n^3", 1)],
               "3/4*z(3)^2 + 7/4*z(6) + 5/8*z(2)*z(3)*ln2"
               " + -2*z(2)*lih(4) + 5/4*z(4)*ln2^2 + -1/12*z(2)*ln2^4"),
        _ident("Eq(3.7)",
               [("h(2)*h(3)/n alt", 1)],
               "-161/64*z(6) + 31/16*z(5)*ln2 + 9/32*z(3)^2"
               " + 3/8*z(2)*z(3)*ln2 + 2*z(2)*lih(4) + -5/4*z(4)*ln2^2"
               " + 1/12*z(2)*ln2^4 + 1*LS{h(2)/n^4 alt}"
               " + -1*LS{l(3)/n^3}"),
        _ident("Eq(3.8)",
               [("l(1)*l(3)/n^2 alt", 1), ("l(1)*l(2)/n^3 alt", 1)],
               "-385/128*z(6) + 31/8*z(5)*ln2 + 3/32*z(3)^2"
               " + 9/8*z(2)*z(3)*ln2 + 1*z(2)*lih(4) + -5/8*z(4)*ln2^2"
               " + 1/24*z(2)*ln2^4"),
        _ident("Eq(3.9)",
               [("l(2)*l(3)/n alt", 1)],
               "163/128*z(6) + -31/16*z(5)*ln2 + 3/16*z(3)^2"
               " + -3/4*z(2)*z(3)*ln2 + -1*z(2)*lih(4) + 5/8*z(4)*ln2^2"
               " + -1/24*z(2)*ln2^4 + 1*LS{l(2)/n^4} + 1*LS{l(3)/n^3}"),
        _ident("Eq(3.10)",
               [("l(1)*h(2)/n^3", 1)],
               "29/8*z(2)*z(3)*ln2 + -93/32*z(5)*ln2 + -1855/128*z(6)"
               " + 17/16*z(3)^2 + -1*LS{l(1)/n^5 alt} + 1*LS{l(2)/n^4}"
               " + 4*LS{h(2)/n^4 alt} + 8*LS{h(1)/n^5 alt}"),
        _ident("Eq(3.11)",
               [("l(1)*h(3)/n^2", 1)],
               "2079/128*z(6) + 93/32*z(5)*ln2 + -5/16*z(3)^2"
               " + -3*z(2)*z(3)*ln2 + -2*z(2)*lih(4) + 5/4*z(4)*ln2^2"
               " + -1/12*z(2)*ln2^4 + 1*LS{l(1)/n^5 alt}"
               " + -1*LS{l(2)/n^4} + -4*LS{h(2)/n^4 alt}"
               " + -8*LS{h(1)/n^5 alt}"),
        _ident("closing",
               [("h(1)*l(1)/n^3 alt", 1), ("h(1)*l(3)/n alt", -1)],
               "15/4*z(4)*ln2 + -9/8*z(2)*z(3) + -1/2*z(3)*ln2^2"),
    ]
    for key in ("h(1)/n^3 alt", "l(1)/n^3 alt", "l(2)/n^2",
                "h(2)/n^2 alt"):
        ids.append(Identity("S1:%s" % key,
                            ((parse_sumspec(key), Fraction(1)),),
                            _table_lookup(key)))
    return tuple(ids)


def regression_tags() -> list[str]:
    return [ident.provenance for ident in regression_identities()]


_TAG_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\((.*)\)\Z")


def resolve_tag(tag: str) -> Identity | SeriesIdentity:
    """Identity for a catalog tag: a fixed benchmark tag or a family call
    like "cor2_7(2,0)" or "product_expand(3,2,1/2)"."""
    tag = tag.strip()
    for ident in regression_identities():
        if ident.provenance == tag:
            return ident
    m = _TAG_RE.match(tag)
    if m:
        name, argstr = m.group(1), m.group(2)
        parts = tuple(a.strip() for a in argstr.split(",")) if argstr.strip() \
            else ()
        if name in _FAMILIES:
            return identity_family(name, parts)
    raise ValueError(
        f"unknown identity tag {tag!r}; fixed tags: "
        + ", ".join(regression_tags())
        + "; families: " + ", ".join(family_names()))
