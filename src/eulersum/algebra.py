"""Exact-coefficient algebra over the constant basis used by the reducer.

A :class:`SymbolicValue` is a Q-linear combination of monomials built from
five atom families:

    z(k)       zeta(k) for k >= 2
    zb(k)      alternating zeta, sum of (-1)^(n-1)/n^k, for k >= 1
    ln2        log 2
    lih(k)     Li_k(1/2) for k >= 1
    LS{spec}   a convergent degree-one sum kept symbolic, e.g. LS{l(2)/n^4}

Coefficients are exact :class:`fractions.Fraction` values, so two values are
equal exactly when they are equal term-for-term.  ``normalize`` rewrites the
zb and low-order lih atoms into the preferred basis {z, ln2, lih(k>=4), LS};
``fold_even_zetas`` optionally contracts products of even zeta values into a
single even zeta value.  Both are value-preserving, which the test suite
checks numerically.

Serialization is canonical in both directions: ``parse_symbolic(sv_text(v))``
and ``sv_from_json(sv_to_json(v))`` reproduce ``v`` exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

from mpmath import mp

from .kernel import (
    EulerSumError,
    PrecReal,
    Rational,
    certified,
    mpf_from_fraction,
    zeta_even_rational,
)
from .sumspec import SumSpec, parse_sumspec
from . import engine

__all__ = [
    "Atom",
    "Monomial",
    "SymbolicValue",
    "atom_numeric",
    "fold_even_zetas",
    "normalize",
    "parse_symbolic",
    "sv_add",
    "sv_from_json",
    "sv_mul",
    "sv_numeric",
    "sv_one",
    "sv_pow",
    "sv_rational",
    "sv_scale",
    "sv_sub",
    "sv_term",
    "sv_text",
    "sv_to_json",
    "sv_zero",
    "sym_lihalf",
    "sym_linear",
    "sym_ln2",
    "sym_zeta",
    "sym_zetabar",
    "weight_of",
]

RationalLike = Union[Rational, int]

# Tag order fixes the canonical atom ordering inside a monomial.
_ATOM_RANK = {"z": 0, "zb": 1, "ln2": 2, "lih": 3, "ls": 4}


@dataclass(frozen=True)
class Atom:
    """One basis constant.

    ``tag`` selects the family; ``order`` is the integer parameter for the
    z/zb/lih families (0 for ln2 and LS atoms); ``spec`` is set only for LS
    atoms and must describe a degree-one sum.
    """

    tag: str
    order: int = 0
    spec: SumSpec | None = None

    def __post_init__(self) -> None:
        if self.tag not in _ATOM_RANK:
            raise ValueError(f"unknown atom tag {self.tag!r}")
        if self.tag == "z":
            if self.order < 2 or self.spec is not None:
                raise ValueError("zeta atom requires integer order >= 2")
        elif self.tag == "zb":
            if self.order < 1 or self.spec is not None:
                raise ValueError("alternating zeta atom requires order >= 1")
        elif self.tag == "ln2":
            if self.order != 0 or self.spec is not None:
                raise ValueError("ln2 atom carries no parameters")
        elif self.tag == "lih":
            if self.order < 1 or self.spec is not None:
                raise ValueError("lih atom requires integer order >= 1")
        else:
            if self.spec is None or self.order != 0:
                raise ValueError("LS atom requires a sum spec and no order")
            if self.spec.degree != 1:
                raise ValueError("LS atom spec must have degree 1")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zeta(k: int) -> "Atom":
        return Atom("z", k)

    @staticmethod
    def zetabar(k: int) -> "Atom":
        return Atom("zb", k)

    @staticmethod
    def ln2() -> "Atom":
        return Atom("ln2")

    @staticmethod
    def lihalf(k: int) -> "Atom":
        return Atom("lih", k)

    @staticmethod
    def linear(spec: SumSpec | str) -> "Atom":
        if isinstance(spec, str):
            spec = parse_sumspec(spec)
        return Atom("ls", 0, spec)

    # -- structure ------------------------------------------------------

    @property
    def weight(self) -> int:
        if self.tag == "ln2":
            return 1
        if self.tag == "ls":
            assert self.spec is not None
            return self.spec.weight
        return self.order

    def sort_key(self) -> tuple[int, int, str]:
        spec_str = str(self.spec) if self.spec is not None else ""
        return (_ATOM_RANK[self.tag], self.order, spec_str)

    def text(self) -> str:
        if self.tag == "ln2":
            return "ln2"
        if self.tag == "ls":
            return "LS{%s}" % self.spec
        return f"{self.tag}({self.order})"

    def json_arg(self) -> int | str:
        if self.tag == "ls":
            return str(self.spec)
        return self.order


@dataclass(frozen=True)
class Monomial:
    """A product of atoms with positive integer exponents, kept sorted."""

    powers: tuple[tuple[Atom, int], ...]

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[Atom, int]]) -> "Monomial":
        merged: dict[Atom, int] = {}
        for atom, exp in pairs:
            if exp < 0:
                raise ValueError("negative atom exponent")
            if exp:
                merged[atom] = merged.get(atom, 0) + exp
        ordered = tuple(sorted(merged.items(), key=lambda p: p[0].sort_key()))
        return Monomial(ordered)

    @property
    def weight(self) -> int:
        return sum(atom.weight * exp for atom, exp in self.powers)

    def sort_key(self) -> tuple:
        return tuple((atom.sort_key(), exp) for atom, exp in self.powers)

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial.from_pairs(self.powers + other.powers)

    def text(self) -> str:
        if not self.powers:
            return "1"
        chunks = []
        for atom, exp in self.powers:
            chunks.append(atom.text() if exp == 1 else f"{atom.text()}^{exp}")
        return "*".join(chunks)


_MONO_ONE = Monomial(())


@dataclass(frozen=True)
class SymbolicValue:
    """Exact rational combination of monomials; immutable and hashable."""

    terms: tuple[tuple[Monomial, Fraction], ...]

    def __iter__(self) -> Iterator[tuple[Monomial, Fraction]]:
        return iter(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, mono: Monomial) -> Fraction:
        for m, c in self.terms:
            if m == mono:
                return c
        return Fraction(0)

    # Operator sugar keeps identity assembly readable.
    def __add__(self, other: "SymbolicValue") -> "SymbolicValue":
        return sv_add(self, other)

    def __sub__(self, other: "SymbolicValue") -> "SymbolicValue":
        return sv_sub(self, other)

    def __neg__(self) -> "SymbolicValue":
        return sv_scale(self, -1)

    def __mul__(self, other):
        if isinstance(other, SymbolicValue):
            return sv_mul(self, other)
        if isinstance(other, (int, Fraction)):
            return sv_scale(self, other)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exp: int) -> "SymbolicValue":
        return sv_pow(self, exp)

    def __str__(self) -> str:
        return sv_text(self)


def _make(mapping: Mapping[Monomial, Fraction]) -> SymbolicValue:
    kept = [(m, c) for m, c in mapping.items() if c]
    kept.sort(key=lambda p: p[0].sort_key())
    return SymbolicValue(tuple(kept))


def sv_zero() -> SymbolicValue:
    return SymbolicValue(())


def sv_rational(r: RationalLike) -> SymbolicValue:
    r = Fraction(r)
    return _make({_MONO_ONE: r}) if r else sv_zero()


def sv_one() -> SymbolicValue:
    return sv_rational(1)


def sv_term(coeff: RationalLike, pairs: Iterable[tuple[Atom, int]]) -> SymbolicValue:
    return _make({Monomial.from_pairs(pairs): Fraction(coeff)})


def sym_zeta(k: int) -> SymbolicValue:
    return sv_term(1, [(Atom.zeta(k), 1)])


def sym_zetabar(k: int) -> SymbolicValue:
    return sv_term(1, [(Atom.zetabar(k), 1)])


def sym_ln2() -> SymbolicValue:
    return sv_term(1, [(Atom.ln2(), 1)])


def sym_lihalf(k: int) -> SymbolicValue:
    return sv_term(1, [(Atom.lihalf(k), 1)])


def sym_linear(spec: SumSpec | str) -> SymbolicValue:
    return sv_term(1, [(Atom.linear(spec), 1)])


def sv_add(*values: SymbolicValue) -> SymbolicValue:
    acc: dict[Monomial, Fraction] = {}
    for v in values:
        for mono, coeff in v.terms:
            acc[mono] = acc.get(mono, Fraction(0)) + coeff
    return _make(acc)


def sv_sub(a: SymbolicValue, b: SymbolicValue) -> SymbolicValue:
    return sv_add(a, sv_scale(b, -1))


def sv_scale(v: SymbolicValue, r: RationalLike) -> SymbolicValue:
    r = Fraction(r)
    if not r:
        return sv_zero()
    return _make({m: c * r for m, c in v.terms})


def sv_mul(a: SymbolicValue, b: SymbolicValue) -> SymbolicValue:
    acc: dict[Monomial, Fraction] = {}
    for ma, ca in a.terms:
        for mb, cb in b.terms:
            mono = ma * mb
            acc[mono] = acc.get(mono, Fraction(0)) + ca * cb
    return _make(acc)


def sv_pow(v: SymbolicValue, exp: int) -> SymbolicValue:
    if exp < 0:
        raise ValueError("negative power of a symbolic value")
    out = sv_one()
    for _ in range(exp):
        out = sv_mul(out, v)
    return out


def weight_of(v: SymbolicValue) -> int | None:
    """Common weight of all monomials, or None for mixed or empty values."""
    weights = {mono.weight for mono, _ in v.terms}
    if len(weights) == 1:
        return weights.pop()
    return None


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

# Li_2(1/2) and Li_3(1/2) in the preferred basis; tests/test_algebra.py
# checks both against mpmath's polylog.
_LIH_REWRITES: dict[int, SymbolicValue] = {
    2: Fraction(1, 2) * sym_zeta(2) - Fraction(1, 2) * sym_ln2() ** 2,
    3: (Fraction(7, 8) * sym_zeta(3)
        - Fraction(1, 2) * sym_zeta(2) * sym_ln2()
        + Fraction(1, 6) * sym_ln2() ** 3),
}


def _atom_substitution(atom: Atom) -> SymbolicValue:
    if atom.tag == "zb":
        if atom.order == 1:
            return sym_ln2()
        k = atom.order
        scale = Fraction(2 ** (k - 1) - 1, 2 ** (k - 1))
        return sv_scale(sym_zeta(k), scale)
    if atom.tag == "lih":
        if atom.order == 1:
            return sym_ln2()
        if atom.order in (2, 3):
            return _LIH_REWRITES[atom.order]
    return sv_term(1, [(atom, 1)])


def normalize(v: SymbolicValue) -> SymbolicValue:
    """Rewrite into the preferred basis {z(k), ln2, lih(k>=4), LS}.

    zb(1) and lih(1) become ln2; zb(k) becomes (1 - 2^(1-k)) z(k); lih(2)
    and lih(3) expand into z/ln2 combinations.  Products of zeta values are
    left alone (z(2)^2 stays z(2)^2; see fold_even_zetas).
    """
    acc: dict[Monomial, Fraction] = {}
    for mono, coeff in v.terms:
        piece = sv_rational(coeff)
        for atom, exp in mono.powers:
            piece = sv_mul(piece, sv_pow(_atom_substitution(atom), exp))
        for m, c in piece.terms:
            acc[m] = acc.get(m, Fraction(0)) + c
    return _make(acc)


def fold_even_zetas(v: SymbolicValue) -> SymbolicValue:
    """Contract every product of even zeta values into one even zeta value.

    Uses the exact rational ratios zeta(2a)zeta(2b)/zeta(2a+2b), so z(2)^2
    becomes 5/2*z(4) and z(2)*z(4) becomes 7/4*z(6).  Odd zeta values and
    all non-zeta atoms pass through untouched.
    """
    acc: dict[Monomial, Fraction] = {}
    for mono, coeff in v.terms:
        evens: list[int] = []
        rest: list[tuple[Atom, int]] = []
        for atom, exp in mono.powers:
            if atom.tag == "z" and atom.order % 2 == 0:
                evens.extend([atom.order] * exp)
            else:
                rest.append((atom, exp))
        if len(evens) > 1:
            total = sum(evens)
            ratio = Fraction(1)
            for k in evens:
                ratio *= zeta_even_rational(k)
            ratio /= zeta_even_rational(total)
            coeff = coeff * ratio
            evens = [total]
        if evens:
            rest.append((Atom.zeta(evens[0]), 1))
        new_mono = Monomial.from_pairs(rest)
        acc[new_mono] = acc.get(new_mono, Fraction(0)) + coeff
    return _make(acc)


# ---------------------------------------------------------------------------
# Numeric evaluation
# ---------------------------------------------------------------------------

def _atom_raw(a: Atom, dps: int, budget, boost: int) -> mp.mpf:
    # one uncertified value of an atom, as an engine run function
    if a.tag == "ls":
        assert a.spec is not None
        return engine._eval_raw(a.spec, dps, budget, boost)
    ws = engine._workspace(dps, boost)
    if a.tag == "z":
        return ws.zeta(a.order)
    if a.tag == "zb":
        return ws.zetabar(a.order)
    if a.tag == "ln2":
        return ws.ln2
    return ws.lihalf(a.order)


def atom_numeric(a: Atom, digits: int = 30,
                 max_terms: int | None = None) -> PrecReal:
    """Numeric value of one atom to `digits` significant digits."""
    return certified(lambda dps, budget, boost:
                     _atom_raw(a, dps, budget, boost),
                     digits, a.text(), max_terms)


def sv_numeric(v: SymbolicValue, digits: int = 30,
               max_terms: int | None = None) -> PrecReal:
    """Evaluate a symbolic value numerically to `digits` significant digits.

    The whole combination is one run of `kernel.certified`: its two
    staggered runs evaluate every atom uncertified and combine them, and
    the agreement check applies to the combined value, under one term
    budget of `max_terms` for all sum atoms. A combination that cancels
    more digits than the two runs' precision gap raises AccelerationError
    instead of returning digits it does not have.
    """
    def run(dps: int, budget, boost: int) -> mp.mpf:
        total = mp.mpf(0)
        for mono, coeff in v.terms:
            term = mpf_from_fraction(coeff)
            for atom, exp in mono.powers:
                term *= _atom_raw(atom, dps, budget, boost) ** exp
            total += term
        return total

    return certified(run, digits, v, max_terms)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def sv_text(v: SymbolicValue) -> str:
    """Canonical text form, e.g. ``3/4*z(3)^2 + 7/4*z(6)``."""
    if not v.terms:
        return "0"
    parts = []
    for mono, coeff in v.terms:
        if mono.powers:
            parts.append(f"{coeff}*{mono.text()}")
        else:
            parts.append(str(coeff))
    return " + ".join(parts)


_ATOM_TOKEN_RE = re.compile(r"^(z|zb|lih)\((\d+)\)(?:\^(\d+))?$")
_LN2_TOKEN_RE = re.compile(r"^ln2(?:\^(\d+))?$")
_LS_TOKEN_RE = re.compile(r"^LS\{(.+)\}(?:\^(\d+))?$")
_COEFF_TOKEN_RE = re.compile(r"^-?\d+(?:/\d+)?$")


def _parse_term(chunk: str) -> tuple[Monomial, Fraction]:
    coeff = Fraction(1)
    pairs: list[tuple[Atom, int]] = []
    for token in chunk.split("*"):
        token = token.strip()
        if not token:
            raise EulerSumError(f"empty factor in term {chunk!r}")
        if _COEFF_TOKEN_RE.match(token):
            coeff *= Fraction(token)
            continue
        m = _LS_TOKEN_RE.match(token)
        if m:
            exp = int(m.group(2)) if m.group(2) else 1
            pairs.append((Atom.linear(parse_sumspec(m.group(1))), exp))
            continue
        m = _LN2_TOKEN_RE.match(token)
        if m:
            exp = int(m.group(1)) if m.group(1) else 1
            pairs.append((Atom.ln2(), exp))
            continue
        m = _ATOM_TOKEN_RE.match(token)
        if m:
            exp = int(m.group(3)) if m.group(3) else 1
            pairs.append((Atom(m.group(1), int(m.group(2))), exp))
            continue
        raise EulerSumError(f"unrecognized atom token {token!r}")
    return Monomial.from_pairs(pairs), coeff


def parse_symbolic(text: str) -> SymbolicValue:
    """Parse the text form produced by sv_text."""
    text = text.strip()
    if not text:
        raise EulerSumError("empty symbolic value")
    if text == "0":
        return sv_zero()
    acc: dict[Monomial, Fraction] = {}
    for chunk in text.split(" + "):
        mono, coeff = _parse_term(chunk.strip())
        acc[mono] = acc.get(mono, Fraction(0)) + coeff
    return _make(acc)


def sv_to_json(v: SymbolicValue) -> dict:
    """JSON-ready dict: {"terms": [{"coeff": "3/4", "atoms": [["z",3,2]]}],
    "weight": 6}.  Atom triples are [tag, order-or-spec, exponent]."""
    terms = []
    for mono, coeff in v.terms:
        atoms = [[atom.tag, atom.json_arg(), exp] for atom, exp in mono.powers]
        terms.append({"coeff": str(coeff), "atoms": atoms})
    return {"terms": terms, "weight": weight_of(v)}


def sv_from_json(obj: Mapping) -> SymbolicValue:
    acc: dict[Monomial, Fraction] = {}
    for entry in obj["terms"]:
        pairs = []
        for tag, arg, exp in entry["atoms"]:
            if tag == "ls":
                atom = Atom.linear(parse_sumspec(arg))
            elif tag == "ln2":
                atom = Atom.ln2()
            else:
                atom = Atom(tag, int(arg))
            pairs.append((atom, int(exp)))
        mono = Monomial.from_pairs(pairs)
        acc[mono] = acc.get(mono, Fraction(0)) + Fraction(entry["coeff"])
    return _make(acc)
