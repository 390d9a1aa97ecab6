"""Exact symbolic arithmetic over the constant basis."""
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import close_digits
from eulersum.kernel import AccelerationError
from eulersum.algebra import (
    Atom,
    Monomial,
    SymbolicValue,
    atom_numeric,
    fold_even_zetas,
    normalize,
    parse_symbolic,
    sv_add,
    sv_from_json,
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
    sym_lihalf,
    sym_ln2,
    sym_zeta,
    sym_zetabar,
    weight_of,
)

# --- strategies -----------------------------------------------------------

atom_st = st.one_of(
    st.builds(Atom.zeta, st.integers(min_value=2, max_value=7)),
    st.builds(Atom.zetabar, st.integers(min_value=1, max_value=7)),
    st.just(Atom.ln2()),
    st.builds(Atom.lihalf, st.integers(min_value=1, max_value=6)),
)

coeff_st = st.fractions(min_value=-5, max_value=5, max_denominator=8)

mono_pairs_st = st.lists(
    st.tuples(atom_st, st.integers(min_value=1, max_value=2)),
    min_size=0, max_size=2)


def _build_sv(term_list):
    acc = sv_zero()
    for coeff, pairs in term_list:
        acc = sv_add(acc, sv_term(coeff, pairs))
    return acc


sv_st = st.builds(_build_sv,
                  st.lists(st.tuples(coeff_st, mono_pairs_st), max_size=3))


# --- ring laws ------------------------------------------------------------

@given(sv_st, sv_st, sv_st)
@settings(max_examples=100)
def test_add_assoc_comm(a, b, c):
    assert sv_add(sv_add(a, b), c) == sv_add(a, sv_add(b, c))
    assert sv_add(a, b) == sv_add(b, a)


@given(sv_st, sv_st)
@settings(max_examples=100)
def test_mul_comm(a, b):
    assert sv_mul(a, b) == sv_mul(b, a)


@given(sv_st, sv_st, sv_st)
@settings(max_examples=60)
def test_mul_distributes(a, b, c):
    assert sv_mul(a, sv_add(b, c)) == sv_add(sv_mul(a, b), sv_mul(a, c))


@given(sv_st)
@settings(max_examples=60)
def test_pow_matches_repeated_mul(a):
    assert sv_pow(a, 2) == sv_mul(a, a)
    assert sv_pow(a, 1) == a
    assert sv_pow(a, 0) == sv_term(1, [])


@given(sv_st)
@settings(max_examples=60)
def test_sub_cancels(a):
    assert sv_sub(a, a).is_zero()
    assert sv_add(a, sv_scale(a, -1)).is_zero()


@given(sv_st)
@settings(max_examples=100)
def test_text_roundtrip(a):
    assert parse_symbolic(sv_text(a)) == a


@given(sv_st)
@settings(max_examples=100)
def test_json_roundtrip(a):
    assert sv_from_json(sv_to_json(a)) == a


def test_linear_atom_roundtrip():
    v = sv_add(sym_linear("l(1)/n^5 alt"), sv_scale(sym_zeta(3), Fraction(-2, 7)))
    assert parse_symbolic(sv_text(v)) == v
    assert sv_from_json(sv_to_json(v)) == v


# --- weights --------------------------------------------------------------

def test_weight_of_basics():
    assert weight_of(sym_zeta(3)) == 3
    assert weight_of(sym_ln2()) == 1
    assert weight_of(sym_lihalf(4)) == 4
    assert weight_of(sv_mul(sym_zeta(2), sym_zeta(3))) == 5
    assert weight_of(sym_linear("h(2)/n^4 alt")) == 6
    assert weight_of(sv_zero()) is None
    # mixed weights have no single weight
    assert weight_of(sv_add(sym_zeta(2), sym_zeta(3))) is None


@given(sv_st, sv_st)
@settings(max_examples=60)
def test_weight_multiplicative(a, b):
    wa, wb = weight_of(a), weight_of(b)
    if wa is not None and wb is not None:
        prod = sv_mul(a, b)
        if not prod.is_zero():
            assert weight_of(prod) == wa + wb


# --- normalization --------------------------------------------------------

def test_normalize_zetabar_exact():
    for k in range(2, 8):
        got = normalize(sym_zetabar(k))
        want = sv_scale(sym_zeta(k), Fraction(2 ** (k - 1) - 1, 2 ** (k - 1)))
        assert got == want
    assert normalize(sym_zetabar(1)) == sym_ln2()


def test_normalize_lihalf_low_orders():
    with mp.workdps(45):
        for k in (1, 2, 3):
            got = sv_numeric(normalize(sym_lihalf(k)), 35)
            want = mp.polylog(k, mp.mpf(1) / 2)
            assert close_digits(got, want, 33)
    # order >= 4 is a basis element and must survive
    assert normalize(sym_lihalf(4)) == sym_lihalf(4)


@given(sv_st)
@settings(max_examples=30)
def test_normalize_preserves_value(a):
    assert close_digits(sv_numeric(normalize(a), 25), sv_numeric(a, 25), 22)


@given(sv_st)
@settings(max_examples=40)
def test_normalize_basis_is_clean(a):
    for mono, _ in normalize(a).terms:
        for atom, _exp in mono.powers:
            assert atom.tag != "zb"
            assert not (atom.tag == "lih" and atom.order < 4)


def test_fold_even_zetas_exact():
    assert fold_even_zetas(sv_pow(sym_zeta(2), 2)) == \
        sv_scale(sym_zeta(4), Fraction(5, 2))
    assert fold_even_zetas(sv_mul(sym_zeta(2), sym_zeta(4))) == \
        sv_scale(sym_zeta(6), Fraction(7, 4))
    # odd zetas pass through
    v = sv_mul(sym_zeta(3), sym_zeta(2))
    assert fold_even_zetas(v) == v


@given(sv_st)
@settings(max_examples=30)
def test_fold_even_zetas_preserves_value(a):
    assert close_digits(sv_numeric(fold_even_zetas(a), 25),
                        sv_numeric(a, 25), 22)


def test_fold_idempotent():
    v = sv_add(sv_pow(sym_zeta(2), 3), sv_mul(sym_zeta(4), sym_zeta(6)))
    once = fold_even_zetas(v)
    assert fold_even_zetas(once) == once


# --- numerics -------------------------------------------------------------

def test_atom_numeric_reference_values():
    with mp.workdps(45):
        assert close_digits(atom_numeric(Atom.zeta(3), 35), mp.zeta(3), 34)
        assert close_digits(atom_numeric(Atom.ln2(), 35), mp.ln(2), 34)
        assert close_digits(atom_numeric(Atom.zetabar(4), 35),
                            (1 - mp.mpf(2) ** -3) * mp.zeta(4), 34)
        assert close_digits(atom_numeric(Atom.lihalf(5), 35),
                            mp.polylog(5, mp.mpf(1) / 2), 34)


def test_sv_numeric_combination():
    # 3/4 z(2) - 2 ln2^2
    v = sv_add(sv_scale(sym_zeta(2), Fraction(3, 4)),
               sv_term(Fraction(-2), [(Atom.ln2(), 2)]))
    with mp.workdps(45):
        want = mp.mpf(3) / 4 * mp.zeta(2) - 2 * mp.ln(2) ** 2
        assert close_digits(sv_numeric(v, 32), want, 30)


def test_sv_numeric_refuses_cancelled_digits():
    # 10^30 z(3) - M with M the integer part of 10^30 z(3): the combination
    # cancels 30 digits, so at 30 digits its value is not certifiable
    with mp.workdps(60):
        m = int(mp.floor(mp.mpf(10) ** 30 * mp.zeta(3)))
    v = sv_sub(sv_scale(sym_zeta(3), 10 ** 30), sv_rational(m))
    with pytest.raises(AccelerationError):
        sv_numeric(v, 30)


def test_atom_validation():
    with pytest.raises(ValueError):
        Atom.zeta(1)
    with pytest.raises(ValueError):
        Atom.zetabar(0)
    with pytest.raises(ValueError):
        Atom.lihalf(0)
    with pytest.raises(ValueError):
        sym_linear("h(1)*h(2)/n^3")  # degree two is not a linear atom
    # divergent LS atoms construct (weight bookkeeping still works) but
    # refuse numeric evaluation
    from eulersum.kernel import DivergentSumError
    with pytest.raises(DivergentSumError):
        sv_numeric(sym_linear("h(1)/n"), 15)


def test_monomial_merge_and_order():
    m = Monomial.from_pairs([(Atom.zeta(3), 1), (Atom.ln2(), 2),
                             (Atom.zeta(3), 1)])
    assert dict(m.powers)[Atom.zeta(3)] == 2
    assert m.weight == 8
