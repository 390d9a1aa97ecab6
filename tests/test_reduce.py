"""Closed forms, identity catalog, and the quadratic reduction driver."""
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import close_digits
from eulersum.kernel import (
    AccelerationError,
    DivergentSumError,
    UnsupportedReductionError,
)
from eulersum.algebra import (
    fold_even_zetas,
    normalize,
    sv_numeric,
    sv_scale,
    sv_sub,
    sym_zeta,
    weight_of,
)
from eulersum.engine import eval_I, eval_R, eval_sum
from eulersum.reduce import (
    _FROZEN_ENTRIES,
    Identity,
    SeriesIdentity,
    euler_linear,
    family_names,
    fs_odd_linear,
    identity_family,
    integral_I_closed,
    integral_at_minus1,
    linear_lookup,
    pf_coeffs,
    product_expand,
    reduce_quadratic,
    regression_identities,
    regression_tags,
    resolve_tag,
)
from eulersum.sumspec import parse_sumspec

# --- partial fractions ----------------------------------------------------

nonunit_fraction = st.fractions(
    min_value=-3, max_value=3, max_denominator=12).filter(
        lambda q: q not in (0, 1))


@given(st.integers(min_value=1, max_value=6),
       st.integers(min_value=1, max_value=6),
       nonunit_fraction)
@settings(max_examples=120)
def test_pf_coeffs_exact_identity(s, t, x):
    a, b = pf_coeffs(s, t)
    lhs = Fraction(1) / (x ** s * (1 - x) ** t)
    rhs = sum(a[j - 1] / x ** j for j in range(1, s + 1)) \
        + sum(b[j - 1] / (1 - x) ** j for j in range(1, t + 1))
    assert lhs == rhs


def test_pf_coeffs_validation():
    with pytest.raises(ValueError):
        pf_coeffs(0, 2)


# --- degree-one closed forms ----------------------------------------------

def test_euler_linear_first_cases():
    assert euler_linear(2) == sv_scale(sym_zeta(3), 2)
    assert fold_even_zetas(euler_linear(3)) == \
        sv_scale(sym_zeta(4), Fraction(5, 4))
    with pytest.raises(ValueError):
        euler_linear(1)


def test_fs_odd_linear_agrees_with_euler_at_p1():
    got = sv_numeric(fs_odd_linear(1, 2), 25)
    want = sv_numeric(euler_linear(2), 25)
    assert close_digits(got, want, 24)


def test_fs_odd_linear_validation():
    with pytest.raises(ValueError):
        fs_odd_linear(2, 2)  # even weight is outside the formula
    with pytest.raises(ValueError):
        fs_odd_linear(2, 1)


def test_linear_lookup_routes():
    hit = linear_lookup(parse_sumspec("h(1)/n^2"))
    assert hit == sv_scale(sym_zeta(3), 2)
    alt = linear_lookup(parse_sumspec("h(1)/n^4 alt"))
    assert alt is not None
    # frozen value from the independent oracle (see test_engine)
    with mp.workdps(40):
        assert close_digits(sv_numeric(alt, 30),
                            mp.mpf("0.923183373396940242574912394912593961"),
                            28)
    assert linear_lookup(parse_sumspec("h(4)/n^4")) is None
    with pytest.raises(DivergentSumError):
        linear_lookup(parse_sumspec("h(1)/n"))
    with pytest.raises(ValueError):
        linear_lookup(parse_sumspec("h(1)^2/n^2"))


@pytest.mark.parametrize("key", list(_FROZEN_ENTRIES))
def test_frozen_table_entry_matches_engine(key):
    # the engine's value and the served closed form, both certified to 30
    # digits, must agree to 25
    got = eval_sum(key, 30)
    want = sv_numeric(linear_lookup(key), 30)
    assert got.eq_to(want, 25)


# --- endpoint integrals ---------------------------------------------------

@pytest.mark.parametrize("p,q", [(1, 2), (2, 2)])
def test_integral_I_closed_vs_series(p, q):
    got = sv_numeric(integral_I_closed(p, q), 18)
    want = eval_I(p, q, 1, 18)
    assert close_digits(got, want, 15)


def test_integral_at_minus1_vs_independent_value():
    # frozen by the independent double-series oracle (see test_engine)
    got = sv_numeric(integral_at_minus1("R", 3, 2), 26)
    with mp.workdps(40):
        assert close_digits(
            got, mp.mpf("-0.485050977665856087412829366594899547"), 24)


def test_integral_at_minus1_vs_engine():
    got = sv_numeric(integral_at_minus1("I", 2, 2), 20)
    want = eval_I(2, 2, -1, 20)
    assert close_digits(got, want, 18)


# --- identity objects -----------------------------------------------------

def test_identity_weight_validation():
    with pytest.raises(ValueError):
        Identity("bad", ((parse_sumspec("h(1)/n^2"), Fraction(1)),),
                 sym_zeta(4))  # weight 3 lhs vs weight 4 rhs


def test_identity_divergent_lhs_rejected():
    with pytest.raises(DivergentSumError):
        Identity("bad", ((parse_sumspec("h(1)/n"), Fraction(1)),),
                 sym_zeta(2))


def test_identity_numerics_and_json():
    ident = resolve_tag("Eq(3.7)")
    lhs = ident.numeric_lhs(20)
    rhs = ident.numeric_rhs(20)
    assert close_digits(lhs, rhs, 18)
    blob = ident.to_json()
    assert blob["provenance"] == "Eq(3.7)"
    assert blob["lhs"] and "rhs" in blob
    assert "h(2)*h(3)/n alt" in str(ident)


def test_identity_rhs_obeys_term_budget():
    # the right side's sum atoms are evaluated under the caller's budget
    with pytest.raises(AccelerationError):
        resolve_tag("Eq(3.7)").numeric_rhs(25, max_terms=1)


def test_identity_lhs_spends_one_budget():
    # each of Eq(3.8)'s two sums certifies alone within m terms, even at
    # ten more digits; the whole left side spends both from one budget
    ident = resolve_tag("Eq(3.8)")
    m = 1091
    for spec, _ in ident.lhs:
        eval_sum(spec, 35, max_terms=m)
    with pytest.raises(AccelerationError):
        ident.numeric_lhs(25, max_terms=m)
    ident.numeric_lhs(25, max_terms=2 * m)


def test_regression_catalog():
    idents = regression_identities()
    tags = regression_tags()
    assert len(idents) == 11
    assert [i.provenance for i in idents] == tags
    for want in ("Eq(3.6)", "Eq(3.11)", "closing", "S1:l(2)/n^2"):
        assert want in tags
    for ident in idents:
        assert ident.weight is not None


def test_resolve_tag_families_and_errors():
    ident = resolve_tag("cor2_7(2,0)")
    assert isinstance(ident, Identity)
    assert ident.parameters == (2, 0)
    series = resolve_tag("product_expand(2,3)")
    assert isinstance(series, SeriesIdentity)
    with pytest.raises(ValueError):
        resolve_tag("Eq(9.9)")
    with pytest.raises(ValueError):
        resolve_tag("cor2_7(2)")  # wrong arity


def test_identity_family_catalog():
    names = family_names()
    for want in ("cor2_6", "cor2_7", "thm2_5", "thm2_6", "thm2_8",
                 "thm2_9", "sym3_1", "cor3_2", "cor3_3", "product_expand"):
        assert want in names
    with pytest.raises(ValueError):
        identity_family("nope", (1, 2))


@pytest.mark.parametrize("name,params", [
    ("cor2_6", (2, 0)),
    ("thm2_8", (2, 0)),
    ("cor3_3", (2, 1)),
    ("cor2_7", (2, 0)),
    ("thm2_9", (2, 0)),
    ("thm2_6", (2, 0, Fraction(1, 2))),
    ("thm2_6", (3, 0, Fraction(-1, 2))),
    ("sym3_1", (2, 1, 1, Fraction(1, 2), Fraction(1, 3), Fraction(-1, 2))),
    ("product_expand", (2, 3)),
])
def test_family_instances_verify_numerically(name, params):
    ident = identity_family(name, params)
    # product_expand leaves its argument free: bind it off the default 1/2
    extra = {"args": (Fraction(-1, 2),)} if name == "product_expand" else {}
    assert close_digits(ident.numeric_lhs(18, **extra),
                        ident.numeric_rhs(18, **extra), 15)


def test_series_identity_product_expand():
    series = product_expand(2, 3)
    lhs = series.numeric_lhs(15)
    rhs = series.numeric_rhs(15)
    assert close_digits(lhs, rhs, 13)
    assert "x" in series.domain or series.arity >= 0  # smoke: metadata present


def test_series_identity_rejects_divergent_binding():
    # constant/n tail at these arguments: divergence must be caught
    with pytest.raises(DivergentSumError):
        identity_family("sym3_1",
                        (2, 1, 1, Fraction(1, 2), Fraction(-1), Fraction(1)))


# --- quadratic reduction --------------------------------------------------

def test_reduce_quadratic_matches_catalog_closed_form():
    got = reduce_quadratic("h(2)*h(3)/n alt")
    want = resolve_tag("Eq(3.7)").rhs
    assert sv_sub(got, want).is_zero()


def test_reduce_quadratic_l_family_closed_form():
    got = reduce_quadratic("l(2)*l(3)/n alt")
    want = resolve_tag("Eq(3.9)").rhs
    assert sv_sub(got, want).is_zero()


def test_reduce_quadratic_degree_one_delegates():
    assert reduce_quadratic("h(1)/n^2") == sv_scale(sym_zeta(3), 2)


def test_reduce_weight_homogeneity():
    out = reduce_quadratic("h(2)*h(5)/n alt")
    assert weight_of(out) == 8


@pytest.mark.parametrize("bad", [
    "h(2)*h(4)/n alt",    # even gap
    "h(2)*h(3)/n^2 alt",  # outer power
    "h(2)*h(3)/n",        # sign pattern (divergent as written)
    "h(2)*l(3)/n alt",    # mixed kinds
    "h(1)*h(2)/n alt",    # p = 1
    "h(2)^2/n alt",       # equal orders
    "h(1)*h(2)*h(3)/n alt",  # degree three
])
def test_reduce_quadratic_uncovered(bad):
    with pytest.raises((UnsupportedReductionError, DivergentSumError)):
        reduce_quadratic(bad)


def test_reduce_quadratic_normalized_output():
    out = reduce_quadratic("l(2)*l(5)/n alt")
    assert fold_even_zetas(normalize(out)) == out


def test_reduce_quadratic_numeric_spot_check():
    spec = "h(3)*h(4)/n alt"
    got = sv_numeric(reduce_quadratic(spec), 20)
    want = eval_sum(spec, 20)
    assert close_digits(got, want, 18)
