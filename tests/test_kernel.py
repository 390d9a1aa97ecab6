"""Precision primitives and exact rational helpers."""
import math
from fractions import Fraction

import mpmath as mp
import pytest

from eulersum.kernel import (
    AccelerationError,
    DivergentSumError,
    EulerSumError,
    PrecReal,
    SumSpecSyntaxError,
    UnsupportedReductionError,
    at_dps,
    bernoulli_frac,
    binomial_exact,
    fmt_significant,
    mpf_from_fraction,
    zeta_even_rational,
)


def test_exception_hierarchy():
    for exc in (DivergentSumError, AccelerationError,
                UnsupportedReductionError, SumSpecSyntaxError):
        assert issubclass(exc, EulerSumError)
    assert SumSpecSyntaxError("bad", 3).offset == 3


def sig_digit_count(text: str) -> int:
    body = text.lstrip("-").replace(".", "")
    if "e" in body:
        body = body.split("e")[0]
    return len(body.lstrip("0"))


@pytest.mark.parametrize("value,digits", [
    ("0.5", 10), ("1.02005194570145237930331996837", 28),
    ("123456.789", 12), ("-0.0003", 7), ("2", 9),
])
def test_fmt_significant_digit_count(value, digits):
    with mp.workdps(40):
        out = fmt_significant(mp.mpf(value), digits)
    assert sig_digit_count(out) == digits


def test_fmt_significant_round_trips_value():
    with mp.workdps(40):
        x = mp.zeta(3)
        out = fmt_significant(x, 25)
        assert abs(mp.mpf(out) - x) < mp.mpf(10) ** -24


def test_binomial_exact():
    for n in range(12):
        for k in range(n + 1):
            assert binomial_exact(n, k) == math.comb(n, k)
    assert binomial_exact(5, 9) == 0
    assert binomial_exact(5, -1) == 0
    with pytest.raises(ValueError):
        binomial_exact(-2, 1)


def test_bernoulli_first_values():
    want = {0: Fraction(1), 1: Fraction(-1, 2), 2: Fraction(1, 6),
            3: Fraction(0), 4: Fraction(-1, 30), 6: Fraction(1, 42),
            8: Fraction(-1, 30), 10: Fraction(5, 66),
            12: Fraction(-691, 2730)}
    for n, b in want.items():
        assert bernoulli_frac(n) == b


def test_zeta_even_rational():
    assert zeta_even_rational(2) == Fraction(1, 6)
    assert zeta_even_rational(4) == Fraction(1, 90)
    assert zeta_even_rational(6) == Fraction(1, 945)
    assert zeta_even_rational(8) == Fraction(1, 9450)
    with pytest.raises(ValueError):
        zeta_even_rational(3)
    with mp.workdps(40):
        for k in (2, 4, 6, 8, 10):
            r = mpf_from_fraction(zeta_even_rational(k))
            assert abs(r * mp.pi ** k - mp.zeta(k)) < mp.mpf(10) ** -35


def test_mpf_from_fraction():
    with mp.workdps(30):
        assert mpf_from_fraction(Fraction(3, 8)) == mp.mpf("0.375")
        third = mpf_from_fraction(Fraction(1, 3))
        assert abs(third - mp.mpf(1) / 3) < mp.mpf(10) ** -28


def test_working_dps_scopes_precision():
    before = mp.mp.dps
    with at_dps(60):
        assert mp.mp.dps >= 60
    assert mp.mp.dps == before


def test_precreal_eq_to():
    with mp.workdps(40):
        a = PrecReal(mp.zeta(3), 30)
        b = PrecReal(mp.zeta(3) + mp.mpf(10) ** -25, 30)
    assert a.eq_to(b, 20)
    assert not a.eq_to(b, 28)
    with pytest.raises(ValueError):
        a.eq_to(b, 35)  # more digits than either side claims
