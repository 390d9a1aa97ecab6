"""Precision bookkeeping and exact arithmetic shared by every module.

Two number kinds flow through this package: exact rationals (coefficients of
identities, partial sums of finite series) and high-precision reals (values
of infinite series). Rationals are `fractions.Fraction` under the alias
`Rational`. Reals are mpmath floats wrapped in `PrecReal`, which records how
many significant digits the producer actually claims, so downstream
comparisons never trust noise digits.

mpmath keeps its working precision in process-global state. Every block
of this package that sets it runs under one process-wide re-entrant lock:
`certified` for evaluations, `at_dps` for fixed-precision arithmetic.
"""

from __future__ import annotations

import functools
import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import mpmath as mp

Rational = Fraction

# `certified` runs its lo run at digits + GUARD_DIGITS and its hi run ten
# digits above, so a request's value may cancel about this many digits
# before lo and hi disagree and it is refused; derived values add no guard
# of their own. Also the slack of fixed-precision comparisons and output.
GUARD_DIGITS = 15

# Series terms one request may spend, over all its sums and both runs,
# unless the caller passes max_terms.
DEFAULT_MAX_TERMS = 10 ** 6

# Held while mpmath's global precision is set; re-entrant, so a block that
# sets the precision may call code that sets it again.
LOCK = threading.RLock()


class EulerSumError(Exception):
    """Base class for every error raised by this package."""


class SumSpecSyntaxError(EulerSumError):
    """Malformed sum specification text.

    Carries the character offset of the first offending token so callers
    (notably the CLI) can point at it.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class DivergentSumError(EulerSumError):
    """The requested series does not converge."""


class AccelerationError(EulerSumError):
    """The numeric engine could not certify the requested accuracy."""


class UnsupportedReductionError(EulerSumError):
    """No implemented identity covers the requested reduction."""


class Budget:
    """Counts series-term evaluations so runaway requests fail loudly."""

    __slots__ = ("remaining",)

    def __init__(self, limit: int):
        self.remaining = limit

    def spend(self, n: int = 1) -> None:
        self.remaining -= n
        if self.remaining < 0:
            raise AccelerationError(
                "term budget exhausted; raise --max-terms for this request")


@contextmanager
def at_dps(dps: int):
    """Run a block at `dps` decimal digits, holding the precision lock."""
    with LOCK, mp.workdps(dps):
        yield


@dataclass(frozen=True)
class PrecReal:
    """A real number together with its claimed accuracy.

    `value` is accurate to a relative error of at most 10**(1 - digits),
    i.e. the first `digits` significant digits are trustworthy up to one
    unit in the last place.
    """

    value: mp.mpf
    digits: int

    def __post_init__(self):
        if self.digits < 1:
            raise ValueError("claimed digits must be >= 1")

    def __float__(self) -> float:
        return float(self.value)

    def __str__(self) -> str:
        return fmt_significant(self.value, self.digits)

    def eq_to(self, other: "PrecReal | mp.mpf | float", digits: int) -> bool:
        """True when self and other agree to `digits` significant digits.

        Agreement is relative for large magnitudes and absolute below 1,
        matching the tolerance convention used by the verifier.
        """
        claimed = self.digits
        oval = other
        if isinstance(other, PrecReal):
            claimed = min(claimed, other.digits)
            oval = other.value
        if digits > claimed:
            raise ValueError(
                f"cannot compare to {digits} digits: only {claimed} are claimed"
            )
        with at_dps(claimed + GUARD_DIGITS):
            diff = abs(self.value - mp.mpf(oval))
            scale = max(1, abs(self.value))
            return diff <= mp.mpf(10) ** (1 - digits) * scale


def fmt_significant(x, digits: int) -> str:
    """Render x with `digits` significant digits, mpmath-style."""
    with at_dps(digits + GUARD_DIGITS):
        return mp.nstr(mp.mpf(x), digits, strip_zeros=False)


# A run function: run(dps, budget, boost) is one uncertified value at the
# current precision dps, spending from the request's term budget. It calls
# only run functions, never a certified evaluator, so a value built from
# several (an identity's side, a reduction's atoms) is certified once.
Run = Callable[[int, Budget, int], mp.mpf]


def certified(run: Run, digits: int,
              what: object, max_terms: int | None = None) -> PrecReal:
    """Evaluate to `digits` certified digits with `run(dps, budget, boost)`.

    `run` computes one uncertified value at the current precision `dps`.
    It runs at two staggered precisions, each under `at_dps` and spending
    from one term budget of `max_terms`; the two values must agree to the
    claimed digits. A failed agreement or AccelerationError
    retries once with boost 1, which raises the run's internal
    thresholds, and then raises AccelerationError naming `what`.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    limit = DEFAULT_MAX_TERMS if max_terms is None else max_terms
    lo_dps = digits + GUARD_DIGITS
    last_exc: AccelerationError | None = None
    for boost in (0, 1):
        budget = Budget(limit)
        try:
            with at_dps(lo_dps):
                lo = run(lo_dps, budget, boost)
            with at_dps(lo_dps + 10):
                hi = run(lo_dps + 10, budget, boost)
        except AccelerationError as exc:
            last_exc = exc
            continue
        with at_dps(lo_dps):
            tol = mp.mpf(10) ** (1 - digits) * max(mp.mpf(1), abs(hi))
            if abs(lo - hi) <= tol:
                return PrecReal(hi, digits)
    detail = f" ({last_exc})" if last_exc is not None else ""
    raise AccelerationError(
        f"could not certify {digits} digits for {what}{detail}"
    ) from last_exc


def binomial_exact(n: int, k: int) -> int:
    """C(n, k) as an exact int, 0 outside the 0 <= k <= n range."""
    if n < 0:
        raise ValueError("negative n in binomial")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


@functools.lru_cache(maxsize=None)
def bernoulli_frac(n: int) -> Fraction:
    """Bernoulli number B_n as an exact Fraction (B_1 = -1/2 convention).

    Uses the defining recurrence sum_{j=0}^{n} C(n+1, j) B_j = 0. Quadratic
    in n, cached, and only ever needed for modest n (tails and even-zeta
    constants), so no fancier algorithm is warranted.
    """
    if n < 0:
        raise ValueError("negative Bernoulli index")
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(-1, 2)
    if n % 2 == 1:
        return Fraction(0)
    acc = Fraction(0)
    for j in range(n):
        acc += binomial_exact(n + 1, j) * bernoulli_frac(j)
    return -acc / binomial_exact(n + 1, n)


def zeta_even_rational(k: int) -> Fraction:
    """The rational r with zeta(k) = r * pi**k, for even k >= 2."""
    if k < 2 or k % 2 != 0:
        raise ValueError("zeta_even_rational needs even k >= 2")
    half = k // 2
    sign = -1 if half % 2 == 0 else 1
    return Fraction(sign * 2 ** (k - 1), math.factorial(k)) * bernoulli_frac(k)


def mpf_from_fraction(q: Fraction) -> mp.mpf:
    """Exact Fraction -> mpf at the current working precision."""
    return mp.mpf(q.numerator) / q.denominator
