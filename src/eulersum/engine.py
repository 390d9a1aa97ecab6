"""Arbitrary-precision numeric evaluation of the supported series.

Strategy. Each inner alternating factor is split into its limit plus an
oscillating remainder,

    l(k) at n  =  etabar(k) + (-1)**(n-1) * psi_k(n),
    psi_k(n)   =  sum_{i>=1} (-1)**(i-1) / (n+i)**k  >  0,

while non-alternating factors are kept whole. Multiplying out turns the
requested sum into finitely many pieces that are either constant multiples
of zeta values, alternating series (accelerated with the Chebyshev scheme
of Cohen, Rodriguez Villegas and Zagier), or positive series with algebraic
decay at least 1/n**2. Every factor value a summer reads at a given n comes
from the dense tables of n <= n_dense: the alternating summer takes fewer
terms than n_dense at every precision and boost. The psi-series expansion
only seeds the psi tables; its smallest kept term is checked against the
precision target. Every sum past the tables, sum_{n>N} L**i n**-j with
L = ln n and N = n_dense, is the workspace's one Euler-Maclaurin pass at
N+1 (`hurwitz_tail`), stopped relative to the value; zeta(k) and Euler's
gamma are the table's last entry plus that tail.

A positive piece prod h(k)**e * prod psi_k**c / n**q is summed as a direct
head plus an exact asymptotic tail (after Flajolet and Salvy). The head
n <= N adds the summand from the dense factor tables, so it never runs an
expansion per term; hence N is n_dense, which grows with the working
precision and the boost. Past N the factor expansions in x = 1/n and L,
built from the exact Bernoulli and psi-series coefficients, are multiplied
into sum c_ij L**i x**j, and each term is summed by `hurwitz_tail`. The
expansion is carried to dps + 10 orders past its leading one (about
0.7 * dps are needed at N = n_dense) and summed until two consecutive
orders fall below the target. N and the order depend on the precision
alone, so the two staggered runs truncate differently.

Every public evaluator is a run function handed to `kernel.certified`,
which owns precision and certification: it runs the function at two
staggered precisions under the process-wide precision lock, compares the
two values to the claimed digits, retries once with raised internal
thresholds (boost 1), and otherwise raises AccelerationError. Run
functions compose: one built from others (`eval_I` at x = +-1 over
`_eval_raw`, say) calls them uncertified and spends the one term budget
of its request, so a derived value is certified once, as a whole.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import mpmath as mp

from .kernel import (
    DEFAULT_MAX_TERMS,
    AccelerationError,
    Budget,
    DivergentSumError,
    PrecReal,
    Rational,
    Run,
    binomial_exact,
    bernoulli_frac,
    certified,
    mpf_from_fraction,
)
from .sumspec import Factor, SumSpec, parse_sumspec

__all__ = [
    "eval_sum",
    "eval_polylog",
    "eval_series",
    "eval_I",
    "eval_R",
    "zeta_value",
    "zetabar_value",
    "ln2_value",
    "lihalf_value",
    "euler_gamma_value",
    "DEFAULT_MAX_TERMS",
]


# ---------------------------------------------------------------------------
# Exact asymptotic coefficients.
# ---------------------------------------------------------------------------

_BETA_COEFFS: dict[int, list[Fraction]] = {}


def _beta_coeffs(k: int, upto: int) -> list[Fraction]:
    """Coefficients c_m with psi-series  beta(k,x) ~ sum_m c_m x**-(k+m).

    From beta(k,x) + beta(k,x+1) = x**-k; c_0 = 1/2 and
    2 c_m = -sum_{r<m} c_r (-1)**(m-r) C(k+m-1, m-r).
    """
    coeffs = _BETA_COEFFS.get(k, [Fraction(1, 2)])
    if len(coeffs) > upto:
        return coeffs
    # extend a copy and publish it in one assignment, so a concurrent
    # caller never sees or appends to a half-built list
    coeffs = list(coeffs)
    while len(coeffs) <= upto:
        m = len(coeffs)
        acc = Fraction(0)
        for r in range(m):
            acc += coeffs[r] * (-1) ** (m - r) * binomial_exact(k + m - 1, m - r)
        coeffs.append(-acc / 2)
    _BETA_COEFFS[k] = coeffs
    return coeffs


@functools.lru_cache(maxsize=None)
def _zeta_tail_coeff(k: int, r: int) -> Fraction:
    # B_{2r}/(2r)! times the rising factorial k(k+1)...(k+2r-2).
    rise = math.prod(range(k, k + 2 * r - 1))
    return bernoulli_frac(2 * r) * rise / math.factorial(2 * r)


# ---------------------------------------------------------------------------
# Per-precision workspace.
# ---------------------------------------------------------------------------


class _Workspace:
    """Factor evaluators and constants cached for one working precision.

    All mpf values held here were created at `dps` decimal digits; only a
    run function that `kernel.certified` calls at `dps` may use it.
    """

    def __init__(self, dps: int, boost: int = 0):
        self.dps = dps
        self.boost = boost
        self.n_dense = math.ceil((1.5 + 0.5 * boost) * dps) + 32
        self.cvz_factor = 1.35 + 0.25 * boost
        # orders of the positive-tail expansion past its leading one
        self.tail_orders = dps + 10
        self.ln2 = mp.ln(2)
        self._lihalf: dict[int, mp.mpf] = {}
        self._zl_dense: dict[int, list[mp.mpf]] = {}
        self._psi_dense: dict[int, list[mp.mpf]] = {}
        self._beta_mpf: dict[int, list[mp.mpf]] = {}
        self._hurwitz: dict[tuple[int, int], mp.mpf] = {}
        self._em_weights: list[mp.mpf] = []

    # -- asymptotic series -------------------------------------------------

    def _adaptive_tail(self, first_terms: Iterable[tuple[mp.mpf, mp.mpf]],
                       target: mp.mpf, what: str) -> mp.mpf:
        """Sum an asymptotic series of (term, size) pairs, where size bounds
        |term| without the cancellation a sum of several parts may have,
        until two consecutive sizes fall below target, insisting the sizes
        are still shrinking at the cutoff.

        Exactly-zero coefficients occur mid-series (every second psi
        coefficient vanishes), so a single small term must not terminate.
        """
        acc = mp.mpf(0)
        prev = mp.inf
        below = 0
        for term, at in first_terms:
            acc += term
            if at < target:
                below += 1
                if below >= 2:
                    return acc
                continue
            below = 0
            if at > prev:
                raise AccelerationError(
                    f"asymptotic series for {what} bottomed out above the "
                    "precision target"
                )
            prev = at
        raise AccelerationError(f"asymptotic series for {what} ran too long")

    def _beta_asym(self, k: int, x) -> mp.mpf:
        xv = mp.mpf(x)
        lead = xv ** -k / 2
        target = mp.eps * abs(lead) / 16

        def terms():
            coeffs = self._beta_mpf.get(k, [])
            invx = 1 / xv
            power = xv ** -k
            m = 0
            while m < 6 * self.dps:
                if m >= len(coeffs):
                    # extended and published as in _beta_coeffs
                    coeffs = coeffs + [mpf_from_fraction(c) for c in
                                       _beta_coeffs(k, m + 15)[len(coeffs):]]
                    self._beta_mpf[k] = coeffs
                yield coeffs[m] * power, abs(coeffs[m]) * power
                power *= invx
                m += 1

        return self._adaptive_tail(terms(), target, f"psi series k={k}")

    def _em_weight(self, r: int) -> mp.mpf:
        """B_2r/(2r)! * a**(1-2r) at a = n_dense+1, converted once."""
        weights = self._em_weights
        if len(weights) < r:
            a = mp.mpf(self.n_dense + 1)
            # extended and published as in _beta_coeffs
            weights = weights + [
                mpf_from_fraction(bernoulli_frac(2 * m) / math.factorial(2 * m))
                * a ** (1 - 2 * m) for m in range(len(weights) + 1, r + 16)]
            self._em_weights = weights
        return weights[r - 1]

    def hurwitz_tail(self, j: int, i: int) -> mp.mpf:
        """sum_{n > n_dense} ln(n)**i n**-j = (-1)**i zeta^(i)(j, a), where
        a = n_dense+1, by Euler-Maclaurin at a for f(x) = ln(x)**i x**-j:

            sum_{n>=a} f(n) = int_a^oo f + f(a)/2 - sum_r B_2r/(2r)! f^(2r-1)(a)

        with int_a^oo f = a**(1-j) sum_k i!/k! ln(a)**k / (j-1)**(i-k+1) and
        f^(m)(a) = a**-(j+m) sum_k c_k ln(a)**k, whose integer c_k follow
        from d/dx ln(x)**k x**-s = x**-(s+1) (k ln(x)**(k-1) - s ln(x)**k).
        At j = 1 the integral is its finite part -ln(a)**(i+1)/(i+1), so
        zl(1, n_dense) + hurwitz_tail(1, 0) is Euler's gamma. Past j = 2a
        the series needs ever more terms (from j near 2*pi*a on, its terms
        grow from the first), while f(n) falls by e**(-j/a) < e**-2 per
        step, so there the terms f(n) are summed directly.
        """
        key = (j, i)
        val = self._hurwitz.get(key)
        if val is None:
            a = self.n_dense + 1
            ln_a = mp.ln(a)
            lpow = [1] + [ln_a ** k for k in range(1, i + 1)]
            power = mp.mpf(a) ** -j
            if j == 1:
                integral = -ln_a * lpow[i] / (i + 1)
            else:
                integral = a * power * mp.fsum(
                    math.factorial(i) // math.factorial(k) * lpow[k]
                    / mp.mpf(j - 1) ** (i - k + 1) for k in range(i + 1))
            head = integral + power * lpow[i] / 2
            target = mp.eps * abs(head) / 16
            what = f"tail j={j} i={i}"

            def corrections():
                # the series in units of a**-j; c is a**(j+m) f^(m)(a) in
                # powers of ln(a)
                c = [0] * i + [1, 0]
                for m in itertools.count(1):
                    c = [(k + 1) * c[k + 1] - (j + m - 1) * c[k]
                         for k in range(i + 1)] + [0]
                    if m % 2:
                        w = self._em_weight((m + 1) // 2)
                        yield (-w * sum(ck * lk for ck, lk in zip(c, lpow)),
                               abs(w) * sum(abs(ck) * lk
                                            for ck, lk in zip(c, lpow)))

            if j > 2 * a:
                terms = (mp.ln(n) ** i * mp.mpf(n) ** -j
                         for n in itertools.count(a))
                val = self._adaptive_tail(((t, t) for t in terms), target, what)
            else:
                val = head + power * self._adaptive_tail(
                    corrections(), target / power, what)
            self._hurwitz[key] = val
        return val

    # -- constants -----------------------------------------------------------

    @property
    def gamma(self) -> mp.mpf:
        return self.zl(1, self.n_dense) + self.hurwitz_tail(1, 0)

    def zeta(self, k: int) -> mp.mpf:
        if k < 2:
            raise ValueError("zeta needs k >= 2")
        return self.zl(k, self.n_dense) + self.hurwitz_tail(k, 0)

    def zetabar(self, k: int) -> mp.mpf:
        # alternating zeta; k = 1 is ln 2
        if k < 1:
            raise ValueError("alternating zeta needs k >= 1")
        if k == 1:
            return self.ln2
        return (1 - mp.mpf(2) ** (1 - k)) * self.zeta(k)

    def lihalf(self, k: int) -> mp.mpf:
        if k < 1:
            raise ValueError("polylog order must be >= 1")
        if k not in self._lihalf:
            acc = mp.mpf(0)
            x = mp.mpf(1)
            n = 1
            while True:
                x /= 2
                term = x / mp.mpf(n) ** k
                acc += term
                # geometric tail: remaining < term
                if term < mp.eps * acc / 8 and n > 4:
                    break
                n += 1
            self._lihalf[k] = acc
        return self._lihalf[k]

    # -- factor values -------------------------------------------------------

    def zl(self, k: int, n: int) -> mp.mpf:
        """Non-alternating inner factor value at 1 <= n <= n_dense (k = 1:
        harmonic); a read past the table raises IndexError."""
        dense = self._zl_dense.get(k)
        if dense is None:
            dense = [mp.mpf(0)]
            for j in range(1, self.n_dense + 1):
                dense.append(dense[-1] + mp.mpf(j) ** -k)
            self._zl_dense[k] = dense
        return dense[n]

    def psi(self, k: int, n: int) -> mp.mpf:
        """Oscillation amplitude of the alternating factor, beta(k, n+1),
        at 1 <= n <= n_dense; a read past the table raises IndexError."""
        dense = self._psi_dense.get(k)
        if dense is None:
            top = self.n_dense + 2
            val = self._beta_asym(k, top)
            dense = [mp.mpf(0)] * (self.n_dense + 1)
            for x in range(top - 1, 1, -1):
                val = mp.mpf(x) ** -k - val
                if x - 1 <= self.n_dense:
                    dense[x - 1] = val
            self._psi_dense[k] = dense
        return dense[n]


# Cache sizes. The benchmark workloads hold at most 6 workspaces and 164
# raw values per process and the 25-digit suite 8 and 94, so these sizes
# never evict there, while a long-lived process stays bounded: a
# workspace holds dense tables of about 1.5 * dps values per factor order.
WORKSPACE_CACHE_SIZE = 32
RAW_CACHE_SIZE = 1024


@functools.lru_cache(maxsize=WORKSPACE_CACHE_SIZE)
def _workspace(dps: int, boost: int) -> _Workspace:
    return _Workspace(dps, boost)


# ---------------------------------------------------------------------------
# Alternating series summation.
# ---------------------------------------------------------------------------


def _cvz_sum(a: Callable[[int], mp.mpf], n: int) -> mp.mpf:
    """sum_{k>=0} (-1)**k a(k) by the Chebyshev acceleration scheme.

    Error decays like (3+sqrt(8))**-n for sequences that are moments of a
    measure on [0,1]; callers validate the result independently.
    """
    d = (3 + 2 * mp.sqrt(2)) ** n
    d = (d + 1 / d) / 2
    b = mp.mpf(-1)
    c = -d
    s = mp.mpf(0)
    for k in range(n):
        c = b - c
        s += c * a(k)
        b *= mp.mpf((k + n) * (k - n)) / ((mp.mpf(2 * k + 1) / 2) * (k + 1))
    return s / d


def _alternating_sum(a: Callable[[int], mp.mpf], abs_err: mp.mpf,
                     ws: _Workspace) -> mp.mpf:
    """sum_{k>=0} (-1)**k a(k), aiming at |error| <= abs_err.

    The accelerated scheme runs with a term count matched to the ratio of
    the leading terms to abs_err; it takes at most
    cvz_factor * (dps + 8) + 12 < n_dense terms, so a summand built from
    the factor tables never reads past them. The two staggered runs of
    `kernel.certified` are the only judge of the result.
    """
    memo: dict[int, mp.mpf] = {}

    def av(k: int) -> mp.mpf:
        v = memo.get(k)
        if v is None:
            v = memo[k] = a(k)
        return v

    scale = max(abs(av(0)), abs(av(1)))
    if scale == 0:
        return mp.mpf(0)
    if abs_err <= 0:
        raise ValueError("abs_err must be positive")
    ratio = scale / abs_err
    dn = 1 if ratio <= 1 else min(int(mp.ceil(mp.log10(ratio))) + 1, ws.dps + 8)
    return _cvz_sum(av, int(ws.cvz_factor * dn) + 12)


# ---------------------------------------------------------------------------
# Piece decomposition of a sum specification.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Piece:
    coeff: object                       # mpf at the workspace precision
    alternating: bool
    zl: tuple[tuple[int, int], ...]     # (order, exponent), kept-whole factors
    psi: tuple[tuple[int, int], ...]    # (order, count), oscillation factors
    power: int


def _pieces(spec: SumSpec, ws: _Workspace) -> list[_Piece]:
    h_factors = tuple((f.order, f.exponent) for f in spec.factors if f.kind == "h")
    l_factors = [(f.order, f.exponent) for f in spec.factors if f.kind == "l"]
    out: list[_Piece] = []

    def rec(i: int, coeff: mp.mpf, parity: int, psi: list[tuple[int, int]]):
        if i == len(l_factors):
            alt = spec.alternating ^ (parity % 2 == 1)
            out.append(_Piece(coeff, alt, h_factors, tuple(psi), spec.power))
            return
        k, e = l_factors[i]
        eta = ws.zetabar(k)
        for c in range(e + 1):
            cf = coeff * binomial_exact(e, c) * eta ** (e - c)
            if c > 0:
                psi.append((k, c))
            rec(i + 1, cf, parity + c, psi)
            if c > 0:
                psi.pop()

    rec(0, mp.mpf(1), 0, [])
    return out


def _term_factory(ws: _Workspace, piece: _Piece,
                  budget: Budget) -> Callable[[int], mp.mpf]:
    zl, psi, q = piece.zl, piece.psi, piece.power

    def u(n: int) -> mp.mpf:
        budget.spend()
        acc = mp.mpf(n) ** -q
        for k, e in zl:
            acc *= ws.zl(k, n) ** e
        for k, c in psi:
            acc *= ws.psi(k, n) ** c
        return acc

    return u


# A truncated expansion in x = 1/n and L = ln n: {(j, i): c} is the sum of
# c * x**j * L**i over its entries.
_Expansion = dict[tuple[int, int], mp.mpf]


def _factor_expansion(ws: _Workspace, kind: str, k: int,
                      top: int) -> _Expansion:
    """Large-n expansion of one factor through x**top, from the exact
    Euler-Maclaurin and psi-series coefficients."""
    if kind == "h":
        # zeta(k) minus the Euler-Maclaurin tail sum_{j>n} j**-k; at k = 1
        # gamma and L stand for zeta(1) and -x**0/0
        out = {(0, 0): ws.gamma, (0, 1): mp.mpf(1)} if k == 1 else \
            {(0, 0): ws.zeta(k), (k - 1, 0): mp.mpf(-1) / (k - 1)}
        out[(k, 0)] = mp.mpf(1) / 2
        for r in range(1, (top - k + 1) // 2 + 1):
            out[(k - 1 + 2 * r, 0)] = -mpf_from_fraction(_zeta_tail_coeff(k, r))
    else:
        # psi_k(n) = n**-k - beta(k, n) = x**k/2 - sum_{m>=1} c_m x**(k+m)
        coeffs = _beta_coeffs(k, max(top - k, 0))
        out = {(k, 0): mp.mpf(1) / 2}
        for m in range(1, top - k + 1):
            if coeffs[m]:
                out[(k + m, 0)] = -mpf_from_fraction(coeffs[m])
    return {key: c for key, c in out.items() if key[0] <= top}


def _expansion_mul(a: _Expansion, b: _Expansion, top: int) -> _Expansion:
    out: _Expansion = {}
    for (ja, ia), ca in a.items():
        for (jb, ib), cb in b.items():
            j = ja + jb
            if j <= top:
                key = (j, ia + ib)
                out[key] = out.get(key, 0) + ca * cb
    return out


def _head_tail_sum(ws: _Workspace, piece: _Piece, budget: Budget,
                   abs_err: mp.mpf) -> mp.mpf:
    """sum_{n>=1} of a positive piece decaying at least like n**-2: the
    direct head n <= n_dense plus the closed-form tail of its large-n
    expansion (see the module docstring)."""
    alpha = piece.power + sum(k * c for k, c in piece.psi)
    if alpha < 2:
        raise DivergentSumError("positive part decays too slowly")
    u = _term_factory(ws, piece, budget)
    head = mp.fsum(u(n) for n in range(1, ws.n_dense + 1))

    top = alpha + ws.tail_orders
    series: _Expansion = {(piece.power, 0): mp.mpf(1)}
    factors = [("h", k, e) for k, e in piece.zl] + \
        [("psi", k, c) for k, c in piece.psi]
    for kind, k, e in factors:
        fac = _factor_expansion(ws, kind, k, top)
        for _ in range(e):
            series = _expansion_mul(series, fac, top)
    # Orders are taken two at a time: the Euler-Maclaurin parts step by
    # x**2, so single orders alternate in size.
    steps: dict[int, list[tuple[int, int, mp.mpf]]] = {}
    for (j, i), c in series.items():
        if c:
            steps.setdefault((j - alpha) // 2, []).append((j, i, c))

    def orders():
        for step in sorted(steps):
            val = size = mp.mpf(0)
            for j, i, c in steps[step]:
                budget.spend()
                # (-1)**i zeta^(i)(j, N+1) = sum_{n>N} ln(n)**i n**-j > 0
                z = ws.hurwitz_tail(j, i)
                val += c * z
                size += abs(c) * z
            yield val, size

    return head + ws._adaptive_tail(orders(), abs_err / 4,
                                    "positive tail expansion")


def _eval_pieces(spec: SumSpec, ws: _Workspace, budget: Budget) -> mp.mpf:
    pieces = _pieces(spec, ws)
    abs_target = mp.mpf(10) ** (2 - ws.dps)
    total = mp.mpf(0)
    for piece in pieces:
        per = abs_target / (len(pieces) * max(mp.mpf(1), abs(piece.coeff)))
        if not piece.zl and not piece.psi:
            if piece.alternating:
                val = ws.zetabar(piece.power)
            elif piece.power >= 2:
                val = ws.zeta(piece.power)
            else:
                raise DivergentSumError(str(spec))
        elif piece.alternating:
            u = _term_factory(ws, piece, budget)
            val = _alternating_sum(lambda m: u(m + 1), per, ws)
        else:
            val = _head_tail_sum(ws, piece, budget, per)
        total += piece.coeff * val
    return total


@functools.lru_cache(maxsize=RAW_CACHE_SIZE)
def _raw_slot(text: str, dps: int, boost: int) -> list[tuple[mp.mpf, int]]:
    # filled with (value, terms spent) by the first evaluation that finishes
    return []


def _eval_raw(spec: SumSpec, dps: int, budget: Budget, boost: int) -> mp.mpf:
    """One uncertified run. A cached value spends the terms its cold run
    spent, so whether a request fits its budget never depends on what the
    process evaluated before."""
    if not spec.converges():
        raise DivergentSumError(f"{spec} diverges")
    slot = _raw_slot(str(spec), dps, boost)
    if slot:
        val, cost = slot[0]
        budget.spend(cost)
        return val
    start = budget.remaining
    val = _eval_pieces(spec, _workspace(dps, boost), budget)
    slot.append((val, start - budget.remaining))
    return val


def eval_sum(spec: SumSpec | str, digits: int = 30,
             max_terms: int | None = None) -> PrecReal:
    """Evaluate the infinite sum described by `spec` to `digits` digits,
    certified by `kernel.certified`."""
    spec = parse_sumspec(spec) if isinstance(spec, str) else spec
    return certified(
        lambda dps, budget, boost: _eval_raw(spec, dps, budget, boost),
        digits, spec, max_terms)


# ---------------------------------------------------------------------------
# Polylogarithms and weighted variants.
# ---------------------------------------------------------------------------


def _polylog_mpf(p: int, x: mp.mpf, ws: _Workspace, budget: Budget) -> mp.mpf:
    if p < 1:
        raise ValueError("polylog order must be >= 1")
    if x == 1:
        if p < 2:
            raise DivergentSumError("polylog of order 1 diverges at 1")
        return ws.zeta(p)
    if x == -1:
        return -ws.zetabar(p)
    if abs(x) > 1:
        raise ValueError("polylog argument must satisfy |x| <= 1")
    if p == 1:
        return -mp.ln(1 - x)
    if abs(x) <= mp.mpf(1) / 2:
        acc = mp.mpf(0)
        xn = mp.mpf(1)
        n = 1
        while True:
            budget.spend()
            xn *= x
            acc += xn / mp.mpf(n) ** p
            if abs(xn) / (1 - abs(x)) < mp.eps * max(abs(acc), abs(x)) / 8:
                return acc
            n += 1
    if x > 0:
        # square the argument toward the small-|x| range
        return mp.mpf(2) ** (1 - p) * _polylog_mpf(p, x * x, ws, budget) \
            - _polylog_mpf(p, -x, ws, budget)
    ax = -x

    def a(k: int) -> mp.mpf:
        budget.spend()
        return ax ** (k + 1) / mp.mpf(k + 1) ** p

    return -_cvz_sum(a, int(ws.cvz_factor * ws.dps) + 12)


# The builders below check their arguments once and return a run function
# (see `kernel.Run`); each public evaluator hands one to `certified`.


def _polylog_run(p: int, x) -> Run:
    return lambda dps, budget, boost: \
        _polylog_mpf(p, _to_mpf_arg(x), _workspace(dps, boost), budget)


def eval_polylog(p: int, x, digits: int = 30) -> PrecReal:
    """Polylogarithm of integer order p >= 1 at real x, |x| <= 1."""
    return certified(_polylog_run(p, x), digits, f"Li_{p}({x})")


def _to_mpf_arg(x):
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpf(x)


# ---------------------------------------------------------------------------
# Double series with the coupled denominator.
# ---------------------------------------------------------------------------


def _harmonic_spec(power: int) -> SumSpec:
    return SumSpec((Factor("h", 1),), power)


def _l1_spec(power: int, alternating: bool = False) -> SumSpec:
    return SumSpec((Factor("l", 1),), power, alternating)


def _I_run(p: int, q: int, x) -> Run:
    if p < 1 or q < 1:
        raise ValueError("need p >= 1 and q >= 1")
    if abs(x) > 1:
        raise ValueError("argument must satisfy |x| <= 1")
    w = p + q

    def run(dps: int, budget: Budget, boost: int) -> mp.mpf:
        xv = _to_mpf_arg(x)
        ws = _workspace(dps, boost)
        acc = mp.mpf(0)
        if xv == 1:
            for j in range(2, q + 1):
                acc += (-1) ** (q - j) * ws.zeta(j) * ws.zeta(w + 1 - j)
            inner = _eval_raw(_harmonic_spec(w), dps, budget, boost)
            return acc + (-1) ** (q - 1) * inner
        if xv == -1:
            for j in range(1, q + 1):
                acc += (-1) ** (q - j) * ws.zetabar(j) * ws.zetabar(w + 1 - j)
            plain = _eval_raw(_l1_spec(w), dps, budget, boost)
            return acc + (-1) ** q * (plain - ws.ln2 * ws.zeta(w))
        for j in range(1, q + 1):
            acc += ((-1) ** (q - j) * _polylog_mpf(j, xv, ws, budget)
                    * _polylog_mpf(w + 1 - j, xv, ws, budget))
        return acc + (-1) ** q * _log_tail_series(xv, w, ws, budget)

    return run


def eval_I(p: int, q: int, x=1, digits: int = 30,
           max_terms: int | None = None) -> PrecReal:
    """sum_{k,m>=1} x**(k+m) / (k**p m**q (k+m)) for -1 <= x <= 1.

    The inner index is resolved exactly by the partial-fraction split of
    1/(m**q (m+k)), leaving polylog products plus a single tail series.
    """
    return certified(_I_run(p, q, x), digits, f"I({p},{q};{x})", max_terms)


def _log_tail_series(xv: mp.mpf, w: int, ws: _Workspace,
                     budget: Budget) -> mp.mpf:
    """sum_{k>=1} tail_k / k**w with tail_k = sum_{j>k} x**j / j, |x| < 1."""
    ax = abs(xv)
    kmax = int(mp.ceil((ws.dps + 6) * mp.ln(10) / mp.ln(1 / ax))) + 8
    # seed the deepest tail directly, then extend downward exactly
    tail = mp.mpf(0)
    xj = xv ** (kmax + 1)
    j = kmax + 1
    while True:
        budget.spend()
        tail += xj / j
        if ax ** (j + 1) / (1 - ax) < mp.eps * ax ** (kmax + 1) / 8:
            break
        xj *= xv
        j += 1
    acc = mp.mpf(0)
    xk = xv ** kmax
    for k in range(kmax, 0, -1):
        budget.spend()
        acc += tail / mp.mpf(k) ** w
        tail += xk / k
        xk /= xv
    return acc


def _R_run(p: int, q: int) -> Run:
    if p < 1 or q < 1:
        raise ValueError("need p >= 1 and q >= 1")
    w = p + q

    def run(dps: int, budget: Budget, boost: int) -> mp.mpf:
        ws = _workspace(dps, boost)
        acc = mp.mpf(0)
        for j in range(1, q + 1):
            acc -= (-1) ** (q - j) * ws.zetabar(j) * ws.zeta(w + 1 - j)
        alt = _eval_raw(_l1_spec(w, alternating=True), dps, budget, boost)
        return acc + (-1) ** q * (ws.ln2 * ws.zetabar(w) - alt)

    return run


def eval_R(p: int, q: int, digits: int = 30,
           max_terms: int | None = None) -> PrecReal:
    """sum_{k,m>=1} (-1)**m / (k**p m**q (k+m)).

    Same partial-fraction treatment as eval_I, with only the inner index
    carrying the sign.
    """
    return certified(_R_run(p, q), digits, f"R({p},{q})", max_terms)


# ---------------------------------------------------------------------------
# Generalized inner-weighted series.
# ---------------------------------------------------------------------------


def _unit_spec(facs, power: int, zf: Fraction) -> tuple[SumSpec, int]:
    """sum_n prod w_n(l, +-1) z**n / n**power with z = +-1, as sign * spec:
    w_n(l, 1) is h(l) at n and w_n(l, -1) is -l(l) at n."""
    spec = SumSpec(
        tuple(Factor("h" if x == 1 else "l", l) for l, x in facs),
        power,
        alternating=(zf == -1),
    )
    if not spec.converges():
        raise DivergentSumError("series diverges")
    neg = sum(1 for _, x in facs if x == -1)
    return spec, (-1) ** neg * (-1 if zf == -1 else 1)


def _series_run(factors: Sequence[tuple[int, Rational]], power: int,
                z: Rational) -> Run:
    facs = [(int(l), Fraction(x)) for l, x in factors]
    for l, x in facs:
        if l < 1:
            raise ValueError("factor order must be >= 1")
        if abs(x) > 1:
            raise ValueError("factor arguments must satisfy |x| <= 1")
    zf = Fraction(z)
    if abs(zf) > 1:
        raise ValueError("outer argument must satisfy |z| <= 1")

    if abs(zf) < 1:
        return lambda dps, budget, boost: \
            _series_direct(facs, power, zf, _workspace(dps, boost), budget)
    small = [i for i, (_, x) in enumerate(facs) if abs(x) < 1]
    if not small:
        spec, sign = _unit_spec(facs, power, zf)
        return lambda dps, budget, boost: \
            sign * _eval_raw(spec, dps, budget, boost)
    if len(small) > 1:
        raise ValueError("unsupported argument combination for eval_series")
    fac = facs[small[0]]
    spec, sign = _unit_spec(facs[:small[0]] + facs[small[0] + 1:], power, zf)
    return lambda dps, budget, boost: _series_mixed(
        fac, spec, sign, _workspace(dps, boost), budget)


def eval_series(factors: Sequence[tuple[int, Rational]], power: int, z: Rational,
                digits: int = 30, max_terms: int | None = None) -> PrecReal:
    """sum_n (prod_i w_n(l_i, x_i)) z**n / n**power, where
    w_n(l, x) = sum_{j<=n} x**j / j**l.

    Supported: every argument in {1, -1} (the sum `eval_sum` evaluates);
    |z| < 1 with any |x_i| <= 1 (direct summation); and z = +-1 with
    exactly one factor of |x| < 1 (the all-unit sum times Li_l(x), plus a
    geometrically decaying correction).
    """
    run = _series_run(factors, power, z)
    weights = "*".join(f"w({l},{Fraction(x)})" for l, x in factors)
    return certified(run, digits, f"{weights}*({Fraction(z)})^n/n^{power}",
                     max_terms)


def _series_direct(facs, power: int, zf: Fraction, ws: _Workspace,
                   budget: Budget) -> mp.mpf:
    zv = _to_mpf_arg(zf)
    az = abs(zv)
    d_log = sum(1 for l, _ in facs if l == 1)
    cbound = mp.mpf(1)
    for l, _ in facs:
        if l >= 2:
            cbound *= ws.zeta(l)
    xs = [_to_mpf_arg(x) for _, x in facs]
    partials = [mp.mpf(0)] * len(facs)
    xpow = [mp.mpf(1)] * len(facs)
    acc = mp.mpf(0)
    zn = mp.mpf(1)
    n = 1
    while True:
        budget.spend()
        term = mp.mpf(n) ** -power
        for i, (l, _) in enumerate(facs):
            xpow[i] *= xs[i]
            partials[i] += xpow[i] / mp.mpf(n) ** l
            term *= partials[i]
        zn *= zv
        acc += term * zn
        if n >= 2 * d_log + 4:
            rho = az * mp.e ** (mp.mpf(d_log) / (n + 1))
            if rho < 1:
                bound = (2 * cbound * (1 + mp.ln(n)) ** d_log
                         * az ** (n + 1) / (1 - rho))
                if bound < mp.eps * max(abs(acc), az) / 8:
                    return acc
        n += 1


def _series_mixed(fac: tuple[int, Fraction], spec: SumSpec, sign: int,
                  ws: _Workspace, budget: Budget) -> mp.mpf:
    """z = +-1 with exactly one |x| < 1 factor `fac`; the +-1 co-factors
    and z make up the all-unit sum sign * spec (z = -1 when it alternates).

    Splitting w_n(l, x) = Li_l(x) - t_n with t_n = sum_{k>n} x**k/k**l
    reduces the head to the all-unit case; the t_n correction decays
    geometrically, so it is summed directly with tails filled backward.
    """
    l0, x0 = fac
    if x0 == 0:
        return mp.mpf(0)
    xv = _to_mpf_arg(x0)
    ax = abs(xv)
    head = sign * _eval_raw(spec, ws.dps, budget, ws.boost)
    head *= _polylog_mpf(l0, xv, ws, budget)

    # correction: sum_n (prod of the co-factors' w_n) t_n z**n / n**power
    nmax = int(mp.ceil((ws.dps + 8) * mp.ln(10) / mp.ln(1 / ax))) + 16
    seed_len = nmax + int(mp.ceil(mp.ln(4 / (1 - ax)) / mp.ln(1 / ax))) + 8
    tail = mp.mpf(0)
    xk = xv ** (nmax + 1)
    for k in range(nmax + 1, seed_len + 1):
        tail += xk / mp.mpf(k) ** l0
        xk *= xv
    tails = [mp.mpf(0)] * (nmax + 1)
    tails[nmax] = tail
    for n in range(nmax, 1, -1):
        tails[n - 1] = tails[n] + xv ** n / mp.mpf(n) ** l0
    zv = -1 if spec.alternating else 1
    # w_n(l, 1) and w_n(l, -1), for the co-factors h(l) and l(l) of spec
    partials = [mp.mpf(0)] * len(spec.factors)
    corr = mp.mpf(0)
    zn = mp.mpf(1)
    for n in range(1, nmax + 1):
        budget.spend()
        zn *= zv
        term = zn / mp.mpf(n) ** spec.power
        for i, f in enumerate(spec.factors):
            sgn = 1 if f.kind == "h" or n % 2 == 0 else -1
            partials[i] += sgn / mp.mpf(n) ** f.order
            term *= partials[i] ** f.exponent
        corr -= term * tails[n]
    return head + corr


# ---------------------------------------------------------------------------
# Named constants.
# ---------------------------------------------------------------------------


def _const(digits: int, what: str, maker) -> PrecReal:
    return certified(
        lambda dps, budget, boost: maker(_workspace(dps, boost)),
        digits, what)


def zeta_value(k: int, digits: int = 30) -> PrecReal:
    return _const(digits, f"z({k})", lambda ws: ws.zeta(k))


def zetabar_value(k: int, digits: int = 30) -> PrecReal:
    return _const(digits, f"zb({k})", lambda ws: ws.zetabar(k))


def ln2_value(digits: int = 30) -> PrecReal:
    return _const(digits, "ln2", lambda ws: ws.ln2)


def lihalf_value(k: int, digits: int = 30) -> PrecReal:
    return _const(digits, f"lih({k})", lambda ws: ws.lihalf(k))


def euler_gamma_value(digits: int = 30) -> PrecReal:
    return _const(digits, "gamma", lambda ws: ws.gamma)
