"""Numeric summation engine against independent reference values.

The frozen constants below were produced by a separate evaluator built
only on mpmath primitives: factor partial sums written analytically via
Hurwitz zeta and digamma tails, consecutive terms paired to keep the
summand smooth, and the outer series fed to mpmath's adaptive nsum.
That route shares no code with the engine under test.
"""
import math
import sys
import threading
from fractions import Fraction

import mpmath as mp
import pytest

from helpers import close_digits
from eulersum.algebra import parse_symbolic
from eulersum.kernel import (AccelerationError, Budget, DivergentSumError,
                             PrecReal, at_dps, fmt_significant)
from eulersum import engine as engine_module
from eulersum.engine import (
    DEFAULT_MAX_TERMS,
    eval_I,
    eval_R,
    eval_polylog,
    eval_series,
    eval_sum,
    euler_gamma_value,
    lihalf_value,
    zeta_value,
    zetabar_value,
)
from eulersum.reduce import _FROZEN_ENTRIES
from eulersum.sumspec import Factor, parse_sumspec

# reference values, 36 digits each (independent evaluator, see module doc)
FROZEN_SUMS = [
    ("h(1)^2/n^2 alt", "0.656311551607752204630659246374290999"),
    ("h(1)*h(2)/n^2", "3.01423210544066604452845092794215974"),
    ("l(1)^2/n^3", "1.07480947372281777610886484448078459"),
    ("l(2)*h(1)/n^2 alt", "0.837379474295682582661632589059460664"),
    ("h(3)/n^5", "1.04178502918279188338999002080231238"),
    ("l(1)^3/n^2", "1.18656420780517313344083771549904350"),
    ("h(1)/n^4 alt", "0.923183373396940242574912394912593961"),
    ("h(2)^2/n^3 alt", "0.852463812744326373452844136947451620"),
    ("l(3)/n^3", "1.17917072978143807542268991649372306"),
    ("h(2)*h(3)/n alt", "0.593273284340843960250850059320023714"),
]

FROZEN_I = [
    (2, 3, "0.5", "0.144299007693274842504530249411787651"),
    (3, 2, "-0.7", "0.210383998184860178732286499740253052"),
    (1, 1, "0.25", "0.0375549103170281766929959557029756414"),
]

FROZEN_R = [
    (3, 2, "-0.485050977665856087412829366594899547"),
    (2, 3, "-0.598654621159369588022434442510341323"),
    (4, 1, "-0.405124201570536909837373821972155915"),
]


@pytest.mark.parametrize("spec,want", FROZEN_SUMS)
def test_eval_sum_against_independent_oracle(spec, want):
    got = eval_sum(spec, 30)
    with mp.workdps(45):
        assert close_digits(got, mp.mpf(want), 28)


def test_eval_sum_classical_closed_forms():
    with mp.workdps(45):
        assert close_digits(eval_sum("1/n^2", 30), mp.zeta(2), 28)
        assert close_digits(eval_sum("1/n alt", 30), mp.ln(2), 28)
        assert close_digits(eval_sum("h(1)/n^2", 30), 2 * mp.zeta(3), 28)
        # a power past the reach of the Euler-Maclaurin tail
        assert close_digits(eval_sum("1/n^700", 30), mp.zeta(700), 28)
        # sum H_n/n^3 = (5/4) zeta(4)
        assert close_digits(eval_sum("h(1)/n^3", 30),
                            mp.mpf(5) / 4 * mp.zeta(4), 28)
        # powers of H_n reach the Hurwitz zeta derivatives of order 2-4
        z = mp.zeta
        assert close_digits(eval_sum("h(1)^2/n^2", 30),
                            mp.mpf(17) / 4 * z(4), 28)
        assert close_digits(eval_sum("h(1)^3/n^2", 30),
                            10 * z(5) + z(2) * z(3), 28)
        assert close_digits(eval_sum("h(1)^4/n^2", 30),
                            mp.mpf(979) / 24 * z(6) + 3 * z(3) ** 2, 28)


@pytest.mark.parametrize("spec,closed", [
    ("h(1)/n alt", lambda: mp.zeta(2) / 2 - mp.log(2) ** 2 / 2),
    ("h(1)/n^2 alt", lambda: 5 * mp.zeta(3) / 8),
])
def test_alternating_closed_forms_at_100_digits(spec, closed):
    with mp.workdps(120):
        want = closed()
    assert close_digits(eval_sum(spec, 100), want, 99)


# alternating pieces only: the h-factor alt sums with q >= 2 of the
# benchmark's eval-alternating list, two over n, and one plain l sum
CVZ_SPECS = [
    "h(1)/n^2 alt", "h(1)/n^4 alt", "h(2)/n^3 alt", "h(3)/n^2 alt",
    "h(4)/n^4 alt", "h(1)^2/n^2 alt", "h(2)^2/n^3 alt", "h(1)*h(2)/n^3 alt",
    "h(1)*h(3)/n^2 alt", "h(1)^3/n^2 alt",
    "h(1)*h(2)/n alt", "h(2)*h(3)/n alt", "l(3)/n^2",
]


def test_alternating_pieces_stay_inside_the_dense_tables(monkeypatch):
    # every factor value the alternating summer needs is a table read,
    # at both boosts and up to 200 digits
    past = []
    for name in ("zl", "psi"):
        read = getattr(engine_module._Workspace, name)

        def spy(ws, k, n, read=read):
            past.append(n - ws.n_dense)
            return read(ws, k, n)

        monkeypatch.setattr(engine_module._Workspace, name, spy)
    engine_module._raw_slot.cache_clear()
    for boost in (0, 1):
        for dps in (30, 60, 200):
            with at_dps(dps):
                for text in CVZ_SPECS:
                    engine_module._eval_raw(parse_sumspec(text), dps,
                                            Budget(DEFAULT_MAX_TERMS), boost)
    assert past and max(past) <= 0


@pytest.mark.parametrize("dps", [45, 115, 215])
def test_hurwitz_tail_holds_every_digit_of_its_value(dps):
    # the Euler-Maclaurin tail is judged relative to its value, however
    # small; the reference has room for mpmath's absolute tolerance. Past
    # j = 2a (checked at 45 digits) the terms are summed directly.
    with at_dps(dps):
        ws = engine_module._workspace(dps, 0)
    a = ws.n_dense + 1
    for j in [2, 3, 10, 60, 200] + [2 * a + 1] * (dps == 45):
        for i in range(4):
            with at_dps(dps):
                got = ws.hurwitz_tail(j, i)
            with mp.workdps(2 * dps + 40 + math.ceil((j - 1) * math.log10(a))):
                want = (-1) ** i * mp.zeta(j, a, i)
                assert abs(got / want - 1) <= mp.mpf(10) ** (1 - dps), (j, i)


def _mpmath_value(text: str) -> mp.mpf:
    # a closed form of z(k), ln2 and lih(k) atoms, from mpmath's own values
    atoms = {"z": mp.zeta, "ln2": lambda k: mp.ln(2),
             "lih": lambda k: mp.polylog(k, mp.mpf(1) / 2)}
    total = mp.mpf(0)
    for mono, c in parse_symbolic(text):
        term = mp.mpf(c.numerator) / c.denominator
        for atom, e in mono.powers:
            term *= atoms[atom.tag](atom.order) ** e
        total += term
    return total


# the specs whose tails capped certification at 30-120 digits
CEILING_SPECS = [
    "l(1)/n^2 alt", "l(3)/n^2 alt", "l(3)/n alt", "l(5)/n alt",
    "h(1)*l(3)/n alt", "l(2)*l(3)/n alt", "l(1)*l(3)/n^2 alt",
    "h(1)*h(2)/n^2", "l(1)*h(2)/n^3", "h(1)/n^2",
]


def test_positive_pieces_certify_200_digits():
    got = {spec: eval_sum(spec, 200) for spec in CEILING_SPECS}
    z = mp.zeta
    with mp.workdps(215):
        want = {"h(1)/n^2": 2 * z(3), "h(1)*h(2)/n^2": z(2) * z(3) + z(5),
                **{spec: _mpmath_value(_FROZEN_ENTRIES[spec])
                   for spec in ("l(1)/n^2 alt", "l(3)/n^2 alt")}}
    for spec, value in want.items():
        assert close_digits(got[spec], value, 195), spec


def test_eval_sum_requested_digits_scale():
    for spec in ("h(1)^2/n^2 alt", "h(1)^2/n^3"):
        lo = eval_sum(spec, 15)
        hi = eval_sum(spec, 35)
        assert close_digits(lo, hi, 14)


def test_eval_sum_accepts_spec_object():
    spec = parse_sumspec("h(2)/n^3")
    assert close_digits(eval_sum(spec, 20), eval_sum("h(2)/n^3", 20), 19)


def test_eval_sum_divergent():
    for bad in ("h(1)/n", "1/n", "h(2)/n^0", "l(1)*h(1)/n"):
        with pytest.raises(DivergentSumError):
            eval_sum(bad, 20)


def test_eval_sum_budget_exhaustion():
    with pytest.raises(AccelerationError):
        eval_sum("l(3)*h(2)/n^2", 27, max_terms=120)
    assert DEFAULT_MAX_TERMS >= 10 ** 5


def test_cached_value_spends_budget():
    # a warm cache must not let a request through that a cold one refuses
    eval_sum("l(3)*h(2)/n^2", 27)
    with pytest.raises(AccelerationError):
        eval_sum("l(3)*h(2)/n^2", 27, max_terms=120)


def test_positive_piece_spends_budget():
    # a sum of one positive piece: its direct head alone needs more terms
    with pytest.raises(AccelerationError):
        eval_sum("h(1)/n^4", 30, max_terms=10)


def test_beta_coeffs_concurrent_fill():
    # two threads extending the same fresh coefficient list must not
    # interleave their appends; orders far above any spec's are fresh
    ks = range(401, 406)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for k in ks:
            start = threading.Barrier(2, timeout=30)

            def fill(k=k, start=start):
                start.wait()
                engine_module._beta_coeffs(k, 120)

            threads = [threading.Thread(target=fill) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
    finally:
        sys.setswitchinterval(old)
    for k in ks:
        raced = engine_module._BETA_COEFFS.pop(k)[:121]
        assert raced == engine_module._beta_coeffs(k, 120)[:121]


def test_eval_sum_is_thread_safe():
    # threads formatting and evaluating through the library while a cold
    # evaluation runs must neither break it nor change its value; three
    # threads beside the main one outnumber a 2-core machine's cores
    jobs = [("h(1)*h(3)/n alt", 60), ("h(2)^2/n^3 alt", 30)]
    serial = [eval_sum(spec, digits).value for spec, digits in jobs]
    engine_module._workspace.cache_clear()
    engine_module._raw_slot.cache_clear()
    stop = threading.Event()
    side: list = []

    def churn():
        while not stop.is_set():
            fmt_significant(mp.mpf(1) / 3, 5)

    def evaluate():
        try:
            side.append(eval_sum(*jobs[1]).value)
        except AccelerationError as exc:
            side.append(exc)

    threads = [threading.Thread(target=churn) for _ in range(2)]
    threads.append(threading.Thread(target=evaluate))
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        got = eval_sum(*jobs[0]).value
    finally:
        threads[-1].join(timeout=60)
        stop.set()
        for t in threads:
            t.join(timeout=60)
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert [got] + side == serial


def test_public_evaluators_refuse_precision_drift(monkeypatch):
    # an inner run whose error scales with its working precision must be
    # caught by the staggered runs, not returned as certified digits
    polylog = engine_module._polylog_mpf
    monkeypatch.setattr(
        engine_module, "_polylog_mpf",
        lambda p, x, ws, budget:
            polylog(p, x, ws, budget) + mp.mpf(10) ** (20 - ws.dps))
    with pytest.raises(AccelerationError):
        eval_polylog(2, 0.5, 30)
    zeta = engine_module._Workspace.zeta
    monkeypatch.setattr(
        engine_module._Workspace, "zeta",
        lambda ws, k: zeta(ws, k) + mp.mpf(10) ** (20 - ws.dps))
    with pytest.raises(AccelerationError):
        zeta_value(3, 30)


def test_short_tail_expansion_is_refused():
    # an expansion cut before its orders reach the target must raise, not
    # return the truncated sum
    with mp.workdps(45):
        ws = engine_module._Workspace(45)
        ws.tail_orders = 4
        piece, = engine_module._pieces(parse_sumspec("h(1)/n^4"), ws)
        budget = Budget(DEFAULT_MAX_TERMS)
        with pytest.raises(AccelerationError):
            engine_module._head_tail_sum(ws, piece, budget, mp.mpf(10) ** -43)


def test_eval_polylog_against_mpmath():
    with mp.workdps(45):
        for p, x in [(2, "0.5"), (3, "-0.8"), (5, "0.99"), (1, "0.25"),
                     (4, "-1")]:
            got = eval_polylog(p, mp.mpf(x), 32)
            assert close_digits(got, mp.polylog(p, mp.mpf(x)), 30)


def test_eval_polylog_domain():
    with pytest.raises(DivergentSumError):
        eval_polylog(1, 1, 20)


@pytest.mark.parametrize("p,q,x,want", FROZEN_I)
def test_eval_I_interior_points(p, q, x, want):
    with mp.workdps(45):
        got = eval_I(p, q, mp.mpf(x), 30)
        assert close_digits(got, mp.mpf(want), 28)


def test_eval_I_symmetry_in_first_arguments():
    # the double series is symmetric under (p,x-part) swap of k and m
    a = eval_I(2, 3, 1, 20)
    b = eval_I(3, 2, 1, 20)
    assert close_digits(a, b, 18)


def test_eval_I_at_one_known_value():
    # I(1,1) at x=1 is 2 zeta(3)
    with mp.workdps(40):
        assert close_digits(eval_I(1, 1, 1, 25), 2 * mp.zeta(3), 23)


@pytest.mark.parametrize("p,q,want", FROZEN_R)
def test_eval_R_frozen(p, q, want):
    with mp.workdps(45):
        assert close_digits(eval_R(p, q, 28), mp.mpf(want), 26)


def test_eval_series_geometric_weight():
    # sum H_n z^n/n^2 at z=1/2 = zeta(3) - (pi^2/12) ln 2
    with mp.workdps(45):
        want = mp.zeta(3) - mp.pi ** 2 / 12 * mp.ln(2)
        got = eval_series([(1, 1)], 2, Fraction(1, 2), 30)
        assert close_digits(got, want, 28)


def test_eval_series_matches_eval_sum_at_unit_arguments():
    # factor argument 1 gives h(2); outer z=-1 weights by (-1)**n, which is
    # the negative of the sumspec "alt" convention (-1)**(n-1)
    direct = eval_sum("h(2)/n^3 alt", 25)
    series = eval_series([(2, 1)], 3, -1, 25)
    with mp.workdps(40):
        flipped = PrecReal(-mp.mpf(series.value), series.digits)
    assert close_digits(direct, flipped, 23)


def test_eval_series_mixed_route():
    # one |x|<1 factor and no unit co-factor, at z = 1 and z = -1
    with mp.workdps(45):
        for x, z in [(Fraction(1, 3), 1), (Fraction(1, 3), -1),
                     (Fraction(-1, 2), 1), (Fraction(-1, 2), -1)]:
            got = eval_series([(2, x)], 2, z, 25)
            # independent: w_n(2,x) -> Li_2(x), tail decays like x^n;
            # direct summation at 45 dps
            acc = mp.mpf(0)
            w = mp.mpf(0)
            xm = mp.mpf(x.numerator) / x.denominator
            for n in range(1, 400):
                w += xm ** n / mp.mpf(n) ** 2
                acc += w * mp.mpf(z) ** n / mp.mpf(n) ** 2
            # tail: w_n ~ Li_2(x) so remainder ~ Li_2(x) * (Li_2(z) - partial)
            li = mp.polylog(2, xm)
            acc += li * (mp.polylog(2, z) - sum(mp.mpf(z) ** n / mp.mpf(n) ** 2
                                                for n in range(1, 400)))
            assert close_digits(got, acc, 20), (x, z)


def test_series_routes_spend_budget():
    # the direct series and the polylog/log-tail route of eval_I spend
    # the request's term budget like every other route
    with pytest.raises(AccelerationError):
        eval_series([(1, 1)], 2, Fraction(1, 2), 30, max_terms=1)
    with pytest.raises(AccelerationError):
        eval_I(2, 3, Fraction(1, 2), 30, max_terms=1)


def test_engine_constants_against_mpmath():
    with mp.workdps(50):
        assert close_digits(zeta_value(3, 40), mp.zeta(3), 38)
        assert close_digits(zetabar_value(1, 40), mp.ln(2), 38)
        assert close_digits(zetabar_value(5, 40),
                            (1 - mp.mpf(2) ** -4) * mp.zeta(5), 38)
        assert close_digits(lihalf_value(4, 40),
                            mp.polylog(4, mp.mpf(1) / 2), 38)
        assert close_digits(euler_gamma_value(40), mp.euler, 38)
