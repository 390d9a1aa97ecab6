"""Verification reports, tag resolution, and suite behavior."""
import importlib
import time

import mpmath as mp
import pytest

from helpers import close_digits
from eulersum.reduce import family_names, resolve_tag
from eulersum.verify import (
    VerificationReport,
    brute_euler,
    brute_fs,
    run_suite,
    suite_ok,
    suite_tags,
    table_constants,
    verify,
)
from eulersum.engine import eval_sum

# the package re-exports the function verify() under the module's name
verify_module = importlib.import_module("eulersum.verify")


def test_verify_benchmark_passes():
    report = verify("Eq(3.6)", 25)
    assert report.status == "pass"
    assert report.passed
    assert report.digits_agreed >= 25
    assert not report.negative_control


def test_verify_accepts_identity_objects():
    report = verify(resolve_tag("Eq(3.7)"), 20)
    assert report.passed
    assert report.provenance == "Eq(3.7)"


def test_negative_control_fails_loudly():
    report = verify("NegControl:Eq(3.6)", 25)
    assert report.status == "fail"
    assert report.negative_control
    assert report.digits_agreed <= 2
    assert report.ok  # a control behaving badly is the expected outcome


def test_verify_series_identity_with_args():
    # the argument is bound through the family parameter, off 1/2
    series = resolve_tag("product_expand(2,3,1/3)")
    report = verify(series, 15)
    assert report.passed
    assert report.provenance == "product_expand(2,3,1/3)"


@pytest.mark.parametrize("tag", ["I(4,4)", "brute:fs(1,2)",
                                 "product_expand(2,3)"])
def test_verify_rejects_tags_outside_the_suite_and_families(tag):
    # suite entries are looked up by their exact tag, never sliced apart
    with pytest.raises(ValueError):
        verify(tag, 15)


def test_unknown_tag_message_names_every_suite_tag_and_family():
    with pytest.raises(ValueError, match="unknown identity tag") as info:
        verify("I(4,4)", 15)
    message = str(info.value)
    for name in suite_tags() + family_names():
        assert name in message, name


@pytest.mark.parametrize("tag", ["thm2_9(2,0)", "cor3_3(1,0)"])
def test_alternating_families_pass_at_100_digits(tag):
    assert verify(tag, 100).passed


def test_report_json_shape():
    report = verify("Eq(3.7)", 15)
    blob = report.to_json()
    for key in ("provenance", "lhsValue", "rhsValue", "absDiff",
                "digitsRequested", "digitsAgreed", "pass", "status",
                "negativeControl", "elapsedSeconds"):
        assert key in blob
    assert blob["pass"] is True
    assert isinstance(blob["digitsAgreed"], int)


def test_report_determinism():
    a = verify("Eq(3.7)", 18).to_json()
    b = verify("Eq(3.7)", 18).to_json()
    a.pop("elapsedSeconds")
    b.pop("elapsedSeconds")
    assert a == b


def test_digits_agreed_monotone_in_request():
    low = verify("Eq(3.7)", 15)
    high = verify("Eq(3.7)", 25)
    assert low.digits_agreed <= high.digits_agreed


def test_inconclusive_on_budget_exhaustion():
    report = verify("table:l(1)*h(2)/n^3", 25, max_terms=120)
    assert report.status == "inconclusive"
    assert not report.passed
    assert report.note


def test_elapsed_includes_tag_resolution(monkeypatch):
    # a warm second call evaluates in milliseconds, so only the time spent
    # resolving the tag can lift elapsed past the sleep
    assert verify("Eq(3.7)", 15).passed
    real = verify_module.resolve_tag

    def slow_resolve(tag):
        time.sleep(0.05)
        return real(tag)

    monkeypatch.setattr(verify_module, "resolve_tag", slow_resolve)
    report = verify("Eq(3.7)", 15)
    assert report.passed
    assert report.elapsed >= 0.05


def test_table_constants_catalog():
    entries = table_constants()
    assert len(entries) == 8
    tags = [t for t, _, _, _ in entries]
    assert "table:Li4(1/2)" in tags
    assert "table:l(1)/n^5 alt" in tags
    # each printed value parses as a number
    with mp.workdps(45):
        for _, _, printed, cap in entries:
            assert mp.mpf(printed) > 0
            assert cap >= 20


def test_brute_reference_values_match_engine_route():
    # spot check: the independent brute value against the engine
    with mp.workdps(30):
        got = brute_euler(2, 16)
        want = eval_sum("h(1)/n^2", 16)
        assert close_digits(got, want, 13)
        got = brute_fs(2, 3, 16)
        want = eval_sum("h(2)/n^3", 16)
        assert close_digits(got, want, 13)


def test_brute_cutoff_is_converged(monkeypatch):
    # doubling the direct-sum cutoff moves no pair in its first 20 digits,
    # so the Euler-Maclaurin tails carry the rest of each sum
    def values(n):
        monkeypatch.setattr(verify_module, "_BRUTE_N", n)
        verify_module._brute_partials.cache_clear()
        return {pq: brute_fs(*pq, 25).value
                for pq in verify_module._BRUTE_PAIRS}

    try:
        base = values(verify_module._BRUTE_N)
        doubled = values(2 * verify_module._BRUTE_N)
    finally:
        verify_module._brute_partials.cache_clear()
    with mp.workdps(30):
        for pq, want in doubled.items():
            assert abs(base[pq] - want) <= mp.mpf(10) ** -20 * abs(want), pq


def test_brute_validation():
    with pytest.raises(ValueError):
        brute_euler(9)
    with pytest.raises(ValueError):
        brute_fs(2, 2)


def test_suite_tags_catalog():
    tags = suite_tags()
    assert len(tags) == 41
    assert tags[-1] == "NegControl:Eq(3.6)"
    assert sum(1 for t in tags if t.startswith("table:")) == 8
    assert sum(1 for t in tags if t.startswith("brute:")) == 11
    assert "Eq(3.10)" in tags and "closing" in tags


def test_verify_digits_floor():
    with pytest.raises(ValueError):
        verify("Eq(3.7)", 3)


def test_suite_ok_logic():
    good = VerificationReport("x", None, None, None, 10, 10, "pass",
                              False, 0.0)
    control_fail = VerificationReport("c", None, None, None, 10, 0, "fail",
                                      True, 0.0)
    control_pass = VerificationReport("c", None, None, None, 10, 10, "pass",
                                      True, 0.0)
    assert suite_ok([good, control_fail])
    assert not suite_ok([good, control_pass])
    assert not suite_ok([VerificationReport("y", None, None, None, 10, 0,
                                            "inconclusive", False, 0.0)])
