"""Tests of the benchmark itself (not of eulersum).

    python3 -m pytest perfbench
"""
import json

import mpmath as mp
import pytest

import run
from workloads import (ALTERNATING_SPECS, BRUTE_TAGS, POSITIVE_SPECS,
                       REDUCE_SPECS, WORKLOADS, Spec, requests, verify_kind)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_list(workload):
    assert requests(workload, 7) == requests(workload, 7)
    if workload != "reduce":   # the reduce list is the same for every seed
        assert requests(workload, 7) != requests(workload, 8)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_requests_are_distinct(workload):
    reqs = requests(workload, 3)
    keys = [(r.get("spec") or r["tag"], r["digits"]) for r in reqs]
    assert len(set(keys)) == len(keys)


@pytest.mark.parametrize("text", ["h(2)*h(3)/n alt", "l(3)/n^4"])
def test_alternating_only_cases(text):
    assert Spec.parse(text).alternating_only


@pytest.mark.parametrize("text", ["l(1)/n^2 alt", "l(1)^2/n^3", "h(1)/n^2"])
def test_positive_cases(text):
    assert not Spec.parse(text).alternating_only


def test_spec_lists_hold_what_they_say():
    assert all(Spec.parse(s).alternating_only for s in ALTERNATING_SPECS)
    assert not any(Spec.parse(s).alternating_only for s in POSITIVE_SPECS)
    assert all(Spec.parse(s).alternating_only for s in REDUCE_SPECS)
    for s in ALTERNATING_SPECS + POSITIVE_SPECS + REDUCE_SPECS:
        assert str(Spec.parse(s)) == s   # canonical, as the package prints it


def test_spec_text_round_trip():
    for text in ["h(1)^2/n^2 alt", "h(1)*l(2)/n^3", "l(1)/n"]:
        assert str(Spec.parse(text)) == text
    assert str(Spec.parse("l(2)*h(1)/n^3")) == "h(1)*l(2)/n^3"
    assert Spec.parse("h(2)*h(3)/n alt").weight == 6


def test_verify_list_has_brute_and_control():
    for seed in range(5):
        kinds = [r["kind"] for r in requests("verify", seed)]
        assert kinds.count("brute") == 1 and kinds.count("control") == 1
    assert verify_kind("NegControl:Eq(3.6)") == "control"
    assert verify_kind("Eq(3.7)") == "identity"
    assert all(verify_kind(t) == "brute" for t in BRUTE_TAGS)


def test_no_tail_below_forty_samples():
    assert run.tail_percentile(39) is None
    assert run.tail_latency([0.1] * 39) is None
    assert run.tail_percentile(40) == 75
    assert run.tail_percentile(50) == 80
    pct, value = run.tail_latency([float(i) for i in range(1, 51)])
    assert (pct, value) == (80, 40.0)   # ten samples lie beyond it


def test_eval_alternating_is_long_enough_for_a_tail():
    assert run.tail_percentile(len(requests("eval-alternating", 1))) == 80


def test_checker_rejects_last_checked_digit():
    want = run.load_references()["h(2)*h(3)/n alt"]
    digits = run.CHECK_DIGITS
    assert run.matches(want, want)
    with mp.workdps(60):
        w = mp.mpf(want)
        ulp = mp.mpf(10) ** (mp.floor(mp.log10(abs(w))) - digits + 1)
        for bumped in (w + ulp, w - ulp):
            text = mp.nstr(bumped, digits + 5)
            assert not run.matches(text, want)
            req = {"spec": "h(2)*h(3)/n alt", "digits": 30}
            assert run.check("eval-alternating", req, {"value": text},
                             {req["spec"]: want})


def test_reduce_checker_rejects_wrong_weight_and_value():
    req = {"spec": "h(2)*h(3)/n alt", "digits": 20}
    good = {"agree": True, "direct": "0.5932732843408439602508",
            "reduced": "0.5932732843408439602508", "weight": 6}
    assert run.check("reduce", req, good, {}) is None
    assert run.check("reduce", req, dict(good, weight=7), {})
    assert run.check("reduce", req, dict(good, reduced="0.59327328434084396"
                                          "1"), {})


def test_verify_checker_expects_control_to_fail():
    control = {"tag": "NegControl:Eq(3.6)", "kind": "control"}
    plain = {"tag": "Eq(3.7)", "kind": "identity"}
    assert run.check("verify", control, {"status": "fail"}, {}) is None
    assert run.check("verify", control, {"status": "pass"}, {})
    assert run.check("verify", plain, {"status": "pass"}, {}) is None
    assert run.check("verify", plain, {"status": "fail"}, {})


def test_references_cover_every_eval_spec():
    refs = run.load_references()
    assert set(ALTERNATING_SPECS + POSITIVE_SPECS) <= refs.keys()


def test_metrics_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    record = {"import_s": 0.1, "outputs": [], "spans": []}
    layers = run.layer_metrics(record)
    assert [m["name"] for m in spec["per_layer"]] == list(layers)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert run.unit_of(m["name"]) == m["unit"]
    assert {m["name"] for m in spec["end_to_end"]} == {
        "latency_p50_s", "requests_per_s", "setup_s", "peak_rss_mb"}


def test_self_time_subtracts_children():
    record = {"import_s": 0.1, "outputs": [], "spans": [
        ["request", 0.0, 10.0, None, 0, None],
        ["sumspec.parse", 0.0, 1.0, 0, 0, None],
        ["engine.eval_sum", 1.0, 4.0, 0, 0, {"spec": "l(3)/n^4", "digits": 30}],
        ["engine.eval_sum", 4.0, 10.0, 0, 0, {"spec": "l(3)/n^4", "digits": 60}],
    ]}
    m = run.layer_metrics(json.loads(json.dumps(record)))
    assert m["engine.eval_sum_s"] == 9.0
    assert m["engine.eval_sum_calls"] == 2
    assert m["engine.alternating_only_s"] == 9.0
    assert m["engine.positive_s"] == 0.0
    assert m["engine.digits60_over_30"] == 2.0
    assert m["sumspec.parse_s"] == 1.0
