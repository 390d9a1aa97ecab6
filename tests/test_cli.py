"""Command-line interface: output contracts and exit codes."""
import json
from fractions import Fraction

import mpmath as mp
import pytest

import eulersum.cli as cli
from eulersum.algebra import sv_add, sv_rational
from eulersum.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def sig_digit_count(text: str) -> int:
    body = text.strip().lstrip("-").replace(".", "")
    if "e" in body:
        body = body.split("e")[0]
    return len(body.lstrip("0"))


def test_eval_prints_exact_digit_count(capsys):
    for digits in (8, 17, 30):
        code, out, _ = run(capsys, "eval", "h(1)/n^2", "--digits",
                           str(digits))
        assert code == 0
        assert sig_digit_count(out) == digits


def test_eval_value_is_correct(capsys):
    code, out, _ = run(capsys, "eval", "h(1)/n^2", "--digits", "20")
    assert code == 0
    with mp.workdps(30):
        assert abs(mp.mpf(out.strip()) - 2 * mp.zeta(3)) < mp.mpf(10) ** -18


def test_eval_json_contract(capsys):
    code, out, _ = run(capsys, "eval", "l(1)/n^5", "--digits", "15",
                       "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["v"] == 1
    assert blob["spec"] == "l(1)/n^5"
    assert blob["digits"] == 15
    assert sig_digit_count(blob["value"]) == 15
    assert blob["errorBound"].startswith("1e")


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "eval", "x(2)/n")
    assert code == 1
    assert "offset 0" in err


def test_divergent_exit_code(capsys):
    code, _, err = run(capsys, "eval", "h(1)/n")
    assert code == 2
    assert "diverge" in err.lower()


def test_reduce_text_and_cross_check(capsys):
    code, out, _ = run(capsys, "reduce", "h(2)*h(3)/n alt", "--digits", "20")
    assert code == 0
    assert "z(" in out
    assert "cross-check delta" in out


def test_reduce_exits_3_when_cross_check_fails(capsys, monkeypatch):
    # a reduction off by 1e-20 must fail the 25-digit cross-check
    true_reduction = cli.reduce_quadratic
    monkeypatch.setattr(
        cli, "reduce_quadratic",
        lambda spec: sv_add(true_reduction(spec),
                            sv_rational(Fraction(1, 10 ** 20))))
    code, out, err = run(capsys, "reduce", "h(2)*h(3)/n alt",
                         "--digits", "25")
    assert code == 3
    assert "cross-check delta" in out
    assert "disagrees" in err


def test_reduce_json_reduction_agrees_with_eval(capsys):
    code, out, _ = run(capsys, "reduce", "h(2)*h(3)/n alt", "--digits", "20",
                       "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["v"] == 1
    code2, out2, _ = run(capsys, "eval", "h(2)*h(3)/n alt", "--digits", "20")
    with mp.workdps(30):
        delta = abs(mp.mpf(blob["value"]) - mp.mpf(out2.strip()))
        # d-3 digit agreement between reduction and direct evaluation
        assert delta < mp.mpf(10) ** (3 - 20)


def test_reduce_uncovered_exit_code(capsys):
    code, _, err = run(capsys, "reduce", "h(2)*h(4)/n alt")
    assert code == 2
    assert "covered" in err


def test_verify_pass_and_fail_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "--id", "Eq(3.7)", "--digits", "15")
    assert code == 0
    assert "pass" in out
    code, out, _ = run(capsys, "verify", "--id", "NegControl:Eq(3.6)",
                       "--digits", "15")
    assert code == 3


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--id", "S1:l(2)/n^2",
                       "--digits", "15", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["v"] == 1
    assert blob["pass"] is True
    assert blob["provenance"] == "S1:l(2)/n^2"


def test_verify_unknown_tag(capsys):
    code, _, err = run(capsys, "verify", "--id", "Eq(9.9)")
    assert code == 1
    assert "unknown identity tag" in err


def test_verify_tag_outside_the_suite_exits_1(capsys):
    # I(p,q) is a suite entry only for its five listed pairs
    code, _, err = run(capsys, "verify", "--id", "I(4,4)")
    assert code == 1
    assert "unknown identity tag" in err


def test_constants_lists_eight_entries(capsys):
    code, out, _ = run(capsys, "constants", "--digits", "12")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert len(lines) == 8
    assert lines[0].startswith("Li4(1/2)")
    for line in lines:
        name, _, value = line.partition(" = ")
        assert sig_digit_count(value) == 12


def test_constants_json(capsys):
    code, out, _ = run(capsys, "constants", "--digits", "10", "--format",
                       "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["v"] == 1
    assert len(blob["entries"]) == 8


def test_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval"])  # missing spec
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["eval", "h(1)/n^2", "--digits", "4"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 1


def test_max_terms_flows_to_engine(capsys, monkeypatch):
    code, _, err = run(capsys, "eval", "l(1)*h(2)/n^3", "--digits", "30",
                       "--max-terms", "120")
    assert code == 2
    assert "budget" in err or "max-terms" in err
    # verify reports the exhausted budget as inconclusive
    code, out, _ = run(capsys, "verify", "--id", "table:l(1)*h(2)/n^3",
                       "--max-terms", "120")
    assert code == 3
    assert "inconclusive" in out
    # --max-terms is the only way to set the budget
    monkeypatch.setenv("EULERSUM_MAX_TERMS", "120")
    code, _, _ = run(capsys, "eval", "l(1)*h(2)/n^3", "--digits", "30")
    assert code == 0


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
