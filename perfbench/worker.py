"""Benchmark worker: one fresh interpreter runs one request list.

run.py starts this file with the package under test on PYTHONPATH and
the job (workload, requests, trace flag) as JSON on stdin. The worker
imports eulersum, does the workload's set-up, writes "ready" on stdout,
runs the requests one at a time in list order, and writes one JSON line
with per-request times, outputs and (when traced) spans.

    python3 perfbench/worker.py --probe

imports, writes "ready" and stops; run.py uses such probes to time
fresh starts.

Spans are recorded only around the calls this file makes into the
package's modules; each is [name, start, end, parent index, request
index, attributes]. Untraced runs make the same calls without spans,
except that a traced `verify` request is split into the public calls it
is made of (resolve_tag, numeric_lhs, numeric_rhs, brute_euler) before
verify() gives the verdict from the values those calls cached.
"""
from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from types import SimpleNamespace

# the frozen-table key whose lookup triggers the one-off self-check
TABLE_KEY = "h(1)/n^3 alt"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.request: int | None = None

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent, self.request,
               attrs or None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()


class NoTracer:
    spans: tuple = ()
    request = None

    def span(self, name: str, **attrs):
        return nullcontext()


def _atoms(value) -> list[str]:
    return sorted({atom.text() for mono, _ in value.terms
                   for atom, _ in mono.powers})


def _eval(es, req, tr):
    with tr.span("sumspec.parse"):
        spec = es.parse_sumspec(req["spec"])
    with tr.span("engine.eval_sum", spec=req["spec"], digits=req["digits"]):
        val = es.eval_sum(spec, req["digits"])
    return lambda: {"value": es.fmt_significant(val.value, val.digits + 2)}


def _reduce(es, req, tr):
    digits = req["digits"]
    with tr.span("sumspec.parse"):
        spec = es.parse_sumspec(req["spec"])
    with tr.span("reduce.reduce_quadratic"):
        reduced = es.reduce_quadratic(spec)
    with tr.span("engine.eval_sum", spec=req["spec"], digits=digits):
        direct = es.eval_sum(spec, digits)
    with tr.span("algebra.sv_numeric"):
        approx = es.sv_numeric(reduced, digits)
    agree = direct.eq_to(approx, digits)
    return lambda: {
        "direct": es.fmt_significant(direct.value, digits + 2),
        "reduced": es.fmt_significant(approx.value, digits + 2),
        "agree": agree,
        "weight": es.weight_of(reduced),
        "atoms": _atoms(reduced),
    }


def _verify(es, req, tr, kind):
    tag, digits = req["tag"], req["digits"]
    atoms = None
    if isinstance(tr, Tracer):
        if kind in ("identity", "control"):
            # the negative control has the left side of the tag it bumps
            base = tag.split(":", 1)[1] if kind == "control" else tag
            with tr.span("reduce.resolve_tag"):
                ident = es.resolve_tag(base)
            with tr.span("verify.lhs"):
                ident.numeric_lhs(digits)
            if kind == "identity":
                with tr.span("verify.rhs"):
                    ident.numeric_rhs(digits)
                atoms = _atoms(ident.rhs)
        elif kind == "brute":
            # every brute: tag reads the same shared 10^5-term pass
            with tr.span("verify.brute"):
                es.brute_euler(2)
    with tr.span("verify.verify"):
        report = es.verify(tag, digits)
    return lambda: {"status": report.status,
                    "negative_control": report.negative_control,
                    "digits_agreed": report.digits_agreed,
                    "elapsed": report.elapsed,
                    "atoms": atoms}


def main() -> int:
    probe = "--probe" in sys.argv
    job = {} if probe else json.loads(sys.stdin.read())
    tr = Tracer() if job.get("trace") else NoTracer()
    t0 = time.perf_counter()
    import eulersum
    from eulersum.kernel import fmt_significant
    from eulersum.verify import brute_euler
    import_s = time.perf_counter() - t0
    es = SimpleNamespace(**{name: getattr(eulersum, name) for name in (
        "parse_sumspec", "eval_sum", "reduce_quadratic", "sv_numeric",
        "weight_of", "resolve_tag", "verify", "linear_lookup")},
        fmt_significant=fmt_significant, brute_euler=brute_euler)
    if job.get("table"):
        with tr.span("reduce.table_check"):
            es.linear_lookup(TABLE_KEY)
    print("ready", flush=True)
    if probe:
        return 0

    workload = job["workload"]
    times, outputs, errors = [], [], []
    for i, req in enumerate(job["requests"]):
        tr.request = i
        t = time.perf_counter()
        try:
            with tr.span("request"):
                if workload.startswith("eval-"):
                    out = _eval(es, req, tr)
                elif workload == "reduce":
                    out = _reduce(es, req, tr)
                else:
                    out = _verify(es, req, tr, req["kind"])
        except Exception:  # one failed request must not end the run
            times.append(None)
            outputs.append(None)
            errors.append(traceback.format_exc(limit=3))
            continue
        times.append(time.perf_counter() - t)
        outputs.append(out)
        errors.append(None)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    outputs = [out() if out is not None else None for out in outputs]
    json.dump({"import_s": import_s, "times": times, "outputs": outputs,
               "errors": errors, "peak_rss_mb": peak_kb / 1024,
               "spans": tr.spans}, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
