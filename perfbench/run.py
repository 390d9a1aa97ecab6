"""Run one eulersum benchmark workload and print its metrics.

    python3 perfbench/run.py --workload eval-alternating --seed 1 \
        --seconds 15 --trace 0
    python3 perfbench/run.py --workload all      # every workload in turn

Run from the repository root. The package is imported from ./src. A run
is the workload's fixed request list (see workloads.py), executed to its
end in one fresh worker process, one request at a time. Runs are never
cut by the clock: `--seconds` is accepted and recorded, and the lists are
sized to take about that long (15 s) on the reference machine. Outputs
are checked after the run, untimed.

The last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"}. With --trace 0 the metrics are the end-to-end ones,
with --trace 1 the per-layer ones from spans. A readable report goes to
stderr and the full run record to perfbench/out/.
"""
from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import mpmath as mp

from refs import load as load_references
from workloads import (DEFAULT_SEED, TABLE_WORKLOADS, WORKLOADS, Spec,
                       requests)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
# eval outputs must match the reference to this many significant digits
CHECK_DIGITS = 25
# extra fresh starts timed for set-up where it is a bare import
IMPORT_PROBES = 6
# a run must end well inside the three minutes one run is allowed
DEADLINE_S = 170.0
MIN_TAIL_SAMPLES = 40


# ---------------------------------------------------------------------------
# Statistics and checks (pure functions; test_perfbench covers them).
# ---------------------------------------------------------------------------


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile with at least ten of n samples beyond it,
    or None below MIN_TAIL_SAMPLES samples."""
    if n < MIN_TAIL_SAMPLES:
        return None
    return math.floor(100 * (n - 10) / n)


def tail_latency(times: list[float]) -> tuple[int, float] | None:
    """(percentile, value) by nearest rank, or None when too few."""
    pct = tail_percentile(len(times))
    if pct is None:
        return None
    ordered = sorted(times)
    return pct, ordered[math.ceil(pct / 100 * len(ordered)) - 1]


def matches(got: str, want: str, digits: int = CHECK_DIGITS) -> bool:
    """True when `got` equals `want` to `digits` significant digits:
    within half a unit of the last checked digit of `want`."""
    with mp.workdps(digits + 20):
        g, w = mp.mpf(got), mp.mpf(want)
        if w == 0:
            return g == 0
        ulp = mp.mpf(10) ** (mp.floor(mp.log10(abs(w))) - digits + 1)
        return abs(g - w) <= ulp / 2


def check(workload: str, req: dict, out: dict, refs: dict) -> str | None:
    """None when the output is right, otherwise what is wrong."""
    if workload.startswith("eval-"):
        want = refs[req["spec"]]
        if not matches(out["value"], want):
            return f"{req['spec']} @{req['digits']}: {out['value']} != {want}"
        return None
    if workload == "reduce":
        if not out["agree"]:
            return f"{req['spec']}: reduction disagrees with eval_sum"
        with mp.workdps(req["digits"] + 20):
            diff = abs(mp.mpf(out["direct"]) - mp.mpf(out["reduced"]))
            if diff > mp.mpf(10) ** (1 - req["digits"]) * max(
                    1, abs(mp.mpf(out["direct"]))):
                return f"{req['spec']}: |direct - reduced| = {diff}"
        weight = Spec.parse(req["spec"]).weight
        if out["weight"] != weight:
            return f"{req['spec']}: weight {out['weight']} != {weight}"
        return None
    want = "fail" if req["kind"] == "control" else "pass"
    if out["status"] != want:
        return f"{req['tag']}: {out['status']}, expected {want}"
    return None


def repeat_share(keys: list) -> float:
    """Share of keys that repeat an earlier key in the list."""
    return 1 - len(set(keys)) / len(keys) if keys else 0.0


# ---------------------------------------------------------------------------
# Per-layer metrics from spans.
# ---------------------------------------------------------------------------

def layer_metrics(record: dict) -> dict[str, float]:
    spans = record["spans"]
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child[parent] += end - start
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    by_class = {True: 0.0, False: 0.0}
    per_digits: dict[str, dict[int, float]] = {}
    for i, (name, start, end, _, _, attrs) in enumerate(spans):
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]
        calls[name] = calls.get(name, 0) + 1
        if name == "engine.eval_sum":
            by_class[Spec.parse(attrs["spec"]).alternating_only] += end - start
            per_digits.setdefault(attrs["spec"], {})[attrs["digits"]] = \
                end - start
    ratios = [d[60] / d[30] for d in per_digits.values() if {30, 60} <= d.keys()]
    atoms = [len(o["atoms"]) for o in record["outputs"]
             if o and o.get("atoms") is not None and "weight" in o]
    return {
        "sumspec.parse_s": self_s.get("sumspec.parse", 0.0),
        "engine.eval_sum_s": self_s.get("engine.eval_sum", 0.0),
        "engine.eval_sum_calls": calls.get("engine.eval_sum", 0),
        "engine.alternating_only_s": by_class[True],
        "engine.positive_s": by_class[False],
        "engine.digits60_over_30": statistics.median(ratios) if ratios else 0.0,
        "algebra.sv_numeric_s": self_s.get("algebra.sv_numeric", 0.0),
        "algebra.sv_numeric_calls": calls.get("algebra.sv_numeric", 0),
        "algebra.atoms_per_value": statistics.mean(atoms) if atoms else 0.0,
        "reduce.table_check_s": self_s.get("reduce.table_check", 0.0),
        "reduce.reduce_quadratic_s": self_s.get("reduce.reduce_quadratic", 0.0),
        "reduce.resolve_tag_s": self_s.get("reduce.resolve_tag", 0.0),
        "verify.lhs_s": self_s.get("verify.lhs", 0.0),
        "verify.rhs_s": self_s.get("verify.rhs", 0.0),
        "verify.brute_s": self_s.get("verify.brute", 0.0),
        "verify.verify_s": self_s.get("verify.verify", 0.0),
        "process.import_s": record["import_s"],
    }


UNITS = (("per_s", "1/s"), ("_mb", "MB"), ("_s", "s"), ("over_30", "ratio"))


def unit_of(name: str) -> str:
    return next((unit for suffix, unit in UNITS if name.endswith(suffix)),
                "count")


# ---------------------------------------------------------------------------
# Processes.
# ---------------------------------------------------------------------------


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


@contextmanager
def _worker(args: list[str], deadline: float):
    """A worker process that is killed at the deadline and always reaped;
    yields (process, start time)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=_env(),
        cwd=ROOT, text=True)
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        yield proc, t0
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()


def _ready(proc: subprocess.Popen, t0: float) -> float:
    """Seconds from start until the worker reports "ready"."""
    if proc.stdout.readline().strip() != "ready":
        raise RuntimeError("worker did not get ready; see its error above")
    return time.perf_counter() - t0


def _output(proc: subprocess.Popen) -> str:
    out = proc.stdout.read()
    if proc.wait() != 0:
        raise RuntimeError(f"worker ended with code {proc.returncode}")
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 deadline: float) -> dict:
    """Run one workload's list; return the run record."""
    reqs = requests(workload, seed)
    table = workload in TABLE_WORKLOADS
    setups = []
    if not table:  # a bare import is sub-second: time several fresh starts
        for _ in range(IMPORT_PROBES):
            with _worker(["--probe"], deadline) as (proc, t0):
                proc.stdin.close()
                setups.append(_ready(proc, t0))
                _output(proc)
    job = {"workload": workload, "requests": reqs, "trace": trace,
           "table": table}
    with _worker([], deadline) as (proc, t0):
        proc.stdin.write(json.dumps(job))
        proc.stdin.close()
        setups.append(_ready(proc, t0))
        record = json.loads(_output(proc).strip().splitlines()[-1])
    record.update(workload=workload, seed=seed, seconds=seconds,
                  trace=trace, requests=reqs, setup_runs_s=setups,
                  setup_s=statistics.median(setups))
    return record


def summarize(record: dict, refs: dict) -> tuple[dict, list[str]]:
    """The result object and a readable report."""
    workload, reqs = record["workload"], record["requests"]
    problems = []
    for req, out, err in zip(reqs, record["outputs"], record["errors"]):
        if err is None:
            why = check(workload, req, out, refs)
            if why:
                problems.append(why)
    times = [t for t in record["times"] if t is not None]
    failed = len(reqs) - len(times)
    if not times:
        raise RuntimeError("every request failed")
    end_to_end = {
        "latency_p50_s": statistics.median(times),
        "requests_per_s": len(times) / sum(times),
        "setup_s": record["setup_s"],
        "peak_rss_mb": record["peak_rss_mb"],
    }
    metrics = layer_metrics(record) if record["trace"] else end_to_end
    result = {"correct": not problems, "attempted": len(reqs),
              "failed": failed,
              "metrics": {k: {"value": v, "unit": unit_of(k)}
                          for k, v in metrics.items()}}
    lines = [f"workload {workload}  seed {record['seed']}  "
             f"requests {len(reqs)}  failed {failed}  "
             f"trace {int(record['trace'])}"]
    shown = {**end_to_end, **metrics}
    tail = tail_latency(times)
    if tail:
        shown["latency_tail_s"] = tail[1]
    for k, v in shown.items():
        lines.append(f"  {k:28s} {v:12.6g} {unit_of(k)}")
    if tail:
        lines.append(f"  (latency_tail_s is p{tail[0]} of {len(times)})")
    keys = [(r.get("spec") or r.get("tag"), r["digits"]) for r in reqs]
    atoms = [(a, r["digits"] + 10) for r, o in zip(reqs, record["outputs"])
             if o and o.get("atoms") for a in o["atoms"]]
    lines.append(f"  sharing: request keys {repeat_share(keys):.2f}, "
                 f"atom keys {repeat_share(atoms):.2f} of {len(atoms)}")
    lines += [f"  WRONG {p}" for p in problems]
    lines += [f"  FAILED {r}\n{e}" for r, e in zip(reqs, record["errors"]) if e]
    return result, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so that the running worker is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "eulersum" / "__init__.py").is_file():
        print(f"no package source under {SRC}", file=sys.stderr)
        return 2
    # byte-compile once, untimed, so every fresh start imports the same way
    if not compileall.compile_dir(SRC / "eulersum", quiet=1):
        print("package source does not compile", file=sys.stderr)
        return 2
    refs = load_references()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    missing = {r["spec"] for w in workloads if w.startswith("eval-")
               for r in requests(w, args.seed)} - refs.keys()
    if missing:
        print(f"no reference for {sorted(missing)}; rebuild with "
              "python3 perfbench/refs.py", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    for workload in workloads:
        if args.workload == "all":
            deadline = time.monotonic() + DEADLINE_S
        try:
            record = run_workload(workload, args.seed, args.seconds,
                                  bool(args.trace), deadline)
            result, lines = summarize(record, refs)
        except RuntimeError as exc:
            print(f"{workload}: {exc}", file=sys.stderr)
            return 1
        name = f"{workload}-seed{args.seed}-trace{args.trace}.json"
        (OUT_DIR / name).write_text(json.dumps(record) + "\n")
        print("\n".join(lines), file=sys.stderr)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
