"""Measurement engine: set-up timing, the closed loop, metrics and output files.

An untraced run reports the end-to-end metrics.  A traced run runs every
op twice back to back, first untraced and then with every layer hook in
place; it reports per-layer self times and counts from the traced copies,
and the tracing overhead from the pairs, which see the same host load.

The benchmark was built on a shared host whose speed drifts by tens of
percent over minutes.  An untraced run therefore samples a fixed probe
computation, which uses no sortdist code, between ops, and scales every
end-to-end time to the host speed at which the probe takes
HostProbe.REFERENCE_S.  The run report keeps the raw times.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from tracing import NullTracer, Tracer, patched
from workloads import LAYER_HOOKS

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "error_mean": "1",
    "error_ratio_vs_plugin": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> span name whose self time, per traced op, it reports
SELF_TIME_SPANS = {
    "simplex.solve_s": "simplex",
    "lmm.build_s": "lmm.build",
    "lmm.solve_lp_self_s": "lmm.solve_lp",
    "lmm.estimate_s": "lmm.estimate",
    "sampling.sample_s": "sampling",
    "moments.table_s": "moments",
    "wasserstein.w1_s": "wasserstein",
    "poisson_approx.build_s": "poisson_approx.build",
    "poisson_approx.glue_s": "poisson_approx.glue",
    "poisson_approx.jackson_s": "poisson_approx.jackson",
    "poisson_approx.monomial_to_poisson_s": "poisson_approx.monomial_to_poisson",
    "poisson_approx.verify_s": "poisson_approx.verify",
    "poisson_approx.evaluate_s": "poisson_approx.evaluate",
    "pml.competitive_s": "pml.competitive",
    "pml.brute_force_s": "pml.brute_force",
    "pml.good_set_s": "pml.good_set",
    "pml.min_prob_round_s": "pml.min_prob_round",
    "pml.profile_prob_s": "pml.profile_prob",
    "op.self_s": "op",
}
# per-layer metric -> span name whose calls per op it counts
CALL_SPANS = {
    "simplex.calls": "simplex",
    "poisson_approx.evaluate_calls": "poisson_approx.evaluate",
    "pml.profile_prob_calls": "pml.profile_prob",
}
# counts summed per op
PER_OP_COUNTS = ("simplex.pivots", "simplex.nonoptimal", "poisson_approx.coeffs", "pml.profile_prob_rows")
# counts averaged per call of the layer that records them
PER_CALL_COUNTS = (
    "lmm.lp_rows",
    "lmm.lp_cols",
    "lmm.lp_bytes",
    "lmm.atoms",
    "sampling.distinct_rates",
    "moments.distinct_counts",
)

PER_LAYER_UNITS = {
    **{name: "s" for name in SELF_TIME_SPANS},
    **{name: "count" for name in CALL_SPANS},
    **{name: "count" for name in PER_OP_COUNTS + PER_CALL_COUNTS},
    "lmm.lp_bytes": "B",
    "lmm.mass_gap_max": "1",
    "op.traced_s": "s",
    "trace.spans": "count",
    "trace.overhead_pct": "%",
}

SETUP_REPEATS = 5
_IMPORT_TIMER = "import time; t = time.perf_counter(); import sortdist; print(repr(time.perf_counter() - t))"


@dataclass
class Phase:
    latencies: list[float] = field(default_factory=list)
    failed: int = 0
    records: list[dict] = field(default_factory=list)   # the records of ops 0 .. min_ops-1


class HostProbe:
    """A fixed computation that uses no sortdist code: its run time tracks
    how fast the host runs this process.  It mixes interpreter work, small
    numpy calls and a dense update of a 1.6 MB array, the kinds of work the
    workloads do."""

    REFERENCE_S = 0.0064    # the probe's median time on the reference machine
    EVERY_S = 0.5           # wall time between probes in a timed loop

    def __init__(self):
        rng = np.random.default_rng(0)
        self._wide = rng.random((40, 5000))
        self._small = rng.random(64)
        self.times: list[float] = []
        self._last = -math.inf

    def _work(self) -> float:
        acc = 0.0
        for i in range(10_000):
            acc += math.sqrt(i)
        for _ in range(300):
            c = np.cumsum(np.exp(self._small))
            acc += float(np.searchsorted(c, 0.5 * c[-1]))
        t = self._wide.copy()
        for i in range(16):
            t -= np.outer(t[:, 0], t[i])
        return acc

    def sample(self) -> None:
        """Time one probe; a first untimed pass puts its data in cache, so
        the op that ran before it does not change its time."""
        self._work()
        t0 = time.perf_counter()
        self._work()
        self._last = time.perf_counter()
        self.times.append(self._last - t0)

    def due(self) -> bool:
        return time.perf_counter() - self._last >= self.EVERY_S

    def scale(self) -> float:
        """Factor taking this run's times to the reference host speed."""
        return self.REFERENCE_S / statistics.median(self.times)


def time_setup(workload, src: Path):
    """Median over repeats of a cold `import sortdist` in a fresh interpreter
    plus this workload's input construction; returns it with the inputs."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    totals = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(
            [sys.executable, "-c", _IMPORT_TIMER], env=env, capture_output=True, text=True, check=True, timeout=120
        )
        t0 = time.perf_counter()
        inputs = workload.prepare()
        totals.append(float(child.stdout) + time.perf_counter() - t0)
    return statistics.median(totals), inputs


def run_op(workload, inputs, seed: int, i: int, tracer) -> tuple[dict, list[str]]:
    """One operation and its output check; an operation that raises fails."""
    tracer.op = i
    try:
        with tracer.span("op"):
            record, problems = workload.op(inputs, seed, i, tracer)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        problems = [f"raised {type(exc).__name__}: {exc}"]
        record = {"op": i}
    return {**record, "problems": problems}, problems


def run_loop(workload, inputs, seed: int, seconds: float, tracer=None, probe=None) -> list[Phase]:
    """Closed loop: each op starts when the last ends, for `seconds` and at
    least `min_ops` ops.  Failures are counted, never skipped or retried.

    With a tracer, each op runs untraced and then traced, and one phase is
    returned for each.  With a probe, the host speed is sampled between ops,
    outside their latencies.
    """
    variants = [(NullTracer(), nullcontext)]
    if tracer is not None:
        variants.append((tracer, lambda: patched(tracer, LAYER_HOOKS)))
    phases = [Phase() for _ in variants]
    start = time.perf_counter()
    i = 0
    while i < workload.min_ops or time.perf_counter() - start < seconds:
        for phase, (tr, hooks) in zip(phases, variants):
            with hooks():
                t0 = time.perf_counter()
                record, problems = run_op(workload, inputs, seed, i, tr)
                phase.latencies.append(time.perf_counter() - t0)
            if problems:
                phase.failed += 1
                print(f"{workload.name} op {i} failed: {'; '.join(problems)}", file=sys.stderr)
            if i < workload.min_ops:
                phase.records.append(record)
        if probe is not None and probe.due():
            probe.sample()
        i += 1
    return phases


def tail_latency(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least 10 samples beyond it,
    but never below p90 (nearest rank); returns it with the percentile and
    the number of samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    idx = max(n - 11, math.ceil(0.9 * n) - 1)
    return xs[idx], 100.0 * (idx + 1) / n, n - 1 - idx


def quality(workload, records: list[dict]) -> dict:
    ok = [r for r in records if not r["problems"]]
    return workload.quality(ok) if ok else {}


def end_to_end_metrics(workload, phase: Phase, setup_s: float, probe: HostProbe) -> tuple[dict, dict]:
    """End-to-end metrics at the reference host speed, and the run notes
    that go with them: the raw values, the probe and the tail percentile."""
    tail, pct, beyond = tail_latency(phase.latencies)
    raw = {
        "ops_per_s": len(phase.latencies) / sum(phase.latencies),
        "op_s_p50": statistics.median(phase.latencies),
        "op_s_tail": tail,
        "setup_s": setup_s,
    }
    scale = probe.scale()
    q = quality(workload, phase.records)
    values = {
        "ops_per_s": raw["ops_per_s"] / scale,
        "op_s_p50": raw["op_s_p50"] * scale,
        "op_s_tail": raw["op_s_tail"] * scale,
        "error_mean": q.get("error_mean"),
        "error_ratio_vs_plugin": q.get("error_ratio_vs_plugin"),
        "setup_s": raw["setup_s"] * scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "raw": raw,
        "host_scale": scale,
        "probe_s_median": statistics.median(probe.times),
        "probes": len(probe.times),
        "op_s_tail_percentile": pct,
        "op_s_tail_samples_beyond": beyond,
        "samples": len(phase.latencies),
    }
    if "mass_gap_max" in q:
        notes["mass_gap_max"] = q["mass_gap_max"]
    return values, notes


def per_layer_metrics(tracer: Tracer, plain: Phase, traced: Phase, count_ops: int) -> dict:
    """Self times per traced op over all traced ops; counts per op over the
    first `count_ops` ops, which are the same on every run of a seed."""
    ops = len(traced.latencies)
    self_times = tracer.self_times()
    calls = tracer.span_counts(count_ops)
    values = {name: self_times.get(span, 0.0) / ops for name, span in SELF_TIME_SPANS.items()}
    values.update({name: calls.get(span, 0) / count_ops for name, span in CALL_SPANS.items()})
    values.update({name: sum(tracer.values(name, count_ops)) / count_ops for name in PER_OP_COUNTS})
    for name in PER_CALL_COUNTS:
        vals = tracer.values(name, count_ops)
        values[name] = statistics.fmean(vals) if vals else 0.0
    values["lmm.mass_gap_max"] = max(tracer.values("lmm.mass_gap", count_ops), default=0.0)
    values["op.traced_s"] = statistics.fmean(traced.latencies)
    values["trace.spans"] = len(tracer.spans) / ops
    values["trace.overhead_pct"] = 100.0 * (sum(traced.latencies) / sum(plain.latencies) - 1.0)
    return values


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_caps": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def measure(workload, seed: int, seconds: float, trace: bool, src: Path, out_dir: Path) -> tuple[dict, dict]:
    """Run one workload; write its output files; return the result object and the run report."""
    out_dir.mkdir(parents=True, exist_ok=True)
    if trace:
        inputs = workload.prepare()
        run_op(workload, inputs, seed, 0, NullTracer())  # untimed warm-up
        tracer = Tracer()
        phases = run_loop(workload, inputs, seed, seconds, tracer=tracer)
        values = per_layer_metrics(tracer, *phases, workload.min_ops)
        units = PER_LAYER_UNITS
        tracer.write_spans(out_dir / "spans.csv")
        report = {"traced_records_match": phases[1].records == phases[0].records}
    else:
        setup_s, inputs = time_setup(workload, src)
        run_op(workload, inputs, seed, 0, NullTracer())  # untimed warm-up
        probe = HostProbe()
        for _ in range(3):
            probe.sample()
        phases = run_loop(workload, inputs, seed, seconds, probe=probe)
        values, report = end_to_end_metrics(workload, phases[0], setup_s, probe)
        units = END_TO_END_UNITS

    results = json.dumps(
        {"workload": workload.name, "seed": seed, "records": phases[0].records}, sort_keys=True, indent=1
    ).encode()
    (out_dir / "results.json").write_bytes(results)
    attempted = sum(len(p.latencies) for p in phases)
    failed = sum(p.failed for p in phases)
    report.update(
        workload=workload.name,
        seed=seed,
        seconds=seconds,
        trace=int(trace),
        attempted=attempted,
        failed=failed,
        fail_frac=failed / attempted,
        results_sha256=hashlib.sha256(results).hexdigest(),
        environment=environment(),
        latencies_s=[p.latencies for p in phases],
    )
    correct = failed == 0 and report.get("traced_records_match", True)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    report["result"] = result
    (out_dir / f"run-trace{int(trace)}.json").write_text(json.dumps(report, indent=1, sort_keys=True))
    return result, report
