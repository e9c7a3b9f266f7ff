"""Tests of the benchmark itself, on tiny versions of each workload.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

import bench
import workloads
from sortdist import lmm, simplex
from sortdist.core import AtomicMeasure
from tracing import Tracer
from workloads import (
    WORKLOADS,
    ApproxWorkload,
    LmmWorkload,
    PmlWorkload,
    check_estimate,
    check_pml_masses,
)

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = [
    LmmWorkload("lmm-flat", ("uniform", "two-level"), n=1000, k=100, min_ops=2),
    LmmWorkload("lmm-zipf", ("zipf:1",), n=1000, k=100, min_ops=1),
    ApproxWorkload("approx-sweep", n_list=(64,), min_ops=1),
    PmlWorkload("pml-desk", n=4, k=2, min_ops=3),
]


@pytest.fixture(autouse=True)
def one_setup_repeat(monkeypatch):
    monkeypatch.setattr(bench, "SETUP_REPEATS", 1)


def tiny_run(workload, tmp_path, trace=False, seed=3):
    return bench.measure(workload, seed, 0.0, trace, ROOT / "src", tmp_path)


def test_workloads_match_spec():
    names = [w["name"] for w in SPEC["workloads"]]
    assert list(WORKLOADS) == names
    assert [w.name for w in TINY] == names


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_every_metric_reported_with_its_unit(workload, trace, tmp_path):
    result, report = tiny_run(workload, tmp_path, trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= workload.min_ops * (2 if trace else 1)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
    assert (tmp_path / "results.json").is_file()
    assert json.loads((tmp_path / f"run-trace{int(trace)}.json").read_text())["result"] == result
    if trace:
        assert report["traced_records_match"]
        assert (tmp_path / "spans.csv").is_file()


def test_hooks_are_removed_after_a_traced_run(tmp_path):
    tiny_run(TINY[0], tmp_path, trace=True)
    assert lmm.simplex_solve is simplex.simplex_solve


def test_traced_counts_on_lmm(tmp_path):
    result, _ = tiny_run(TINY[0], tmp_path, trace=True)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["simplex.calls"] == 1.0
    assert m["simplex.pivots"] > 0 and m["lmm.lp_rows"] > 0 and m["lmm.lp_cols"] > m["lmm.lp_rows"]
    assert m["sampling.distinct_rates"] == 1.5  # one rate for uniform, two for two-level
    assert m["simplex.solve_s"] > 0.0 and m["pml.profile_prob_s"] == 0.0


def test_results_file_is_deterministic(tmp_path):
    first, second, other = (tiny_run(TINY[0], tmp_path / str(i), seed=s)[1] for i, s in enumerate((3, 3, 4)))
    assert first["results_sha256"] == second["results_sha256"] != other["results_sha256"]
    assert (tmp_path / "0" / "results.json").read_bytes() == (tmp_path / "1" / "results.json").read_bytes()


def _short_of_mass(res):
    m = res.measure
    return dataclasses.replace(res, measure=AtomicMeasure(m.locations, 0.9 * m.weights))


def _not_optimal(res):
    return dataclasses.replace(res, solver_status="iteration_cap")


def test_checker_flags_a_corrupted_estimate():
    wl = TINY[0]
    scheme, sources = wl.prepare()
    p = sources["uniform"][0]
    h = workloads.sample_poissonized(p, wl.n, workloads.substream(1, 0))
    res = lmm.estimate_sorted_distribution(h, wl.k, scheme)
    assert check_estimate(res, 0.5) == []
    assert any("total mass" in problem for problem in check_estimate(_short_of_mass(res), 0.5))
    assert check_estimate(_not_optimal(res), 0.5)
    assert check_estimate(res, 2.5)


# a measure short of mass makes the W1 scoring raise; a bad status reaches the checker
@pytest.mark.parametrize("corrupt", [_short_of_mass, _not_optimal])
def test_corrupted_estimates_count_as_failed(corrupt, monkeypatch, tmp_path):
    real = workloads.estimate_sorted_distribution
    monkeypatch.setattr(workloads, "estimate_sorted_distribution", lambda *a, **kw: corrupt(real(*a, **kw)))
    result, report = tiny_run(TINY[0], tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 2
    assert report["fail_frac"] == 1.0
    records = json.loads((tmp_path / "results.json").read_text())["records"]
    assert all(r["problems"] for r in records)


def test_pml_checker():
    assert check_pml_masses([0.5, 0.3, 0.2]) == []
    assert check_pml_masses([0.3, 0.5, 0.2])
    assert check_pml_masses([0.5, 0.3, 0.1])


def test_tail_latency():
    xs = list(np.linspace(1.0, 2.0, 200))
    value, pct, beyond = bench.tail_latency(xs)
    assert (value, pct, beyond) == (xs[189], 95.0, 10)
    assert bench.tail_latency(xs[:100])[1:] == (90.0, 10)
    assert bench.tail_latency([3.0, 1.0, 2.0, 4.0]) == (4.0, 100.0, 0)


def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    outer, first, second = tracer.spans
    times = tracer.self_times()
    children = (first.end - first.start) + (second.end - second.start)
    assert times["outer"] == pytest.approx(outer.end - outer.start - children)
    assert times["inner"] == pytest.approx(children)
    assert first.parent == second.parent == 0 and outer.parent == -1
