"""Time perfbench workload operations of two source trees in one process, interleaved.

    python3 tools/ab_ops.py --a ../parent --b . --workload lmm-flat --ops 300 --seed 101

Each tree is a checkout root holding `src/sortdist` and
`perfbench/workloads.py`.  Both trees' packages are imported into this
process under their own module objects, read-only (no bytecode is written),
so op i of tree A and op i of tree B run back to back on the same host state,
in alternating order, after one untimed op per tree.  Drift of the host's
speed between batches of separate perfbench runs then falls on both sides
alike.  Ops run with a tracer that records nothing, as perfbench's untraced
loop does; BLAS threads are capped at the CPUs this process may use, as
perfbench caps them.

A second interleaved pass over the same ops times sections of each solve:
the estimator LP's pricing (`GridColumns.price`), its column cuts
(`GridColumns.__getitem__`), phase 1 (`simplex._phase_one`, with its
pivoting), the pivoting rounds after it (`simplex._run_phase`) and the rest
of `simplex_solve`, each as self time and as wrapped calls per
`simplex_solve` call (phase 1 counts `_phase_one` and the `_run_phase`
inside it).  The wrappers add their own cost, so these are shares of a
solve, not op times.

Prints one JSON object per workload: per tree the median and quartiles of
the op times, ops per second (ops over their summed time), the sections,
and the failed ops; the ops where B was faster; B's ops per second over A's
in each tenth of the ops; and whether every op's record and check agreed
between the trees.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path


class NullTracer:
    def span(self, name):
        return nullcontext()

    def count(self, name, value):
        pass


def load(root: Path) -> dict:
    """Import `root`'s perfbench workloads, and through them its package, and
    take every module under `root` out of `sys.modules` again, so the next
    tree imports its own."""
    root = root.resolve()
    sys.path[:0] = [str(root / "perfbench"), str(root / "src")]
    try:
        importlib.import_module("workloads")
    finally:
        del sys.path[:2]
        modules = {}
        for name, module in list(sys.modules.items()):
            path = getattr(module, "__file__", None)
            if path and Path(path).resolve().is_relative_to(root):
                modules[name] = sys.modules.pop(name)
    return modules


class Sections:
    """Self time of wrapped functions, by section name."""

    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self._open: list[list] = []    # [name, time spent in wrapped callees]

    def wrap(self, fn, name):
        def timed(*args, **kwargs):
            section = name(self._open) if callable(name) else name
            self._open.append([section, 0.0])
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = time.perf_counter() - t0
                self.seconds[section] += spent - self._open.pop()[1]
                self.calls[section] += 1
                if self._open:
                    self._open[-1][1] += spent

        return timed

    def per_solve(self) -> dict:
        solves = self.calls.get("solve other", 0)
        if not solves:
            return {}
        return {
            "solves": solves,
            "ms_per_solve": {key: 1e3 * value / solves for key, value in sorted(self.seconds.items())},
            "calls_per_solve": {key: value / solves for key, value in sorted(self.calls.items())},
        }


@contextmanager
def sectioned(modules: dict, sections: Sections):
    """Wrap the solve's sections in one tree's modules for the duration."""
    simplex, lmm = modules["sortdist.simplex"], modules["sortdist.lmm"]
    in_phase_one = lambda open_: "phase 1" if open_ and open_[-1][0] == "phase 1" else "pivots"
    patches = [
        (lmm, "simplex_solve", "solve other"),
        (simplex, "_phase_one", "phase 1"),
        (simplex, "_run_phase", in_phase_one),
        (lmm.GridColumns, "price", "price"),
        (lmm.GridColumns, "__getitem__", "cuts"),
    ]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    for owner, attr, name in patches:
        setattr(owner, attr, sections.wrap(getattr(owner, attr), name))
    try:
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def quartiles(xs: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return {"median": q2, "q1": q1, "q3": q3}


def compare(workloads: dict, trees: dict, name: str, ops: int, seed: int) -> dict:
    sides = {}
    for side, module in workloads.items():
        wl = module.WORKLOADS[name]
        inputs = wl.prepare()
        wl.op(inputs, seed, 0, NullTracer())
        sides[side] = (wl, inputs)
    times = {side: [] for side in sides}
    outputs = {side: [] for side in sides}
    sections = {side: Sections() for side in sides}
    for timed in (True, False):
        for i in range(ops):
            for side in ("a", "b") if i % 2 == 0 else ("b", "a"):
                wl, inputs = sides[side]
                hooks = nullcontext() if timed else sectioned(trees[side], sections[side])
                with hooks:
                    t0 = time.perf_counter()
                    record, problems = wl.op(inputs, seed, i, NullTracer())
                    spent = time.perf_counter() - t0
                if timed:
                    times[side].append(spent)
                    outputs[side].append(json.dumps([record, problems], sort_keys=True))
    a, b = times["a"], times["b"]
    tenth = max(1, ops // 10)
    return {
        "workload": name,
        "seed": seed,
        "ops": ops,
        "outputs_equal": outputs["a"] == outputs["b"],
        "failed": {side: sum(json.loads(o)[1] != [] for o in outputs[side]) for side in sides},
        "op_s": {side: quartiles(times[side]) for side in sides},
        "ops_per_s": {side: len(times[side]) / sum(times[side]) for side in sides},
        "b_faster_ops": sum(tb < ta for ta, tb in zip(a, b)),
        "b_over_a_ops_per_s_by_tenth": [
            sum(a[j:j + tenth]) / sum(b[j:j + tenth]) for j in range(0, tenth * (ops // tenth), tenth)
        ],
        "sections": {side: sections[side].per_solve() for side in sides},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--a", type=Path, required=True)
    parser.add_argument("--b", type=Path, required=True)
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--ops", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    if args.ops < 4:
        parser.error("--ops must be at least 4 for quartiles")

    cpus = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = cpus
    sys.dont_write_bytecode = True
    trees = {"a": load(args.a), "b": load(args.b)}
    workloads = {side: modules["workloads"] for side, modules in trees.items()}
    for name in args.workload:
        result = compare(workloads, trees, name, args.ops, args.seed)
        print(json.dumps({"a": str(args.a), "b": str(args.b), **result}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
