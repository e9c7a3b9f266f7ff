"""Run the CLI on fixed inputs and hash every output file.

    python3 tools/cli_outputs.py --src src --out /tmp/cli-a

Runs `python -m sortdist.cli` with the package imported from the `--src`
directory, so two source trees can be compared: the five commands of the
CLI determinism criterion (estimate, benchmark, competitive, approx, pml),
a (1e4, 5000) `zipf:1` benchmark of 3 trials at seed 101, the competitive
checks of the `pml-desk` benchmark workload (n = 8, k = 4, eps = 0.6,
c2 = 1 on `uniform`, `two-level` and `zipf:1`), the competitive check at
n = 12, k = 4 (34 profiles with at most 4 parts), a k_max = 5 PML whose
ascent runs through many sweeps, and the `approx-sweep` workload's
`approx` run over n = 1024, 4096 and 16384, whose constructions glue wide
blocks and whose checks evaluate many pmf windows together.  Outputs go
under `--out`, one directory per command.  Prints one JSON object mapping
each output file, relative to `--out`, to its SHA-256, so equal outputs
are one `diff` of the two printed objects.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# name -> arguments; {out} is the command's output directory and {hist} the
# histogram file "40 9 0 3"
COMMANDS = {
    "estimate": ["estimate", "{hist}", "--n", "64", "--c1", "2", "--out", "{out}/out.json"],
    "benchmark": ["benchmark", "--n", "1024", "--k", "200", "--trials", "2", "--seed", "7", "--out", "{out}"],
    "competitive": ["competitive", "--n", "5", "--k", "3", "--eps", "0.6", "--out", "{out}"],
    "approx": ["approx", "--f", "abs", "--n-list", "1024", "--out", "{out}"],
    "pml": ["pml", "--profile", "2,0,1", "--kmax", "3", "--out", "{out}/out.json"],
    "benchmark-zipf": [
        "benchmark", "--n", "10000", "--k", "5000", "--dist", "zipf:1", "--trials", "3",
        "--seed", "101", "--out", "{out}",
    ],
    **{
        f"competitive-desk-{dist.replace(':', '')}": [
            "competitive", "--n", "8", "--k", "4", "--eps", "0.6", "--c2", "1", "--dist", dist,
            "--out", "{out}",
        ]
        for dist in ("uniform", "two-level", "zipf:1")
    },
    "competitive-cap": ["competitive", "--n", "12", "--k", "4", "--eps", "0.6", "--c2", "1", "--out", "{out}"],
    "pml-kmax5": ["pml", "--profile", "2,0,1", "--kmax", "5", "--out", "{out}/out.json"],
    "approx-sweep": ["approx", "--f", "abs", "--n-list", "1024,4096,16384", "--out", "{out}"],
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    env = {**os.environ, "PYTHONPATH": str(args.src.resolve())}
    with tempfile.TemporaryDirectory() as tmp:
        hist = Path(tmp) / "hist.txt"
        hist.write_text("40\n9\n0\n3\n")
        for name, template in COMMANDS.items():
            out = args.out.resolve() / name
            cmd = [a.format(hist=hist, out=out) for a in template]
            # timings go to stderr, which passes through
            subprocess.run([sys.executable, "-m", "sortdist.cli", *cmd], env=env, check=True)
    hashes = {
        str(f.relative_to(args.out)): hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(args.out.rglob("*")) if f.is_file()
    }
    print(json.dumps(hashes, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
