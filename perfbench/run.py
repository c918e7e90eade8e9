#!/usr/bin/env python3
"""Build and run the Dordis end-to-end benchmark, or compare two result sets.

Run one workload (from the repository root):

    python3 perfbench/run.py --workload xnoise-dropout --seed 1 --seconds 30 --trace 0

This builds `perfbench/` in release mode (into `$CARGO_TARGET_DIR`, default
`.bench_build`), then runs it. The last line of standard output is the JSON
result; a fuller record (stamps, sample counts, the percentile the tail
resolved to) goes to `--out` (default `.bench_results/`). The exit code is
non-zero when the build fails or any correctness check fails.

Run all three workloads, one after another, with one command:

    python3 perfbench/run.py all --seed 1 --seconds 30 --trace 0

Compare two result sets (directories of records written by runs):

    python3 perfbench/run.py compare BASE_DIR NEW_DIR

prints, per workload and end-to-end metric, each side's median and quartiles
over its runs, and flags every metric whose NEW median is worse than BASE by
more than the bound in BENCHMARK.json. With one directory it prints that set's
spread (interquartile range over median) against each bound.
"""

import glob
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run that hangs is killed well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    # Build chatter goes to stderr; stdout carries only the result.
    return subprocess.run(cmd, env=env, stdout=sys.stderr).returncode


def stamp(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def source_id():
    """The commit, or outside a git checkout a hash of the sources built."""
    commit = stamp(["git", "rev-parse", "--short=12", "HEAD"])
    if commit != "unknown":
        return commit
    h = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"]:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames
                                 if d not in ("target", "__pycache__"))
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
        if os.path.isfile(os.path.join(ROOT, top)):
            with open(os.path.join(ROOT, top), "rb") as f:
                h.update(top.encode() + f.read())
    return "tree-sha256:" + h.hexdigest()[:12]


def run(argv):
    if build() != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target_dir(), "release", "perfbench")
    cmd = [binary] + argv + [
        "--commit", source_id(),
        "--rustc", stamp(["rustc", "-V"]),
    ]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


WORKLOADS = ["xnoise-dropout", "wide-cohort", "deep-model"]


def run_all(argv):
    """Runs every workload with the same remaining arguments."""
    codes = [run(["--workload", wl] + argv) for wl in WORKLOADS]
    return max(codes)


def load(directory):
    """Untraced records by workload: {workload: [record, ...]}."""
    sets = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0.json"))):
        with open(path) as f:
            rec = json.load(f)
        sets.setdefault(rec["workload"], []).append(rec)
    return sets


def summary(values):
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def compare(dirs):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    sides = [load(d) for d in dirs]
    worse = []
    workloads = sorted(set().union(*[s.keys() for s in sides]))
    for wl in workloads:
        print(f"== {wl} ==")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            cells, medians, spreads = [], [], []
            for side in sides:
                vals = [r["metrics"][name]["value"] for r in side.get(wl, [])
                        if name in r["metrics"]]
                if not vals:
                    cells.append("(none)")
                    medians.append(None)
                    continue
                q1, med, q3 = summary(vals)
                spread = (q3 - q1) / med if med else float("inf")
                cells.append(f"med {med:.6g} [q1 {q1:.6g}, q3 {q3:.6g}] "
                             f"spread {spread:.3f} n={len(vals)}")
                medians.append(med)
                spreads.append(spread)
            flag = ""
            if len(sides) == 1:
                if name != "setup_s" and spreads and spreads[0] > bound / 3:
                    flag = f"  <- spread over bound/3 ({bound / 3:.3f})"
            elif None not in medians:
                base, new = medians
                change = (new - base) / base if base else 0.0
                if m["better"] == "higher":
                    change = -change
                if change > bound:
                    flag = f"  <- WORSE by {change:.1%} (bound {bound:.0%})"
                    worse.append((wl, name))
            print(f"  {name:<36} {m['unit']:<6} " + " | ".join(cells) + flag)
    if worse:
        print(f"{len(worse)} metric(s) worse than their bound")
        return 1
    return 0


def main():
    argv = sys.argv[1:]
    if argv and argv[0] == "compare":
        if len(argv) not in (2, 3):
            print("usage: run.py compare BASE_DIR [NEW_DIR]", file=sys.stderr)
            return 2
        return compare(argv[1:])
    if argv and argv[0] == "all":
        return run_all(argv[1:])
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
