#!/usr/bin/env python3
"""Exact-repeat check of the per-layer counts.

    python3 perfbench/repeat.py --workload W [--seed N] [--seconds S]

Runs the traced run (run.py --trace 1) twice with the same seed and
prints the per-layer table of the first run as markdown, marking which
metrics repeated exactly. Counts must repeat exactly, since later
changes gate on them; a count that does not is flagged and the script
exits 1. Also fails when either run reports incorrect outputs or the
simulated rows of the two runs differ (each run already checks its
traced rows against its untraced ones).
"""

import argparse
import glob
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import checks  # noqa: E402
import run  # noqa: E402

# Per-layer metrics that are counts, or ratios of counts: everything
# but host times and ratios involving them.
TIMED = {"sim.events_per_s", "sim.dispatch_share", "scenario.trial_s_ratio",
         "scenario.idle_share", "obs.traced_overhead"}
EXACT = [n for n, u in run.LAYER_UNITS.items() if u != "s" and n not in TIMED]


def traced_run(workload, seed, seconds, out):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1", "--out", out]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"repeat: {' '.join(cmd)} failed")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(run.TRIALS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=40)
    args = ap.parse_args()

    outs = [os.path.join(ROOT, ".bench_out", f"repeat-{args.workload}-{k}")
            for k in "ab"]
    first, second = (traced_run(args.workload, args.seed, args.seconds, o)
                     for o in outs)
    problems = [f"run {k}: outputs are not correct"
                for k, r in zip("ab", (first, second)) if not r["correct"]]
    for path in sorted(glob.glob(os.path.join(outs[0], "traced-0-cpu0",
                                              "rows*.jsonl"))):
        other = os.path.join(outs[1], "traced-0-cpu0",
                             os.path.basename(path))
        try:
            problems += checks.compare_rows(path, other)
        except checks.CheckError as e:
            problems.append(str(e))

    print(f"| metric | unit | {args.workload} (seed {args.seed}) | "
          f"repeats exactly |")
    print("|---|---|---|---|")
    for name, unit in run.LAYER_UNITS.items():
        a = first["metrics"][name]["value"]
        b = second["metrics"][name]["value"]
        shown = "absent" if a == run.ABSENT else f"{a:.10g}"
        same = "yes" if a == b else "no"
        if name in EXACT and a != b:
            same = "**NO (count)**"
            problems.append(f"count {name} did not repeat: {a} vs {b}")
        print(f"| `{name}` | {unit} | {shown} | {same} |")
    for p in problems:
        print("repeat: " + p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
