#!/usr/bin/env python3
"""The repo benchmark: build the drivers, run one workload, check its
outputs and print its metrics.

    python3 perfbench/run.py --workload te_failover|churn_c4|fanout \\
        --seed N --seconds S --trace 0|1 [--out DIR]

Run it from the root of a checkout. The first run configures and
builds perfbench/ (which pulls in the repo's src/ and bench/) into
.bench_build/perfbench; later runs only check the build is current.

Every run repeats the workload's fixed trial set in rounds until
--seconds is used up; a round runs one pinned 1-thread driver process
per CPU at once. --trace 0 runs the untraced driver and prints the
end-to-end metrics. --trace 1 alternates untraced and traced rounds
and prints the per-layer metrics. A metric that does not apply to the workload prints
as -1 (see README.md). The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import checks  # noqa: E402

# Trials per driver process. Every process runs the same trials, so
# every deterministic metric repeats exactly for a seed.
TRIALS = {"te_failover": 5, "churn_c4": 12, "fanout": 16}
# A round runs the trials on each of CPUS at once, one pinned 1-thread
# driver process ("copy") per CPU; rounds repeat while the next one is
# predicted to end by --seconds plus half a round, and at least
# MIN_ROUNDS run. Timings keep the fastest copy, trial times per trial
# segment. The shared host the benchmark was tuned on slows this code
# by up to 1.8x in phases of seconds to minutes that differ between
# CPUs, so the fastest of copies spread over CPUs and over the run is
# far steadier than any one copy (see README.md).
MIN_ROUNDS = 2
CPUS = sorted(os.sched_getaffinity(0))[:4]
THREADS = len(CPUS)  # fanout's N
PAPER_BUSBW_AFTER_GBPS = 301.0
ABSENT = -1.0
DRIVER_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

# Metric names and units, in print order, from the benchmark's contract.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    _CONTRACT = json.load(_f)
E2E_UNITS = {m["name"]: m["unit"] for m in _CONTRACT["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in _CONTRACT["per_layer"]}


class RunError(Exception):
    """The benchmark could not produce a result."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (first time) and build both drivers; return their paths."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))):
        raise RunError("the repo sources are not beside perfbench/")
    bdir = os.path.join(ROOT, ".bench_build", "perfbench")
    os.makedirs(bdir, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    with open(os.path.join(bdir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", HERE, "-B", bdir,
                          "-DCMAKE_BUILD_TYPE=Release"] + gen)
        steps.append(["cmake", "--build", bdir, "-j", jobs, "--target",
                      "perfbench_drv", "perfbench_drv_traced"])
        for cmd in steps:
            try:
                proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                      stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as e:
                raise RunError(f"build step failed: {e}") from None
            if proc.returncode != 0:
                raise RunError("build failed: " + " ".join(cmd))
    return (os.path.join(bdir, "perfbench_drv"),
            os.path.join(bdir, "perfbench_drv_traced"))


def run_batch(jobs, workload, seed, trials, out):
    """Run driver processes at once and return their summaries.

    `jobs` holds (name, exe, threads, cpu) tuples; a process with a cpu
    is pinned to it. Every process has ended when this returns.
    """
    procs = []
    try:
        for name, exe, threads, cpu in jobs:
            rundir = os.path.join(out, name)
            os.makedirs(rundir)
            cmd = [exe, "--workload", workload, "--seed", str(seed),
                   "--trials", str(trials), "--threads", str(threads),
                   "--out", rundir]
            pin = None if cpu is None else (
                lambda c=cpu: os.sched_setaffinity(0, {c}))
            with open(os.path.join(rundir, "summary.json"), "w") as sink:
                procs.append((exe, rundir, subprocess.Popen(
                    cmd, cwd=ROOT, stdout=sink, stderr=sys.stderr,
                    preexec_fn=pin)))
        deadline = time.monotonic() + DRIVER_TIMEOUT_S
        summaries = []
        for exe, rundir, proc in procs:
            left = max(0.0, deadline - time.monotonic())
            try:
                code = proc.wait(timeout=left)
            except subprocess.TimeoutExpired:
                raise RunError(f"{os.path.basename(exe)} timed out") from None
            with open(os.path.join(rundir, "summary.json")) as f:
                lines = f.read().strip().splitlines()
            if code != 0 or not lines:
                raise RunError(f"{os.path.basename(exe)} exited with {code}")
            summaries.append(json.loads(lines[-1]))
        return summaries
    finally:
        for _, _, proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


def run_rounds(exes, workload, seed, out, seconds):
    """Run rounds until the next one would end more than half a round
    after `seconds` (at least MIN_ROUNDS); return, per exe, the
    summaries of its driver processes.

    In a round each exe runs the trials at 1 thread in one process per
    CPU, all at once, each process pinned to its CPU. fanout's untraced
    exe also runs them once at N threads, unpinned, before the 1-thread
    batch in odd rounds and after it in even ones, so a drift of the
    host favours neither.
    """
    shutil.rmtree(out, ignore_errors=True)
    trials = TRIALS[workload]
    summaries = [[] for _ in exes]
    start = time.monotonic()
    r = 0
    while True:
        for (name, exe), runs in zip(exes, summaries):
            batches = [[(f"{name}-{r}-cpu{c}", exe, 1, c) for c in CPUS]]
            if workload == "fanout" and name == "plain":
                many = [(f"{name}-{r}-{THREADS}t", exe, THREADS, None)]
                batches.insert(r % 2, many)
            for jobs in batches:
                runs += run_batch(jobs, workload, seed, trials, out)
        r += 1
        elapsed = time.monotonic() - start
        if r >= MIN_ROUNDS and elapsed * (r + 0.5) / r > seconds:
            return summaries


def check_reps(reps, workload, seed, trials):
    """Check every pass of every driver run; return (failed, problems).

    Every pass simulates the same trials, so besides each pass's own
    checks, all rows files must be byte-identical to the first: the
    repeat of a run, the fanout pass at N threads and the traced run.
    """
    failed, problems = 0, []
    base = reps[0]["passes"][0]["rows"]
    for summary in reps:
        for p in summary["passes"]:
            try:
                bad, found = checks.check_rows(p["rows"], workload, seed,
                                               trials)
            except checks.CheckError as e:
                bad, found = set(range(trials)), [str(e)]
            failed += len(bad)
            problems += found
            if p["rows"] != base:
                try:
                    problems += checks.compare_rows(base, p["rows"])
                except checks.CheckError as e:
                    problems.append(str(e))
    return failed, problems


def good_trials(summary, workload):
    """(trial index, rows) of every trial whose rows all report ok."""
    _, rows = checks.load_rows(summary["passes"][0]["rows"])
    per = 2 if workload == "te_failover" else 1
    grouped = [rows[i:i + per] for i in range(0, len(rows), per)]
    return [(i, g) for i, g in enumerate(grouped)
            if all(r.get("ok") for r in g)]


def best(reps, key):
    """Per item, the smallest value over the driver processes."""
    return [min(vals) for vals in zip(*(key(r) for r in reps))]


def split_threads(reps):
    """(1-thread, N-thread) driver processes of `reps`."""
    ones = [r for r in reps if r["passes"][0]["threads"] == 1]
    return ones, [r for r in reps if r["passes"][0]["threads"] > 1]


def trial_walls(reps, good):
    """Per good trial, its host time with each of its segments at its
    fastest copy. The simulation is deterministic, so a segment (the
    work up to one `Simulator::run` stop) is the same work in every
    copy, and a short segment meets a fast phase of the host more often
    than a whole trial does."""
    walls = []
    for i, _ in good:
        laps = [r["passes"][0]["trials"][i]["laps"] for r in reps]
        if len({len(lap) for lap in laps}) != 1:
            raise RunError(f"trial {i} has different segments in its copies")
        walls.append(sum(min(seg) for seg in zip(*laps)))
    return walls


def fastest_pass(reps):
    return min((r["passes"][0] for r in reps), key=lambda p: p["wall_s"])


def end_to_end(reps, workload):
    ones, many = split_threads(reps)
    good = good_trials(ones[0], workload)
    m = {
        "setup_s": statistics.median(best(ones, lambda r: r["setup_s"])),
        "trial_s": statistics.mean(trial_walls(ones, good)),
        "trials_per_s": ABSENT,
        "parallel_efficiency": ABSENT,
        "peak_rss_mib": max(r["peak_rss_kb"] for r in reps) / 1024.0,
        "busbw_after_gbps": ABSENT,
        "train_iters": ABSENT,
    }
    if workload == "fanout":
        tps_1 = len(good) / fastest_pass(ones)["wall_s"]
        m["trials_per_s"] = len(good) / fastest_pass(many)["wall_s"]
        m["parallel_efficiency"] = m["trials_per_s"] / (THREADS * tps_1)
    if workload == "te_failover":
        m["busbw_after_gbps"] = statistics.mean(
            r["busbw_after"] for _, g in good for r in g
            if r["variant"] == "dynamic_lb")
    else:
        m["train_iters"] = statistics.median(g[0]["iterations"]
                                             for _, g in good)
    return m


def layer_values(summary, timing, rows, workload):
    """Per-layer values of one trial from its rows, spans and timing."""
    c = {}
    for r in rows:
        for k, v in r["counts"].items():
            c[k] = c.get(k, 0) + v
    sites = summary["sites"].get(str(timing["trial"]), {})

    def total(site):
        return sites.get(site, [0, 0.0, 0.0])[1]

    def self_s(site):
        return sites.get(site, [0, 0.0, 0.0])[2]

    v = {
        "sim.events": c["sim_events"],
        "sim.run_s": total("sim.run"),
        "sim.dispatch_s": self_s("sim.run"),
        "net.flows": c["flows_started"],
        "net.recomputes": c["recomputes"],
        "net.recompute_ops": c["recompute_ops"],
        "net.calls": sites.get("net.call", [0])[0],
        "net.call_s": self_s("net.call"),
        "accl.collectives": c["collectives_posted"],
        "accl.call_s": self_s("accl.call"),
        "accl.monitor_records": c["monitor_records"],
        "accl.monitor_dropped": c["monitor_dropped"],
        "c4p.decisions": c["c4p_decisions"],
        "c4p.repins": c["c4p_repins"],
        "core.build_s": total("core.build"),
        "alloc.count": timing["alloc_count"],
        "alloc.bytes": timing["alloc_bytes"],
    }
    v["sim.dispatch_share"] = v["sim.dispatch_s"] / v["sim.run_s"]
    v["sim.events_per_s"] = v["sim.events"] / v["sim.run_s"]
    if c["recomputes"]:
        v["net.ops_per_recompute"] = c["recompute_ops"] / c["recomputes"]
    if c["collectives_posted"]:
        v["accl.completed_ratio"] = (c["collectives_completed"]
                                     / c["collectives_posted"])
    if workload != "te_failover":
        # Layers te_failover does not deploy stay absent there.
        v["train.start_failures"] = rows[0]["start_failures"]
        v["c4d.evaluations"] = c["c4d_evaluations"]
        v["c4d.events"] = c["c4d_events"]
        v["c4d.ingest_s"] = self_s("c4d.ingest")
        v["c4d.restarts"] = c["restarts"]
        v["c4d.isolations"] = c["isolations"]
        v["core.admit_s"] = total("core.admit")
        v["core.depart_s"] = total("core.depart")
        v["core.admit_ratio"] = rows[0]["admitted"] / rows[0]["arrivals"]
    return v


def per_layer(plain, traced, workload):
    good = good_trials(traced[0], workload)
    trials = []
    for i, rows in good:
        # The faster of the traced runs of this trial gives its spans.
        summary = min(traced, key=lambda r: r["passes"][0]["trials"][i]
                      ["wall_s"])
        trials.append(layer_values(summary, summary["passes"][0]
                                   ["trials"][i], rows, workload))
    m = {}
    for name in LAYER_UNITS:
        values = [t[name] for t in trials if name in t]
        m[name] = statistics.median(values) if values else ABSENT
    parses = [r["sites"]["-1"]["specio.parse"] for r in traced
              if "specio.parse" in r["sites"].get("-1", {})]
    if parses:
        m["specio.parse_s"] = min(total / calls for calls, total, _ in parses)
    ones, many = split_threads(plain)
    if workload == "fanout":
        m["scenario.trial_s_ratio"] = (
            statistics.median(trial_walls(many, good))
            / statistics.median(trial_walls(ones, good)))
        fast = fastest_pass(many)
        busy = sum(t["wall_s"] for t in fast["trials"])
        m["scenario.idle_share"] = 1.0 - busy / (fast["threads"]
                                                 * fast["wall_s"])
    m["obs.traced_overhead"] = (
        statistics.median(trial_walls(traced, good))
        / statistics.median(trial_walls(ones, good)) - 1.0)
    return m


def print_table(metrics, units, extra=None):
    for name, value in metrics.items():
        shown = "absent" if value == ABSENT else f"{value:.6g}"
        note = (extra or {}).get(name, "")
        print(f"  {name:<24} {shown:>14} {units[name]:<14}{note}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(TRIALS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="directory for rows and spans "
                    "(default .bench_out/<workload>)")
    args = ap.parse_args()
    if args.seconds < 1 or args.seed < 0:
        ap.error("--seconds must be >= 1 and --seed >= 0")
    workload, seed = args.workload, args.seed
    out = os.path.abspath(args.out or os.path.join(ROOT, ".bench_out",
                                                   workload))
    trials = TRIALS[workload]

    try:
        plain_exe, traced_exe = build()
        if args.trace == 0:
            (plain,) = run_rounds([("plain", plain_exe)], workload, seed,
                                  out, args.seconds)
            reps = plain
            metrics = end_to_end(plain, workload)
            units = E2E_UNITS
        else:
            plain, traced = run_rounds(
                [("plain", plain_exe), ("traced", traced_exe)], workload,
                seed, out, args.seconds)
            reps = plain + traced
            metrics = per_layer(plain, traced, workload)
            units = LAYER_UNITS
        failed, problems = check_reps(reps, workload, seed, trials)
        attempted = trials * sum(len(r["passes"]) for r in reps)
        if set(metrics) != set(units):
            raise RunError("computed metrics differ from BENCHMARK.json")
        metrics = {name: metrics[name] for name in units}
    except (RunError, checks.CheckError, OSError, KeyError, ValueError,
            ZeroDivisionError) as e:
        log(f"perfbench: {e}")
        return 1

    for p in problems:
        log("perfbench: check failed: " + p)
    extra = {}
    busbw = metrics.get("busbw_after_gbps", ABSENT)
    if busbw != ABSENT:
        err = (busbw / PAPER_BUSBW_AFTER_GBPS - 1.0) * 100.0
        extra["busbw_after_gbps"] = (
            f"  {err:+.1f}% vs paper ~{PAPER_BUSBW_AFTER_GBPS:.0f} Gbps")
    if "trial_s" in metrics:
        copies = len(split_threads(plain)[0])
        extra["trial_s"] = (f"  mean of {trials} trials at 1 thread, "
                            f"each the fastest of {copies} copies")
    print(f"perfbench {workload} seed={seed} trials={trials} "
          f"threads={THREADS} trace={args.trace}")
    print_table(metrics, units, extra)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
