#!/usr/bin/env python3
"""Tests for the benchmark's output checks: each bad input must fail.

    python3 perfbench/test_checks.py

Needs no build. Scratch files go to .bench_out/test-checks in the
checkout and are removed afterwards.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import checks  # noqa: E402

SCRATCH = os.path.join(ROOT, ".bench_out", "test-checks")


def counts(**over):
    c = {"sim_events": 100, "flows_started": 10, "flows_completed": 10,
         "recomputes": 5, "recompute_ops": 50, "collectives_posted": 4,
         "collectives_completed": 4, "monitor_records": 8,
         "monitor_dropped": 0, "c4p_decisions": 2, "c4p_repins": 0,
         "c4d_evaluations": 3, "c4d_events": 1, "restarts": 0,
         "isolations": 0, "faults": 2, "broken_nodes": 0}
    c.update(over)
    return c


def churn_row(trial, base, **over):
    row = {"trial": trial, "seed": checks.trial_seed(base, trial),
           "ok": True, "horizon_reached": True, "arrivals": 3,
           "admitted": 3, "rejected": 0, "departed": 2,
           "iterations": 900, "start_failures": 0, "counts": counts()}
    row.update(over)
    return row


def te_rows(trial, seed, after=330.0):
    return [{"trial": trial, "seed": checks.trial_seed(seed, trial),
             "variant": v, "ok": True, "horizon_reached": True,
             "busbw_before": 383.0, "busbw_after": after,
             "counts": counts(c4d_evaluations=0, c4d_events=0, faults=0)}
            for v in ("static_te", "dynamic_lb")]


def write(name, workload, seed, rows, trials=None):
    path = os.path.join(SCRATCH, name)
    header = {"schema": checks.SCHEMA, "workload": workload, "seed": seed,
              "trials": trials if trials is not None else len(rows)}
    with open(path, "w") as f:
        for obj in [header] + rows:
            f.write(json.dumps(obj, separators=(",", ":")) + "\n")
    return path


class ChecksTest(unittest.TestCase):
    def setUp(self):
        shutil.rmtree(SCRATCH, ignore_errors=True)
        os.makedirs(SCRATCH)
        self.good = write("good.jsonl", "churn_c4", 7,
                          [churn_row(0, 7), churn_row(1, 7)])

    def tearDown(self):
        shutil.rmtree(SCRATCH, ignore_errors=True)

    def test_trial_seed_matches_the_simulator(self):
        # trialSeed(1, 0) as printed by the driver for seed 1.
        self.assertEqual(checks.trial_seed(1, 0), 10451216379200822465)

    def test_good_rows_pass(self):
        self.assertEqual(checks.check_rows(self.good, "churn_c4", 7, 2),
                         (set(), []))
        copy = write("copy.jsonl", "churn_c4", 7,
                     [churn_row(0, 7), churn_row(1, 7)])
        self.assertEqual(checks.compare_rows(self.good, copy), [])

    def test_mutated_row_is_reported(self):
        mutated = write("mutated.jsonl", "churn_c4", 7,
                        [churn_row(0, 7), churn_row(1, 7, iterations=901)])
        self.assertTrue(checks.compare_rows(self.good, mutated))

    def test_broken_conservation_fails_the_trial(self):
        for over in ({"counts": counts(flows_completed=11)},
                     {"counts": counts(collectives_completed=5)},
                     {"departed": 4}):
            path = write("bad.jsonl", "churn_c4", 7,
                         [churn_row(0, 7), churn_row(1, 7, **over)])
            failed, problems = checks.check_rows(path, "churn_c4", 7, 2)
            self.assertEqual(failed, {1}, over)
            self.assertTrue(problems)

    def test_swapped_seed_is_reported(self):
        # Header claims another seed than the run asked for.
        failed, problems = checks.check_rows(self.good, "churn_c4", 8, 2)
        self.assertTrue(problems)
        # Rows carry each other's trial seeds.
        swapped = write("swapped.jsonl", "churn_c4", 7, [
            churn_row(0, 7, seed=checks.trial_seed(7, 1)),
            churn_row(1, 7, seed=checks.trial_seed(7, 0))])
        failed, _ = checks.check_rows(swapped, "churn_c4", 7, 2)
        self.assertEqual(failed, {0, 1})
        # Two runs of different seeds never compare equal.
        other = write("other.jsonl", "churn_c4", 8,
                      [churn_row(0, 8), churn_row(1, 8)])
        self.assertTrue(checks.compare_rows(self.good, other))

    def test_empty_missing_and_directory_inputs_fail(self):
        empty = os.path.join(SCRATCH, "empty.jsonl")
        open(empty, "w").close()
        header_only = write("header.jsonl", "churn_c4", 7, [], trials=2)
        for bad in (empty, header_only, SCRATCH,
                    os.path.join(SCRATCH, "missing.jsonl")):
            with self.assertRaises(checks.CheckError, msg=bad):
                checks.check_rows(bad, "churn_c4", 7, 2)
            with self.assertRaises(checks.CheckError, msg=bad):
                checks.compare_rows(bad, bad)
            with self.assertRaises(checks.CheckError, msg=bad):
                checks.compare_rows(self.good, bad)

    def test_failed_or_short_trial_fails(self):
        for row in (churn_row(1, 7, ok=False, error="boom"),
                    churn_row(1, 7, horizon_reached=False)):
            path = write("bad.jsonl", "churn_c4", 7, [churn_row(0, 7), row])
            failed, _ = checks.check_rows(path, "churn_c4", 7, 2)
            self.assertEqual(failed, {1})

    def test_missing_rows_are_reported(self):
        failed, problems = checks.check_rows(self.good, "churn_c4", 7, 3)
        self.assertTrue(problems)

    def test_churn_run_needs_a_fault_and_a_c4d_event(self):
        quiet = counts(faults=0, c4d_events=0)
        path = write("quiet.jsonl", "churn_c4", 7,
                     [churn_row(0, 7, counts=quiet),
                      churn_row(1, 7, counts=quiet)])
        failed, problems = checks.check_rows(path, "churn_c4", 7, 2)
        self.assertEqual(failed, set())
        self.assertEqual(len(problems), 2)

    def test_te_failover_needs_post_failure_busbw(self):
        good = write("te.jsonl", "te_failover", 3, te_rows(0, 3), trials=1)
        self.assertEqual(checks.check_rows(good, "te_failover", 3, 1),
                         (set(), []))
        bad = write("te0.jsonl", "te_failover", 3, te_rows(0, 3, after=0.0),
                    trials=1)
        failed, _ = checks.check_rows(bad, "te_failover", 3, 1)
        self.assertEqual(failed, {0})

    def test_run_fails_without_the_repo_sources(self):
        # A directory holding only the benchmark: no result, non-zero exit.
        lone = os.path.join(SCRATCH, "lone")
        shutil.copytree(HERE, os.path.join(lone, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), lone)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "churn_c4",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=lone, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
