"""Output checks for the benchmark's result rows.

A rows file is what the driver writes for one pass of one workload: a
header line naming the schema, workload, seed and trial count, then
one JSON object per trial (te_failover: per trial and variant). Every
check here reports a problem instead of passing quietly: a missing,
empty or directory input is an error, and so is a comparison that has
nothing to compare.
"""

import json
import os

SCHEMA = "perfbench-rows/1"
MASK64 = (1 << 64) - 1


class CheckError(Exception):
    """A rows file that cannot be checked at all."""


def mix_seed(x):
    """splitmix64 finalizer, as c4::mixSeed."""
    z = x & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def trial_seed(base, trial):
    """The per-trial seed, as c4::scenario::trialSeed."""
    return mix_seed(base + 0x9E3779B97F4A7C15 * (trial + 1))


def read_bytes(path):
    if not os.path.exists(path):
        raise CheckError(f"{path}: no such file")
    if not os.path.isfile(path):
        raise CheckError(f"{path}: not a regular file")
    with open(path, "rb") as f:
        data = f.read()
    if not data:
        raise CheckError(f"{path}: empty")
    return data


def load_rows(path):
    """Parse a rows file into (header, rows)."""
    lines = read_bytes(path).decode("utf-8").splitlines()
    try:
        header = json.loads(lines[0])
        rows = [json.loads(line) for line in lines[1:]]
    except json.JSONDecodeError as e:
        raise CheckError(f"{path}: malformed JSON: {e}") from None
    if not isinstance(header, dict) or header.get("schema") != SCHEMA:
        raise CheckError(f"{path}: header is not {SCHEMA}")
    if not rows:
        raise CheckError(f"{path}: no rows")
    if not all(isinstance(r, dict) for r in rows):
        raise CheckError(f"{path}: a row is not a JSON object")
    return header, rows


def _row_problems(workload, row):
    """Problems with one row, each a short string."""
    if not row.get("ok"):
        return ["trial failed: " + str(row.get("error", "?"))]
    out = []
    if row.get("horizon_reached") is not True:
        out.append("stopped short of its horizon")
    c = row.get("counts", {})
    if c.get("flows_completed", 0) > c.get("flows_started", 0):
        out.append("flows completed > started")
    if c.get("collectives_completed", 0) > c.get("collectives_posted", 0):
        out.append("collectives completed > posted")
    if workload == "te_failover":
        if not row.get("busbw_before", 0) > 0:
            out.append("busbw_before is not > 0")
        if not row.get("busbw_after", 0) > 0:
            out.append("busbw_after is not > 0 (failure not in flight)")
    else:
        if not (row.get("departed", 0) <= row.get("admitted", 0)
                <= row.get("arrivals", 0)):
            out.append("jobs departed > admitted or admitted > arrivals")
    return out


def check_rows(path, workload, seed, trials):
    """Check one rows file against what the run asked for.

    Returns (failed_trials, problems): the set of trial indices that
    failed a check, and a list of human-readable problems (run-level
    problems have no trial). Raises CheckError when the file cannot be
    checked at all.
    """
    header, rows = load_rows(path)
    problems = []
    for key, want in (("workload", workload), ("seed", seed),
                      ("trials", trials)):
        if header.get(key) != want:
            problems.append(f"{path}: header {key} is {header.get(key)!r},"
                            f" expected {want!r}")
    variants = 2 if workload == "te_failover" else 1
    if len(rows) != trials * variants:
        problems.append(f"{path}: {len(rows)} rows for {trials} trials")
    failed = set()
    for i, row in enumerate(rows):
        trial = i // variants
        found = []
        if row.get("trial") != trial:
            found.append(f"row {i} is trial {row.get('trial')!r}")
        if row.get("seed") != trial_seed(seed, trial):
            found.append("seed does not derive from the run seed")
        found += _row_problems(workload, row)
        if found:
            failed.add(trial)
            problems += [f"{path}: trial {trial}: {p}" for p in found]
    if workload == "churn_c4":
        counts = [r.get("counts", {}) for r in rows]
        if sum(c.get("faults", 0) for c in counts) < 1:
            problems.append(f"{path}: no fault was injected in the run")
        if sum(c.get("c4d_events", 0) for c in counts) < 1:
            problems.append(f"{path}: C4D raised no event in the run")
    return failed, problems


def compare_rows(path_a, path_b):
    """Problems if two rows files are not byte-identical (empty if they are).

    Both files must load as valid, non-empty rows files first, so a
    comparison of two missing or empty inputs fails instead of passing.
    """
    load_rows(path_a)
    load_rows(path_b)
    a = read_bytes(path_a).splitlines()
    b = read_bytes(path_b).splitlines()
    for i, (la, lb) in enumerate(zip(a, b)):
        if la != lb:
            return [f"{path_a} and {path_b} differ at line {i + 1}"]
    if len(a) != len(b):
        return [f"{path_a} has {len(a)} lines, {path_b} has {len(b)}"]
    return []
