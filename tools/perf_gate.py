#!/usr/bin/env python3
"""The perf gate: perfbench runs against a committed, host-keyed reference.

    python3 tools/perf_gate.py check    # compare with this host's reference
    python3 tools/perf_gate.py record   # store this host's runs as its reference

Run from the root of a source checkout (`tools/check.sh perf` and
`tools/check.sh perf-record` do). `check` runs every workload once with
`--smoke --trace 1` (the traced path's output checks), then, only if
tools/perf_reference.json has an entry for perfbench's exact `host:` line,
the timed runs over SEEDS, judged under the BENCHMARK.json end-to-end bounds;
DESIGN.md §11 states the rules. A host with no entry gets `no comparable
baseline` and no timing verdict. Per-layer metrics are never read. `record`
refuses to store runs that failed or were not correct.
"""
import json
import os
import statistics
import subprocess
import sys

REFERENCE = os.path.join("tools", "perf_reference.json")
SEEDS = [401, 402, 403, 404, 405]
SECONDS = 12


def parse_run(stdout):
    """(host line, result object) of one perfbench/run.py report."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    hosts = [line for line in lines if line.startswith("host: ")]
    if not hosts:
        raise ValueError("no host: line in the perfbench report")
    return hosts[0], json.loads(lines[-1])


def run_record(seed, result):
    """The stored form of one run: its counts and each metric's value."""
    return {"seed": seed, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "values": {name: metric["value"]
                       for name, metric in result["metrics"].items()}}


def perfbench(workload, seed, extra):
    """Runs perfbench once: (host line or None, run record)."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
           workload, "--seed", str(seed)] + extra
    print("perf gate: " + " ".join(cmd[1:]), flush=True)
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.stdout.write(done.stdout)
        return None, {"seed": seed, "exit": done.returncode}
    host, result = parse_run(done.stdout)
    return host, run_record(seed, result)


def run_problems(workload, runs):
    """Runs that exited non-zero or whose outputs failed their checks."""
    problems = []
    for run in runs:
        if "exit" in run:
            problems.append("%s seed %d: perfbench exited %d"
                            % (workload, run["seed"], run["exit"]))
        elif not run["correct"]:
            problems.append("%s seed %d: correct: false"
                            % (workload, run["seed"]))
    return problems


def compare_metric(metric, ref, now):
    """(verdict, table row) for one metric: ok, FAIL or unresolved."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    ref_median = statistics.median(ref)
    now_median = statistics.median(now)
    q1, _, q3 = statistics.quantiles(ref, n=4)
    scale = abs(ref_median) or 1.0
    spread = (q3 - q1) / scale
    change = (now_median - ref_median) / scale
    worse = change if lower else -change
    separated = min(now) > max(ref) if lower else max(now) < min(ref)
    if worse <= bound:
        verdict = "ok"
    elif spread > bound and not separated:
        verdict = "unresolved"
    else:
        verdict = "FAIL"
    row = "%-16s ref %10.4g [%.2f]  now %10.4g  %+6.1f%%  bound %2.0f%%  %s" % (
        metric["name"], ref_median, spread, now_median, 100 * change,
        100 * bound, verdict)
    return verdict, row


def compare(spec, entry, fresh):
    """Compares fresh runs with one host's reference entry.

    `fresh` maps each workload to its run records. Returns (failures, report
    lines, number of unresolved metrics).
    """
    failures, lines, unresolved = [], [], 0
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = fresh[workload]
        problems = run_problems(workload, runs)
        failures += problems
        if problems:
            continue
        ref_runs = entry["workloads"][workload]
        now_share = (sum(r["failed"] for r in runs),
                     sum(r["attempted"] for r in runs))
        ref_share = (sum(r["failed"] for r in ref_runs),
                     sum(r["attempted"] for r in ref_runs))
        lines.append("%s: failed/attempted %d/%d (reference %d/%d)"
                     % ((workload,) + now_share + ref_share))
        if now_share[0] * ref_share[1] > ref_share[0] * now_share[1]:
            failures.append("%s: failed/attempted %d/%d is a higher share "
                            "than the reference %d/%d"
                            % ((workload,) + now_share + ref_share))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            verdict, row = compare_metric(
                metric, [r["values"][name] for r in ref_runs],
                [r["values"][name] for r in runs])
            lines.append("  " + row)
            unresolved += verdict == "unresolved"
            if verdict == "FAIL":
                failures.append("%s %s: median worse than the reference by "
                                "more than its bound" % (workload, name))
    return failures, lines, unresolved


def baseline(reference, host):
    """`host`'s reference entry, or None (saying so) when there is none."""
    entry = reference.get("hosts", {}).get(host)
    if entry is None or entry["seeds"] != SEEDS or entry["seconds"] != SECONDS:
        print("perf gate: no comparable baseline for %s" % host)
        return None
    return entry


def report(spec, entry, fresh):
    """Prints the comparison of `fresh` with `entry`; the exit status."""
    failures, lines, unresolved = compare(spec, entry, fresh)
    for line in lines:
        print(line)
    for failure in failures:
        print("perf gate FAILED: " + failure)
    print("perf gate: %s (%d unresolved)"
          % ("FAILED" if failures else "OK", unresolved))
    return 1 if failures else 0


def timed_runs(spec):
    """Every workload over SEEDS, seed by seed: (host line, runs by workload)."""
    fresh = {w["name"]: [] for w in spec["workloads"]}
    host = None
    for seed in SEEDS:
        for workload in fresh:
            run_host, run = perfbench(
                workload, seed, ["--seconds", str(SECONDS), "--trace", "0"])
            host = host or run_host
            fresh[workload].append(run)
    return host, fresh


def load_json(path):
    with open(path) as f:
        return json.load(f)


def check(spec):
    failures, host = [], None
    for workload in [w["name"] for w in spec["workloads"]]:
        run_host, run = perfbench(
            workload, 1, ["--seconds", "1", "--trace", "1", "--smoke"])
        host = host or run_host
        failures += run_problems(workload + " (smoke, traced)", [run])
    for failure in failures:
        print("perf gate FAILED: " + failure)
    if failures:
        return 1
    reference = load_json(REFERENCE) if os.path.exists(REFERENCE) else {}
    entry = baseline(reference, host)
    if entry is None:
        return 0
    _, fresh = timed_runs(spec)
    return report(spec, entry, fresh)


def record(spec):
    host, fresh = timed_runs(spec)
    failures = [p for w, runs in fresh.items() for p in run_problems(w, runs)]
    for failure in failures:
        print("perf gate: not recorded: " + failure)
    if failures:
        return 1
    reference = load_json(REFERENCE) if os.path.exists(REFERENCE) else {
        "format": "fixy-perf-reference", "hosts": {}}
    reference["hosts"][host] = {"seeds": SEEDS, "seconds": SECONDS,
                                "workloads": fresh}
    with open(REFERENCE, "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")
    print("perf gate: recorded %s for %s" % (REFERENCE, host))
    return 0


def main():
    if len(sys.argv) != 2 or sys.argv[1] not in ("check", "record"):
        sys.exit("usage: tools/perf_gate.py check|record")
    spec = load_json("BENCHMARK.json")
    sys.exit(check(spec) if sys.argv[1] == "check" else record(spec))


if __name__ == "__main__":
    main()
