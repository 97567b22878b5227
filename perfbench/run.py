#!/usr/bin/env python3
"""Builds and runs the Fixy benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload batch-dense --seed 1 --seconds 15 --trace 0

Steps, all inside the checkout:
  1. configure + build perfbench/ (Release) into $CARGO_TARGET_DIR or
     .bench_build (incremental after the first run);
  2. materialize the workload's inputs for --seed into .bench_data/, in a
     process of their own, reused by later runs with the same seed;
  3. run the timed process, pass its report through, and check that its
     last line is the result object with exactly the metrics BENCHMARK.json
     names (end_to_end with --trace 0, per_layer with --trace 1).

Exits non-zero without printing a result when any step fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

RUN_TIMEOUT_S = 170
GEN_TIMEOUT_S = 120


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_quiet(cmd, env, timeout):
    """Runs a helper step with its output on stderr (stdout is the report)."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if done.returncode != 0:
        fail("failed (%d): %s" % (done.returncode, " ".join(cmd)))


def build(root, env):
    source = os.path.join(root, "perfbench")
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", source, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_quiet(configure, env, 600)
    run_quiet(["cmake", "--build", build_dir, "--target", "fixy_perfbench",
               "-j", "4"], env, 900)
    return os.path.join(build_dir, "fixy_perfbench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: every phase and check in seconds; "
                             "the figures mean nothing")
    args = parser.parse_args()

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        fail("run from the checkout root (no BENCHMARK.json here)")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)

    # Compilers and the program write temporaries; keep them in the checkout.
    tmp = os.path.join(root, ".bench_tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)

    binary = build(root, env)

    smoke = ["--smoke", "1"] if args.smoke else []
    inputs = subprocess.run(
        [binary, "inputs", "--workload", args.workload, "--seed",
         str(args.seed)] + smoke, stdout=subprocess.PIPE, text=True,
        check=True).stdout.strip()
    tag = "%s-s%d" % (args.workload, args.seed)
    data = os.path.join(".bench_data", "%s-%s" % (tag, inputs))
    if not os.path.exists(os.path.join(data, "done")):
        staging = data + ".partial"
        shutil.rmtree(staging, ignore_errors=True)
        os.makedirs(staging)
        run_quiet([binary, "gen", "--workload", args.workload, "--seed",
                   str(args.seed), "--data", staging] + smoke, env,
                  GEN_TIMEOUT_S)
        open(os.path.join(staging, "done"), "w").close()
        shutil.rmtree(data, ignore_errors=True)
        os.rename(staging, data)

    work = os.path.join(".bench_work", "%s-%d" % (tag, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [binary, "run", "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--data", data, "--work", work] + smoke
    started = time.monotonic()
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              env=env, timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("run timed out after %d s" % RUN_TIMEOUT_S)
    if done.returncode != 0:
        sys.stdout.write(done.stdout)
        fail("run failed with code %d" % done.returncode)
    lines = done.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])

    section = "per_layer" if args.trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in spec[section]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        sys.stdout.write(done.stdout)
        fail("metrics differ from BENCHMARK.json %s: missing %s, extra %s, "
             "units %s" % (section, sorted(set(want) - set(got)),
                           sorted(set(got) - set(want)),
                           sorted(k for k in got if k in want and
                                  got[k] != want[k])))
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result keys %s" % sorted(result))

    for line in lines[:-1]:
        print(line)
    print("run: %.1f s wall, work dir %s" % (time.monotonic() - started, work))
    if args.trace == 0:
        # Traced runs keep their spans (trace.json) in the work dir.
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
