#!/usr/bin/env python3
"""Decision-path benchmark: builds the binaries, runs one workload, checks it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from the repository root. The first run configures and builds
perfbench/ (and with it the repository's libraries) into $CARGO_TARGET_DIR,
or .bench_build when that is unset. Each run happens in its own child
process, so peak RSS belongs to that run alone. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"},
with the end-to-end metrics for --trace 0 and the per-layer metrics for
--trace 1, names and units as listed in BENCHMARK.json. The exit code is 0
only when every correctness check passed. perfbench/README.md describes the
workloads and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper_ring", "sparse_n64", "sparse_n64_sharded", "event_replay"]
STREAMED = {"event_replay"}
BUILD_TIMEOUT_S = 840
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def run_logged(command, timeout):
    """Runs a build step with its output on stderr; raises on failure."""
    try:
        subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=timeout, check=True)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as error:
        raise BenchError(f"build step failed: {error}") from error


def build(out):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("the repository sources are not next to perfbench/")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_logged(["cmake", "-S", HERE, "-B", out, *generator,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S)
    run_logged(["cmake", "--build", out, "-j", "4", "--target", "perfbench",
                "perfbench_traced"], BUILD_TIMEOUT_S)


def source_digest():
    """Digest of everything the binaries are built from: ledger entries of
    other sources never meet."""
    digest = hashlib.sha256()
    roots = [os.path.join(ROOT, "src"), HERE]
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in roots:
        for folder, _, names in os.walk(top):
            files += [os.path.join(folder, name) for name in names]
    for path in sorted(files):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:16]


def run_child(command):
    """Runs a binary in its own process group; kills the whole group (shard
    workers included) if it overruns. Returns (exit code, stdout)."""
    child = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, start_new_session=True, cwd=ROOT)
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)  # stragglers of a crash
        except ProcessLookupError:
            pass
        child.wait()
    return child.returncode, stdout


def measure(out, workload, seed, seconds, trace):
    """One measuring child; returns its RESULT payload."""
    binary = os.path.join(out, "perfbench_traced" if trace else "perfbench")
    common = ["--workload", workload, "--seed", str(seed)]
    trace_path = None
    try:
        if workload in STREAMED:
            work = os.path.join(out, "work")
            os.makedirs(work, exist_ok=True)
            trace_path = os.path.join(work, f"{workload}-{seed}-{os.getpid()}.csv")
            code, _ = run_child([binary, *common, "--generate", trace_path])
            if code != 0:
                raise BenchError(f"input generation exited with {code}")
            # Write the input back now, not while the run reads it.
            with open(trace_path, "rb") as handle:
                os.fsync(handle.fileno())
            common += ["--input", trace_path]
        code, stdout = run_child([binary, *common, "--seconds", str(seconds),
                                  "--trace", "1" if trace else "0"])
    except subprocess.TimeoutExpired as error:
        raise BenchError(f"{workload}: run exceeded {CHILD_TIMEOUT_S} s") from error
    finally:
        if trace_path and os.path.exists(trace_path):
            os.remove(trace_path)
    lines = [line for line in stdout.splitlines() if line.startswith("RESULT ")]
    if code != 0 or len(lines) != 1:
        raise BenchError(f"{workload}: benchmark binary exited with {code}")
    try:
        result = json.loads(lines[0][len("RESULT "):])
        int(result["attempted"]), int(result["failed"])
        dict(result["metrics"]), dict(result["outcomes"]), list(result["errors"])
    except (ValueError, KeyError, TypeError) as error:
        raise BenchError(f"{workload}: malformed RESULT line") from error
    return result


def check_ledger(out, result):
    """Results of one seed and input variant must agree bitwise across runs
    and across the workloads of one group (sparse_n64 in process and
    sharded)."""
    path = os.path.join(out, "perfbench-ledger.json")
    ledger = {}
    if os.path.exists(path):
        with open(path) as handle:
            ledger = json.load(handle)
    prefix = f"{source_digest()}:{result['group']}:{result['seed']}"
    errors = []
    for variant, outcome in result["outcomes"].items():
        seen = ledger.setdefault(f"{prefix}:{variant}",
                                 {"outcome": outcome,
                                  "workload": result["workload"]})
        if seen["outcome"] != outcome:
            errors.append(f"variant {variant} differs from {seen['workload']}'s "
                          f"run at seed {result['seed']}")
    if errors:
        return errors
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(ledger, handle, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return []


def run_workload(out, workload, seed, seconds, trace, specs):
    """Returns (correct, attempted, failed, metrics) for one workload."""
    try:
        result = measure(out, workload, seed, seconds, trace)
    except BenchError as error:
        log(f"FAILED: {error}")
        return False, 1, 1, {}
    errors = result["errors"] + check_ledger(out, result)
    metrics = {}
    for spec in specs:
        value = result["metrics"].get(spec["name"])
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"metric {spec['name']} missing or not finite")
            continue
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    attempted, failed = result["attempted"], result["failed"]
    for error in errors:
        log(f"CHECK FAILED ({workload}): {error}")
    if errors:
        failed = attempted
    print(f"== {workload} (seed {seed}, {'traced' if trace else 'untraced'}, "
          f"{result['reps']} reps, {result['samples']} steady decisions)")
    for name, metric in metrics.items():
        print(f"  {name:32s} {metric['value']:>16.6g} {metric['unit']}")
    return not errors, attempted, failed, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")

    out = build_dir()
    try:
        build(out)
    except BenchError as error:
        log(f"error: {error}")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    specs = bench["per_layer" if args.trace else "end_to_end"]

    names = WORKLOADS if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        ok, tried, lost, values = run_workload(out, name, args.seed,
                                               args.seconds, args.trace, specs)
        correct, attempted, failed = correct and ok, attempted + tried, failed + lost
        if len(names) == 1:
            metrics = values
        else:
            metrics.update({f"{name}.{key}": value for key, value in values.items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
