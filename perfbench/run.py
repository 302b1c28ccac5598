#!/usr/bin/env python3
"""End-to-end benchmark of the om64 link / relink / simulate pipeline.

Builds the benchmark package (perfbench/CMakeLists.txt, which compiles the
repository's libraries from ../src), runs one workload and prints one JSON
result line as the last line of standard output.

  python3 perfbench/run.py --workload mega-link --seed 1 --seconds 30 --trace 0

Steadiness mode runs one workload K times, with seeds SEED..SEED+K-1, and
prints for every end-to-end metric the median, the quartiles, the quartile
spread and (max - min) / median over the K runs:

  python3 perfbench/run.py --workload spec-loop --steadiness 10

Run it from the repository root. Build products, module files, sockets and
traces go to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).
See perfbench/README.md for the metrics and how to read them.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("mega-link", "mega-edit", "spec-loop")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build(bdir):
    """Configures once, then builds incrementally. Build output goes to
    stderr so the last line of stdout stays the result."""
    cache = os.path.join(bdir, "CMakeCache.txt")
    if os.path.exists(cache):
        # A build tree configured for another checkout cannot be reused.
        with open(cache) as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in f.read():
                shutil.rmtree(bdir)
    if not os.path.exists(cache):
        cmd = ["cmake", "-S", HERE, "-B", bdir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            # A half-configured tree would make the next run skip this step.
            shutil.rmtree(bdir, ignore_errors=True)
            return False
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        return False
    # The benchmark's own helpers (statistics, span self time) are checked
    # before any figure they compute is trusted.
    return subprocess.run([os.path.join(bdir, "perfbench_helpers_test")],
                          stdout=sys.stderr).returncode == 0


def expected_metrics(trace):
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def check_exact_across_runs(bdir, binary, workload, seed, exact):
    """Exact values must repeat across runs of one build with one seed; a
    difference is nondeterminism, not noise. Returns an error or None."""
    record_dir = os.path.join(bdir, "exact")
    os.makedirs(record_dir, exist_ok=True)
    path = os.path.join(record_dir, f"{workload}-seed{seed}.json")
    key = file_digest(binary)
    if os.path.exists(path):
        with open(path) as f:
            old = json.load(f)
        if old.get("binary") == key:
            changed = sorted(k for k in set(old["exact"]) | set(exact)
                             if old["exact"].get(k) != exact.get(k))
            if changed:
                return "nondeterminism across runs: " + ", ".join(changed)
            return None
    with open(path, "w") as f:
        json.dump({"binary": key, "exact": exact}, f)
    return None


def run_once(workload, seed, seconds, trace, program_seed=1):
    """Builds if needed and runs one workload. Returns the result dict, or
    None after printing why there is none."""
    bdir = build_dir()
    if not build(bdir):
        log("build failed")
        return None
    binary = os.path.join(bdir, "perfbench")
    # Relative, so the daemon's socket path stays within sun_path's limit.
    work = os.path.relpath(os.path.join(bdir, "work",
                                        f"{workload}-{os.getpid()}"))
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--program-seed", str(program_seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0",
           "--work-dir", work]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
        return None
    finally:
        # Module files and the socket; the trace is kept beside them.
        for name in os.listdir(work) if os.path.isdir(work) else []:
            p = os.path.join(work, name)
            if os.path.isdir(p):
                shutil.rmtree(p, ignore_errors=True)
        if os.path.isdir(work) and not os.listdir(work):
            os.rmdir(work)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"{workload} exited with code {proc.returncode}")
        return None
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    exact = next((json.loads(l[len("exact: "):]) for l in lines
                  if l.startswith("exact: ")), {})
    err = check_exact_across_runs(bdir, binary,
                                  f"{workload}-p{program_seed}", seed, exact)
    if err:
        log(err)
        result["correct"] = False
        result["failed"] += 1
    result["attempted"] += 1
    missing = expected_metrics(trace) ^ set(result["metrics"])
    if missing:
        log("metrics differ from BENCHMARK.json: " + ", ".join(sorted(missing)))
        return None
    return result


def steadiness(args):
    """Runs one workload K times and tabulates every end-to-end metric."""
    values = {}
    for i in range(args.steadiness):
        seed = args.seed + i
        log(f"steadiness run {i + 1}/{args.steadiness}, seed {seed}")
        result = run_once(args.workload, seed, args.seconds, False,
                          args.program_seed)
        if result is None or not result["correct"]:
            log("run failed; no table")
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print(f"\n{args.workload}: {args.steadiness} runs, seeds {args.seed}.."
          f"{args.seed + args.steadiness - 1}, --seconds {args.seconds}")
    print(f"{'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'(q3-q1)/med':>12} {'(max-min)/med':>14}")
    for name, v in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
        iqr = (q3 - q1) / med if med else 0.0
        rng = (max(v) - min(v)) / med if med else 0.0
        print(f"{name:<20} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{iqr:>12.4f} {rng:>14.4f}")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--program-seed", type=int, default=1,
                   help="megagen program of the mega-* workloads")
    p.add_argument("--steadiness", type=int, metavar="K", default=0,
                   help="run the workload K times and print the spread")
    args = p.parse_args()
    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        log("run from a checkout of the repository: ../src is missing")
        return 2
    if args.steadiness:
        return steadiness(args)
    result = run_once(args.workload, args.seed, args.seconds,
                      bool(args.trace), args.program_seed)
    if result is None:
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
