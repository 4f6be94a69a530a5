#!/usr/bin/env python3
"""Builds and runs the codelayout benchmark.

    python3 perfbench/run.py --workload paper|layout|service --seed N \
        --seconds S --trace 0|1 [--threads T]

Run from the root of a source checkout. The first call configures and
builds perfbench/ (which compiles the library from src/) into the directory
named by CARGO_TARGET_DIR, default .bench_build; later calls only re-check
the build. The workload's outputs are hashed and compared with the hash
recorded in perfbench/expected_hashes.json for that workload and seed.

Stdout ends with two lines: the run's provenance (host cores, threads, seed,
build type, commit, source digest, output hash, whether the result is
comparable with the recorded baseline host), then the result:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}},
with the end-to-end metrics of BENCHMARK.json untraced and its per-layer
metrics traced. Traced runs also write a Perfetto file to .bench_out/.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
EXPECTED = HERE / "expected_hashes.json"
SOURCE_SUFFIXES = (".cpp", ".hpp", ".txt", ".py")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build():
    """Configures (once) and builds the benchmark binary; returns its
    path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {ROOT / 'src'}; "
             "run from a full checkout")
    out = build_dir()
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {step[:2]} failed: {e}")
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail(f"build step {' '.join(step[:2])} exited {done.returncode}")
    return out / "perfbench"


def commit_id():
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=10)
        if done.returncode == 0:
            return done.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def source_digest():
    """SHA-256 over the library and benchmark sources: identifies the code
    measured when the checkout carries no git metadata."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file() and path.suffix in SOURCE_SUFFIXES:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_binary(binary, workload, seed, seconds, trace, threads=0):
    """Runs the benchmark binary; returns its parsed last stdout
    line."""
    OUT_DIR.mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           # Relative to ROOT (the working directory): the daemon's
           # Unix socket lives there, and socket paths are short.
           "--out", str(OUT_DIR.relative_to(ROOT))]
    if threads:
        cmd += ["--threads", str(threads)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{workload} benchmark binary exited {done.returncode}")
    return json.loads(lines[-1])


def load_expected():
    return json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}


def expected_hash(expected, workload, seed):
    """The recorded output hash, or None. A workload whose outputs do not
    depend on the seed records one hash under "*"."""
    per_workload = expected.get("hashes", {}).get(workload, {})
    return per_workload.get("*", per_workload.get(str(seed)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--threads", type=int, default=0,
                        help="engine threads (default: every available core)")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    binary = build()
    raw = run_binary(binary, args.workload, args.seed, args.seconds,
                     args.trace, args.threads)

    correct = bool(raw["correct"])
    problems = list(raw["problems"])
    expected = load_expected()
    want = expected_hash(expected, args.workload, args.seed)
    if want is not None and want != raw["output_hash"]:
        correct = False
        problems.append(f"output hash {raw['output_hash']} != recorded {want}")
    if args.trace:
        try:
            trace_file = ROOT / raw["provenance"]["trace_file"]
            spans = json.loads(trace_file.read_text())
            if not spans["traceEvents"]:
                raise ValueError("no spans")
        except (KeyError, OSError, ValueError) as e:
            correct = False
            problems.append(f"no readable Perfetto trace: {e}")

    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name not in raw["metrics"]:
            fail(f"benchmark binary reported no {name}")
        metrics[name] = {"value": raw["metrics"][name], "unit": metric["unit"]}

    provenance = dict(raw["provenance"])
    provenance.update({
        "workload": args.workload,
        "trace": args.trace,
        "commit": commit_id(),
        "output_hash": raw["output_hash"],
        "hash_recorded": want is not None,
        "source_digest": source_digest(),
        "baseline_host_cores": expected.get("host_cores"),
        "comparable": expected.get("host_cores") == provenance["host_cores"],
        "problems": problems,
    })
    result = {"correct": correct, "attempted": int(raw["attempted"]),
              "failed": int(raw["failed"]), "metrics": metrics}
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({"provenance": provenance, **result}, indent=1))
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
