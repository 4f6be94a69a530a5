#!/usr/bin/env python3
"""Records the expected output hashes the benchmark checks against.

    python3 perfbench/record_hashes.py [--seeds 0-40,42] \
        [--workloads paper,layout,service]

Runs one round of each workload per seed and merges the hashes into
perfbench/expected_hashes.json together with this host's core count. A seed
whose hash is already recorded must reproduce it; a mismatch stops the
script. Run it only on a build whose outputs are known good (the golden test
suite passes), and record in CHANGES.md why the hashes changed.
"""

import argparse
import json
import os

import run

# One hash serves every seed: `paper` runs the paper's fixed experiment set,
# and `service`'s seed only orders its fixed job design and picks repeats.
SEED_FREE = ("paper", "service")


def parse_seeds(text):
    """"0-40,42,100" -> [0, 1, ..., 40, 42, 100]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-40")
    parser.add_argument("--workloads", default="paper,layout,service")
    args = parser.parse_args()

    binary = run.build()
    expected = run.load_expected()
    expected["host_cores"] = len(os.sched_getaffinity(0))
    hashes = expected.setdefault("hashes", {})
    for workload in args.workloads.split(","):
        seeds = [0] if workload in SEED_FREE else parse_seeds(args.seeds)
        table = hashes.setdefault(workload, {})
        for seed in seeds:
            # --seconds 0: exactly one round.
            raw = run.run_binary(binary, workload, seed, 0, 0)
            if not raw["correct"] or raw["failed"]:
                run.fail(f"{workload} seed {seed}: {raw['problems']}")
            key = "*" if workload in SEED_FREE else str(seed)
            if table.get(key, raw["output_hash"]) != raw["output_hash"]:
                run.fail(f"{workload} seed {seed}: hash {raw['output_hash']} "
                         f"!= recorded {table[key]}")
            table[key] = raw["output_hash"]
            print(f"{workload} seed {seed}: {raw['output_hash']}", flush=True)
            # Saved per seed, so an interrupted capture keeps what it checked.
            run.EXPECTED.write_text(
                json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
