"""Record reference outputs for the benchmark's checker.

Usage, from the repository root:

    python3 bench/record.py --seeds 1-10 [--workload lattice ...]

For each workload and seed this runs every job of the plan once, requires
each to pass the independent checks in verify.py, and stores its exit code
and the digests of its stdout and JSON output in ``bench/refs/<workload>.json``.
Run it only on the commit whose behaviour is the reference; later commits
must reproduce these outputs byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

import gen
import run
import verify


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def record(main, workload: str, seed: int) -> list[list]:
    plan = gen.build_plan(workload, seed)
    entries = []
    with run.workspace(plan, f"record-{workload}-{seed}"):
        for index, job in enumerate(plan.jobs):
            _, outcome = run.execute(main, job)
            if job.kind == "mine":
                run.prepare_followers(plan, index, outcome)
            reason = verify.check(job, outcome, None)
            if reason is not None:
                raise SystemExit(f"error: {workload} seed {seed} job {index} fails: {reason}")
            entries.append(verify.reference_entry(outcome))
    return entries


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="record reference outputs")
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,2,5")
    parser.add_argument("--workload", action="append", choices=gen.WORKLOADS)
    args = parser.parse_args(argv)
    main_fn = run.import_program().main
    os.environ.pop("LTVCL_BUDGET", None)
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=run.ROOT,
                            capture_output=True, text=True).stdout.strip() or "unknown"
    run.REFS.mkdir(exist_ok=True)
    for workload in args.workload or gen.WORKLOADS:
        path = run.REFS / f"{workload}.json"
        doc = {"seeds": {}}
        if path.is_file():
            doc = json.loads(path.read_text(encoding="utf-8"))
        for seed in parse_seeds(args.seeds):
            doc["seeds"][str(seed)] = record(main_fn, workload, seed)
            print(f"{workload} seed {seed}: {len(doc['seeds'][str(seed)])} jobs", flush=True)
        doc["recorded_at"] = {"commit": commit, "python": platform.python_version()}
        doc["seeds"] = dict(sorted(doc["seeds"].items(), key=lambda kv: int(kv[0])))
        path.write_text(json.dumps(doc, indent=0) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
