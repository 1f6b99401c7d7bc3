"""ltvcl benchmark: seeded CLI jobs, run in process, checked, and measured.

Usage, from the repository root:

    python3 bench/run.py --workload lattice|mine|algebra --seed N \
        --seconds S --trace 0|1

The benchmark is a closed loop with one client: it calls
``ltvcl.cli.main(argv)`` for one job at a time, in this process, on inputs
generated from ``--seed`` (see gen.py), and checks every output (see
verify.py). It runs whole cycles of the workload's job list until
``--seconds`` have passed.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs whole cycles
untraced for a third of ``--seconds``, replays the same jobs under the span
tracer (see tracer.py), and prints the per-layer metrics. Human-readable lines come
first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The program is imported from ``src/`` next to this directory and never from
anywhere else; without it the benchmark exits with an error and prints no
result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import gen
import verify
from tracer import LAYER_METRICS, Tracer, layer_metrics

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFS = BENCH_DIR / "refs"
SETUP_REPEATS = 15
IMPORT_TIMER = ("import time; t = time.perf_counter(); import ltvcl; "
                "print(time.perf_counter() - t)")

# name -> unit, in print order; the JSON line carries all but failed_ratio,
# which is 0 on a correct run and is reported there as ``failed``/``attempted``
END_TO_END = {
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "failed_ratio": "ratio",
}


class Run:
    """Samples of one pass over the job list."""

    def __init__(self):
        self.times: list[float] = []
        self.failures: list[tuple[int, str]] = []

    @property
    def attempted(self) -> int:
        return len(self.times)


def import_program():
    """Import ``ltvcl.cli`` from ``SRC`` and return the module."""
    if not (SRC / "ltvcl" / "__init__.py").is_file():
        raise SystemExit(f"error: no ltvcl package under {SRC}")
    sys.path.insert(0, str(SRC))
    import ltvcl.cli

    if Path(ltvcl.cli.__file__).resolve().parent != (SRC / "ltvcl").resolve():
        raise SystemExit(f"error: imported ltvcl from {ltvcl.cli.__file__}, not from {SRC}")
    return ltvcl.cli


def load_references(workload: str, seed: int) -> list | None:
    path = REFS / f"{workload}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8"))["seeds"].get(str(seed))


@contextlib.contextmanager
def workspace(plan: gen.Plan, name: str):
    """Write the plan's input files to a fresh directory under ``WORK``, run
    inside it, and remove it afterwards."""
    workdir = WORK / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    home = os.getcwd()
    try:
        for file, text in plan.files.items():
            (workdir / file).write_text(text, encoding="utf-8")
        os.chdir(workdir)
        yield
    finally:
        os.chdir(home)
        shutil.rmtree(workdir, ignore_errors=True)


def execute(main, job: gen.Job) -> tuple[float, verify.Outcome]:
    """Call ``main`` once with stdout captured; return its wall time and outcome."""
    if job.json_out:
        with contextlib.suppress(FileNotFoundError):
            os.remove(job.json_out)
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(job.argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a failed job, not a failed benchmark
        error = "".join(traceback.format_exception_only(exc)).strip()
    elapsed = perf_counter() - start
    json_text = None
    if job.json_out and os.path.exists(job.json_out):
        with open(job.json_out, encoding="utf-8") as handle:
            json_text = handle.read()
    return elapsed, verify.Outcome(code, out.getvalue(), json_text, error)


def prepare_followers(plan: gen.Plan, index: int, outcome: verify.Outcome) -> None:
    """After a mine job, write the extension files its check-congener jobs read."""
    job = plan.jobs[index]
    followers = plan.jobs[index + 1:index + 3]
    for follower in followers:
        follower.spec["extended"] = None
        with contextlib.suppress(FileNotFoundError):
            os.remove(follower.spec["extension"])
    try:
        names, extended, flipped = gen.extension_matrices(job, json.loads(outcome.json_text))
    except (TypeError, ValueError, KeyError):
        return  # the mine job fails its own check; its followers fail for lack of input
    for follower, matrix in zip(followers, (extended, flipped)):
        Path(follower.spec["extension"]).write_text(gen.context_text(matrix, names), encoding="utf-8")
        follower.spec["extended"] = matrix


def run_jobs(main, plan: gen.Plan, references: list | None, *,
             seconds: float | None = None, count: int | None = None,
             tracer: Tracer | None = None) -> Run:
    """Run jobs in list order, wrapping around, until ``count`` jobs have run
    or, at a cycle boundary, ``seconds`` have passed."""
    run = Run()
    start = perf_counter()
    i = 0
    while True:
        index = i % len(plan.jobs)
        job = plan.jobs[index]
        if tracer is not None:
            tracer.job = i
        elapsed, outcome = execute(main, job)
        if job.kind == "mine":
            prepare_followers(plan, index, outcome)
        reference = references[index] if references else None
        reason = verify.check(job, outcome, reference)
        run.times.append(elapsed)
        if reason is not None:
            run.failures.append((index, reason))
        i += 1
        if count is not None:
            if i >= count:
                return run
        elif i % plan.cycle_len == 0 and perf_counter() - start >= seconds:
            return run


def measure_setup() -> float:
    """Median time a fresh interpreter takes to ``import ltvcl``, timed inside
    the child so that process start-up noise stays out."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-c", IMPORT_TIMER]
    times = []
    for i in range(SETUP_REPEATS + 1):
        done = subprocess.run(argv, env=env, cwd=ROOT, check=True, capture_output=True, text=True)
        if i:  # the first run writes bytecode caches
            times.append(float(done.stdout))
    return statistics.median(times)


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def class_medians(plan: gen.Plan, run: Run) -> list[str]:
    """One line per job kind and size: sample count and median time."""
    by_class: dict[str, list[float]] = {}
    for i, elapsed in enumerate(run.times):
        job = plan.jobs[i % len(plan.jobs)]
        by_class.setdefault(f"{job.kind} {job.size}", []).append(elapsed)
    return [f"{name:20s} n={len(times):3d}  median {statistics.median(times):.4f} s"
            for name, times in sorted(by_class.items(), key=lambda kv: statistics.median(kv[1]))]


def end_to_end(run: Run, setup_s: float) -> dict[str, float]:
    correct = run.attempted - len(run.failures)
    return {
        "jobs_per_s": correct / sum(run.times),
        "job_p50_s": statistics.median(run.times),
        "job_p90_s": percentile(run.times, 90),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failed_ratio": len(run.failures) / run.attempted,
    }


def report(args, runs: list[Run], metrics: dict[str, tuple[float, str]], extra: list[str]) -> None:
    attempted = sum(r.attempted for r in runs)
    failures = [f for r in runs for f in r.failures]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{attempted} jobs, {len(failures)} failed")
    for index, reason in failures[:20]:
        print(f"  FAILED job {index}: {reason}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    for line in extra:
        print(f"  {line}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items() if name != "failed_ratio"},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    cli = import_program()
    os.environ.pop("LTVCL_BUDGET", None)  # the default budget applies
    plan = gen.build_plan(args.workload, args.seed)
    references = load_references(args.workload, args.seed)
    if references is not None and len(references) != len(plan.jobs):
        raise SystemExit(f"error: references for seed {args.seed} do not match the job list")

    with workspace(plan, f"{args.workload}-{args.seed}"):
        if not args.trace:
            setup_s = measure_setup()
            run = run_jobs(cli.main, plan, references, seconds=args.seconds)
            values = end_to_end(run, setup_s)
            metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
            extra = [f"{run.attempted} job samples in {sum(run.times):.2f} s inside main; "
                     f"the cycle has {plan.cycle_len} jobs"]
            extra += class_medians(plan, run)
            runs = [run]
        else:
            plain = run_jobs(cli.main, plan, references, seconds=args.seconds / 3)
            tracer = Tracer()
            tracer.install()
            try:
                # read cli.main again: install() has rebound it
                traced = run_jobs(cli.main, plan, references, count=plain.attempted,
                                  tracer=tracer)
            finally:
                tracer.uninstall()
            overhead = sum(traced.times) / sum(plain.times)
            values = layer_metrics(tracer, traced.attempted, overhead)
            metrics = {name: (values[name], unit) for name, (unit, _) in LAYER_METRICS.items()}
            spans = WORK / f"spans-{args.workload}-seed{args.seed}.json"
            tracer.dump(spans)
            extra = [f"{len(tracer.spans)} spans over {traced.attempted} jobs written to "
                     f"{spans.relative_to(ROOT)}"]
            runs = [plain, traced]
    report(args, runs, metrics, extra)
    return 0


if __name__ == "__main__":
    sys.exit(main())
