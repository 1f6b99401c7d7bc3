"""Self-tests for the benchmark harness.

Run from the repository root with either of

    python3 -m pytest bench/tests
    python3 -m unittest discover -s bench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import unittest
from pathlib import Path
from unittest import mock

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import run  # noqa: E402
import verify  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402

MAIN = run.import_program().main
DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def one_cycle(plan: gen.Plan) -> gen.Plan:
    plan.jobs = plan.jobs[:plan.cycle_len]
    return plan


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_plan(self):
        for workload in gen.WORKLOADS:
            a, b = gen.build_plan(workload, 7), gen.build_plan(workload, 7)
            self.assertEqual(a.files, b.files)
            self.assertEqual([(j.argv, j.spec) for j in a.jobs], [(j.argv, j.spec) for j in b.jobs])

    def test_other_seed_other_inputs(self):
        for workload in gen.WORKLOADS:
            self.assertNotEqual(gen.build_plan(workload, 7).files,
                                gen.build_plan(workload, 8).files)

    def test_every_cycle_has_the_same_mix(self):
        for workload in gen.WORKLOADS:
            plan = gen.build_plan(workload, 3)
            sizes = [(j.kind, j.size) for j in plan.jobs]
            first = sizes[:plan.cycle_len]
            self.assertEqual(len(sizes), gen.CYCLES * plan.cycle_len)
            for start in range(0, len(sizes), plan.cycle_len):
                self.assertEqual(sizes[start:start + plan.cycle_len], first)

    def test_corrupted_table_breaks_contraposition_only_where_changed(self):
        rng = gen.random.Random(1)
        names, imp, neg = gen.table_of_product((3, 3), rng)
        bad = gen.corrupt_table(names, imp, neg, rng)
        changed = [k for k in imp if imp[k] != bad[k]]
        self.assertEqual(len(changed), 1)
        x, y = changed[0]
        self.assertNotEqual(x, y)
        self.assertNotEqual(bad[(x, y)], bad[(neg[y], neg[x])])


class CheckerTest(unittest.TestCase):
    def run_plan(self, plan, main, references=None):
        with run.workspace(plan, "selftest"):
            return run.run_jobs(main, plan, references, count=len(plan.jobs))

    def test_seed_outputs_pass(self):
        plan = gen.build_plan("algebra", 2)
        plan.jobs = plan.jobs[:5]
        result = self.run_plan(plan, MAIN)
        self.assertEqual(result.failures, [])

    def test_wrong_exit_code_counts_as_failed(self):
        plan = gen.build_plan("algebra", 2)
        plan.jobs = plan.jobs[:3]

        def wrong_exit(argv):
            MAIN(argv)
            return 1 if "chain5.lia" not in argv else 0

        result = self.run_plan(plan, wrong_exit)
        self.assertEqual(len(result.failures), 3)
        metrics = run.end_to_end(result, setup_s=0.1)
        self.assertEqual(metrics["failed_ratio"], 1.0)
        self.assertEqual(metrics["jobs_per_s"], 0.0)

    def test_wrong_json_counts_as_failed(self):
        plan = gen.build_plan("lattice", 2)
        plan.jobs = plan.jobs[:1]

        def wrong_concept(argv):
            # change one intent value consistently in the JSON and on stdout,
            # so only the fixpoint check can notice
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = MAIN(argv)
            path = Path(argv[argv.index("--json") + 1])
            doc = json.loads(path.read_text(encoding="utf-8"))
            concept = doc["concepts"][-1]
            old = f"({' '.join(concept['extent'])} | {' '.join(concept['intent'])})"
            concept["intent"][0] = "SlT" if concept["intent"][0] != "SlT" else "VeT"
            new = f"({' '.join(concept['extent'])} | {' '.join(concept['intent'])})"
            path.write_text(json.dumps(doc), encoding="utf-8")
            print(out.getvalue().replace(old, new), end="")
            return code

        result = self.run_plan(plan, wrong_concept)
        self.assertEqual(len(result.failures), 1)
        self.assertIn("fixpoint", result.failures[0][1])

    def test_raising_job_counts_as_failed(self):
        plan = gen.build_plan("algebra", 2)
        plan.jobs = plan.jobs[:1]

        def crash(argv):
            raise RuntimeError("boom")

        result = self.run_plan(plan, crash)
        self.assertEqual(len(result.failures), 1)
        self.assertIn("boom", result.failures[0][1])

    def test_reference_mismatch_counts_as_failed(self):
        plan = gen.build_plan("algebra", 2)
        plan.jobs = plan.jobs[:2]
        with run.workspace(plan, "selftest"):
            outcomes = [run.execute(MAIN, job)[1] for job in plan.jobs]
        references = [verify.reference_entry(o) for o in outcomes]
        self.assertEqual(self.run_plan(plan, MAIN, references).failures, [])
        references[1] = [references[1][0], "0" * 20, references[1][2]]
        failures = self.run_plan(plan, MAIN, references).failures
        self.assertEqual([index for index, _ in failures], [1])

    def test_mine_cycle_checks_congener_against_the_oracle(self):
        plan = one_cycle(gen.build_plan("mine", 5))
        plan.jobs = plan.jobs[:3]
        result = self.run_plan(plan, MAIN)
        self.assertEqual(result.failures, [])
        self.assertIsNotNone(plan.jobs[1].spec["extended"])
        self.assertNotEqual(plan.jobs[1].spec["extended"], plan.jobs[2].spec["extended"])

    def test_crisp_oracle(self):
        top, bottom = gen.TOP, gen.BOTTOM
        matrix = [[top, bottom], [top, top]]
        # extents: {g1, g2} (m1), {g2} (m2)
        self.assertEqual(verify.crisp_extents(matrix), {0b11, 0b10})


class MetricsTest(unittest.TestCase):
    def bench(self, *args) -> dict:
        out = io.StringIO()
        small = gen.ALGEBRA_CYCLE[:4]
        with mock.patch.object(gen, "ALGEBRA_CYCLE", small), contextlib.redirect_stdout(out):
            # a seed without recorded references, whose job list would not
            # match the shortened cycle
            self.assertEqual(run.main(["--workload", "algebra", "--seed", "1000000",
                                       "--seconds", "0.01", *args]), 0)
        (run.WORK / "spans-algebra-seed1000000.json").unlink(missing_ok=True)
        return json.loads(out.getvalue().strip().splitlines()[-1])

    def test_end_to_end_metrics_emitted(self):
        doc = self.bench("--trace", "0")
        self.assertTrue(doc["correct"])
        self.assertEqual(doc["failed"], 0)
        names = [m["name"] for m in DECLARED["end_to_end"]]
        self.assertEqual(sorted(doc["metrics"]), sorted(names))
        for metric in DECLARED["end_to_end"]:
            self.assertEqual(doc["metrics"][metric["name"]]["unit"], metric["unit"])
            self.assertGreater(doc["metrics"][metric["name"]]["value"], 0)

    def test_per_layer_metrics_emitted(self):
        doc = self.bench("--trace", "1")
        self.assertTrue(doc["correct"])
        names = [m["name"] for m in DECLARED["per_layer"]]
        self.assertEqual(names, list(LAYER_METRICS))
        self.assertEqual(sorted(doc["metrics"]), sorted(names))
        for metric in DECLARED["per_layer"]:
            self.assertEqual(doc["metrics"][metric["name"]]["unit"], metric["unit"])
            self.assertEqual(LAYER_METRICS[metric["name"]], (metric["unit"], metric["better"]))

    def test_tracer_sees_every_layer(self):
        plans = [one_cycle(gen.build_plan("mine", 1)), gen.build_plan("algebra", 1)]
        plans[0].jobs = plans[0].jobs[:3]
        plans[1].jobs = [j for j in plans[1].jobs[:plans[1].cycle_len] if "--table" in j.argv][:2]
        lattice = gen.build_plan("lattice", 1)
        lattice.jobs = lattice.jobs[:1]
        plans.append(lattice)
        import ltvcl.cli
        import ltvcl.galois

        values = {}
        for plan in plans:
            tracer = run.Tracer()
            tracer.install()
            try:
                with run.workspace(plan, "selftest"):
                    result = run.run_jobs(ltvcl.cli.main, plan, None, count=len(plan.jobs),
                                          tracer=tracer)
            finally:
                tracer.uninstall()
            self.assertEqual(result.failures, [])
            self.assertEqual(sum(1 for span in tracer.spans if span[3] == "cli.main"),
                             len(plan.jobs))
            for name, value in run.layer_metrics(tracer, result.attempted, 1.0).items():
                values[name] = max(values.get(name, 0.0), value)
        zero = sorted(name for name, value in values.items()
                      if value == 0 and name != "tacit.unclassified")
        self.assertEqual(zero, [])
        # uninstall restores the program
        self.assertIs(ltvcl.cli.main, MAIN)
        self.assertNotIn("wrapper", ltvcl.galois.enumerate_concepts.__code__.co_name)


if __name__ == "__main__":
    unittest.main()
