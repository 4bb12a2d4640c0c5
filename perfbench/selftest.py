#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/selftest.py

The file name is outside pytest's default pattern on purpose: the traced
builds below take about 15 s, and the repository's own test suite
should not run them.
"""

import copy
import json
import sys
import unittest

from check import check, euler_oracle, load_table
from run import END_TO_END, OUT, ROOT, import_cli, run_inprocess
from tracer import PER_LAYER, Tracer, patched
from workloads import WORKLOADS, Call

cli = import_cli()


class OutputCheck(unittest.TestCase):
    call = Call(("homology", "--space", "s2", "--k", "3", "--seed", "0"), "s2")

    def setUp(self):
        self.table = load_table()
        _, [(_, self.rc, self.out)] = run_inprocess(cli, [self.call])

    def test_accepts_the_engine_answer(self):
        self.assertEqual(self.rc, 0)
        self.assertIsNone(check(self.call, self.rc, self.out, self.table))

    def test_rejects_a_tampered_table(self):
        tampered = copy.deepcopy(self.table)
        tampered[self.call.key]["torsion"][4] = [3]
        self.assertIn("torsion", check(self.call, 0, self.out, tampered))

    def test_rejects_a_nonzero_exit(self):
        self.assertEqual(check(self.call, 1, self.out, self.table), "exit 1")

    def test_rejects_unparsable_output(self):
        self.assertIn("unparsable", check(self.call, 0, "Traceback", self.table))

    def test_rejects_an_answer_the_oracles_refute(self):
        # a table entry made to agree with a wrong answer: the Euler and
        # Tuffley oracles still catch it
        call = Call(("homology", "--space", "s1", "--k", "3", "--seed", "0"),
                    "s1")
        wrong = {"f_vector": [1, 2, 2, 2], "betti": [1, 0, 0, 1],
                 "torsion": [[], [], [], []], "verdict": None}
        table = {call.key: wrong}
        self.assertIn("euler", check(call, 0, json.dumps(wrong), table))
        wrong = {"f_vector": [1, 2, 2, 1], "betti": [1, 1, 1, 1],
                 "torsion": [[], [], [], []], "verdict": None}
        table = {call.key: wrong}
        self.assertIn("Tuffley", check(call, 0, json.dumps(wrong), table))

    def test_every_verify_sweep_answer_passes(self):
        calls = WORKLOADS["verify-sweep"](0, OUT / "inputs")
        self.assertEqual({c.fmt for c in calls}, {"json", "csv", "text"})
        self.assertEqual({c.command for c in calls if c.argv[0] == "verify"},
                         {"verify theorem1", "verify tuffley", "verify lemma1",
                          "verify invariance", "verify oracle"})
        self.assertTrue(any("--file" in c.argv for c in calls))
        _, results = run_inprocess(cli, calls)
        for call, rc, out in results:
            self.assertIsNone(check(call, rc, out, self.table), call.argv)


class EulerOracle(unittest.TestCase):
    def test_known_values(self):
        self.assertEqual(euler_oracle("s2", 4), 3)
        self.assertEqual(euler_oracle("s3", 3), 0)
        self.assertEqual(euler_oracle("wedge:1,1,1,1,1", 4), 21)
        self.assertEqual(euler_oracle("wedge:1,1,1", 4), 2)
        self.assertEqual(euler_oracle("wedge:1,1,1", 5), -4)


class Trace(unittest.TestCase):
    def test_patches_every_binding_and_restores_it(self):
        import subsetspace
        # the package re-exports the function homology over the submodule
        # name, so the submodules come from sys.modules
        mod = {name: sys.modules[f"subsetspace.{name}"]
               for name in ("cli", "expk", "homology", "verify")}
        original = mod["homology"].space_homology
        with Tracer().spans_installed():
            wrapped = mod["homology"].space_homology
            self.assertIsNot(wrapped, original)
            for binder in (mod["cli"], mod["verify"], subsetspace):
                self.assertIs(binder.space_homology, wrapped)
            self.assertIs(subsetspace.homology, mod["homology"].homology)
            self.assertIsNot(subsetspace.homology.__wrapped__,
                             subsetspace.homology)
            self.assertIs(mod["verify"].build_expk, mod["expk"].build_expk)
            self.assertIs(mod["verify"].restricted_chains,
                          mod["homology"].restricted_chains)
        for binder in (mod["homology"], mod["cli"], mod["verify"], subsetspace):
            self.assertIs(binder.space_homology, original)

    def test_a_missing_name_is_reported_absent(self):
        with patched([("expk", "no_such_function"),
                      ("no_such_module", "f")], lambda n, f: f) as absent:
            self.assertEqual(absent, ["expk.no_such_function",
                                      "no_such_module.f"])

    def test_named_spans_cover_the_heavy_workloads(self):
        for name in ("build-s3k3", "snf-circle5k4"):
            calls = WORKLOADS[name](0, OUT / "inputs")
            tracer = Tracer()
            with tracer.spans_installed():
                wall, results = run_inprocess(cli, calls)
            self.assertEqual(results[0][1], 0)
            metrics = tracer.metrics(wall, [wall])
            self.assertGreaterEqual(metrics["trace.coverage"], 0.9, name)


class BenchmarkFile(unittest.TestCase):
    def test_lists_what_the_code_reports(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         PER_LAYER)


if __name__ == "__main__":
    unittest.main()
