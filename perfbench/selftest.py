"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Checks that a tiny run of every workload emits every metric named in
BENCHMARK.json with its unit and no failed check, that each output check
counts a corrupted output as a failure (so the gates can fail), that the
tracer computes self time and skips names the package no longer has, and
that the benchmark refuses to run without the package source.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import run  # sets the single-thread environment before numpy loads
import workloads
from spans import NO_ITEM, Tracer

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
api = run.import_package()


def bench(*args, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False,
    )


def first_good(workload, seed=5):
    item = workload.inputs(api, seed)[0][-1]
    out = workload.run(api, item)
    return item, out


class CatalogueTest(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(run.WORKLOAD_NAMES))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]],
            [(name, unit, better) for name, (unit, better) in workloads.END_TO_END.items()],
        )
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]],
            workloads.per_layer_catalogue(),
        )


class TinyRunTest(unittest.TestCase):
    """One cycle of every workload, untraced and traced."""

    def run_tiny(self, name, trace):
        proc = bench("--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace), "--min-items", "0")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stderr)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertTrue(any(f"{name} failed_ratio = 0 ratio" in line for line in lines))
        return result["metrics"], lines

    def test_every_workload_emits_every_metric(self):
        for name in run.WORKLOAD_NAMES:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    metrics, lines = self.run_tiny(name, trace)
                    expected = {m["name"]: m["unit"] for m in SPEC[key]}
                    self.assertEqual({k: v["unit"] for k, v in metrics.items()}, expected)
                    for metric in metrics.values():
                        self.assertTrue(math.isfinite(metric["value"]))
                    if trace:
                        self.check_accounting(metrics)
                    else:
                        self.assertGreater(min(m["value"] for m in metrics.values()), 0)
                        wl = workloads.WORKLOADS[name]
                        printed = {line.split()[1] for line in lines if line.startswith(name + "   ")}
                        expected = {f"{wl.plural}_per_s", f"{wl.noun}_p50_ms", f"{wl.noun}_p90_ms"}
                        if name == "predictive":
                            expected.add("set_size_total")
                        self.assertLessEqual(expected, printed)

    def check_accounting(self, metrics):
        """Layer self times plus the untraced remainder make up the traced time."""
        shares = [metrics[f"{layer}.self_share"]["value"] for layer in run.LAYERS]
        remainder = metrics["untraced.remainder_share"]["value"]
        self.assertTrue(all(0 <= s <= 1 for s in shares))
        self.assertGreaterEqual(remainder, 0)
        self.assertAlmostEqual(sum(shares) + remainder, 1.0, places=9)


class CheckGateTest(unittest.TestCase):
    """Each check passes the real output and fails a corrupted one."""

    def assertFails(self, failures):
        self.assertGreaterEqual(len(failures), 1)

    def test_operation_errors_count(self):
        wl = workloads.WORKLOADS["predictive"]
        item, _ = first_good(wl)
        err = api.TruncationInsufficient("cap reached")
        self.assertFails(run.check_records(wl, [(item, err, 0.0)]))
        self.assertFails(run.check_records(wl, [(item, AssertionError("not minimal"), 0.0)]))

    def test_coverage(self):
        wl = workloads.WORKLOADS["coverage-label"]
        item, report = first_good(wl)
        self.assertEqual(wl.check(item, report), [])
        self.assertFails(wl.check(item, dataclasses.replace(report, hits=item.trials + 1)))
        records = [(item, report, 0.0)]
        self.assertEqual(wl.finish(api, records), [])
        self.assertFails(wl.finish(api, [(item, dataclasses.replace(report, hits=0), 0.0)]))
        self.assertEqual(workloads.check_anchor(workloads.run_anchor(api)), [])
        self.assertFails(workloads.check_anchor(dataclasses.replace(report, hits=9042)))

    def test_lattice(self):
        wl = workloads.WORKLOADS["lattice"]
        item = wl.inputs(api, 5)[0][0]  # K = 4 reaches every check
        self.assertEqual(item.k, workloads.CAPACITY_K)
        out = wl.run(api, item)
        self.assertEqual(wl.check(item, out), [])
        focal = out["focal"]
        a, _ = out["regions"][0]
        broken = api.CheckResult(False, 2, "alternating")
        low_label = min(range(item.k), key=lambda i: out["contour"].values[i])
        low_mass = api.ProbabilityVector(tuple(float(i == low_label) for i in range(item.k)))
        self.assertFalse(workloads._dominated(low_mass.weights, out["upper"]))
        corruptions = {
            "prop1": dataclasses.replace(out["prop1"], passed=False),
            "focal": dataclasses.replace(focal, elements=focal.elements[::-1]),
            "regions": [(a, api.Event.empty(item.k))] + out["regions"][1:],
            "members": [(True, False)] + out["members"][1:],
            "entropy": 0.25,
            "samples": out["samples"] + [low_mass],
            "capacity": out["capacity"] + [broken],
        }
        for key, bad in corruptions.items():
            with self.subTest(corrupted=key):
                self.assertFails(wl.check(item, {**out, key: bad}))
        self.assertEqual(wl.extra(api), [])
        good = json.dumps({"contour": workloads.TABLE1_CONTOUR})
        self.assertEqual(workloads.check_table1(0, good), [])
        self.assertFails(workloads.check_table1(1, good))
        self.assertFails(workloads.check_table1(0, json.dumps({"contour": ["1/1"] * 3})))
        self.assertFails(workloads.check_table1(0, "not json"))

    def test_predictive(self):
        wl = workloads.WORKLOADS["predictive"]
        item, report = first_good(wl)
        self.assertEqual(wl.check(item, report), [])
        self.assertFails(wl.check(item, dataclasses.replace(report, lower=1 - item.alpha - 1e-9)))
        self.assertFails(wl.check(item, dataclasses.replace(report, support=frozenset({report.truncation + 1}))))
        self.assertFails(wl.check(item, dataclasses.replace(report, support=frozenset())))


class TracerTest(unittest.TestCase):
    def test_self_time_excludes_children(self):
        space = api.FiniteOutcomeSpace(("a", "b", "c"))
        contour = api.transduce_grid(("a", "b", "b", "c"), space, api.NonconformityMeasure.one_minus_emp()).contour
        tracer = Tracer(targets={"region": ("prop1_check",), "possibility": ("upper_table",)})
        with tracer:
            api.prop1_check(contour)
        totals = tracer.totals()
        parent = totals.rows[(NO_ITEM, "region.prop1_check")]
        child = totals.rows[(NO_ITEM, "possibility.upper_table")]
        self.assertEqual(parent[1], parent[0] + child[1])
        self.assertEqual(child[0], child[1])
        self.assertEqual(len(tracer), 2)

    def test_missing_names_are_skipped_and_originals_restored(self):
        original = api.upper_table
        tracer = Tracer(targets={"possibility": ("upper_table", "no_such_function"), "nowhere": ("f",)})
        with tracer:
            self.assertIsNot(api.upper_table, original)
        self.assertIs(api.upper_table, original)
        self.assertEqual(tracer.skipped, ["possibility.no_such_function", "nowhere.f"])


class RefusalTest(unittest.TestCase):
    def test_exits_nonzero_without_the_package(self):
        bare = run.OUT / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        for path in HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        try:
            proc = bench("--workload", "lattice", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
