"""Tests of the benchmark itself (not collected by the package's suite):

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import oracles  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def bindings() -> dict:
    """Every object bound in a quiddity namespace, plus the traced methods."""
    workloads.import_layers(with_cli=True)
    found = {(name, attr): obj for name, mod in sys.modules.items()
             if name == "quiddity" or name.startswith("quiddity.")
             for attr, obj in vars(mod).items()}
    for layer, cls, meth, _ in tracing.METHODS:
        found[(cls, meth)] = vars(getattr(sys.modules[f"quiddity.{layer}"], cls))[meth]
    return found


class TracerTest(unittest.TestCase):
    def test_uninstall_restores_every_binding(self):
        mods = workloads.import_layers(with_cli=True)
        before = bindings()
        tracer = tracing.Tracer()
        with tracer:
            self.assertIsNot(mods["search"].apply_type1, before[("quiddity.search", "apply_type1")])
            self.assertIsNot(mods["cli"].build_frieze, before[("quiddity.cli", "build_frieze")])
            # the package attribute ``frieze`` is the function, and is traced too
            self.assertIsNot(sys.modules["quiddity"].frieze, before[("quiddity", "frieze")])
            self.assertEqual(mods["cli"].main(["--format", "json", "verify", "1,1,1"]), 0)
            self.assertEqual(tracer.stat("frieze.frieze", "calls"), 0)
            self.assertEqual(tracer.stat("cli.main", "calls"), 1)
            self.assertGreater(tracer.stat("matrices.mat2_mul", "calls"), 0)
            self.assertEqual(tracer.calls_from("cli", "surgery.classify"), 1)
        after = bindings()
        self.assertEqual(before.keys(), after.keys())
        changed = [k for k in before if before[k] is not after[k]]
        self.assertEqual(changed, [])
        calls = list(tracer.calls)
        mods["cli"].main(["--format", "json", "frieze", "1,1,1"])
        self.assertEqual(tracer.calls, calls)  # the untraced call went unrecorded

    def test_generator_span_covers_only_resumptions(self):
        mods = workloads.import_layers(with_cli=False)
        tracer = tracing.Tracer()
        with tracer:
            count = sum(1 for _ in mods["dissection"].iter_dissections(6))
        self.assertEqual(count, oracles.dissection_count(6))
        self.assertEqual(tracer.stat("dissection.iter_dissections", "calls"), 1)
        self.assertEqual(tracer.stat("dissection.iter_dissections", "items"), count)


class StreamTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.wl = workloads.CliQueries(0)
        cls.wl.setup()

    def test_one_seed_one_stream(self):
        first = workloads.make_stream(7, self.wl.pools)
        self.assertEqual(first, workloads.make_stream(7, self.wl.pools))
        self.assertNotEqual(first, workloads.make_stream(8, self.wl.pools))

    def test_mix_does_not_depend_on_the_seed(self):
        def mix(seed):
            return sorted((kind, problem, len(p) if isinstance(p, tuple) and problem else None)
                          for kind, problem, _, p in workloads.make_stream(seed, self.wl.pools)
                          if (kind, problem) != ("dissect", "III"))
        self.assertEqual(mix(1), mix(2))

    def test_pools_hold_the_pinned_solution_sets(self):
        self.assertEqual(self.wl.run_checks(), [])


class OracleTest(unittest.TestCase):
    def test_generating_function_counts(self):
        self.assertEqual([oracles.dissection_count(n) for n in (10, 11, 12)], [2160, 7997, 30083])

    def test_oracles_agree_with_the_package(self):
        mods = workloads.import_layers(with_cli=False)
        d, m = mods["dissection"], mods["matrices"]
        dissections = list(d.iter_dissections(8))
        self.assertEqual(len(dissections), oracles.dissection_count(8))
        for x in dissections:
            faces = oracles.faces_of(x.n, x.diagonals)
            self.assertEqual(sorted(map(tuple, map(sorted, faces))),
                             sorted(map(tuple, map(sorted, d.faces(x)))))
            self.assertEqual(oracles.quiddity_of(x.n, faces), d.quiddity(x))
        for word in [(1, 1, 1), (1, 2, 2, 1, 2, 2), (1, 2), (2, 1, 2, 1, 3)]:
            self.assertEqual(oracles.product(word), tuple(vars(m.word_product(word)).values()))
        for word in [(1, 3, 1, 2, 2), (1, 1, 2, 1, 1)]:
            f = mods["frieze"].frieze(word)
            self.assertEqual(oracles.frieze_rows(word, f.r_max), [list(r) for r in f.rows])
        with self.assertRaises(ValueError):
            oracles.faces_of(6, [(0, 3), (1, 4)])


class SpeedTest(unittest.TestCase):
    def test_loop_seconds_uses_the_ticks_around_an_interval(self):
        sampler = speed.Sampler()
        sampler.times, sampler.loops = [0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 4.0, 8.0]
        self.assertEqual(sampler.loop_seconds(1.9, 2.1), 4.0)
        self.assertEqual(sampler.loop_seconds(0.9, 2.1), 3.0)
        self.assertEqual(sampler.loop_seconds(1.4, 1.6), 3.0)  # a gap: the ticks on each side
        self.assertEqual(sampler.loop_seconds(5.0, 6.0), 8.0)


class Small(workloads.Workload):
    name = "small"

    def generate(self):
        self.n = 6

    def inputs(self):
        return self.n

    def operations(self):
        return [("count_table", lambda: self.mods["search"].count_table("II", self.n, cross_check_up_to=5))]

    def check(self, label, result):
        return None if result == sorted(oracles.PINNED_COUNTS["II"].items())[:4] else "wrong"


class HarnessTest(unittest.TestCase):
    def test_reports_the_metrics_benchmark_json_names(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        wl = Small(0)
        wl.setup()
        r = run.Run(wl)
        r.timed_passes(0)
        self.assertEqual((r.attempted, r.failures), (1, {}))
        e2e = run.end_to_end(r, [0.1])
        self.assertEqual(set(e2e), {m["name"] for m in spec["end_to_end"]})
        with tracing.Tracer() as tracer:
            traced_s = sum(r.one_pass(tracer)[2])
        layers = run.per_layer(r, tracer, traced_s, [0.1])
        self.assertEqual(list(layers), [m["name"] for m in spec["per_layer"]])
        self.assertEqual({k: m["unit"] for k, m in layers.items()},
                         {m["name"]: m["unit"] for m in spec["per_layer"]})
        self.assertGreater(layers["search.surgeries"]["value"], 0)
        self.assertGreater(layers["search.brute_nodes"]["value"], 0)

    def test_failures_count_operations_not_passes(self):
        class Wrong(Small):
            def check(self, label, result):
                return "wrong"

        wl = Wrong(0)
        wl.setup()
        r = run.Run(wl)
        for _ in range(3):
            r.one_pass()
        self.assertEqual((r.attempted, r.executions, r.failures), (1, 3, {"wrong": 1}))

    def test_refuses_to_run_without_the_package(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(BENCH, Path(tmp) / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "count-tables",
                                   "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
