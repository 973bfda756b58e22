#!/usr/bin/env python3
"""Benchmark of the quiddity package: one workload per run, stdlib only.

    python3 bench/run.py --workload count-tables --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1
    python3 bench/run.py --workload cli-queries --profile
    python3 -m pytest bench/test_bench.py

Run from the repository root.  A run sets the workload up, repeats passes
over its inputs for ``--seconds`` seconds and checks every output.  An
operation's time is its median over the passes, scaled to a reference
CPU speed (see speed.py).  With ``--trace 0`` a run reports the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of one
traced pass (see BENCHMARK.json).  ``attempted`` counts the operations
of a pass and ``failed`` those that gave a wrong output in any pass, so
both are fixed by the seed, whatever the number of passes.  The last
line of standard output is the result as one JSON object; a copy with the
environment, the raw timings and the output digests goes to
``.bench_out/``.  ``--profile`` runs one pass under cProfile and writes
the stats there instead; its numbers are for finding candidates, never
for claims.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import platform
import pstats
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5  # fresh processes per run for setup_s
IMPORT_PROBES = 3  # fresh processes per traced run for cli.import_s
COLLECT_EVERY_S = 0.5

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def fresh_python(code: str) -> str:
    """Run code in a new interpreter at the repository root; its stdout."""
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=120, check=True)
    return proc.stdout


def probe(call: str) -> float:
    """Scaled seconds of one call, made in a fresh process."""
    code = (f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]\n"
            f"import importlib, speed, workloads\nprint(speed.scaled_call({call}))")
    return float(fresh_python(code))


def setup_probe(name: str, seed: int) -> float:
    """Import plus input generation."""
    return probe(f"workloads.WORKLOADS[{name!r}]({seed}).setup")


def cli_import_probe() -> float:
    return probe("lambda: importlib.import_module('quiddity.cli')")


class Run:
    """Timed passes over one workload's operations, with their checks.

    The speed sampler of ``speed`` ticks while a pass runs and once at
    each end of it; an operation's time leaves out the ticks inside it
    and is scaled by the ticks around it.  Before the first operation,
    and before any that starts ``COLLECT_EVERY_S`` after the last
    collection, the collector runs outside the timing, so that a long
    operation starts from an empty collector whatever ran before it.
    """

    def __init__(self, wl: workloads.Workload):
        self.wl = wl
        self.ops = wl.operations()
        self.walls: list[float] = []  # raw, including the sampler's ticks
        self.raw: list[list[float]] = [[] for _ in self.ops]
        self.scaled: list[list[float]] = [[] for _ in self.ops]
        self.failed_ops: dict[int, str] = {}  # operation -> its first failure kind
        self.executions = 0
        self._first: list = []  # (result, verdict) of the first pass

    @property
    def attempted(self) -> int:
        """Operations in a pass.  Every pass repeats the same operations
        on the same inputs, so a count of executions would grow with the
        number of passes, that is with the speed of the host."""
        return len(self.ops)

    @property
    def failures(self) -> Counter:
        """Failed operations by kind; an operation fails if any of its
        executions gave a wrong output."""
        return Counter(self.failed_ops.values())

    def one_pass(self, tracer=None) -> tuple[float, list[float], list[float]]:
        """Run every operation once: the pass's raw wall time, and the raw
        and scaled seconds of each operation."""
        results, spans = [], []
        sampler = speed.Sampler()
        start = perf_counter()
        last_collect = start - COLLECT_EVERY_S
        sampler.tick()
        with sampler:
            for i, (label, fn) in enumerate(self.ops):
                if perf_counter() - last_collect >= COLLECT_EVERY_S:
                    gc.collect()
                    last_collect = perf_counter()
                if tracer is not None:
                    tracer.job = i
                busy = sampler.busy_s
                t0 = perf_counter()
                try:
                    result = fn()
                except Exception as exc:  # a crashing operation is a failed one
                    result = ("exception", type(exc).__name__, str(exc))
                t1 = perf_counter()
                spans.append((t0, t1, t1 - t0 - (sampler.busy_s - busy)))
                results.append(result)
        sampler.tick()
        wall = perf_counter() - start
        self.check(results)
        raw = [t for _, _, t in spans]
        scaled = [t * speed.NOMINAL_S / sampler.loop_seconds(t0, t1) for t0, t1, t in spans]
        return wall, raw, scaled

    def check(self, results) -> None:
        for i, result in enumerate(results):
            if i < len(self._first) and self._first[i][0] == result:
                verdict = self._first[i][1]  # same output as the checked pass
            elif isinstance(result, tuple) and result[:1] == ("exception",):
                verdict = f"exception-{result[1]}"
            else:
                verdict = self.wl.check(self.ops[i][0], result)
            if i >= len(self._first):
                self._first.append((result, verdict))
            self.executions += 1
            if verdict is not None:
                self.failed_ops.setdefault(i, verdict)

    def timed_passes(self, seconds: float) -> None:
        start = perf_counter()
        while not self.walls or perf_counter() - start < seconds:
            wall, raw, scaled = self.one_pass()
            self.walls.append(wall)
            for samples, t in zip(self.raw, raw):
                samples.append(t)
            for samples, t in zip(self.scaled, scaled):
                samples.append(t)

    def typical(self, scaled: bool = True) -> list[float]:
        """Each operation's median time over the passes."""
        return [statistics.median(s) for s in (self.scaled if scaled else self.raw)]

    def first_outputs(self) -> list:
        return [r for r, _ in self._first]


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit() -> str:
    """HEAD of a checkout that is a git work tree, read from its files."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (1 <= q <= 99) by statistics.quantiles."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def metric(value: float, unit: str, note: str) -> dict:
    return {"value": value, "unit": unit, "note": note}


def end_to_end(run: Run, setup_samples: list[float]) -> dict:
    typical = run.typical()
    each = f"each the median of {len(run.walls)} passes"
    return {
        "setup_s": metric(statistics.median(setup_samples), "s",
                          f"median of {len(setup_samples)} fresh processes"),
        "wall_s": metric(sum(typical), "s", f"sum over {len(typical)} operations, {each}"),
        "op_p50_ms": metric(statistics.median(typical) * 1e3, "ms",
                            f"median over {len(typical)} operations, {each}"),
        "peak_rss_mib": metric(peak_rss_mib(), "MiB", "peak resident set of this process"),
    }


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(run: Run, tracer: tracing.Tracer, traced_s: float, import_s: list[float]) -> dict:
    t = tracer
    surgeries = (t.calls_from("search", "surgery.apply_type1")
                 + t.calls_from("search", "surgery.apply_type2"))
    brute_nodes = t.calls_from("search", "matrices.elementary")
    typical = run.typical()
    values = dict(t.layer_stats())
    values.update({
        "search.generative_enumerate.busy_s": t.stat("search.generative_enumerate", "busy_s"),
        "search.canonical_rotation.calls": t.calls_from("search", "matrices.canonical_rotation"),
        "search.surgeries": surgeries,
        "search.surgery_yield": ratio(t.stat("search.generative_enumerate", "items"), surgeries),
        "search.brute_force_enumerate.busy_s": t.stat("search.brute_force_enumerate", "busy_s"),
        "search.brute_nodes": brute_nodes,
        "search.brute_hit_ratio": ratio(t.stat("search.brute_force_enumerate", "items"), brute_nodes),
        "matrices.mat2_mul.calls": t.stat("matrices.mat2_mul", "calls"),
        "dissection.iter_dissections.busy_s": t.stat("dissection.iter_dissections", "busy_s"),
        "dissection.faces.calls": t.stat("dissection.faces", "calls"),
        "dissection.faces_per_dissection": ratio(t.stat("dissection.faces", "calls"),
                                                 t.stat("dissection.iter_dissections", "items")),
        "dissection.validate.busy_s": t.stat("dissection.validate", "busy_s"),
        "dissection.symmetric_dissection.busy_s": t.stat("dissection.symmetric_dissection", "busy_s"),
        "dissection.from_certificate.busy_s": t.stat("dissection.from_certificate", "busy_s"),
        "surgery.reduce_word.busy_s": t.stat("surgery.reduce_word", "busy_s"),
        "surgery.classify.calls": t.stat("surgery.classify", "calls"),
        "sturm.rotation_index.busy_s": t.stat("sturm.rotation_index", "busy_s"),
        "frieze.frieze.busy_s": t.stat("frieze.frieze", "busy_s"),
        "frieze.is_totally_positive.busy_s": t.stat("frieze.is_totally_positive", "busy_s"),
        "matrices.continuant.calls": t.stat("matrices.continuant", "calls"),
        "psl2.reduced_decomposition.busy_s": t.stat("psl2.reduced_decomposition", "busy_s"),
        "cli.build_parser.busy_s": t.stat("cli.build_parser", "busy_s"),
        "cli.import_s": statistics.median(import_s),
        "trace.overhead_ratio": traced_s / sum(typical),
        "op_p99_ms": percentile(typical, 99) * 1e3,
        "ops_per_s": len(typical) / sum(typical),
        "failed_ratio": ratio(sum(run.failures.values()), run.attempted),
    })
    units = {"calls": "count", "busy_s": "s", "self_s": "s", "import_s": "s",
             "surgeries": "count", "brute_nodes": "count", "op_p99_ms": "ms", "ops_per_s": "1/s"}
    return {k: {"value": v, "unit": units.get(k.rsplit(".", 1)[-1], "ratio")}
            for k, v in values.items()}


def run_workload(args) -> int:
    wl = workloads.WORKLOADS[args.workload](args.seed)
    setup_samples = [] if args.trace else [setup_probe(wl.name, args.seed)
                                           for _ in range(SETUP_PROBES)]
    wl.setup()
    run_failures = wl.run_checks()
    run = Run(wl)
    run.timed_passes(args.seconds)
    if args.trace:
        import_s = [cli_import_probe() for _ in range(IMPORT_PROBES)]
        inputs = wl.inputs()
        tracer = tracing.Tracer()
        jobs = [label for label, _ in run.ops] + ["setup"]
        with tracer:
            tracer.job = len(jobs) - 1
            wl.generate()
            traced_s = sum(run.one_pass(tracer)[2])
        if wl.inputs() != inputs:
            run_failures.append("traced-inputs-differ")
        metrics = per_layer(run, tracer, traced_s, import_s)
        write_json(f"spans-{wl.name}-s{args.seed}.json", tracer.spans_document(jobs))
    else:
        metrics = end_to_end(run, setup_samples)

    failed = sum(run.failures.values()) + len(run_failures)
    kinds = set(run.failures) | set(run_failures)
    correct = kinds <= workloads.KNOWN_DEFECTS
    record = wl.record(run.first_outputs())
    doc = {
        "env": environment(args),
        "pass_walls_s": run.walls,
        "unscaled_wall_s": sum(run.typical(scaled=False)),
        "operation_s": dict(zip((label for label, _ in run.ops), run.typical())),
        "setup_samples_s": setup_samples,
        "operations_per_pass": len(run.ops),
        "executions": run.executions,
        "failures": dict(sorted(run.failures.items())),
        "run_check_failures": run_failures,
        "outputs": record,
        "correct": correct, "attempted": run.attempted + len(run_failures), "failed": failed,
        "metrics": metrics,
    }
    write_json(f"{wl.name}-s{args.seed}-t{args.trace}.json", doc)

    print(f"workload {wl.name}  seed {args.seed}  passes {len(run.walls)}  "
          f"operations {run.attempted}  executions {run.executions}  failed {failed}")
    for kind, count in sorted(run.failures.items()) + [(k, 1) for k in run_failures]:
        known = " (known defect)" if kind in workloads.KNOWN_DEFECTS else ""
        print(f"  failure {kind} x{count}{known}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']:6s} {m.get('note', '')}")
    print("env " + json.dumps(doc["env"], sort_keys=True))
    result = {"correct": correct, "attempted": doc["attempted"], "failed": failed,
              "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()}}
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak_rss_mib is its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for k, m in result["metrics"].items():
            merged["metrics"][f"{name}.{k}"] = m
    write_json(f"all-s{args.seed}-t{args.trace}.json", {"env": environment(args), **merged})
    print(json.dumps(merged))
    return 0


def run_profile(args) -> int:
    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.setup()
    run = Run(wl)
    profiler = cProfile.Profile()
    run.check([profiler.runcall(fn) for _, fn in run.ops])
    OUT.mkdir(exist_ok=True)
    path = OUT / f"profile-{wl.name}-s{args.seed}.pstats"
    profiler.dump_stats(str(path))
    stats = pstats.Stats(str(path))
    stats.sort_stats("tottime").print_stats(25)
    print(f"profile written to {path.relative_to(ROOT)}; failures {run.failures or 'none'}")
    return 0


def write_json(name: str, doc: dict) -> None:
    OUT.mkdir(exist_ok=True)
    (OUT / name).write_text(json.dumps(doc, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "quiddity" / "__init__.py").is_file():
        print(f"error: no quiddity sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        if args.profile:
            parser.error("--profile needs one workload")
        return run_all(args)
    return run_profile(args) if args.profile else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
