"""Self-test of the benchmark itself (not part of the repository's test suite).

    python3 benchmarks/selftest.py

Checks that:

1. the traced run's wrappers reach every binding site: after installation no
   hydroham module dict, and no dict of a wrapped class, still binds an
   unwrapped original, and uninstalling restores every original;
2. BENCHMARK.json names exactly the metrics run.py reports, with their units;
3. two traced runs with the same seed give the same exact counters, every
   verdict is as expected, at least 90% of request time is in layer spans,
   and the entry spans' own code (``check_*`` or ``cli.main`` less their
   children) keeps under a per-workload ceiling, so work moved out of the
   spanned functions into private helpers of an entry point shows;
4. in a directory holding only BENCHMARK.json and the benchmark's files, the
   benchmark exits with a nonzero code and prints no result.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer as tracing  # noqa: E402

EXACT = ("sampling.draws", "sampling.redraws", "sampling.draw_yield",
         "geometry.degenerate_frames", "exprs.domain_errors",
         "exprs.eval_jet.o1.calls", "exprs.eval_jet.o2.calls", "exprs.eval_jet.o3.calls",
         "jets.ops", "operators.pencil_operator.calls")
MIN_ATTRIBUTED = 0.9
# Ceilings on trace.entry_self_share, about twice the shares measured at the
# seed commit (up to 0.108, 0.034 and 0.003; README.md in this directory), five
# times for cli-systems, whose share is too small for twice to clear noise.
MAX_ENTRY_SELF = {"nonlocal": 0.2, "local-pencil": 0.08, "cli-systems": 0.01}


def check_bindings():
    import hydroham

    for mod in pkgutil.iter_modules(hydroham.__path__):
        if mod.name != "__main__":
            importlib.import_module(f"hydroham.{mod.name}")
    from hydroham import driftflux, exprs, geometry, operators, systems

    originals = {name: getattr(exprs, name) for name in ("eval_jet", "eval_scalar")}
    tr = tracing.Tracer()
    tr.install()
    try:
        left = tr.unwrapped_bindings()
        assert not left, f"unwrapped originals still bound: {left}"
        for mod in (exprs, geometry, operators, systems, driftflux):
            assert mod.eval_jet is not originals["eval_jet"], f"{mod.__name__}.eval_jet unwrapped"
    finally:
        tr.uninstall()
    assert exprs.eval_jet is originals["eval_jet"] and geometry.eval_jet is originals["eval_jet"], \
        "uninstall did not restore eval_jet"
    print("bindings: every binding site wrapped, and restored on uninstall")


def check_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == run.END_TO_END, f"end_to_end {e2e} != run.END_TO_END {run.END_TO_END}"
    layers = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    table = [(name, unit) for name, unit, _ in run.per_layer_table()]
    assert layers == table, "per_layer in BENCHMARK.json differs from run.per_layer_table()"
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    print(f"BENCHMARK.json: {len(e2e)} end-to-end and {len(layers)} per-layer metrics match")


def traced(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_exact_counters(seed: int = 7):
    for workload in run.WORKLOADS:
        first, second = traced(workload, seed), traced(workload, seed)
        for result in (first, second):
            assert result["correct"] and result["failed"] == 0, f"{workload}: failed requests"
            share = result["metrics"]["trace.unattributed_share"]["value"]
            assert share < 1 - MIN_ATTRIBUTED, f"{workload}: {share:.1%} of time unattributed"
            entry = result["metrics"]["trace.entry_self_share"]["value"]
            assert entry < MAX_ENTRY_SELF[workload], \
                f"{workload}: {entry:.1%} of time in entry spans' own code"
        for name in EXACT:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            assert a == b, f"{workload}: {name} differs between runs ({a} != {b})"
        print(f"{workload}: exact counters repeat, "
              f"draws {first['metrics']['sampling.draws']['value']}, "
              f"jets.ops {first['metrics']['jets.ops']['value']}, entry self share "
              f"{first['metrics']['trace.entry_self_share']['value']:.3f}")


def check_bare_directory():
    os.makedirs(run.OUT_DIR, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=run.OUT_DIR)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "benchmarks"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "benchmarks/run.py", "--workload", "nonlocal", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0, "benchmark succeeded without the program's sources"
    assert '"correct"' not in done.stdout, "benchmark printed a result without the sources"
    print(f"bare directory: exit code {done.returncode}, no result printed")


def main():
    check_bindings()
    check_benchmark_json()
    check_bare_directory()
    check_exact_counters()
    print("selftest passed")


if __name__ == "__main__":
    main()
