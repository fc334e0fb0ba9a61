"""hydroham benchmark: time-to-verdict on three verification workloads.

    python3 benchmarks/run.py --workload nonlocal --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20 --trace 0

One client in one process issues whole cycles of the workload's request list
(closed loop), each cycle shuffled by the seed, until ``--seconds`` have
passed and at least MIN_REQUESTS requests were issued.  Request times are
normalized to the reference machine speed (calibrate.py).  Every request's
verdict is checked against the expected table.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See README.md in
this directory for the workloads, the metrics and the baseline.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is imported: the benchmark measures one client.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gzip  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_STARTS = 9  # cold starts per run, spread over it; one start is too noisy to use
TRACE_LOG_LIMIT = 200_000  # spans kept in the written span log
PROBE_TIMEOUT_S = 60
# A run issues whole cycles and at least this many requests, so the tail
# percentile below has at least ten requests beyond it in every run.
MIN_REQUESTS = 100
TAIL_BEYOND = 10

sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402

WORKLOADS = ("nonlocal", "local-pencil", "cli-systems")
END_TO_END = {"verdict_p50_s": "s", "verdict_tail_s": "s", "points_per_s": "1/s",
              "setup_s": "s", "peak_rss_mb": "MB"}


def plan_seed(seed: int, cycle: int, index: int) -> int:
    """Plan seed of request ``index`` in ``cycle``: fresh points every cycle,
    the same points for the same benchmark seed."""
    digest = hashlib.blake2b(f"{seed}:{cycle}:{index}".encode(), digest_size=4).digest()
    return int.from_bytes(digest, "big") & 0x7FFFFFFF


# -- end-to-end metrics ------------------------------------------------------------------


def cold_start(workload: str, seed: int) -> tuple:
    """(wall seconds, kernel seconds): the time from spawning a fresh
    interpreter until hydroham is imported and the workload's inputs are
    built, and the calibration kernel's time in that same process."""
    workdir = os.path.join(OUT_DIR, f"probe-{os.getpid()}")
    start = time.monotonic()
    try:
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), "--workload", workload,
             "--seed", str(seed), "--workdir", workdir],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    stamp, kernel = (float(x) for x in done.stdout.split())
    return stamp - start, kernel


def min_cycles(per_cycle: int) -> int:
    return -(-MIN_REQUESTS // per_cycle)


def tail_percentile(per_cycle: int) -> float:
    """The highest percentile with TAIL_BEYOND requests beyond it in a run of
    the minimum length.  It is fixed per workload: every cycle has the same
    mix, so a fixed percentile falls on the same requests of the mix however
    many cycles the machine's speed allowed, where "the 11th largest" would
    move from one kind of request to another."""
    return 1.0 - TAIL_BEYOND / (min_cycles(per_cycle) * per_cycle)


def percentile(values: list, q: float) -> float:
    """Linear interpolation between closest ranks."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])


# -- running cycles ---------------------------------------------------------------------------


class Runner:
    def __init__(self, workload: str, seed: int, requests: list, expected: dict, tracer=None):
        self.workload = workload
        self.seed = seed
        self.requests = requests
        self.expected = expected
        self.tracer = tracer
        # {"rid", "start", "end", "seconds", "samples", "points", "error"} per request,
        # "samples" the [first, last) indices of its own speed samples (untraced)
        self.records = []
        self.samples = []  # (time, seconds) of each calibration kernel run
        self.paused = 0.0  # time spent sampling inside the current request
        self.canonical = {}  # index -> canonical result in the last untraced cycle
        self.between = None  # called after each request, outside its timing

    def sample_speed(self):
        t0 = time.perf_counter()
        seconds = calibrate.kernel_seconds()
        self.samples.append((t0 + seconds / 2, seconds))

    def _sample_inside(self, signum, frame):
        """SIGALRM handler: a speed sample taken inside a request, its time
        taken out of the request's."""
        t0 = time.perf_counter()
        self.sample_speed()
        self.paused += time.perf_counter() - t0

    def _call(self, req, pseed: int, traced: bool):
        """(result, start, end, seconds, span info, own samples).  Untraced
        calls are bracketed by calibration kernel runs, and sampled inside
        every calibrate.INSIDE_EVERY_S; seconds excludes the time of those
        samples, and own samples are their indices in self.samples."""
        if traced:
            with self.tracer.request(req.rid) as info:
                result = req.run(pseed)
            start, end = info["start_ns"] / 1e9, info["end_ns"] / 1e9
            return result, start, end, end - start, info, None
        first = len(self.samples)
        self.sample_speed()
        self.paused = 0.0
        previous = signal.signal(signal.SIGALRM, self._sample_inside)
        every = calibrate.INSIDE_EVERY_S
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, every, every)
        try:
            result = req.run(pseed)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            end = time.perf_counter()
            signal.signal(signal.SIGALRM, previous)
            self.sample_speed()
        return result, start, end, end - start - self.paused, None, (first, len(self.samples))

    def cycle(self, cycle: int, traced: bool = False, recheck: bool = True) -> dict:
        """Issue every request once, in this cycle's shuffled order.  Returns
        wall seconds summed over the requests and (traced) the spanned part
        and the entry spans' self time."""
        import workloads

        rng = random.Random(f"order:{self.seed}:{cycle}")
        order = list(range(len(self.requests)))
        rng.shuffle(order)
        again = order[rng.randrange(len(order))]
        if not traced:
            self.canonical = {}
        busy = spanned = entry_self = 0.0
        for index in order:
            req = self.requests[index]
            pseed = plan_seed(self.seed, cycle, index)
            error = info = start = end = seconds = own = None
            try:
                result, start, end, seconds, info, own = self._call(req, pseed, traced)
            except Exception as exc:  # a raising request is a failed request
                error = f"raised {type(exc).__name__}: {exc}"
            if seconds is not None:
                busy += seconds
            if info is not None:
                spanned += info["spanned_ns"] / 1e9
                entry_self += info["entry_self_ns"] / 1e9
            if error is None:
                try:
                    out = workloads.outcome(result)
                except (ValueError, KeyError) as exc:  # e.g. a CLI call that printed no report
                    out, error = None, f"unreadable result: {type(exc).__name__}: {exc}"
            if error is None:
                error = workloads.verify(req, out, self.expected.get(req.rid))
                first = self.canonical.setdefault(index, out.canonical)
                if error is None and first != out.canonical:
                    error = "differs from the untraced run of the same plan"
                if error is None and recheck and index == again:
                    try:
                        rerun = workloads.outcome(req.run(pseed)).canonical
                    except Exception as exc:
                        rerun = f"raised {type(exc).__name__}: {exc}"
                    if rerun != out.canonical:
                        error = "re-run with the same plan is not byte-identical"
            self.records.append({"rid": req.rid, "start": start, "end": end, "seconds": seconds,
                                 "samples": own, "points": req.sweeps * workloads.COUNT,
                                 "error": error})
            if self.between is not None:
                self.between()
        return {"busy": busy, "spanned": spanned, "entry_self": entry_self}


def summary(records: list) -> tuple:
    attempted = len(records)
    failures = [r for r in records if r["error"] is not None]
    return attempted, failures


def print_failures(failures: list):
    for r in failures[:20]:
        print(f"FAILED {r['rid']}: {r['error']}")


def run_untraced(runner: Runner, seconds: float) -> dict:
    """Whole cycles until ``seconds`` have passed, with the cold starts for
    setup_s spread evenly over the run between requests."""
    starts = []  # (wall seconds, kernel seconds) of each cold start
    probe_s = 0.0
    begin = time.perf_counter()

    def elapsed() -> float:
        return time.perf_counter() - begin - probe_s

    def probe():
        nonlocal probe_s
        t0 = time.perf_counter()
        starts.append(cold_start(runner.workload, runner.seed))
        probe_s += time.perf_counter() - t0

    def probe_if_due():
        if len(starts) < SETUP_STARTS and elapsed() >= len(starts) * seconds / SETUP_STARTS:
            probe()

    runner.between = probe_if_due
    cycle = 0
    while cycle < min_cycles(len(runner.requests)) or elapsed() < seconds:
        runner.cycle(cycle)
        cycle += 1
    runner.between = None
    while len(starts) < SETUP_STARTS:
        probe()

    ok = [r for r in runner.records if r["error"] is None]
    kernel = [k for _, k in runner.samples]
    times = {"normalized": [calibrate.normalized(r["seconds"], kernel[slice(*r["samples"])])
                            for r in ok] or [0.0],
             "wall": [r["seconds"] for r in ok] or [0.0]}
    points = sum(r["points"] for r in ok)
    attempted, failures = summary(runner.records)
    tail_q = tail_percentile(len(runner.requests))
    stats = {}
    for key, values in times.items():
        stats[key] = {"verdict_p50_s": statistics.median(values),
                      "verdict_tail_s": percentile(values, tail_q),
                      "points_per_s": points / max(sum(values), 1e-12)}
    stats["wall"]["setup_s"] = statistics.median(wall for wall, _ in starts)
    values = {
        **stats["normalized"],
        "setup_s": statistics.median(wall * calibrate.REFERENCE_S / kernel
                                     for wall, kernel in starts),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    print(f"workload {runner.workload}: seed {runner.seed}, {cycle} cycles, "
          f"{attempted} requests, {len(runner.requests)} per cycle, one client")
    for name, (value, unit) in metrics.items():
        wall = stats["wall"].get(name)
        print(f"  {name:16s} {value:12.6g} {unit}" + (
            "" if wall is None else f"   (wall clock, not normalized: {wall:.6g} {unit})"))
    print(f"  verdict_tail_s is p{100 * tail_q:.2f} of {len(ok)} requests "
          f"({(1 - tail_q) * len(ok):.1f} beyond it)")
    print(f"  error_rate       {len(failures) / attempted:12.6g} ({len(failures)}/{attempted})")
    print(f"  machine speed: kernel median {1e3 * statistics.median(k for _, k in runner.samples):.3f} ms"
          f" against {1e3 * calibrate.REFERENCE_S:.3f} ms reference, {len(runner.samples)} samples")
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"requests-{runner.workload}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"seed": runner.seed, "cold_starts": starts, "requests": runner.records,
                   "kernel_samples": runner.samples}, fh)
    print(f"  per-request times written to {os.path.relpath(path, ROOT)}")
    print_failures(failures)
    return metrics


# -- per-layer metrics ---------------------------------------------------------------------------

DRIFTFLUX_CHECKS = ("driftflux.kg_residual", "driftflux.constraint_residuals",
                    "driftflux.drift_plan", "driftflux.plane_plan", "driftflux.physical_plan")


def _builders(names) -> list:
    return [n for n in names if n.startswith("driftflux.") and n not in DRIFTFLUX_CHECKS]


def per_layer_table():
    """(metric, unit, getter) for every per-layer metric.  A getter takes the
    LayerStats of a traced run; counts are those of the first traced cycle,
    which repeat exactly for the same seed, and times are per-cycle medians."""

    def count(key):
        return lambda s: s.count(key)

    def self_s(*spans):
        return lambda s: s.self_s(spans)

    table = [
        ("exprs.eval_jet.o1.calls", "count", count("exprs.eval_jet.o1.calls")),
        ("exprs.eval_jet.o2.calls", "count", count("exprs.eval_jet.o2.calls")),
        ("exprs.eval_jet.o3.calls", "count", count("exprs.eval_jet.o3.calls")),
        ("exprs.eval_jet.self_s", "s", self_s("exprs.eval_jet")),
        ("exprs.eval_scalar.calls", "count", count("exprs.eval_scalar")),
        ("exprs.eval_scalar.self_s", "s", self_s("exprs.eval_scalar")),
        ("exprs.domain_errors", "count", count("exprs.raised.EvalDomainError")),
        ("jets.ops", "count", count("jets.ops")),
        ("geometry.eval_matrix_jets.calls", "count", count("geometry.eval_matrix_jets")),
        ("geometry.eval_matrix_jets.self_s", "s", self_s("geometry.eval_matrix_jets")),
        ("geometry.metric_frame.calls", "count", count("geometry.metric_frame")),
        ("geometry.metric_frame.self_s", "s", self_s("geometry.metric_frame")),
        ("geometry.covariant_derivative_values.self_s", "s",
         self_s("geometry.covariant_derivative_values")),
        ("geometry.eval_matrix.self_s", "s", self_s("geometry.eval_matrix")),
        ("geometry.eval_tensor3.self_s", "s", self_s("geometry.eval_tensor3")),
        ("geometry.degenerate_frames", "count", count("geometry.raised.DegenerateMetricError")),
        ("sampling.draws", "count", count("sampling.draws")),
        ("sampling.redraws", "count", count("sampling.redraws")),
        ("sampling.draw_yield", "ratio", lambda s: s.draw_yield()),
        ("sampling.point.self_s", "s", self_s("sampling.SamplePlan.point")),
        ("operators.check_ferapontov.self_s", "s", self_s("operators.check_ferapontov")),
        ("operators.check_local_hamiltonian.self_s", "s",
         self_s("operators.check_local_hamiltonian")),
        ("operators.check_skew_adjoint.self_s", "s", self_s("operators.check_skew_adjoint")),
        ("operators.check_pencil_compatibility.self_s", "s",
         self_s("operators.check_pencil_compatibility")),
        ("operators.pencil_operator.calls", "count", count("operators.pencil_operator")),
        ("operators.pencil_operator.self_s", "s", self_s("operators.pencil_operator")),
        ("systems.check_conserved_current.self_s", "s",
         self_s("systems.check_conserved_current")),
        ("systems.check_change_of_variables.self_s", "s",
         self_s("systems.check_change_of_variables")),
        ("systems.reciprocal_transform_system.self_s", "s",
         self_s("systems.reciprocal_transform_system")),
        ("systems.HydroSystem.speeds.calls", "count", count("systems.HydroSystem.speeds")),
        ("systems.HydroSystem.speeds.self_s", "s", self_s("systems.HydroSystem.speeds")),
        ("driftflux.kg_residual.self_s", "s", self_s("driftflux.kg_residual")),
        ("driftflux.constraint_residuals.self_s", "s", self_s("driftflux.constraint_residuals")),
        ("driftflux.build.self_s", "s", lambda s: s.self_s(_builders(s.span_names()))),
        ("reports.condition_from_samples.self_s", "s", self_s("reports.condition_from_samples")),
        ("reports.CheckReport.to_dict.self_s", "s", self_s("reports.CheckReport.to_dict")),
        ("parsing.parse_expr.calls", "count", count("parsing.parse_expr")),
        ("parsing.parse_expr.self_s", "s", self_s("parsing.parse_expr")),
        ("cli.load_spec.self_s", "s", self_s("cli.load_spec")),
        ("cli.emit.self_s", "s", self_s("cli.emit")),
        ("cli.main.self_s", "s", self_s("cli.main")),
        ("setup.driftflux.build.self_s", "s",
         lambda s: sum(s.setup_self_ns[n] for n in _builders(s.setup_self_ns)) / 1e9),
        ("trace.overhead", "ratio", lambda s: s.overhead),
        ("trace.unattributed_share", "ratio", lambda s: s.unattributed),
        ("trace.entry_self_share", "ratio", lambda s: s.entry_self),
    ]
    return table


class LayerStats:
    def __init__(self, first_counts, cycle_self_ns, setup_self_ns, overhead, unattributed,
                 entry_self):
        self.first_counts = first_counts  # counter name or span name -> count, cycle 0
        self.cycle_self_ns = cycle_self_ns  # per traced cycle: span name -> self ns
        self.setup_self_ns = setup_self_ns
        self.overhead = overhead
        self.unattributed = unattributed
        self.entry_self = entry_self  # share of request time in entry spans' own code

    def count(self, key: str) -> int:
        return self.first_counts.get(key, 0)

    def span_names(self) -> set:
        return set().union(*self.cycle_self_ns)

    def self_s(self, spans) -> float:
        return statistics.median(sum(c.get(n, 0) for n in spans) for c in self.cycle_self_ns) / 1e9

    def draw_yield(self) -> float:
        draws = self.count("sampling.draws")
        resolved = draws - self.count("sampling.redraws") - self.count("sampling.exhausted")
        return resolved / draws if draws else 0.0


def run_traced(runner: Runner, seconds: float, setup_self_ns) -> dict:
    """Alternate an untraced and a traced run of the same cycle until
    ``seconds`` have passed; the ratio of their times is the overhead."""
    tracer = runner.tracer
    start = time.perf_counter()
    cycle = 0
    first_counts = None
    cycle_self = []
    plain = traced = spanned = entry_self = 0.0
    while cycle == 0 or time.perf_counter() - start < seconds:
        plain += runner.cycle(cycle)["busy"]
        tracer.install()
        tracer.reset()
        tracer.span_log = [] if cycle == 0 else None
        try:
            done = runner.cycle(cycle, traced=True, recheck=False)
        finally:
            tracer.uninstall()
        traced += done["busy"]
        spanned += done["spanned"]
        entry_self += done["entry_self"]
        cycle_self.append(dict(tracer.self_ns))
        if first_counts is None:
            first_counts = {**tracer.calls, **tracer.counts}
            span_log = tracer.span_log[:TRACE_LOG_LIMIT]
        cycle += 1
    stats = LayerStats(first_counts, cycle_self, setup_self_ns,
                       overhead=traced / plain, unattributed=1.0 - spanned / traced,
                       entry_self=entry_self / traced)
    metrics = {name: (getter(stats), unit) for name, unit, getter in per_layer_table()}
    attempted, failures = summary(runner.records)
    print(f"workload {runner.workload}: seed {runner.seed}, {cycle} untraced + {cycle} traced "
          f"cycles, {attempted} requests")
    print(f"  traced request time {traced:.3f} s, {100 * spanned / traced:.2f}% in layer spans, "
          f"overhead x{traced / plain:.3f} against {plain:.3f} s untraced")
    print(f"  {100 * entry_self / traced:.2f}% of traced request time is self time of the "
          f"entry spans (check_* or cli.main), not attributed below them")
    by_layer = {}
    for span, ns in cycle_self[0].items():
        by_layer[span.split(".", 1)[0]] = by_layer.get(span.split(".", 1)[0], 0) + ns
    total = sum(by_layer.values()) or 1
    print("  self time by layer, first traced cycle: " + ", ".join(
        f"{layer} {100 * ns / total:.1f}%" for layer, ns in
        sorted(by_layer.items(), key=lambda kv: -kv[1])))
    for name, (value, unit) in metrics.items():
        print(f"  {name:46s} {value:14.6g} {unit}")
    print_failures(failures)
    write_trace(runner.workload, runner.seed, first_counts, cycle_self, span_log)
    return metrics


def write_trace(workload, seed, first_counts, cycle_self, span_log):
    """Spans of the first traced cycle plus the aggregates, written at the end."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{workload}.json.gz")
    doc = {
        "workload": workload,
        "seed": seed,
        "first_cycle_counts": first_counts,
        "self_ns_per_cycle": cycle_self,
        "span_fields": ["request", "span", "parent", "name", "start_ns", "end_ns"],
        "spans": span_log,
    }
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump(doc, fh)
    print(f"  spans written to {os.path.relpath(path, ROOT)} ({len(span_log)} spans)")


# -- entry point -------------------------------------------------------------------------------


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads
    from tracer import Tracer

    tracer = Tracer() if trace else None
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    setup_self_ns = {}
    try:
        if trace:
            tracer.install()
            try:
                with tracer.request("setup"):
                    inputs = workloads.build_inputs(workload, seed, workdir)
            finally:
                tracer.uninstall()
            setup_self_ns = dict(tracer.self_ns)
        else:
            inputs = workloads.build_inputs(workload, seed, workdir)
        requests = workloads.build_requests(workload, inputs)
        runner = Runner(workload, seed, requests, workloads.load_expected()[workload], tracer)
        metrics = (run_traced(runner, seconds, setup_self_ns) if trace
                   else run_untraced(runner, seconds))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted, failures = summary(runner.records)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload, each in its own process so peak memory stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, check=True,
        )
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import hydroham  # noqa: F401
    except ImportError as err:
        print(f"error: cannot import hydroham from {os.path.join(ROOT, 'src')}: {err}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
