"""Compare two versions of hydroham on the benchmark.

    python3 benchmarks/compare.py collect --parent DIR --change DIR \\
        --workload nonlocal local-pencil cli-systems --pairs 10 --out DIR
    python3 benchmarks/compare.py table OUT/parent.jsonl OUT/change.jsonl

``collect`` runs ``benchmarks/run.py`` untraced in two checkouts in pairs,
at the ``run_seconds`` of BENCHMARK.json, with seed ``k`` for pair ``k``
(1, 2, ...), alternating which side runs first, and appends each run's
result line to ``parent.jsonl`` and ``change.jsonl``.  Both checkouts must
hold the same benchmark code.

``table`` writes one row per (metric, workload) pair:

- gain: the change is better in at least 9 of 10 pairs (ties count for
  neither side) and the medians differ by more than the parent's
  interquartile range;
- unresolved: the run-to-run spread (interquartile range over median) of
  either side exceeds the metric's bound, unless every change run reads
  better than every parent run;
- regression: the change's median is worse than the parent's by more than
  the bound;
- within bound: otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GAIN_SHARE = 0.9
RUN_TIMEOUT_S = 180  # a run must end within this, as the benchmark contract says


def collect(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    for pair in range(args.pairs):
        seed = pair + 1
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for workload in args.workload:
            for side in order:
                cmd = [sys.executable, "benchmarks/run.py", "--workload", workload,
                       "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
                done = subprocess.run(cmd, cwd=sides[side], capture_output=True, text=True,
                                      timeout=RUN_TIMEOUT_S)
                if done.returncode != 0:
                    sys.stderr.write(done.stderr)
                    print(f"error: {side} run failed: {' '.join(cmd)}", file=sys.stderr)
                    return 1
                result = json.loads(done.stdout.strip().splitlines()[-1])
                record = {"pair": pair, "seed": seed, "workload": workload,
                          "first": order[0], "result": result}
                with open(os.path.join(args.out, f"{side}.jsonl"), "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(record) + "\n")
                print(f"pair {pair} {workload} {side}: correct={result['correct']}")
    return 0


def _load(path: str) -> dict:
    """(workload, pair) -> result."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                out[(rec["workload"], rec["pair"])] = rec["result"]
    return out


def _spread(values: list) -> tuple:
    """(median, q1, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def verdict(parent: list, change: list, better: str, bound: float) -> tuple:
    """(verdict, wins) for paired runs of one metric on one workload."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p_med, p_q1, p_q3 = _spread(parent)
    c_med, c_q1, c_q3 = _spread(change)
    if wins >= GAIN_SHARE * len(parent) and sign * (c_med - p_med) > p_q3 - p_q1:
        return "gain", wins
    spread = max((p_q3 - p_q1) / abs(p_med), (c_q3 - c_q1) / abs(c_med))
    if spread > bound:
        if all(sign * (c - p) > 0 for c in change for p in parent):
            return "better in every run", wins
        return "unresolved", wins
    if sign * (p_med - c_med) / abs(p_med) > bound:
        return "regression", wins
    return "within bound", wins


def table(args) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    parent, change = _load(args.parent), _load(args.change)
    pairs = sorted(set(parent) & set(change))
    rows = ["| workload | metric | parent median [q1, q3] | change median [q1, q3] "
            "| change wins | verdict |", "|---|---|---|---|---|---|"]
    workloads = sorted({w for w, _ in pairs})
    for workload in workloads:
        keys = [k for k in pairs if k[0] == workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [parent[k]["metrics"][name]["value"] for k in keys
                 if name in parent[k]["metrics"] and name in change[k]["metrics"]]
            c = [change[k]["metrics"][name]["value"] for k in keys
                 if name in parent[k]["metrics"] and name in change[k]["metrics"]]
            if not p:
                continue
            word, wins = verdict(p, c, metric["better"], metric["bound"])
            pm, pq1, pq3 = _spread(p)
            cm, cq1, cq3 = _spread(c)
            rows.append(f"| {workload} | {name} ({metric['unit']}) "
                        f"| {pm:.6g} [{pq1:.6g}, {pq3:.6g}] | {cm:.6g} [{cq1:.6g}, {cq3:.6g}] "
                        f"| {wins}/{len(p)} | {word} |")
        failed = [sum(r[k]["failed"] for k in keys) for r in (parent, change)]
        attempted = [sum(r[k]["attempted"] for k in keys) for r in (parent, change)]
        rows.append(f"| {workload} | failed requests | {failed[0]}/{attempted[0]} "
                    f"| {failed[1]}/{attempted[1]} | | "
                    f"{'more failures' if failed[1] > failed[0] else 'no more failures'} |")
    text = "\n".join(rows)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="compare two versions on the benchmark")
    sub = parser.add_subparsers(dest="command", required=True)
    p_collect = sub.add_parser("collect", help="run paired benchmark runs in two checkouts")
    p_collect.add_argument("--parent", required=True, help="checkout of the parent commit")
    p_collect.add_argument("--change", required=True, help="checkout of the change")
    p_collect.add_argument("--workload", nargs="+", required=True)
    p_collect.add_argument("--pairs", type=int, default=10)
    p_collect.add_argument("--out", required=True, help="directory for the result sets")
    p_collect.set_defaults(func=collect)
    p_table = sub.add_parser("table", help="one row per (metric, workload) pair")
    p_table.add_argument("parent", help="parent result set (jsonl)")
    p_table.add_argument("change", help="change result set (jsonl)")
    p_table.add_argument("--out", default=None, help="also write the table to this file")
    p_table.set_defaults(func=table)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
