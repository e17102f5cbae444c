#!/usr/bin/env python3
"""Steadiness check: run every workload repeatedly and report the spread.

    python3 bench/steady.py --sets 2 --runs 10

Each set runs every workload --runs times, each run with its own seed, in
alternating order (forward, then reversed) so that a drift of the host
does not land on one workload. For each end-to-end metric it prints, per
set, the median, the quartiles and the spread (interquartile distance over
the median) against the metric's bound in BENCHMARK.json, and then the
change of the median from one set to the next against the same bound. The
share of failed operations must be identical in every set.

The runs go one after another, each in its own process with BLAS and
OpenMP pinned to one thread (run.py pins them and prints the count).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-800:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2])["detail"]
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1000, help="first seed")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = {w: [[] for _ in range(args.sets)] for w in args.workloads}
    seed = args.seed
    for s in range(args.sets):
        for i in range(args.runs):
            order = args.workloads if i % 2 == 0 else list(reversed(args.workloads))
            for w in order:
                t0 = time.time()
                r = run_once(w, seed, args.seconds)
                seed += 1
                results[w][s].append(r)
                d = r["detail"]
                print(f"set {s} run {i} {w:9s} seed {seed - 1} {time.time() - t0:5.1f}s"
                      f" correct {r['correct']} failed {r['failed']}/{r['attempted']}"
                      f" blas_threads {d.get('blas_threads')} p50 {d.get('p50_class')}"
                      f" p90 {d.get('p90_class')}", flush=True)

    ok = True
    summary = {}
    for w in args.workloads:
        print(f"\n== {w}")
        shares = {r["failed"] / r["attempted"] for rs in results[w] for r in rs}
        wrong = sum(not r["correct"] for rs in results[w] for r in rs)
        print(f"failed share per run: {sorted(shares)}; runs with wrong output: {wrong}")
        ok &= len(shares) == 1 and wrong == 0
        for name, bound in bounds.items():
            medians = []
            for s, rs in enumerate(results[w]):
                med, q1, q3, sp = spread([r["metrics"][name]["value"] for r in rs])
                medians.append(med)
                gated = name != "setup_s"
                flag = "" if not gated else ("ok" if sp <= bound / 3 else ("WIDE" if sp <= bound else "OVER"))
                ok &= not gated or sp <= bound
                print(f"  {name:14s} set {s}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g}"
                      f" spread {sp:.4f} (bound {bound}) {flag}")
                summary.setdefault(w, {}).setdefault(name, []).append(
                    {"median": med, "q1": q1, "q3": q3, "spread": sp})
            for s in range(1, len(medians)):
                change = medians[s] / medians[s - 1] - 1.0
                ok &= change <= bound
                print(f"  {name:14s} set {s - 1} -> {s}: median change {change:+.4f}"
                      f" ({'ok' if change <= bound else 'OVER'} against bound {bound})")
    out = BENCH / "out" / f"steady-{int(time.time())}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"summary": summary, "runs": results}, indent=1))
    print(f"\n{'steady' if ok else 'NOT steady'}; runs written to {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
