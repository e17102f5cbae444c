#!/usr/bin/env python3
"""Benchmark for stillflow: one workload, one run, one JSON result line.

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from the repository root (it imports the package from ./src). With
--trace 0 it prints the end-to-end metrics; with --trace 1 it runs the same
workload with per-layer wrappers and prints the per-layer metrics and the
tracing overhead. The last line of standard output is always the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it holds details for the record (BLAS threads, versions,
the operation classes at the percentiles, the worst accuracy reached).
See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: BLAS and OpenMP pools pinned to one thread: the workloads are
#: single-threaded, and an idle pool only adds start-up time and noise.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def pin_environment() -> None:
    """One BLAS thread (for this process and the set-up probes it starts,
    before numpy loads), and glibc's mmap threshold fixed at its 32 MB
    ceiling.

    By default the threshold adapts to the sizes of blocks freed, and with
    it whether a large array lands in the heap or in its own mapping. On
    identical flow runs that made peak RSS read either 157 or 177 MB. With
    the threshold fixed, every array under 32 MB comes from the heap and
    peak RSS repeats to a tenth of a megabyte. Elsewhere than glibc the
    allocator is left alone.
    """
    import ctypes

    for var in THREAD_VARS:
        os.environ[var] = "1"
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt(-3, 32 * 1024 * 1024)  # M_MMAP_THRESHOLD

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORK = BENCH / ".work"
WORKLOAD_NAMES = ("sweep", "flow", "cli-chain")

#: Set-ups per run: this process plus SETUP_PROBES fresh processes; the
#: median is reported.
SETUP_PROBES = 6
#: Fewest operations a timed run attempts, so that at least ten samples lie
#: beyond the 90th percentile.
MIN_OPS = 100


class ProgramMissing(RuntimeError):
    pass


def import_program():
    """Import stillflow from this checkout's src/, and from nowhere else."""
    if not (SRC / "stillflow" / "__init__.py").is_file():
        raise ProgramMissing(f"no stillflow package under {SRC}")
    sys.path.insert(0, str(SRC))
    import stillflow

    if SRC.resolve() not in Path(stillflow.__file__).resolve().parents:
        raise ProgramMissing(f"stillflow was imported from {stillflow.__file__}, not {SRC}")
    return stillflow


def set_up(name: str, seed: int, tiny: bool):
    """Import, build the inputs, one untimed warm-up pass.

    Returns (workload, accuracy record, seconds). The seconds count the
    import, the input build and the warm-up calls, not the checks of the
    warm-up outputs.
    """
    t0 = time.perf_counter()
    sf = import_program()
    import checks
    import workloads

    acc = checks.Accuracy()
    cls = workloads.WORKLOADS[name]
    extra = {"work_root": WORK} if name == "cli-chain" else {}
    workload = cls(sf, seed, acc, tiny=tiny, **extra)
    seconds = time.perf_counter() - t0
    try:
        for op in workload.warm_ops():
            t1 = time.perf_counter()
            out = op.call()
            seconds += time.perf_counter() - t1
            op.check(out)
    except BaseException:
        workload.close()
        raise
    return workload, acc, seconds


def probe_setups(args) -> list[float]:
    """Set-up times from fresh processes, one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--tiny"] if args.tiny else [])
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times


def blas_threads() -> int | None:
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    import ctypes

    import numpy as np

    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


class Tally:
    """Operations attempted and failed, correctness, samples and notes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.samples = []  # (reference-speed ms, raw ms, class)
        self.notes = []

    def note(self, message: str) -> None:
        if len(self.notes) < 20:
            self.notes.append(message)
            print(message, file=sys.stderr)


def run_round(ops, clock, tally: Tally, check_failure) -> tuple[float, float]:
    """Attempt every operation once; returns (raw s, reference-speed s)."""
    raw_total = ref_total = 0.0
    for op in ops:
        out, raw, ref_ms, error = clock.time(op.call, op.kind)
        tally.attempted += 1
        raw_total += raw
        ref_total += ref_ms
        tally.samples.append((ref_ms, raw * 1e3, op.cls))
        if error is not None:
            tally.failed += 1
            tally.note(f"failed: {op.cls}: {type(error).__name__}: {error}")
            continue
        try:
            op.check(out)
        except check_failure as exc:
            tally.correct = False
            tally.note(f"wrong: {op.cls}: {exc}")
        except Exception as exc:  # an output the check could not even read
            tally.correct = False
            tally.note(f"wrong: {op.cls}: unreadable output ({type(exc).__name__}: {exc})")
    return raw_total, ref_total / 1e3


def percentile_class(samples, p: float) -> str:
    ordered = sorted(samples)
    k = min(max(int(round(p * (len(ordered) + 1))) - 1, 0), len(ordered) - 1)
    return ordered[k][2]


def class_table(samples, rounds: int) -> list:
    """[class, operations per round, median reference-speed ms, cumulative
    share of operations] in ascending order of time: where the percentiles
    fall."""
    by_class = {}
    for ref_ms, _, cls in samples:
        by_class.setdefault(cls, []).append(ref_ms)
    rows = sorted(by_class.items(), key=lambda kv: statistics.median(kv[1]))
    table, seen = [], 0
    for cls, values in rows:
        seen += len(values)
        table.append([cls, len(values) // rounds, round(statistics.median(values), 3),
                      round(seen / len(samples), 4)])
    return table


def measure(args, workload, acc, setups: list[float]):
    from checks import CheckFailure
    from refspeed import ReferenceClock

    tally = Tally()
    rounds = []
    min_ops = 1 if args.tiny else MIN_OPS
    with ReferenceClock() as clock:
        gc.collect()
        start = time.perf_counter()
        while True:
            rounds.append(run_round(workload.ops(), clock, tally, CheckFailure))
            if time.perf_counter() - start >= args.seconds and tally.attempted >= min_ops:
                break
    refs = [s[0] for s in tally.samples]
    q = statistics.quantiles(refs, n=10) if len(refs) > 1 else [refs[0]] * 9
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ref_wall_s": (statistics.median(r[1] for r in rounds), "s"),
        "ref_op_p50_ms": (q[4], "ms"),
        "ref_op_p90_ms": (q[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    raws = [s[1] for s in tally.samples]
    qr = statistics.quantiles(raws, n=10) if len(raws) > 1 else [raws[0]] * 9
    detail = {
        "rounds": len(rounds),
        "ops_per_round": tally.attempted // len(rounds),
        "p50_class": percentile_class(tally.samples, 0.5),
        "p90_class": percentile_class(tally.samples, 0.9),
        "raw_wall_s": statistics.median(r[0] for r in rounds),
        "raw_op_p50_ms": qr[4],
        "raw_op_p90_ms": qr[8],
        "setups_s": setups,
        "classes": class_table(tally.samples, len(rounds)),
        "worst_accuracy": acc.worst,
    }
    return tally, metrics, detail


def measure_traced(args, workload, tracer):
    """Alternate untraced and traced rounds; per-layer figures come from
    the traced ones, the overhead from comparing the two at reference
    speed, so that a drift of the host between them cancels."""
    from checks import CheckFailure
    from refspeed import ReferenceClock
    import tracing

    tally = Tally()
    plain, traced, traced_ids, bytes_per_round = [], [], [], []
    with ReferenceClock() as clock:
        gc.collect()
        start = time.perf_counter()
        idx = 0
        while not traced or time.perf_counter() - start < args.seconds:
            plain.append(run_round(workload.ops(), clock, tally, CheckFailure)[1])
            before = getattr(workload, "bytes_written", 0)
            tracer.round = idx
            tracer.install()
            try:
                traced.append(run_round(workload.ops(), clock, tally, CheckFailure)[1])
            finally:
                tracer.uninstall()
            bytes_per_round.append(getattr(workload, "bytes_written", 0) - before)
            traced_ids.append(idx)
            idx += 1
    overhead = (statistics.median(traced) / statistics.median(plain) - 1.0) * 100.0
    ops_per_round = tally.attempted // (2 * len(traced))
    metrics = tracing.layer_metrics(tracer, traced_ids, ops_per_round,
                                    statistics.mean(bytes_per_round), overhead)
    detail = {"traced_rounds": len(traced), "untraced_ref_wall_s": statistics.median(plain),
              "traced_ref_wall_s": statistics.median(traced), "absent_wrappers": tracer.absent,
              "spans": len(tracer.spans)}
    return tally, metrics, detail


def main(argv=None) -> int:
    pin_environment()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest inputs (the benchmark's tests)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        if args.setup_probe:
            workload, _, seconds = set_up(args.workload, args.seed, args.tiny)
            workload.close()
            print(json.dumps({"setup_s": seconds}))
            return 0
        if args.trace:
            import_program()
            import stillflow.cli  # noqa: F401  (every layer loaded before wrapping)
            import tracing

            tracer = tracing.Tracer()
            tracer.install()  # set-up spans: the generators figures
            try:
                workload, _, _ = set_up(args.workload, args.seed, args.tiny)
            finally:
                tracer.uninstall()
            try:
                tally, metrics, detail = measure_traced(args, workload, tracer)
            finally:
                workload.close()
            tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
            result_metrics = metrics
        else:
            workload, acc, first = set_up(args.workload, args.seed, args.tiny)
            try:
                setups = [first] + probe_setups(args)
                tally, metrics, detail = measure(args, workload, acc, setups)
            finally:
                workload.close()
            result_metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    detail.update({"workload": args.workload, "seed": args.seed, "blas_threads": blas_threads(),
                   "blas": f"{blas.get('name')} {blas.get('version')}",
                   "python": sys.version.split()[0], "numpy": np.__version__,
                   "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))})
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
