"""Timing at reference speed.

The host this benchmark was tuned on changes speed by up to a third within
minutes, and CPU time tracks wall time through it: the machine itself slows
down. A raw operation time therefore says as much about the host's state as
about the program. Each operation is timed between two runs of a fixed
reference kernel that lives here, outside the program, and is reported as

    op time / mean of the two adjacent kernel times * the kernel's nominal ms

so a slowdown of the host cancels while a change in the program's own work
does not.

The kernel runs in a process of its own that never imports the program,
and the caller waits while it runs. A slowdown the program causes in its
own process (a global profile or trace hook, a leftover thread holding the
interpreter lock) therefore shows in reference-speed times instead of
cancelling, which a kernel run in the caller's process would let it do.
Timed both ways on the same 30 s sweep runs on the reference host, a
round at reference speed read 0.1-2.3% higher with the kernel in its own
process than in the caller's, and as steady.

The kernel has two parts, because the host does not slow all work alike:
interpreter-bound work (many small numpy calls, float formatting, Python
loops) drifts apart from arithmetic streamed over arrays larger than the
per-core cache. Measured over 100 s on the reference host, the ratio of a
large field lattice to the interpreter part spread by 9% between 10 s
windows and to the streaming part by 4%; an RK4 integration, a 9-point
sweep configuration and a CLI `field` call tracked the interpreter part
(3-5%) and not the streaming one (6-11%). Each operation names the part
that matches its work.

    python3 bench/refspeed.py

serves kernel passes on standard input and output, one kind per line in,
one duration in seconds per line out; `ReferenceClock` starts it.
"""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path

INTERP = "interp"
STREAM = "stream"

#: Scale of every reference-speed figure: each part's duration, fixed once
#: (its median on the reference host with one BLAS thread, rounded).
#: Changing either rescales the reference-speed metrics and breaks
#: comparison with earlier runs.
NOMINAL_MS = {INTERP: 0.3, STREAM: 1.2}

#: Passes of each part the server runs before it reports ready.
WARM_PASSES = 5


def _kernels():
    """The two parts, with their data; built in the kernel's process only."""
    import numpy as np

    rng = np.random.default_rng(20100603)
    small = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    floats = [float(x) for x in rng.standard_normal(120)]
    # 3.2 MB per operand, past the 2 MB per-core L2 of the reference host.
    wide_a = rng.standard_normal(200_000) + 1j * rng.standard_normal(200_000)
    wide_b = wide_a + (3.0 + 1.0j)

    def interp() -> float:
        acc = 0.0
        for _ in range(150):
            acc += np.vdot(small, small).real
        acc += len(",".join(f"{x:.17g}" for x in floats))
        total = 0
        for i in range(1500):
            total += i * i
        return acc + total

    def stream() -> float:
        return float(np.abs((wide_a / wide_b).sum()))

    return {INTERP: interp, STREAM: stream}


def reference_seconds(kernel) -> float:
    """Duration of one part of the kernel: the faster of two back-to-back
    passes, which drops a pass hit by a one-off interruption."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def serve() -> None:
    """Answer each kind read from stdin with one kernel duration, until EOF."""
    kernels = _kernels()
    for kernel in kernels.values():
        for _ in range(WARM_PASSES):
            kernel()
    print("ready", flush=True)
    for line in sys.stdin:
        print(repr(reference_seconds(kernels[line.strip()])), flush=True)


class ReferenceClock:
    """Times a sequence of calls, each between two reference measurements.

    The measurement taken after one call serves as the one before the next
    call of the same kind, so a run of same-kind calls costs one kernel
    pass per call. Use it as a context manager: leaving it stops the
    kernel's process and waits for it.
    """

    def __init__(self):
        self._fresh = {}
        self._proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve())],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        if self._proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("the reference kernel's process did not start")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self) -> None:
        if self._proc.poll() is None:
            try:
                self._proc.stdin.close()
                self._proc.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                self._proc.kill()
                self._proc.wait()
        self._proc.stdout.close()

    def reference_seconds(self, kind: str) -> float:
        """One measurement of the kernel part `kind`, in its own process."""
        self._proc.stdin.write(kind + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the reference kernel's process ended")
        return float(line)

    def time(self, fn, kind: str):
        """Run fn(); return (result, raw seconds, reference-speed ms, error).

        error is the exception fn raised, or None; the timing is kept
        either way.
        """
        before = self._fresh.get(kind)
        if before is None:
            before = self.reference_seconds(kind)
        error = None
        result = None
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # reported by the caller as a failed operation
            error = exc
        raw = time.perf_counter() - t0
        after = self.reference_seconds(kind)
        self._fresh = {kind: after}
        ref_ms = raw / (0.5 * (before + after)) * NOMINAL_MS[kind]
        return result, raw, ref_ms, error


if __name__ == "__main__":
    serve()
