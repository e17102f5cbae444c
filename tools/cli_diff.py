"""Compare the stillflow command line of two source trees byte for byte.

    python tools/cli_diff.py PARENT_SRC CHANGE_SRC

Each tree is a directory that holds the ``stillflow`` package, such as the
``src`` of a ``git worktree`` of the parent commit and ``./src``. Every
invocation in INVOCATIONS runs once against each tree, as
``python -m stillflow.cli`` in a subprocess with that tree alone on
PYTHONPATH, one BLAS thread and otherwise the same environment. Each tree
runs the list in order in its own empty directory, with the input files of
INPUT_FILES written there first, so a later invocation reads what an
earlier one wrote. An invocation differs when its exit code, stdout,
stderr or any file it wrote or changed is not the same bytes on both
trees; the tree's and the directory's paths are masked in stdout and
stderr. Nothing expected is stored: both trees run on this machine, since
the last bits of LAPACK's output may differ between numpy builds.

Prints each invocation that differs and what differs, then a summary line
with the exit codes reached; exits 1 if any invocation differs, else 0.
Uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

#: Input files that no generator makes: a pair that coincides, a pair under
#: the separation floor, a NaN coordinate, the regular 7-gon plus its
#: centre (nullity 2), with and without its equilibrium strengths, the
#: solved evenly spaced 7-point line on [0, 1] with its strengths scaled by
#: 1e-170, whose squared norm underflows a double, and three and five points
#: 1e300 apart, whose squared singular values and entries underflow one.
_HEPTAGON = [[math.cos(2.0 * math.pi * k / 7), math.sin(2.0 * math.pi * k / 7)]
             for k in range(7)] + [[0.0, 0.0]]
_LINE7 = [0.0, 0.16666666666666666, 0.3333333333333333, 0.5, 0.6666666666666666,
          0.8333333333333333, 1.0]
_LINE7_STRENGTHS = [1.0, -0.5536058619359824, 0.9211723871962987, -0.5796567682221373,
                    0.9211723871962975, -0.5536058619359803, 0.9999999999999997]
INPUT_FILES = {
    "coincident.json": {"points": [[0, 0], [1, 0], [0, 0]]},
    "near.json": {"points": [[0, 0], [1e-12, 0], [1, 0]]},
    "nan.json": '{"points": [[0, 0], [NaN, 0], [1, 0]]}',
    "heptagon_centre.json": {"points": _HEPTAGON},
    "heptagon_centre_solved.json": {"points": _HEPTAGON,
                                    "strengths": [[1.0, 0.0]] * 7 + [[-3.0, 0.0]]},
    "line7_tiny_solved.json": {"points": [[x, 0.0] for x in _LINE7],
                               "strengths": [[g * 1e-170, 0.0] for g in _LINE7_STRENGTHS]},
    "far_apart.json": {"points": [[0.0, 0.0], [1e300, 0.0], [-1e300, 0.0]]},
    "far5.json": {"points": [[0.0, 0.0], [1e300, 0.0], [-1e300, 0.0], [0.0, 1e300],
                             [5e299, 3e299]]},
}

#: Configurations generated by INVOCATIONS and solved in both modes.
_SOLVED = ("c7", "c10", "c201", "l2", "l21", "f51", "e21", "p8", "p9", "heptagon_centre")

INVOCATIONS = [
    # generate: every generator and placement, to files and to stdout
    "generate --circle --n 7 --out c7.json",
    "generate --circle --n 10 --out c10.json",
    "generate --circle --n 201 --out c201.json",
    "generate --line --n 2 --out l2.json",
    "generate --line --n 21 --out l21.json",
    "generate --curve flower --n 51 --spacing parameter --out f51.json",
    "generate --curve figure_eight --n 21 --random --seed 5 --out e21.json",
    "generate --plane --n 8 --seed 3 --out p8.json",
    "generate --plane --n 9 --seed 3 --out p9.json",
    "generate --line --n 7 --random --seed 2",
    "generate --circle --n 5 --random --seed 4 --radius 2.5 --phase 0.3",
    "generate --curve flower --n 9",
    "generate --plane --n 4 --bounds -2 2 0 1e-3 --seed 11",
    "generate --line --n 1",
    "generate --circle --n 10001",
    "generate --plane --n 3 --bounds 1 0 0 1",
    # solve and spectrum in both modes on every configuration
    *(line for name in _SOLVED for line in (
        f"solve --in {name}.json",
        f"solve --in {name}.json --mode linear --out {name}.report.json"
        f" --save-config {name}.solved.json",
        f"spectrum --in {name}.json",
        f"spectrum --in {name}.json --mode linear",
    )),
    "solve --in p9.json --tol 1e-6",
    "solve --in c7.json --tol 1e-2",
    "solve --in l21.json --tol 1e-2",
    "spectrum --in p9.json --tol 1e-2",
    "solve --in far_apart.json",
    "spectrum --in far_apart.json",
    "solve --in far5.json",
    # input errors
    "solve --in coincident.json",
    "spectrum --in near.json",
    "solve --in nan.json",
    "solve --in missing.json",
    "solve --in c7.json --out missing_dir/report.json",
    "solve --in c7.json --tol 2",
    # verify: passes, tolerance failures, collisions and refusals
    *(f"verify --in {name}.solved.json --t-final 0.75"
      for name in ("c7", "l21", "e21", "p9", "c201")),
    "verify --in heptagon_centre_solved.json --t-final 0.75",
    # verify where RK4 stages repeat their differences to the bit: every
    # stage (the 21-gon at phase 1), two of three though a point moves every
    # step (the flower of 21 points at phase 1), and fewer as the run goes
    # on (the 51-gon at phase 1)
    "generate --circle --n 21 --phase 1 --out c21.json",
    "generate --curve flower --n 21 --phase 1 --out f21.json",
    "generate --circle --n 51 --phase 1 --out c51.json",
    *(line for name in ("c21", "f21", "c51") for line in (
        f"solve --in {name}.json --save-config {name}.solved.json",
        f"verify --in {name}.solved.json --t-final 0.75",
    )),
    # the README's N = 201 verify row: about a third of its 4000 stages are
    # summed, so the key of 201^2 differences is refreshed between copies
    "generate --plane --n 201 --seed 3 --out p201.json",
    "solve --in p201.json --save-config p201.solved.json",
    "verify --in p201.solved.json --t-final 0.01 --dt 1e-5",
    "verify --in line7_tiny_solved.json",
    "verify --in c7.solved.json",
    "verify --in l21.solved.json",
    "verify --in c7.solved.json --drift-tol 0",
    "verify --in c7.solved.json --residual-tol 0",
    "verify --in c7.json",
    "verify --in c7.solved.json --dt 0",
    "verify --in c7.solved.json --dt 1e-9",
    "verify --in nan.json",
    # field: unsolved, solved, orthogonal twin, window, and refusals
    "field --in c7.json --nx 41 --ny 31 --out c7.csv",
    "field --in c7.solved.json --ortho --out c7_ortho.csv",
    "field --in l21.solved.json --window -0.5 1.5 -1 1 --nx 60 --ny 40 --out l21_window.csv",
    "field --in heptagon_centre_solved.json --nx 5 --ny 4",
    "field --in p8.json",
    "field --in c7.json --nx 1",
    "field --in c7.json --window 1 0 0 1",
    # orbit: the tracer against its closed form
    "orbit --gamma 1.0 6.2832 --r0 1.0 --t-final 1.0",
    "orbit --gamma 6.2832 0 --r0 2 --theta0 0.5 --dt 1e-3",
    "orbit --gamma 0 -6.2832 --r0 1",
    "orbit --gamma 1 0 --r0 1 --tol 1e-300",
    "orbit --gamma 1 0 --r0 1 --dt 1e-12",
    "orbit --gamma nan 0 --r0 1",
]


def _write_inputs(workdir: Path) -> None:
    for name, content in INPUT_FILES.items():
        text = content if isinstance(content, str) else json.dumps(content)
        (workdir / name).write_text(text)


def _stamps(workdir: Path) -> dict[str, tuple[int, int]]:
    return {p.name: (p.stat().st_mtime_ns, p.stat().st_size)
            for p in workdir.iterdir() if p.is_file()}


class _Tree:
    """One source tree, run in its own directory."""

    def __init__(self, src: str, workdir: Path):
        self.src = str(Path(src).resolve())
        self.workdir = workdir
        self.env = {**os.environ, "PYTHONPATH": self.src, "PYTHONDONTWRITEBYTECODE": "1",
                    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                    "MKL_NUM_THREADS": "1"}
        _write_inputs(workdir)

    def start(self, argv: list[str]) -> subprocess.Popen:
        self.before = _stamps(self.workdir)
        return subprocess.Popen([sys.executable, "-m", "stillflow.cli", *argv],
                                cwd=self.workdir, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, stdin=subprocess.DEVNULL)

    def finish(self, proc: subprocess.Popen) -> dict:
        """The outcome of a started invocation: exit code, masked stdout and
        stderr, and the bytes of every file it wrote or changed."""
        out, err = proc.communicate()
        after = _stamps(self.workdir)
        written = {name: (self.workdir / name).read_bytes()
                   for name, stamp in sorted(after.items()) if self.before.get(name) != stamp}
        return {"exit": proc.returncode, "stdout": self._mask(out), "stderr": self._mask(err),
                "files": written}

    def _mask(self, data: bytes) -> bytes:
        for path, mark in ((str(self.workdir), b"<workdir>"), (self.src, b"<src>")):
            data = data.replace(os.fsencode(path), mark)
        return data


def _differences(a: dict, b: dict) -> list[str]:
    parts = [key for key in ("exit", "stdout", "stderr") if a[key] != b[key]]
    if a["exit"] != b["exit"]:
        parts[0] = f"exit {a['exit']} != {b['exit']}"
    parts += [f"file {name}" for name in sorted(a["files"].keys() | b["files"].keys())
              if a["files"].get(name) != b["files"].get(name)]
    return parts


def compare(src_a: str, src_b: str, invocations=INVOCATIONS, report=print) -> dict:
    """Run invocations against both trees, the two runs of each invocation
    side by side, and pass report a line for each invocation that differs.
    Returns the differing invocations, the exit codes reached and the count
    of files written, on the first tree."""
    differing, exits, files = [], set(), 0
    with tempfile.TemporaryDirectory() as tmp_a, tempfile.TemporaryDirectory() as tmp_b:
        trees = _Tree(src_a, Path(tmp_a)), _Tree(src_b, Path(tmp_b))
        for line in invocations:
            argv = shlex.split(line)
            procs = [tree.start(argv) for tree in trees]
            a, b = (tree.finish(proc) for tree, proc in zip(trees, procs))
            exits.add(a["exit"])
            files += len(a["files"])
            parts = _differences(a, b)
            if parts:
                differing.append(line)
                report(f"differs: stillflow {line}: {', '.join(parts)}")
    return {"differing": differing, "exits": sorted(exits), "files": files}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree_a", help="source directory holding the stillflow package")
    parser.add_argument("tree_b", help="the other source directory")
    args = parser.parse_args(argv)
    for src in (args.tree_a, args.tree_b):
        if not (Path(src) / "stillflow" / "cli.py").is_file():
            parser.error(f"{src} holds no stillflow/cli.py")
    result = compare(args.tree_a, args.tree_b)
    print(f"{len(INVOCATIONS)} invocations, {len(result['differing'])} differ;"
          f" {result['files']} files written; exits reached:"
          f" {' '.join(map(str, result['exits']))}")
    return 1 if result["differing"] else 0


if __name__ == "__main__":
    sys.exit(main())
