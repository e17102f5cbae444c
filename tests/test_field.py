"""Velocity sampling, streamlines, far-field comparison."""

import math
import multiprocessing
import os
import re
import sys
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from stillflow import (
    PointSet,
    RegionSpec,
    SingularPoint,
    StrengthVector,
    UndefinedFarField,
    Window,
    default_window,
    far_field_deviation,
    point_velocities,
    solve_strengths,
    trace_streamline,
    velocity_at,
    velocity_grid,
)
from stillflow import field
from stillflow.field import MAX_GRID_NODES

from test_core import random_points

TWO_PI = 2 * np.pi
FLOOR = 1e-9


def unchunked_grid(points, strengths, window, nx, ny):
    """velocity_grid as one (ny, nx, N) array expression: the oracle."""
    positions = np.asarray(points, dtype=complex)
    gamma = np.asarray(strengths, dtype=complex)
    xs = np.linspace(window.x_min, window.x_max, nx)
    ys = np.linspace(window.y_min, window.y_max, ny)
    nodes = xs[None, :] + 1j * ys[:, None]
    dist = np.abs(nodes[..., None] - positions)
    singular = (dist < FLOOR).any(axis=-1)
    safe = np.where(singular, nodes + 2.0 * FLOOR * (1.0 + 1j), nodes)
    diff = safe[..., None] - positions
    vel = np.conj((gamma / diff).sum(axis=-1) / (2.0j * math.pi))
    vel[singular] = 0.0
    return xs, ys, vel, singular


def reference_field(z, positions, gamma):
    """The field at probes z as one array expression: the oracle for the
    sum that velocity_at, trace_streamline and far_field_deviation share."""
    probes = np.asarray(z, dtype=np.complex128)
    diff = probes[..., None] - positions
    return np.conj((gamma / diff).sum(axis=-1) / (2.0j * math.pi))


def reference_single(probes, center, total):
    """The field of one singularity of strength total at center."""
    return np.conj((total / (probes - center)) / (2.0j * math.pi))


def reference_velocity_at(positions, gamma, probe):
    """velocity_at's value as bytes, or "singular" inside the floor."""
    if np.abs(probe - positions).min() < FLOOR:
        return "singular"
    return np.complex128(reference_field(complex(probe), positions, gamma)).tobytes()


def reference_streamline(positions, gamma, start, step, max_steps, window):
    """trace_streamline's vertices as bytes and its termination for a
    positive step, with the field from reference_field at every stage."""
    approach = max(10.0 * FLOOR, step)
    scale = float(np.abs(gamma).max())

    def direction(z):
        v = complex(reference_field(z, positions, gamma))
        speed = abs(v)
        if speed <= 1e-12 * max(scale, 1.0):
            return None
        return v / speed

    z = complex(start)
    if float(np.abs(z - positions).min()) < FLOOR:
        return "singular"
    vertices = [z]
    terminated = "step_limit"
    for _ in range(max_steps):
        if float(np.abs(z - positions).min()) < approach:
            terminated = "singularity_approach"
            break
        if not window.contains(z):
            terminated = "window_exit"
            break
        d1 = direction(z)
        if d1 is None:
            terminated = "stagnation"
            break
        d2 = direction(z + 0.5 * step * d1)
        d3 = direction(z + 0.5 * step * d2) if d2 is not None else None
        d4 = direction(z + step * d3) if d3 is not None else None
        if d2 is None or d3 is None or d4 is None:
            terminated = "stagnation"
            break
        z = z + (step / 6.0) * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
        vertices.append(z)
    return np.asarray(vertices, dtype=np.complex128).tobytes(), terminated


def reference_far_field(positions, gamma, radius):
    """far_field_deviation from reference_field and reference_single."""
    total = complex(gamma.sum())
    if abs(total) <= 1e-9 * float(np.abs(gamma).sum()):
        return "undefined"
    center = complex((gamma * positions).sum()) / total
    probes = center + radius * np.exp(1j * (2.0 * math.pi * np.arange(64) / 64))
    v_conf = reference_field(probes, positions, gamma)
    v_single = reference_single(probes, center, total)
    return float((np.abs(v_conf - v_single) / np.abs(v_single)).max())


def field_outcome(run):
    """What a field call returned, in the form the references give."""
    try:
        out = run()
    except SingularPoint:
        return "singular"
    except UndefinedFarField:
        return "undefined"
    if isinstance(out, complex):
        return np.complex128(out).tobytes()
    if isinstance(out, float):
        return out
    return out.vertices.tobytes(), out.terminated_by


@st.composite
def probe_cases(draw):
    """(points, strengths, probe) from one point up; some strengths cancel
    in part and some probes sit just outside (or just inside) the floor."""
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
    g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    cancel = draw(st.sampled_from([0.0, 0.5, 0.999, 1.0 - 1e-7, 1.0]))
    g = g - cancel * g.mean()
    probe = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
    offset = draw(st.sampled_from([None, 0.999e-9, 1.001e-9, 1.1e-9, 1e-6]))
    if offset is not None:
        probe = z[draw(st.integers(0, n - 1))] + offset * np.exp(1j * rng.uniform(0, 2 * np.pi))
    return z, g, probe


GRID_WINDOW = Window(-1.0, 1.0, -1.0, 1.0)


def lattice_node(nx, ny, i, j):
    """Node (i, j) of an nx-by-ny lattice over GRID_WINDOW, as velocity_grid
    places it."""
    w = GRID_WINDOW
    return complex(np.linspace(w.x_min, w.x_max, nx)[i], np.linspace(w.y_min, w.y_max, ny)[j])


@st.composite
def lattices(draw):
    """(points, strengths, nx, ny) with up to 400k node-point terms; some
    points sit on a node, or within or just outside the floor of one."""
    n = draw(st.integers(1, 80))
    nx = draw(st.integers(2, 1200))
    ny = draw(st.integers(2, max(2, min(40, 400_000 // (n * nx)))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
    g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    pins = draw(st.lists(st.tuples(st.integers(0, nx * ny - 1),
                                   st.sampled_from([0.0, 4e-10, 2e-9])),
                         max_size=min(n, 3)))
    for a, (node, offset) in enumerate(pins):
        j, i = divmod(node, nx)
        z[a] = lattice_node(nx, ny, i, j) + offset
    return z, g, nx, ny


#: Window spans bounded by signed zeros. linspace ends a lattice on -0.0
#: where the upper bound is -0.0, and starts it on 0.0 where the lower one is.
SIGNED_ZERO_SPANS = [(-1.0, -0.0), (-1.0, 0.0), (-0.0, 1.0), (0.0, 1.0), (-1.0, 1.0)]


@st.composite
def signed_zero_lattices(draw):
    """(points, strengths, window, nx, ny) over windows bounded by +-0.0,
    with points at +-0 coordinates (on nodes at the window's edges, too)
    and strengths with signed-zero parts."""
    n = draw(st.integers(1, 12))
    spans = st.sampled_from(SIGNED_ZERO_SPANS)
    window = Window(*draw(spans), *draw(spans))
    nx = draw(st.integers(2, 3000))
    ny = draw(st.integers(2, max(2, min(40, 200_000 // (n * nx)))))
    coords = st.sampled_from([-0.0, 0.0, -1.0, 1.0, 0.5]) | st.floats(-1.5, 1.5)
    parts = st.sampled_from([-0.0, 0.0, -1.0, 2.5])
    z = np.array([complex(draw(coords), draw(coords)) for _ in range(n)])
    g = np.array([complex(draw(parts), draw(parts)) for _ in range(n)])
    return z, g, window, nx, ny


RING = (np.exp(2j * np.pi * np.arange(51) / 51), np.ones(51, complex))


def pinned_ring(nx, ny, nodes):
    """The 51-point ring with its first points moved onto the given nodes
    of an nx-by-ny lattice over GRID_WINDOW."""
    z, g = RING[0].copy(), RING[1]
    for a, node in enumerate(nodes):
        j, i = divmod(node, nx)
        z[a] = lattice_node(nx, ny, i, j)
    return z, g


class TestVelocityAt:
    def test_unit_source_pushes_outward(self):
        v = velocity_at([0j], [TWO_PI * 1j], 1 + 0j)
        assert v == pytest.approx(1 + 0j, abs=1e-14)

    def test_unit_vortex_swirls_ccw(self):
        v = velocity_at([0j], [TWO_PI + 0j], 1 + 0j)
        assert v == pytest.approx(1j, abs=1e-14)

    def test_decays_inversely_with_distance(self):
        for r in (1.0, 2.0, 5.0):
            v = velocity_at([0j], [TWO_PI + 0j], r + 0j)
            assert abs(v) == pytest.approx(1.0 / r, rel=1e-12)

    def test_superposition_is_linear(self):
        rng = np.random.default_rng(91)
        z = random_points(rng, 5)
        g1 = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        g2 = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        probe = 3 + 3j
        va = velocity_at(PointSet(z), StrengthVector(g1), probe)
        vb = velocity_at(PointSet(z), StrengthVector(g2), probe)
        vc = velocity_at(PointSet(z), StrengthVector(g1 + g2), probe)
        assert vc == pytest.approx(va + vb, abs=1e-12)

    def test_probe_on_singularity_rejected(self):
        with pytest.raises(SingularPoint):
            velocity_at([0j, 1 + 0j], [1 + 0j, 1 + 0j], 1 + 0j)
        with pytest.raises(SingularPoint):
            velocity_at([0j, 1 + 0j], [1 + 0j, 1 + 0j], 1 + 1e-10j)

    @pytest.mark.parametrize("probe", [complex(np.nan, 0.0), complex(1.0, np.inf),
                                       complex(-np.inf, np.nan)])
    def test_rejects_non_finite_probe(self, probe):
        with pytest.raises(ValueError, match=f"probe must be finite, got {re.escape(str(probe))}"):
            velocity_at([0j, 1 + 0j], [1 + 0j, 1 + 0j], probe)

    def test_rotated_strengths_turn_field_clockwise(self):
        rng = np.random.default_rng(92)
        z = random_points(rng, 7)
        sol = solve_strengths(PointSet(z))
        for _ in range(100):
            probe = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if np.abs(probe - z).min() < 1e-3:
                continue
            v = velocity_at(PointSet(z), sol.strengths, probe)
            w = velocity_at(PointSet(z), sol.strengths.rotated(), probe)
            assert abs(w) == pytest.approx(abs(v), rel=1e-12)
            # perpendicular: the real part of v conj(w) cancels
            assert abs((v * np.conj(w)).real) <= 1e-12 * max(abs(v) ** 2, 1e-30)


class TestVelocityGrid:
    def test_shapes_and_orientation(self):
        grid = velocity_grid([0j, 1 + 1j], [1 + 0j, 1 + 0j],
                             Window(-1.0, 2.0, -1.0, 1.0), nx=7, ny=5)
        assert grid.xs.shape == (7,) and grid.ys.shape == (5,)
        assert grid.velocity.shape == (5, 7)
        assert grid.singular.shape == (5, 7)
        v_direct = velocity_at([0j, 1 + 1j], [1 + 0j, 1 + 0j],
                               complex(grid.xs[3], grid.ys[2]))
        assert grid.velocity[2, 3] == pytest.approx(v_direct, abs=1e-14)

    def test_nodes_on_singularities_flagged_and_zeroed(self):
        grid = velocity_grid([0j, 1 + 0j], [1 + 0j, 1 + 0j],
                             Window(-1.0, 1.0, -1.0, 1.0), nx=3, ny=3)
        assert grid.singular.sum() == 2
        assert grid.singular[1, 1] and grid.singular[1, 2]
        assert grid.velocity[1, 1] == 0 and grid.velocity[1, 2] == 0
        assert np.isfinite(grid.velocity).all()

    def test_arrays_read_only(self):
        grid = velocity_grid([0j, 1 + 0j], [1 + 0j, 1 + 0j],
                             Window(-1.0, 1.0, -1.0, 1.0), nx=3, ny=3)
        with pytest.raises(ValueError):
            grid.velocity[0, 0] = 0

    @settings(max_examples=60, deadline=None)
    @given(lattices())
    # several blocks: 2**16 // 51 = 1285 nodes per block
    @example((np.exp(2j * np.pi * np.arange(51) / 51), np.ones(51, complex), 60, 60))
    # one row wider than a block (819 nodes), points on nodes of the third block
    @example((np.array([lattice_node(1000, 2, 700, 1), lattice_node(1000, 2, 900, 1) + 4e-10]
                       + [0.01 * k + 0.5j for k in range(78)]),
              np.arange(80) + 1j, 1000, 2))
    def test_bit_identical_to_unchunked_sum(self, case):
        z, g, nx, ny = case
        grid = velocity_grid(z, g, GRID_WINDOW, nx, ny)
        xs, ys, vel, singular = unchunked_grid(z, g, GRID_WINDOW, nx, ny)
        assert grid.xs.tobytes() == xs.tobytes() and grid.ys.tobytes() == ys.tobytes()
        assert np.array_equal(grid.singular, singular)
        assert grid.velocity.tobytes() == vel.tobytes()

    def test_work_memory_is_bounded(self):
        # The unchunked sum held 401 * 401 * 51 complex terms, 131 MB each.
        rng = np.random.default_rng(94)
        z = random_points(rng, 51)
        g = rng.standard_normal(51) + 1j * rng.standard_normal(51)
        tracemalloc.start()
        try:
            grid = velocity_grid(z, g, Window(-2.0, 2.0, -2.0, 2.0), nx=401, ny=401)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        outputs = sum(a.nbytes for a in (grid.xs, grid.ys, grid.velocity, grid.singular))
        assert peak <= outputs + 3_000_000

    def test_rejects_degenerate_lattice(self):
        with pytest.raises(ValueError):
            velocity_grid([0j, 1 + 0j], [1 + 0j, 1 + 0j],
                          Window(-1.0, 1.0, -1.0, 1.0), nx=1, ny=3)

    def test_rejects_lattice_over_max_nodes_before_allocating(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("allocated before the node count was checked")

        for name in ("linspace", "empty", "zeros"):
            monkeypatch.setattr(np, name, refuse)
        with pytest.raises(ValueError, match=f"need nx \\* ny <= {MAX_GRID_NODES},"
                                             " got 100000 \\* 100000"):
            velocity_grid([0j, 1 + 0j], [1 + 0j, 1 + 0j], GRID_WINDOW, 100_000, 100_000)

    def test_node_bound_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(field, "MAX_GRID_NODES", 12)
        assert velocity_grid([0j], [1 + 0j], GRID_WINDOW, 4, 3).velocity.size == 12
        with pytest.raises(ValueError, match="need nx \\* ny <= 12, got 7 \\* 2"):
            velocity_grid([0j], [1 + 0j], GRID_WINDOW, 7, 2)


class TestLatticeShares:
    """velocity_grid split over worker threads: the private CPU count is
    forced, so each split runs on any host."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_singular_nodes_in_every_share(self, monkeypatch, workers):
        # 60 * 60 nodes of 51 points: 3, 6 and 9 blocks for 1, 2 and 3 workers,
        # and the eight pinned nodes fall in the blocks of every worker
        monkeypatch.setattr(field, "_cpu_count", lambda: workers)
        z, g = pinned_ring(60, 60, [450 * k + 5 for k in range(8)])
        grid = velocity_grid(z, g, GRID_WINDOW, 60, 60)
        _, _, vel, singular = unchunked_grid(z, g, GRID_WINDOW, 60, 60)
        assert grid.singular.sum() == 8 and np.array_equal(grid.singular, singular)
        assert grid.velocity.tobytes() == vel.tobytes()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @settings(max_examples=20, deadline=None)
    @given(case=lattices())
    def test_bit_identical_to_unchunked_sum(self, workers, case):
        z, g, nx, ny = case
        with mock.patch.object(field, "_cpu_count", lambda: workers):
            grid = velocity_grid(z, g, GRID_WINDOW, nx, ny)
        _, _, vel, singular = unchunked_grid(z, g, GRID_WINDOW, nx, ny)
        assert np.array_equal(grid.singular, singular)
        assert grid.velocity.tobytes() == vel.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(case=signed_zero_lattices())
    # the last column is -0.0, and the point's real part +0.0
    @example(case=(np.array([0.5j]), np.array([-1j]), Window(-1.0, -0.0, -1.0, 1.0), 5, 5))
    def test_signed_zeros_bit_identical_to_unchunked_sum(self, case):
        z, g, window, nx, ny = case
        xs, ys, vel, singular = unchunked_grid(z, g, window, nx, ny)
        # every difference a sum sees is the oracle's node minus the point,
        # down to the sign of a zero; flagged nodes' differences are 1
        nodes = (xs[None, :] + 1j * ys[:, None]).reshape(-1, 1)
        expected = np.where(singular.reshape(-1, 1), 1.0 + 0j, nodes - z)
        field_sum, seen = field._field_sum, []

        def recording_sum(diff, gamma, out=None):
            seen.append(diff.copy())
            return field_sum(diff, gamma, out=out)

        with mock.patch.object(field, "_cpu_count", lambda: 1), \
                mock.patch.object(field, "_field_sum", recording_sum):
            velocity_grid(z, g, window, nx, ny)
        assert np.concatenate(seen).tobytes() == expected.tobytes()
        for workers in (1, 2, 3):
            with mock.patch.object(field, "_cpu_count", lambda: workers):
                grid = velocity_grid(z, g, window, nx, ny)
            assert grid.xs.tobytes() == xs.tobytes() and grid.ys.tobytes() == ys.tobytes()
            assert grid.singular.tobytes() == singular.tobytes()
            assert grid.velocity.tobytes() == vel.tobytes()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_flags_at_the_floor_in_the_first_and_last_tile_of_every_share(
            self, monkeypatch, workers):
        # A row of 3000 nodes of the 51-point ring is cut into segments of
        # 2**16 // W // 51 nodes, so each row spans several tiles. Each share's
        # first and last tile has a point off its first node and one off its
        # last node, by (1 - 1e-3) and (1 + 1e-3) floors along the diagonal:
        # both parts of each difference are within the floor, and the
        # modulus is just inside it for the first and just outside for the last.
        monkeypatch.setattr(field, "_cpu_count", lambda: workers)
        nx, ny = 3000, 3
        segment = 2**16 // workers // 51
        per_row = -(-nx // segment)
        tiles = ny * per_row
        inside, outside = [], []
        for k in range(workers):
            for t in (k, k + (tiles - 1 - k) // workers * workers):
                j, c = divmod(t, per_row)
                inside.append((j, c * segment))
                outside.append((j, min((c + 1) * segment, nx) - 1))
        z, g = RING[0].copy(), RING[1]
        diagonal = FLOOR * (1 + 1j) / math.sqrt(2)
        for a, (j, i) in enumerate(inside):
            z[2 * a] = lattice_node(nx, ny, i, j) + diagonal * (1 - 1e-3)
        for a, (j, i) in enumerate(outside):
            z[2 * a + 1] = lattice_node(nx, ny, i, j) + diagonal * (1 + 1e-3)
        grid = velocity_grid(z, g, GRID_WINDOW, nx, ny)
        _, _, vel, singular = unchunked_grid(z, g, GRID_WINDOW, nx, ny)
        assert {(int(j), int(i)) for j, i in np.argwhere(grid.singular)} == set(inside)
        assert np.array_equal(grid.singular, singular)
        assert grid.velocity.tobytes() == vel.tobytes()

    @pytest.mark.parametrize("failing", ["worker", "caller"])
    def test_failure_reaches_the_caller_after_every_share(self, monkeypatch, failing):
        # two shares of three blocks each; the failing share stops at its
        # first block, the other one takes its time over all three
        field_sum, caller = field._field_sum, threading.current_thread()
        finished = []

        def flaky_sum(diff, gamma, out=None):
            on_caller = threading.current_thread() is caller
            if on_caller == (failing == "caller"):
                raise RuntimeError(f"{failing} share failed")
            time.sleep(0.05)
            finished.append(diff.shape[0])
            return field_sum(diff, gamma, out=out)

        monkeypatch.setattr(field, "_cpu_count", lambda: 2)
        monkeypatch.setattr(field, "_field_sum", flaky_sum)
        z, g = RING
        with pytest.raises(RuntimeError, match=f"{failing} share failed"):
            velocity_grid(z, g, GRID_WINDOW, 60, 60)
        assert len(finished) == 3
        # the next lattice is drawn, with nothing of the failed one left over
        monkeypatch.setattr(field, "_field_sum", field_sum)
        grid = velocity_grid(z, g, GRID_WINDOW, 60, 60)
        assert grid.velocity.tobytes() == unchunked_grid(z, g, GRID_WINDOW, 60, 60)[2].tobytes()

    def test_no_lattice_is_kept_after_it_returns(self, monkeypatch):
        monkeypatch.setattr(field, "_cpu_count", lambda: 2)
        z, g = RING
        velocity_grid(z, g, GRID_WINDOW, 60, 60)
        tracemalloc.start()
        try:
            velocity_grid(z, g, GRID_WINDOW, 60, 60)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # the grid alone is 61 KB, and a share's buffers 786 KB
        assert kept < 10_000

    def test_concurrent_callers_get_identical_bytes(self, monkeypatch):
        monkeypatch.setattr(field, "_cpu_count", lambda: 3)
        z, g = pinned_ring(60, 60, [5, 1500, 3000])
        expected = unchunked_grid(z, g, GRID_WINDOW, 60, 60)[2].tobytes()
        got = []

        def draw():
            for _ in range(5):
                got.append(velocity_grid(z, g, GRID_WINDOW, 60, 60).velocity.tobytes())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=draw) for _ in range(4)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert got == [expected] * 20

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    @pytest.mark.filterwarnings("ignore:.*multi-threaded.*:DeprecationWarning")
    def test_forked_child_draws_a_grid(self, monkeypatch):
        monkeypatch.setattr(field, "_cpu_count", lambda: 2)
        z, g = RING
        expected = velocity_grid(z, g, GRID_WINDOW, 60, 60).velocity.tobytes()

        def child():
            grid = velocity_grid(z, g, GRID_WINDOW, 60, 60)
            sys.exit(0 if grid.velocity.tobytes() == expected else 3)

        proc = multiprocessing.get_context("fork").Process(target=child)
        proc.start()
        proc.join(timeout=30)
        hung = proc.is_alive()
        if hung:
            proc.kill()
            proc.join()
        assert not hung and proc.exitcode == 0

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    @pytest.mark.filterwarnings("ignore:.*multi-threaded.*:DeprecationWarning")
    def test_forked_child_draws_while_another_thread_draws(self, monkeypatch):
        # the fork comes while both shares of another thread's lattice are
        # inside their first sum; none of those threads is copied into the child
        monkeypatch.setattr(field, "_cpu_count", lambda: 2)
        z, g = RING
        expected = velocity_grid(z, g, GRID_WINDOW, 60, 60).velocity.tobytes()
        field_sum = field._field_sum
        arrived, release = threading.Semaphore(0), threading.Event()

        def held_sum(diff, gamma, out=None):
            if not release.is_set():
                arrived.release()
                release.wait(timeout=30)
            return field_sum(diff, gamma, out=out)

        def child():
            field._field_sum = field_sum
            grid = velocity_grid(z, g, GRID_WINDOW, 60, 60)
            sys.exit(0 if grid.velocity.tobytes() == expected else 3)

        monkeypatch.setattr(field, "_field_sum", held_sum)
        drawn = []
        drawer = threading.Thread(target=lambda: drawn.append(
            velocity_grid(z, g, GRID_WINDOW, 60, 60).velocity.tobytes()))
        drawer.start()
        try:
            assert arrived.acquire(timeout=30) and arrived.acquire(timeout=30)
            proc = multiprocessing.get_context("fork").Process(target=child)
            proc.start()
        finally:
            release.set()
            drawer.join(timeout=30)
        proc.join(timeout=30)
        hung = proc.is_alive()
        if hung:
            proc.kill()
            proc.join()
        assert not hung and proc.exitcode == 0
        assert not drawer.is_alive() and drawn == [expected]

    def test_no_worker_thread_outlives_a_lattice(self, monkeypatch):
        # each lattice starts its own threads and joins them, whether it
        # succeeds or fails, and takes W from the CPU count at each call
        field_sum, caller = field._field_sum, threading.current_thread()
        summed_on = set()

        def recording_sum(diff, gamma, out=None):
            summed_on.add(threading.current_thread())
            return field_sum(diff, gamma, out=out)

        def failing_sum(diff, gamma, out=None):
            if threading.current_thread() is not caller:
                raise RuntimeError("worker share failed")
            return field_sum(diff, gamma, out=out)

        # 100 * 100 nodes of 51 points: 8 blocks, so up to 8 shares
        z, g = RING
        threads = threading.active_count()
        monkeypatch.setattr(field, "_cpu_count", lambda: 2)
        monkeypatch.setattr(field, "_field_sum", recording_sum)
        velocity_grid(z, g, GRID_WINDOW, 100, 100)
        assert len(summed_on) == 2 and threading.active_count() == threads
        monkeypatch.setattr(field, "_field_sum", failing_sum)
        with pytest.raises(RuntimeError, match="worker share failed"):
            velocity_grid(z, g, GRID_WINDOW, 100, 100)
        assert threading.active_count() == threads
        summed_on.clear()
        monkeypatch.setattr(field, "_cpu_count", lambda: 4)
        monkeypatch.setattr(field, "_field_sum", recording_sum)
        velocity_grid(z, g, GRID_WINDOW, 100, 100)
        assert len(summed_on) == 4 and threading.active_count() == threads


class TestDefaultWindow:
    def test_pads_bounding_box(self):
        w = default_window([0j, 1 + 2j])
        assert w.x_min == pytest.approx(-1.0) and w.x_max == pytest.approx(2.0)
        assert w.y_min == pytest.approx(-1.0) and w.y_max == pytest.approx(3.0)

    def test_minimum_span_for_tight_configurations(self):
        w = default_window([0j, 0.01 + 0j])
        assert w.x_max - w.x_min >= 1.0

    def test_contains(self):
        w = Window(-1.0, 1.0, -2.0, 2.0)
        assert w.contains(0j)
        assert not w.contains(1.5 + 0j)
        assert not w.contains(3j)

    @pytest.mark.parametrize("bounds", [
        (0.0, np.inf, -1.0, 1.0), (-np.inf, 0.0, -1.0, 1.0), (0.0, 1.0, -1.0, np.inf),
        (np.nan, 1.0, -1.0, 1.0), (0.0, 1.0, -np.inf, np.inf),
        # finite bounds whose width overflows
        (-1e308, 1e308, -1.0, 1.0), (-1.0, 1.0, -1.7e308, 1e308),
    ])
    def test_window_rejects_non_finite_bounds(self, bounds):
        for rectangle in (Window, RegionSpec):
            with pytest.raises(ValueError, match="not finite"):
                rectangle(*bounds)

    def test_region_spec_is_a_window_with_a_seed(self):
        region = RegionSpec(-1.0, 1.0, -2.0, 2.0, seed=5)
        assert isinstance(region, Window)
        assert region.contains(1.5j) and region.seed == 5


class TestStreamlines:
    def test_vortex_orbit_stays_circular(self):
        line = trace_streamline([0j], [TWO_PI + 0j], 1 + 0j, step=1e-2,
                                max_steps=700, window=Window(-2.0, 2.0, -2.0, 2.0))
        assert line.terminated_by == "step_limit"
        assert len(line.vertices) == 701
        assert np.abs(np.abs(line.vertices) - 1.0).max() <= 1e-8
        # a full revolution passes back near the start
        gaps = np.abs(line.vertices[1:] - 1.0)
        assert gaps.min() <= 1e-2

    def test_source_ray_exits_window(self):
        line = trace_streamline([0j], [TWO_PI * 1j], 0.1 + 0j, step=1e-2,
                                window=Window(-1.0, 1.0, -1.0, 1.0))
        assert line.terminated_by == "window_exit"
        z = line.vertices
        assert np.abs(z.imag).max() <= 1e-12
        assert np.all(np.diff(z.real) > 0)
        assert z.real[-1] >= 1.0

    def test_stagnation_point_between_equal_vortices(self):
        line = trace_streamline([-1 + 0j, 1 + 0j], [TWO_PI + 0j, TWO_PI + 0j], 0j)
        assert line.terminated_by == "stagnation"
        assert len(line.vertices) == 1

    def test_sink_attracts_to_singular_zone(self):
        line = trace_streamline([0j], [-TWO_PI * 1j], 0.055 + 0j, step=1e-2)
        assert line.terminated_by == "singularity_approach"
        assert np.abs(line.vertices[-1]) <= 1e-2 + 1e-12
        assert np.all(np.diff(np.abs(line.vertices)) < 0)

    def test_start_inside_singular_zone_rejected(self):
        with pytest.raises(SingularPoint):
            trace_streamline([0j], [TWO_PI + 0j], 1e-10 + 0j)

    def test_step_limit(self):
        line = trace_streamline([0j], [TWO_PI + 0j], 1 + 0j, max_steps=10,
                                window=Window(-2.0, 2.0, -2.0, 2.0))
        assert line.terminated_by == "step_limit"
        assert len(line.vertices) == 11

    @pytest.mark.parametrize("scale", [1.0, 100.0])
    def test_stagnation_below_1e_12_of_the_largest_strength(self, scale):
        # between equal vortices at -1 and 1 the speed at a small x is 2x
        # times the strength over 2 pi
        z, g = [-1 + 0j, 1 + 0j], [scale * TWO_PI + 0j] * 2
        still = trace_streamline(z, g, 2e-12 + 0j, max_steps=1)
        moving = trace_streamline(z, g, 1e-11 + 0j, max_steps=1)
        assert still.terminated_by == "stagnation" and len(still.vertices) == 1
        assert moving.terminated_by == "step_limit" and len(moving.vertices) == 2

    @pytest.mark.parametrize("step", [np.nan, np.inf, -np.inf, 0.0])
    def test_rejects_zero_or_non_finite_step(self, step):
        with pytest.raises(ValueError, match="step must be finite and nonzero"):
            trace_streamline([0j], [TWO_PI + 0j], 1 + 0j, step=step)

    def test_rejects_negative_max_steps_and_takes_no_step_at_zero(self):
        for max_steps in (-1, -5):
            with pytest.raises(ValueError, match=f"max_steps must be non-negative, got {max_steps}"):
                trace_streamline([0j], [TWO_PI + 0j], 1 + 0j, max_steps=max_steps)
        line = trace_streamline([0j], [TWO_PI + 0j], 1 + 0j, max_steps=0)
        assert line.terminated_by == "step_limit" and line.vertices.tolist() == [1 + 0j]

    @pytest.mark.parametrize("start", [complex(np.nan, 0.0), complex(0.5, -np.inf)])
    def test_rejects_non_finite_start(self, start):
        with pytest.raises(ValueError, match=f"probe must be finite, got {re.escape(str(start))}"):
            trace_streamline([0j], [TWO_PI + 0j], start, window=Window(-1.0, 1.0, -1.0, 1.0))

    def test_negative_step_runs_upstream_into_a_source(self):
        line = trace_streamline([0j], [TWO_PI * 1j], 0.5 + 0j, step=-1e-2)
        assert line.terminated_by == "singularity_approach"
        assert np.all(np.diff(np.abs(line.vertices)) < 0)
        # the approach distance is |step|, so the last vertex stays outside it
        assert 1e-2 - 1e-12 <= np.abs(line.vertices[-2]) and np.abs(line.vertices[-1]) < 1e-2

    def test_stagnation_at_a_later_stage(self):
        # between equal sources at -1 and 1 the flow on the axis runs to the
        # stagnation point at 0; from half a step away the first stage lands on it
        z, g = [-1 + 0j, 1 + 0j], [TWO_PI * 1j] * 2
        start = 0.5 * 1e-2 + 0j
        assert abs(velocity_at(z, g, start)) >= 1e-3
        line = trace_streamline(z, g, start, step=1e-2)
        assert line.terminated_by == "stagnation"
        assert line.vertices.tolist() == [start]


class TestEmptyConfiguration:
    """Zero points are refused, by the intake every field and dynamics call
    passes through, before anything is allocated."""

    @pytest.mark.parametrize("call", [
        lambda: velocity_grid([], [], Window(-1.0, 1.0, -1.0, 1.0), 2000, 2000),
        lambda: velocity_at([], [], 0.5 + 0j),
        lambda: trace_streamline([], [], 0.5 + 0j),
        lambda: far_field_deviation([], [], 10.0),
    ], ids=["velocity_grid", "velocity_at", "trace_streamline", "far_field_deviation"])
    def test_zero_points_refused_before_anything_is_allocated(self, call):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="need at least 1 point, got 0"):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16


class TestFarField:
    def test_relative_deviation_quarters_when_radius_doubles(self):
        ps = PointSet([0j, 0.5 + 0j, 1 + 0j])
        sv = StrengthVector([1, -0.5, 1])
        d10 = far_field_deviation(ps, sv, 10.0)
        d20 = far_field_deviation(ps, sv, 20.0)
        assert 3.5 <= d10 / d20 <= 4.5

    def test_deviation_shrinks_with_radius(self):
        ps = PointSet([0j, 0.5 + 0j, 1 + 0j])
        sv = StrengthVector([1, -0.5, 1])
        d = [far_field_deviation(ps, sv, r) for r in (5.0, 10.0, 20.0, 40.0)]
        assert all(a > b for a, b in zip(d, d[1:]))
        assert d[-1] <= 1e-3

    def test_rejects_radius_inside_near_zone(self):
        ps = PointSet([0j, 0.5 + 0j, 1 + 0j])
        sv = StrengthVector([1, -0.5, 1])
        with pytest.raises(ValueError):
            far_field_deviation(ps, sv, 2.0)

    @pytest.mark.parametrize("radius", [np.nan, np.inf])
    def test_rejects_non_finite_radius(self, radius):
        ps = PointSet([0j, 0.5 + 0j, 1 + 0j])
        with pytest.raises(ValueError, match="radius must be finite"):
            far_field_deviation(ps, StrengthVector([1, -0.5, 1]), radius)

    def test_cancelling_total_has_no_far_field(self):
        z = np.exp(2j * np.pi * np.arange(7) / 7)
        sol = solve_strengths(PointSet(z))
        with pytest.raises(UndefinedFarField):
            far_field_deviation(PointSet(z), sol.strengths, 50.0)


class TestFieldOracle:
    """velocity_at, trace_streamline and far_field_deviation against the
    field expressions they were first written with, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(probe_cases())
    @example((np.array([0j]), np.array([TWO_PI + 0j]), 1.001e-9 + 0j))
    def test_velocity_at(self, case):
        z, g, probe = case
        assert field_outcome(lambda: velocity_at(z, g, probe)) == \
            reference_velocity_at(z, g, probe)

    @settings(max_examples=60, deadline=None)
    @given(probe_cases(), st.sampled_from([1e-2, 3e-2, 0.2]))
    def test_trace_streamline(self, case, step):
        z, g, start = case
        window = default_window(z)
        got = field_outcome(lambda: trace_streamline(z, g, start, step=step, max_steps=300,
                                                     window=window))
        assert got == reference_streamline(z, g, start, step, 300, window)

    @pytest.mark.parametrize("z, g, start, terminated", [
        ([0j], [TWO_PI + 0j], 0.3 + 0j, "step_limit"),
        ([0j], [TWO_PI * 1j], 0.1 + 0j, "window_exit"),
        ([0j], [-TWO_PI * 1j], 0.055 + 0j, "singularity_approach"),
        ([-1 + 0j, 1 + 0j], [TWO_PI + 0j, TWO_PI + 0j], 0j, "stagnation"),
    ])
    def test_each_termination(self, z, g, start, terminated):
        z, g = np.array(z), np.array(g)
        window = default_window(z)
        got = field_outcome(lambda: trace_streamline(z, g, start, step=1e-2, max_steps=300,
                                                     window=window))
        assert got == reference_streamline(z, g, start, 1e-2, 300, window)
        assert got[1] == terminated

    @settings(max_examples=150, deadline=None)
    @given(probe_cases(), st.floats(3.0, 50.0))
    def test_far_field_deviation(self, case, factor):
        z, g, _ = case
        assume(z.size >= 2)
        radius = factor * float(np.abs(z[:, None] - z).max())
        assert field_outcome(lambda: far_field_deviation(z, g, radius)) == \
            reference_far_field(z, g, radius)


class TestOrthogonalTwin:
    """Strengths i Gamma give the field -i v: the twin's velocity is v turned
    a quarter turn clockwise, to the bit, and it is singular where v is.
    Every sum runs in the same order on parts that only swap and change
    sign, so each velocity compares equal under ==."""

    @settings(max_examples=100, deadline=None)
    @given(probe_cases())
    def test_velocity_at(self, case):
        z, g, probe = case

        def at(strengths):
            try:
                return velocity_at(z, strengths, probe)
            except SingularPoint:
                return None

        v = at(g)
        assert at(1j * g) == (None if v is None else -1j * v)

    @settings(max_examples=40, deadline=None)
    @given(lattices())
    def test_velocity_grid(self, case):
        z, g, nx, ny = case
        grid = velocity_grid(z, g, GRID_WINDOW, nx, ny)
        twin = velocity_grid(z, 1j * g, GRID_WINDOW, nx, ny)
        assert (twin.velocity == -1j * grid.velocity).all()
        assert (twin.singular == grid.singular).all()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_point_velocities(self, n, seed):
        rng = np.random.default_rng(seed)
        z = random_points(rng, n, min_gap=1e-3)
        g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert (point_velocities(z, 1j * g) == -1j * point_velocities(z, g)).all()
