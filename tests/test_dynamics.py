"""Tracer orbits, point motion, fixedness."""

import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from stillflow import (
    CollapseReached,
    CollisionAbort,
    CurveSpec,
    DegenerateConfiguration,
    OrbitParams,
    PointSet,
    StrengthVector,
    build_matrix,
    collapse_time,
    core,
    dynamics,
    fixedness_check,
    generate_circle,
    generate_polar_curve,
    integrate,
    integrate_tracer,
    point_velocities,
    single_orbit,
    solve_strengths,
)

from stillflow.core import pairwise_distances
from stillflow.dynamics import CollisionEvent

from test_core import no_empty, random_points


def reference_integrate(z, gamma, t_final, dt, delta_min=1e-9):
    """The RK4 stepper with a closest-pair pass and a fully validated
    point_velocities call per stage: the oracle for integrate."""
    z = np.array(z, dtype=complex)
    gamma = np.array(gamma, dtype=complex)

    def velocities(zs):
        if zs.size == 1:
            return np.zeros(1, dtype=np.complex128)
        diff = zs[:, None] - zs[None, :]
        np.fill_diagonal(diff, 1.0)
        terms = gamma[None, :] / diff
        np.fill_diagonal(terms, 0.0)
        return np.conj(terms.sum(axis=1) / (2.0j * math.pi))

    times, history, events, warned = [0.0], [z.copy()], [], set()
    t = 0.0
    while t < t_final - 1e-12 * max(t_final, 1.0):
        h = min(dt, t_final - t)
        if z.size > 1:
            gap = pairwise_distances(z)
            a, b = divmod(int(np.argmin(gap)), gap.shape[0])
            sep, pair = float(gap[a, b]), (min(a, b), max(a, b))
            if sep < delta_min:
                raise CollisionAbort("contact", time=t, pair=pair, distance=sep)
            if sep < 10.0 * delta_min and pair not in warned:
                warned.add(pair)
                events.append(CollisionEvent(t, pair, sep))
        k1 = velocities(z)
        k2 = velocities(z + 0.5 * h * k1)
        k3 = velocities(z + 0.5 * h * k2)
        k4 = velocities(z + h * k3)
        if z.size > 1:
            reach = h * max(float(np.abs(k).max()) for k in (k1, k2, k3, k4))
            if reach > 0.25 * sep:
                raise CollisionAbort("reach", time=t, pair=pair, distance=sep)
        z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
        times.append(t)
        history.append(z.copy())
    return np.asarray(times), np.asarray(history), tuple(events)


def reference_point_velocities(z, gamma):
    """Every point's velocity with its own term zeroed after the division:
    the oracle for point_velocities, whose infinite diagonal drops it."""
    diff = z[:, None] - z[None, :]
    np.fill_diagonal(diff, 1.0)
    terms = gamma[None, :] / diff
    np.fill_diagonal(terms, 0.0)
    return np.conj(terms.sum(axis=1) / (2.0j * math.pi))


def reference_tracer(p, t_final, dt=1e-4):
    """RK4 on the polar tracer ODEs with the state as a 2-vector and one
    array per stage: the oracle for integrate_tracer."""

    def rhs(state):
        r, _ = state
        if r <= 0.0:
            raise CollapseReached("tracer radius reached zero during integration")
        return np.array(
            [p.gamma.imag / (2.0 * math.pi * r), p.gamma.real / (2.0 * math.pi * r * r)]
        )

    state = np.array([p.r0, p.theta0])
    t = 0.0
    while t < t_final - 1e-12 * max(t_final, 1.0):
        h = min(dt, t_final - t)
        k1 = rhs(state)
        k2 = rhs(state + 0.5 * h * k1)
        k3 = rhs(state + 0.5 * h * k2)
        k4 = rhs(state + h * k3)
        state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
    return float(state[0]), float(state[1])


def tracer_outcome(run):
    """Bytes of a finished tracer run, or the collapse it raised."""
    try:
        r, theta = run()
    except CollapseReached:
        return "collapse"
    return struct.pack("<dd", r, theta)


def outcome(run):
    """Bytes of a finished run, or the abort it raised."""
    try:
        times, positions, events = run()
    except CollisionAbort as exc:
        return ("abort", exc.time, exc.pair, exc.distance)
    return ("done", times.tobytes(), positions.tobytes(), events)


class TestSingleOrbit:
    def test_pure_source_spreads(self):
        r, theta = single_orbit(OrbitParams(2j * np.pi, 1.0), 1.0)
        assert r == pytest.approx(np.sqrt(3.0), abs=1e-12)
        assert theta == pytest.approx(0.0, abs=1e-12)

    def test_pure_vortex_circles(self):
        r, theta = single_orbit(OrbitParams(2 * np.pi + 0j, 1.0), 1.0)
        assert r == pytest.approx(1.0, abs=1e-12)
        assert theta == pytest.approx(1.0, abs=1e-12)

    def test_spiral_mixes_both(self):
        p = OrbitParams(2 * np.pi + 2j * np.pi, 1.0)
        r, theta = single_orbit(p, 1.0)
        assert r == pytest.approx(np.sqrt(3.0), abs=1e-12)
        assert theta == pytest.approx(0.5 * np.log(3.0), abs=1e-12)

    def test_initial_condition(self):
        p = OrbitParams(1 - 2j, 0.7, theta0=2.0)
        r, theta = single_orbit(p, 0.0)
        assert r == pytest.approx(0.7) and theta == pytest.approx(2.0)

    def test_collapse_time_value(self):
        assert collapse_time(OrbitParams(-2j * np.pi, 1.0)) == pytest.approx(0.5)
        assert collapse_time(OrbitParams(2j * np.pi, 1.0)) == np.inf
        assert collapse_time(OrbitParams(3.0 + 0j, 1.0)) == np.inf

    def test_collapse_raises_at_and_past_the_time(self):
        p = OrbitParams(-2j * np.pi, 1.0)
        single_orbit(p, 0.499)
        with pytest.raises(CollapseReached):
            single_orbit(p, 0.5)
        with pytest.raises(CollapseReached):
            single_orbit(p, 1.0)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            OrbitParams(1 + 0j, 0.0)

    def test_satisfies_polar_equations(self):
        # central differences against dr/dt = Gi/(2 pi r), dtheta/dt = Gr/(2 pi r^2)
        rng = np.random.default_rng(81)
        h = 1e-5
        for _ in range(20):
            g = complex(rng.uniform(-3, 3), rng.uniform(0, 3))
            p = OrbitParams(g, rng.uniform(0.5, 2.0), rng.uniform(-3, 3))
            t = rng.uniform(0.1, 1.0)
            r0, th0 = single_orbit(p, t - h)
            r1, th1 = single_orbit(p, t + h)
            r, _ = single_orbit(p, t)
            assert (r1 - r0) / (2 * h) == pytest.approx(
                g.imag / (2 * np.pi * r), abs=1e-6)
            assert (th1 - th0) / (2 * h) == pytest.approx(
                g.real / (2 * np.pi * r * r), abs=1e-6)


class TestTracerIntegration:
    def test_matches_closed_form(self):
        rng = np.random.default_rng(82)
        for _ in range(10):
            g = complex(rng.uniform(-3, 3), rng.uniform(0, 3))
            p = OrbitParams(g, rng.uniform(0.5, 2.0), rng.uniform(-1, 1))
            r_num, th_num = integrate_tracer(p, 1.0, dt=1e-3)
            r_ref, th_ref = single_orbit(p, 1.0)
            assert abs(r_num - r_ref) <= 1e-6
            assert abs(th_num - th_ref) <= 1e-6

    def test_decaying_orbit_before_collapse(self):
        p = OrbitParams(-2j * np.pi, 1.0)
        r_num, _ = integrate_tracer(p, 0.4, dt=1e-5)
        assert r_num == pytest.approx(np.sqrt(0.2), abs=1e-5)


@st.composite
def tracer_cases(draw):
    """Sources, sinks, vortices and spirals, with runs that may pass a
    sink's collapse time."""
    kind = draw(st.sampled_from(["source", "sink", "vortex", "spiral"]))
    size = st.floats(0.05, 20.0)
    sign = draw(st.sampled_from([-1.0, 1.0]))
    if kind == "source":
        gamma = complex(0.0, draw(size))
    elif kind == "sink":
        gamma = complex(0.0, -draw(size))
    elif kind == "vortex":
        gamma = complex(sign * draw(size), 0.0)
    else:
        gamma = complex(sign * draw(size), draw(st.floats(-20.0, 20.0)))
    params = OrbitParams(gamma, draw(st.floats(0.05, 3.0)), draw(st.floats(-10.0, 10.0)))
    dt = draw(st.floats(1e-3, 0.05))
    # up to 400 steps, the last one usually shorter than dt
    t_final = draw(st.integers(0, 400)) * dt * draw(st.floats(0.5, 1.0))
    return params, t_final, dt


class TestTracerOracle:
    @settings(max_examples=150, deadline=None)
    @given(tracer_cases())
    # a spiral sink, collapsing at t = 0.1 in a run of uneven steps
    @example((OrbitParams(1.5 - 10j * np.pi, 1.0), 0.25, 7e-3))
    # r * r underflows to 0: theta's rate is gamma_r / +0
    @example((OrbitParams(1 + 0j, 1e-170), 1e-3, 1e-4))
    @example((OrbitParams(1e-300j, 1e-170), 1e-3, 1e-4))
    def test_bit_identical_to_reference_tracer(self, case):
        p, t_final, dt = case
        # numpy warns where the scalar floats give the same inf or nan quietly
        with np.errstate(divide="ignore", invalid="ignore"):
            expected = tracer_outcome(lambda: reference_tracer(p, t_final, dt))
        assert tracer_outcome(lambda: integrate_tracer(p, t_final, dt)) == expected

    def test_collapse_mid_run_raises_on_both_sides(self):
        # a sink that collapses at t = 0.5, in the middle of the run
        p = OrbitParams(-2j * np.pi, 1.0)
        with pytest.raises(CollapseReached):
            reference_tracer(p, 1.0, 1e-3)
        with pytest.raises(CollapseReached):
            integrate_tracer(p, 1.0, 1e-3)


class TestNonFiniteTimes:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_integrate_rejects(self, value):
        with pytest.raises(ValueError):
            integrate([0j, 1 + 0j], [1 + 0j, 1 + 0j], value)
        with pytest.raises(ValueError):
            integrate([0j, 1 + 0j], [1 + 0j, 1 + 0j], 0.1, dt=value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_tracer_rejects(self, value):
        p = OrbitParams(1 + 1j, 1.0)
        with pytest.raises(ValueError):
            integrate_tracer(p, value)
        with pytest.raises(ValueError):
            integrate_tracer(p, 0.1, dt=value)
        with pytest.raises(ValueError):
            single_orbit(p, value)


class TestBounds:
    """Point counts and trajectory lengths are refused before anything is
    allocated."""

    # an equilibrium: nothing moves, whatever the step
    Z, G = [-1 + 0j, 0j, 1 + 0j], [1 + 0j, -0.5 + 0j, 1 + 0j]

    def test_too_many_plain_points(self, no_empty):
        z = np.arange(core.MAX_POINTS + 1, dtype=np.complex128)
        g = np.ones(z.size)
        message = f"need at most {core.MAX_POINTS} points, got {z.size}"
        with pytest.raises(ValueError, match=message):
            integrate(z, g, 1.0)
        with pytest.raises(ValueError, match=message):
            point_velocities(z, g)

    def test_trajectory_bound_is_inclusive(self, monkeypatch):
        # 4 steps of 3 points record 5 x 3 positions
        monkeypatch.setattr(dynamics, "MAX_TRAJECTORY_POSITIONS", 15)
        assert integrate(self.Z, self.G, 1.0, 0.25).positions.shape == (5, 3)
        monkeypatch.setattr(dynamics, "MAX_TRAJECTORY_POSITIONS", 14)
        with pytest.raises(ValueError, match="4 steps of 3 points need 15 step positions,"
                                             " more than the bound of 14"):
            integrate(self.Z, self.G, 1.0, 0.25)

    @pytest.mark.parametrize("dt", [1e-9, 5e-324])
    def test_long_trajectory_raises_before_allocating(self, no_empty, dt):
        # 5e-324 makes t_final / dt infinite
        with pytest.raises(ValueError, match="positions"):
            integrate(self.Z, self.G, 1.0, dt)

    def test_tracer_bound_is_inclusive(self, monkeypatch):
        # the tracer counts as one point: 4 steps take 5 positions
        p = OrbitParams(1 + 0j, 1.0)
        monkeypatch.setattr(dynamics, "MAX_TRAJECTORY_POSITIONS", 5)
        assert integrate_tracer(p, 1.0, 0.25) == reference_tracer(p, 1.0, 0.25)
        monkeypatch.setattr(dynamics, "MAX_TRAJECTORY_POSITIONS", 4)
        with pytest.raises(ValueError, match="4 steps of 1 point need 5 step positions,"
                                             " more than the bound of 4"):
            integrate_tracer(p, 1.0, 0.25)


class TestPointVelocities:
    def test_points_and_strengths_must_pair_up(self):
        with pytest.raises(ValueError, match="2 points but 1 strengths"):
            point_velocities([0j, 1 + 0j], [1 + 0j])

    def test_matches_matrix_product(self):
        rng = np.random.default_rng(83)
        for n in (2, 3, 5, 8):
            z = random_points(rng, n)
            g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            v = point_velocities(PointSet(z), StrengthVector(g))
            a = build_matrix(PointSet(z)).entries
            expect = np.conj(a @ g / (2j * np.pi))
            assert np.abs(v - expect).max() <= 1e-12 * max(np.abs(expect).max(), 1.0)

    def test_rotated_strengths_rotate_velocities(self):
        rng = np.random.default_rng(84)
        z = random_points(rng, 5)
        g = StrengthVector(rng.standard_normal(5) + 1j * rng.standard_normal(5))
        v = point_velocities(PointSet(z), g)
        w = point_velocities(PointSet(z), g.rotated())
        assert np.abs(w - (-1j) * v).max() <= 1e-14 * np.abs(v).max()

    def test_equilibrium_velocities_vanish(self):
        xs = np.linspace(0, 1, 7)
        sol = solve_strengths(PointSet(xs + 0j))
        v = point_velocities(PointSet(xs + 0j), sol.strengths)
        assert np.abs(v).max() <= 1e-12

    def test_single_point_is_still(self):
        v = point_velocities([0j], [1 + 0j])
        assert v.shape == (1,) and v[0] == 0

    @pytest.mark.parametrize("gap", [0.0, 1e-12])
    def test_plain_points_within_the_floor_are_refused(self, gap):
        # as PointSet refuses them, and integrate aborts at t = 0
        z, g = [0j, complex(gap)], [1 + 0j, 1 + 0j]
        with pytest.raises(DegenerateConfiguration, match="points 0 and 1 are separated by"):
            point_velocities(z, g)
        with pytest.raises(CollisionAbort, match="collided at t = 0 "):
            integrate(z, g, 1.0)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 40), st.integers(0, 2**32 - 1), st.sampled_from([0.5, 0.9, 1.0]),
           st.booleans())
    @example(2, 0, 0.5, True)
    def test_mostly_zero_strengths_match_zeroed_diagonal(self, n, seed, zero_share, lattice):
        rng = np.random.default_rng(seed)
        if lattice:
            # integer points and strength parts in {-1, -0, 0, 1}: many terms
            # are exact zeros of either sign
            z = np.unique(rng.integers(-3, 4, n) + 1j * rng.integers(-3, 4, n))
            assume(z.size >= 2)
            parts = np.array([-1.0, -0.0, 0.0, 1.0])
            g = np.empty(z.size, dtype=complex)
            g.real, g.imag = parts[rng.integers(0, 4, (2, z.size))]
        else:
            z = random_points(rng, n, min_gap=1e-3)
            g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        g[rng.random(z.size) < zero_share] = 0.0
        v = point_velocities(z, g)
        assert v.tobytes() == reference_point_velocities(z, g).tobytes()

    def test_pair_moves_perpendicular_to_separation(self):
        v = point_velocities([(-1 + 0j), (1 + 0j)], [4 * np.pi, 4 * np.pi])
        assert v[0] == pytest.approx(-1j) and v[1] == pytest.approx(1j)


class TestIntegrate:
    def test_corotating_pair_half_turn(self):
        ps = PointSet([-1 + 0j, 1 + 0j])
        sv = StrengthVector([4 * np.pi + 0j, 4 * np.pi + 0j])
        traj = integrate(ps, sv, np.pi, dt=1e-3)
        assert np.abs(traj.positions[-1] - np.array([1, -1])).max() <= 1e-9
        sep = np.abs(traj.positions[:, 0] - traj.positions[:, 1])
        assert np.abs(sep - 2.0).max() <= 1e-10
        assert traj.events == ()

    def test_times_are_uniform(self):
        traj = integrate([0j, 1 + 0j], [1 + 0j, 1 + 0j], 0.05, dt=1e-3)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(0.05)
        assert np.allclose(np.diff(traj.times), 1e-3)
        assert traj.positions.shape == (traj.times.size, 2)

    def test_fourth_order_convergence(self):
        ps = [-1 + 0j, 1 + 0j]
        sv = [4 * np.pi + 0j, 4 * np.pi + 0j]
        ref = integrate(ps, sv, 0.5, dt=1.25e-3).positions[-1]
        e1 = np.abs(integrate(ps, sv, 0.5, dt=2e-2).positions[-1] - ref).max()
        e2 = np.abs(integrate(ps, sv, 0.5, dt=1e-2).positions[-1] - ref).max()
        assert 8.0 < e1 / e2 < 32.0

    def test_sink_pair_aborts(self):
        ps = PointSet([0j, 1 + 0j])
        sv = StrengthVector([-2j * np.pi, -2j * np.pi])
        with pytest.raises(CollisionAbort) as exc:
            integrate(ps, sv, 1.0, dt=1e-3)
        err = exc.value
        assert err.pair == (0, 1)
        assert 0.0 < err.time < 0.26
        assert 0.0 < err.distance < 0.26

    def test_close_pass_recorded_not_fatal(self):
        # two like vortices straddling the warning band but above the floor
        ps = PointSet([0j, 5e-9 + 0j])
        sv = StrengthVector([1e-15 + 0j, 1e-15 + 0j])
        traj = integrate(ps, sv, 0.01, dt=1e-3)
        assert len(traj.events) == 1
        event = traj.events[0]
        assert event.pair == (0, 1)
        assert event.distance == pytest.approx(5e-9, rel=1e-6)

    def test_single_point_stays_put(self):
        traj = integrate([1 + 2j], [3 + 0j], 0.05, dt=1e-3)
        assert np.abs(traj.positions - (1 + 2j)).max() == 0.0


def oracle_cases():
    rng = np.random.default_rng(85)
    for n in (2, 3, 5, 8, 13):
        z = random_points(rng, n)
        for scale in (0.1, 1.0, 30.0):
            g = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
            yield z, g, 0.2, 7e-3
    xs = np.linspace(0, 1, 7) + 0j
    yield xs, solve_strengths(PointSet(xs)).strengths.values, 0.3, 1e-3
    yield [0j, 1 + 0j], [-2j * np.pi, -2j * np.pi], 1.0, 1e-3  # sink pair
    yield [0j, 5e-9 + 0j], [1e-15 + 0j, 1e-15 + 0j], 0.01, 1e-3  # close pass
    yield [0j, 5e-10 + 0j, 1 + 0j], [1 + 0j] * 3, 0.01, 1e-3  # contact
    yield [-0.0 - 0.0j], [3 + 0j], 0.05, 1e-3  # lone point
    circle = np.exp(2j * np.pi * np.arange(51) / 51)
    yield circle, solve_strengths(PointSet(circle)).strengths.values, 0.05, 1e-3
    rng = np.random.default_rng(86)
    z = random_points(rng, 201, min_gap=1e-3)
    yield z, 1e-4 * (rng.standard_normal(201) + 1j * rng.standard_normal(201)), 0.02, 1e-3
    # solved configurations where a stage's differences repeat those last
    # summed to the bit: at every stage (the 21-gon), at two of three though
    # a point moves every step (the flower), and at three stages of four for
    # 44 steps, then at one or two as the rounding grows (the 51-gon)
    for points in (solved_21_gon(), generate_polar_curve(CurveSpec("flower", phase=1.0), 21),
                   generate_circle(51, phase=1.0)):
        yield points.positions, solve_strengths(points).strengths.values, 0.75, 1e-3
    yield translating_pair() + (0.75, 1e-3)


def translating_pair():
    """An opposite pair on the real axis: both points move up alike every
    step, so their difference stays -1 + 0j to the bit."""
    return [0j, 1 + 0j], [1 + 0j, -1 + 0j]


def solved_21_gon():
    """The 21-gon at phase 1, whose equilibrium never moves at dt = 1e-3:
    each RK4 increment rounds away against its position."""
    return generate_circle(21, phase=1.0)


class TestIntegrateOracle:
    @pytest.mark.parametrize("z, g, t_final, dt", list(oracle_cases()))
    def test_bit_identical_to_reference_stepper(self, z, g, t_final, dt):
        def run():
            traj = integrate(z, g, t_final, dt=dt)
            return traj.times, traj.positions, traj.events

        expected = outcome(lambda: reference_integrate(z, g, t_final, dt))
        assert outcome(run) == expected

    def test_back_to_back_calls_share_nothing(self):
        # calls of different N in a row, then the first again: no work array
        # or view may carry over between calls or into the trajectories
        rng = np.random.default_rng(87)
        cases = []
        for n in (7, 13):
            g = 0.1 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
            cases.append((random_points(rng, n), g))
        cases.append(cases[0])
        inputs = [z.tobytes() for z, _ in cases]
        trajs = [integrate(z, g, 0.05, dt=1e-3) for z, g in cases]
        assert [z.tobytes() for z, _ in cases] == inputs
        for (z, g), traj in zip(cases, trajs):
            expected = outcome(lambda: reference_integrate(z, g, 0.05, 1e-3))
            assert outcome(lambda: (traj.times, traj.positions, traj.events)) == expected
        for i, a in enumerate(trajs):
            for b in trajs[i + 1:]:
                assert not np.shares_memory(a.positions, b.positions)
        assert trajs[2].positions.tobytes() == trajs[0].positions.tobytes()

    @pytest.mark.parametrize("run", [integrate, fixedness_check])
    def test_repeated_positions_reuse_the_field(self, monkeypatch, run):
        # the solved 21-gon repeats every stage's positions, and the
        # translating pair every stage's differences, so one sum serves all
        # 750 steps; a moving system evaluates each of its four stages
        calls = []

        def counting(*args):
            calls.append(None)
            return field_sum(*args)

        field_sum = dynamics._field_sum
        monkeypatch.setattr(dynamics, "_field_sum", counting)
        points = solved_21_gon()
        run(points, solve_strengths(points).strengths, 0.75, 1e-3)
        assert 1 <= len(calls) <= 2
        calls.clear()
        moved = run(*translating_pair(), 0.75, 1e-3)
        assert len(calls) == 1
        if run is fixedness_check:
            assert moved > 0.1
        calls.clear()
        rng = np.random.default_rng(88)
        run(random_points(rng, 7), 0.1 * (rng.standard_normal(7) + 1j * rng.standard_normal(7)),
            0.05, 1e-3)
        assert len(calls) == 4 * 50

    def test_a_repeat_after_the_combination_reads_the_last_stage(self, monkeypatch):
        # a field looked up by the differences it is handed: -w at z, 2w at
        # stage 2, w at stage 3. Stage 4's positions z + h w, and so their
        # differences, repeat stage 3's, and with h / 6 = 2^-10 the next z is
        # z + h w again, so that step's first stage repeats too. The
        # combination doubles k3 in place: a memo left on k3 would hand the
        # second step 2w instead of w.
        h = 6.0 * 2.0**-10
        z = np.array([0j, 1 + 0j])
        w = np.array([2.0**-4, -(2.0**-4)], dtype=complex)

        def differences(x):
            return core._differences(x, *core._pair_buffer(x.size)).tobytes()

        table = {differences(z): -w, differences(z - 0.5 * h * w): 2.0 * w,
                 differences(z + h * w): w}

        def velocities(x):
            return table.get(differences(x), np.zeros(x.size, dtype=complex))

        def by_table(diff, gamma, out):
            out[:] = table.get(diff.tobytes(), 0.0)
            return out

        expected = [z]
        for _ in range(2):
            k1 = velocities(z)
            k2 = velocities(z + 0.5 * h * k1)
            k3 = velocities(z + 0.5 * h * k2)
            k4 = velocities(z + h * k3)
            z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            expected.append(z)
        monkeypatch.setattr(dynamics, "_field_sum", by_table)
        traj = integrate(expected[0], [1 + 0j, 1 + 0j], 2.0 * h, h)
        assert traj.positions.tobytes() == np.array(expected).tobytes()

    def test_non_finite_stage_aborts(self):
        # 1e305 / 1e-8 overflows: the first stage is infinite, later ones NaN
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(CollisionAbort) as exc:
                integrate([0j, 1e-8 + 0j], [1e305 + 0j, 1e305 + 0j], 0.01)
        assert exc.value.pair == (0, 1) and exc.value.time == 0.0


class TestTrajectoryLength:
    """The loop's step count is not always ceil(t_final / dt), yet every
    step it takes is kept, and no row it did not fill is returned."""

    @pytest.mark.parametrize("z, g, t_final, dt, steps", [
        # one step fewer than the ceil, 1003
        (TestBounds.Z, TestBounds.G, 0.7252470676938314, 0.0007237994687563187, 1002),
        # one step more than the ceil, 103483
        ([1 + 2j], [3 + 0j], 1.0066856100738588, 9.72802885569474e-06, 103484),
        # t_final is within the loop's tolerance of 0: no step, one row
        (TestBounds.Z, TestBounds.G, 1e-13, 1e-3, 0),
    ])
    def test_bit_identical_to_reference_stepper(self, z, g, t_final, dt, steps):
        traj = integrate(z, g, t_final, dt)
        assert traj.positions.shape == (steps + 1, len(z))
        assert not (traj.times.flags.writeable or traj.positions.flags.writeable)
        expected = outcome(lambda: reference_integrate(z, g, t_final, dt))
        assert outcome(lambda: (traj.times, traj.positions, traj.events)) == expected


def drift_outcome(run):
    """Bytes of a drift, or the abort that ended its run."""
    try:
        return ("done", struct.pack("<d", run()))
    except CollisionAbort as exc:
        return ("abort", exc.time, exc.pair, exc.distance)


def traced_peak(run):
    """run()'s result and the peak bytes it held, traced by tracemalloc."""
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestFixedness:
    @pytest.mark.parametrize("z, g, t_final, dt", list(oracle_cases()))
    def test_bit_identical_to_reference_drift(self, z, g, t_final, dt):
        def reference():
            positions = reference_integrate(z, g, t_final, dt)[1]
            return float(np.abs(positions - positions[0]).max())

        expected = drift_outcome(reference)
        assert drift_outcome(lambda: fixedness_check(z, g, t_final, dt)) == expected

    def test_solved_configurations_stay_fixed(self):
        xs = np.linspace(0, 1, 7)
        sol = solve_strengths(PointSet(xs + 0j))
        drift = fixedness_check(PointSet(xs + 0j), sol.strengths)
        assert drift <= 1e-8

    def test_perturbed_strengths_drift(self):
        ps = PointSet([0j, 0.5 + 0j, 1 + 0j])
        bad = StrengthVector([1 + 0j, -0.4 + 0j, 1 + 0j])
        assert fixedness_check(ps, bad) >= 1e-3

    def test_short_horizon(self):
        ps = PointSet([0j, 0.5 + 0j, 1 + 0j])
        sol = solve_strengths(ps)
        assert fixedness_check(ps, sol.strengths, t_final=0.1) <= 1e-10


class TestEmptyConfiguration:
    """Zero points are refused, by the intake every field and dynamics call
    passes through, before anything is allocated."""

    @pytest.mark.parametrize("call", [
        lambda: point_velocities([], []),
        lambda: integrate([], [], 0.1),
        lambda: fixedness_check([], [], 1.0),
    ], ids=["point_velocities", "integrate", "fixedness_check"])
    def test_zero_points_refused_before_anything_is_allocated(self, call):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="need at least 1 point, got 0"):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16


class TestMemory:
    """A run holds its work arrays and what its caller returns, no more:
    4000 steps of the solved 51-gon are 3.3 MB of positions."""

    Z = np.exp(2j * np.pi * np.arange(51) / 51)

    @pytest.fixture(scope="class")
    def g(self):
        return solve_strengths(PointSet(self.Z)).strengths.values

    def test_fixedness_keeps_no_trajectory(self, g):
        drift, peak = traced_peak(lambda: fixedness_check(self.Z, g, 0.4, 1e-4))
        assert drift <= 1e-12
        assert peak < 0.5e6

    def test_integrate_holds_little_beyond_its_result(self, g):
        traj, peak = traced_peak(lambda: integrate(self.Z, g, 0.4, 1e-4))
        assert traj.positions.shape == (4001, 51)
        assert peak < 1.2 * (traj.times.nbytes + traj.positions.nbytes)
