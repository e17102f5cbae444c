"""Configuration generators: lines, circles, polar curves, random planes."""

import numpy as np
import pytest

from stillflow import (
    CurveSpec,
    DegenerateConfiguration,
    RegionSpec,
    generate_circle,
    generate_collinear,
    generate_polar_curve,
    generate_random_plane,
    solve_strengths,
)
from stillflow import generators
from stillflow.generators import ARCLENGTH_SAMPLES, MAX_POINTS, _arclength_table


def arclength_placement(spec, n, samples=ARCLENGTH_SAMPLES):
    """even_arclength placement from an arclength table computed afresh."""
    theta = np.linspace(0.0, 2.0 * np.pi, samples + 1)
    r = spec.radius_at(theta)
    dr = np.gradient(r, theta)
    speed = np.hypot(dr, r)
    s = np.concatenate([[0.0], np.cumsum(0.5 * (speed[1:] + speed[:-1]) * np.diff(theta))])
    t = np.interp(s[-1] * np.arange(n) / n, s, theta)
    return spec.radius_at(t) * np.exp(1j * (t + spec.phase))


class TestCollinear:
    def test_even_three(self):
        ps = generate_collinear(3)
        assert np.allclose(ps.positions, [0, 0.5, 1], atol=1e-15)

    def test_even_grid(self):
        ps = generate_collinear(7)
        assert np.allclose(ps.positions, np.linspace(0, 1, 7), atol=1e-15)
        assert np.abs(ps.positions.imag).max() == 0

    def test_two_points(self):
        ps = generate_collinear(2)
        assert np.allclose(ps.positions, [0, 1])

    def test_random_pins_endpoints_and_sorts(self):
        ps = generate_collinear(9, distribution="random", seed=5)
        x = ps.positions.real
        assert x[0] == 0.0 and x[-1] == 1.0
        assert np.all(np.diff(x) > 0)
        assert np.all((x >= 0) & (x <= 1))

    def test_random_deterministic_per_seed(self):
        a = generate_collinear(9, distribution="random", seed=5)
        b = generate_collinear(9, distribution="random", seed=5)
        c = generate_collinear(9, distribution="random", seed=6)
        assert np.array_equal(a.positions, b.positions)
        assert not np.array_equal(a.positions, c.positions)

    def test_rejects_unknown_distribution(self):
        with pytest.raises(ValueError):
            generate_collinear(5, distribution="clustered")


class TestCircle:
    def test_roots_of_unity(self):
        ps = generate_circle(7)
        expect = np.exp(2j * np.pi * np.arange(7) / 7)
        assert np.abs(ps.positions - expect).max() <= 1e-15

    def test_radius_and_phase(self):
        ps = generate_circle(4, radius=2.0, phase=np.pi / 4)
        assert np.allclose(np.abs(ps.positions), 2.0)
        assert np.angle(ps.positions[0]) == pytest.approx(np.pi / 4)

    def test_random_stays_on_circle(self):
        ps = generate_circle(11, distribution="random", radius=1.5, seed=3)
        assert np.allclose(np.abs(ps.positions), 1.5, atol=1e-12)
        wound = np.mod(np.angle(ps.positions), 2 * np.pi)
        assert np.all(np.diff(wound) > 0)

    def test_unit_triangle_is_equilateral(self):
        ps = generate_circle(3)
        d = np.abs(ps.positions - np.roll(ps.positions, 1))
        assert np.allclose(d, np.sqrt(3), atol=1e-12)

    @pytest.mark.parametrize("distribution", ["even", "random"])
    @pytest.mark.parametrize("radius, phase", [
        (np.inf, 0.0), (np.nan, 0.0), (0.0, 0.0), (1.0, np.inf), (1.0, -np.inf), (1.0, np.nan),
    ])
    def test_rejects_non_finite_or_nonpositive_parameters(self, distribution, radius, phase):
        with pytest.raises(ValueError, match="positive finite radius"):
            generate_circle(5, distribution, radius=radius, phase=phase, seed=1)

    def test_rejects_unknown_distribution(self):
        with pytest.raises(ValueError, match="must be 'even' or 'random', got 'clustered'"):
            generate_circle(5, distribution="clustered")


class TestCurveSpec:
    def test_flower_radius(self):
        spec = CurveSpec("flower")
        assert spec.radius_at(np.array([0.0]))[0] == pytest.approx(1.0)
        assert spec.radius_at(np.array([np.pi / 4]))[0] == pytest.approx(0.0, abs=1e-15)

    def test_figure_eight_radius(self):
        spec = CurveSpec("figure_eight")
        assert spec.radius_at(np.array([0.0]))[0] == pytest.approx(1.0)
        assert spec.radius_at(np.array([np.pi / 3]))[0] == pytest.approx(0.25)

    @pytest.mark.parametrize("phase", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_phase(self, phase):
        with pytest.raises(ValueError, match="phase must be finite"):
            CurveSpec("flower", phase=phase)

    def test_unknown_names_rejected(self):
        with pytest.raises(ValueError):
            CurveSpec("spiral")
        with pytest.raises(ValueError):
            CurveSpec("flower", distribution="sobol")


class TestPolarCurve:
    def test_parameter_spacing_hits_axis_points(self):
        spec = CurveSpec("figure_eight", distribution="even_parameter")
        ps = generate_polar_curve(spec, 5)
        # theta = 0 gives radius 1 at angle 0
        assert ps.positions[0] == pytest.approx(1 + 0j)
        expect = np.cos(2 * np.pi * np.arange(5) / 5) ** 2
        assert np.allclose(np.abs(ps.positions), np.abs(expect), atol=1e-12)

    def test_flower_even_parameter_collision_detected(self):
        # theta = pi/4 + k pi/2 are radius zeros; n = 8 lands two points there
        spec = CurveSpec("flower", distribution="even_parameter")
        with pytest.raises(DegenerateConfiguration):
            generate_polar_curve(spec, 8)

    def test_arclength_spacing_is_even(self):
        # regenerate the inversion on a 10x finer grid and compare positions
        for curve in ("flower", "figure_eight"):
            spec = CurveSpec(curve, distribution="even_arclength")
            ps = generate_polar_curve(spec, 7)
            expect = arclength_placement(spec, 7, samples=1_000_000)
            assert np.abs(ps.positions - expect).max() <= 1e-5

    def test_seven_point_presets_admit_equilibria(self):
        for curve in ("flower", "figure_eight"):
            for dist in ("even_arclength", "even_parameter"):
                ps = generate_polar_curve(CurveSpec(curve, distribution=dist), 7)
                sol = solve_strengths(ps)
                assert sol.residual <= 1e-10

    def test_random_parameter_deterministic(self):
        spec = CurveSpec("flower", distribution="random_parameter")
        a = generate_polar_curve(spec, 7, seed=42)
        b = generate_polar_curve(spec, 7, seed=42)
        assert np.array_equal(a.positions, b.positions)

    def test_phase_rotates_configuration(self):
        base = generate_polar_curve(CurveSpec("figure_eight"), 5)
        spun = generate_polar_curve(CurveSpec("figure_eight", phase=0.7), 5)
        assert np.abs(spun.positions - base.positions * np.exp(0.7j)).max() <= 1e-9


class TestArclengthTable:
    @pytest.mark.parametrize("curve", ["flower", "figure_eight"])
    def test_placements_match_a_fresh_table(self, curve):
        for n in (3, 7, 21, 51):
            for phase in (0.0, 0.3, -2.0):
                spec = CurveSpec(curve, phase=phase)
                got = generate_polar_curve(spec, n).positions
                assert got.tobytes() == arclength_placement(spec, n).tobytes()

    def test_builtin_table_computed_once_and_read_only(self, monkeypatch):
        # every table is built on one np.linspace call, so counting those
        # counts the computations behind the cache
        computed = []
        linspace = np.linspace

        def counted(*args, **kwargs):
            computed.append(args)
            return linspace(*args, **kwargs)

        monkeypatch.setattr(np, "linspace", counted)
        _arclength_table.cache_clear()
        for curve in ("flower", "figure_eight"):
            tables = []
            for phase in (0.0, 1.0):
                spec = CurveSpec(curve, phase=phase)
                generate_polar_curve(spec, 7)
                tables.append(_arclength_table(spec.curve))
            for n in (7, 21):
                generate_polar_curve(CurveSpec(curve, phase=0.5), n)
            assert all(a is b for a, b in zip(*tables))
            for arr in tables[0]:
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0] = 1.0
        assert len(computed) == 2
        assert _arclength_table.cache_info().currsize == 2


def all_generators(n):
    """One call of every generator and placement rule at n points."""
    region = RegionSpec(-1.0, 1.0, -1.0, 1.0, seed=3)
    return [
        lambda: generate_collinear(n),
        lambda: generate_collinear(n, distribution="random", seed=1),
        lambda: generate_circle(n),
        lambda: generate_circle(n, distribution="random", seed=1),
        *[lambda dist=dist: generate_polar_curve(CurveSpec("flower", dist), n, seed=1)
          for dist in ("even_arclength", "even_parameter", "random_parameter")],
        lambda: generate_random_plane(n, region),
    ]


class TestPointCount:
    @pytest.mark.parametrize("n", [MAX_POINTS + 1, 10**11])
    def test_too_many_points_rejected_before_allocating(self, monkeypatch, n):
        def refuse(*args, **kwargs):
            raise AssertionError("allocated before the point count was checked")

        _arclength_table.cache_clear()
        for name in ("linspace", "arange"):
            monkeypatch.setattr(np, name, refuse)
        monkeypatch.setattr(np.random, "default_rng", refuse)
        for generate in all_generators(n):
            with pytest.raises(ValueError, match=f"need n <= {MAX_POINTS}, got {n}"):
                generate()

    @pytest.mark.parametrize("n", [-1, 0, 1])
    def test_too_few_points_rejected(self, n):
        for generate in all_generators(n):
            with pytest.raises(ValueError, match=f"need n >= 2, got {n}"):
                generate()

    def test_bound_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(generators, "MAX_POINTS", 5)
        for generate in all_generators(5):
            assert generate().n == 5
        for generate in all_generators(6):
            with pytest.raises(ValueError, match="need n <= 5, got 6"):
                generate()


class TestRandomPlane:
    def test_within_region(self):
        region = RegionSpec(-2.0, 3.0, -1.0, 1.0, seed=9)
        ps = generate_random_plane(20, region)
        assert np.all(ps.positions.real >= -2) and np.all(ps.positions.real <= 3)
        assert np.all(ps.positions.imag >= -1) and np.all(ps.positions.imag <= 1)

    def test_deterministic_per_seed(self):
        region = RegionSpec(-1.0, 1.0, -1.0, 1.0, seed=4)
        a = generate_random_plane(7, region)
        b = generate_random_plane(7, region)
        assert np.array_equal(a.positions, b.positions)

    def test_rejects_empty_region(self):
        with pytest.raises(ValueError):
            RegionSpec(1.0, -1.0, 0.0, 1.0)

    @pytest.mark.parametrize("bounds", [
        (0.0, np.inf, 0.0, 1.0), (-np.inf, 0.0, 0.0, 1.0), (0.0, 1.0, np.nan, 1.0),
        (-1e308, 1e308, 0.0, 1.0),
    ])
    def test_rejects_non_finite_region(self, bounds):
        with pytest.raises(ValueError, match="not finite"):
            RegionSpec(*bounds)

    def test_odd_draws_solve(self):
        region = RegionSpec(-1.0, 1.0, -1.0, 1.0, seed=12)
        ps = generate_random_plane(7, region)
        assert solve_strengths(ps).residual <= 1e-9


class TestRetry:
    def test_a_colliding_draw_is_redrawn_from_the_same_generator(self):
        seen = []

        def draw(rng):
            seen.append(rng)
            x = rng.uniform(0.0, 1.0, 3)
            return np.zeros(3) if len(seen) == 1 else x

        ps = generators._retry(7, draw, "test")
        rng = np.random.default_rng(7)
        rng.uniform(0.0, 1.0, 3)
        assert np.array_equal(ps.positions, rng.uniform(0.0, 1.0, 3))
        assert len(seen) == 2 and seen[0] is seen[1]

    def test_gives_up_after_the_cap(self):
        calls = []

        def draw(rng):
            calls.append(rng)
            return np.zeros(3)

        with pytest.raises(DegenerateConfiguration,
                           match=f"test: no admissible draw in {generators.RETRY_CAP} attempts"):
            generators._retry(7, draw, "test")
        assert len(calls) == generators.RETRY_CAP
