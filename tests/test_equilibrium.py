"""Strength solving, closed forms, classification."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from stillflow import (
    DELTA_MIN_DEFAULT,
    DegenerateConfiguration,
    NoEquilibrium,
    PointSet,
    StrengthVector,
    ZeroStrengths,
    build_matrix,
    center_of_vorticity,
    classify_far_field,
    classify_singularity,
    collinear_three_closed_form,
    eigenvalues,
    normalize_leading,
    pfaffian,
    residual,
    solve_strengths,
    triangle_closed_form,
    triangle_eigenvalues,
    zero_eigenvalue_multiplicity,
)

from stillflow.core import pairwise_distances
from known_configurations import adler_moser_9, polygon_plus_centre
from test_core import random_points


def solve(z, **kw):
    return solve_strengths(PointSet(np.asarray(z, dtype=complex)), **kw)


class TestSolve:
    def test_symmetric_collinear_three(self):
        sol = solve([0, 0.5, 1])
        assert np.allclose(sol.strengths.values, [1, -0.5, 1], atol=1e-10)
        assert sol.residual <= 1e-12
        assert sol.nullity == 1

    def test_two_points_have_no_equilibrium(self):
        with pytest.raises(NoEquilibrium) as exc:
            solve([0, 1])
        assert "singular value" in str(exc.value)

    def test_seven_collinear_even(self):
        sol = solve(np.linspace(0, 1, 7))
        g = sol.strengths.values
        golden = np.array([1.0, -0.553606, 0.921172, -0.579657,
                           0.921172, -0.553606, 1.0])
        assert np.allclose(g.real, golden, atol=5e-6)
        assert np.abs(g.imag).max() <= 1e-10
        # mirror symmetry of the line forces a palindromic vector
        assert np.allclose(g, g[::-1], atol=1e-10)
        assert g.sum().real == pytest.approx(2.155476, abs=1e-3)

    def test_seven_on_circle_roots_of_unity_strengths(self):
        z = np.exp(2j * np.pi * np.arange(7) / 7)
        g = solve(z).strengths.values
        expect = np.exp(8j * np.pi * np.arange(7) / 7)
        assert np.abs(g - expect).max() <= 1e-9
        assert abs(g.sum()) <= 1e-10

    def test_leading_normalization(self):
        sol = solve([0, 0.5, 1])
        assert sol.strengths.values[0] == 1.0 + 0.0j

    def test_strengths_scale_free(self):
        rng = np.random.default_rng(71)
        z = random_points(rng, 5)
        g1 = solve(z).strengths.values
        g2 = solve(3.7 * z).strengths.values
        assert np.allclose(g1, g2, atol=1e-9)

    def test_rotated_strengths_also_solve(self):
        sol = solve([0, 0.5, 1])
        a = build_matrix([0j, 0.5 + 0j, 1 + 0j])
        turned = sol.strengths.rotated()
        assert residual(a, turned) <= 1e-12

    def test_solution_reports_kernel_dimensions(self):
        sol = solve(np.linspace(0, 1, 5))
        assert sol.nullity == 1
        assert sol.basis.shape == (5, 1)
        assert sol.zero_eigenvalue_multiplicity >= sol.nullity


class TestCollinearClosedForm:
    def test_symmetric(self):
        g = collinear_three_closed_form(0.0, 0.5, 1.0).values
        assert np.allclose(g, [1, -0.5, 1], atol=1e-15)

    def test_quarter_point(self):
        g = collinear_three_closed_form(0.0, 0.25, 1.0).values
        assert np.allclose(g, [1, -0.75, 3], atol=1e-12)

    def test_matches_solver(self):
        rng = np.random.default_rng(72)
        for _ in range(200):
            xs = np.sort(rng.uniform(-2, 2, 3))
            if np.diff(xs).min() < 1e-3:
                continue
            g = collinear_three_closed_form(*xs).values
            sol = solve(xs)
            assert np.allclose(g, sol.strengths.values, atol=1e-9)

    def test_outer_strengths_positive_inner_negative(self):
        rng = np.random.default_rng(73)
        for _ in range(100):
            xs = np.sort(rng.uniform(0, 1, 3))
            if np.diff(xs).min() < 1e-3:
                continue
            g = collinear_three_closed_form(*xs).values
            assert g[0].real > 0 and g[2].real > 0 and g[1].real < 0

    def test_rejects_unordered(self):
        with pytest.raises(ValueError):
            collinear_three_closed_form(0.0, 1.0, 0.5)

    def test_rejects_coincident(self):
        with pytest.raises(DegenerateConfiguration):
            collinear_three_closed_form(0.0, 0.0, 1.0)


class TestTriangleClosedForm:
    def test_apex_at_infinity_gives_the_limit_without_a_warning(self):
        # the separation check's differences z - z are inf - inf there
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = triangle_closed_form(complex(np.inf, 0.0))
        assert np.array_equal(g.values, [0.0, 0.0, 1.0])

    def test_right_isoceles(self):
        g = triangle_closed_form(1j)
        a = build_matrix([0j, 1 + 0j, 1j])
        assert residual(a, g) <= 1e-12
        assert g.values[0] == 1.0 + 0.0j

    def test_equilateral_digits(self):
        g = triangle_closed_form(np.exp(1j * np.pi / 3)).values
        expect = np.array([1.0, -0.5 - 0.866025j, -0.5 + 0.866025j])
        assert np.allclose(g, expect, atol=1e-4)

    def test_reduces_to_collinear_on_real_axis(self):
        # vertex order here is (0, 1, 0.25); the position-ordered form
        # lists (0, 0.25, 1), so swap its last two entries
        g3 = triangle_closed_form(0.25 + 0j).values
        gc = collinear_three_closed_form(0.0, 0.25, 1.0).values
        assert np.allclose(g3, gc[[0, 2, 1]] / gc[0], atol=1e-12)

    def test_matches_nullspace_solver(self):
        rng = np.random.default_rng(74)
        count = 0
        while count < 300:
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if abs(z) < 1e-2 or abs(z - 1) < 1e-2:
                continue
            count += 1
            g = triangle_closed_form(z).values
            sol = solve([0, 1, z])
            assert np.abs(g - sol.strengths.values).max() <= 1e-9

    def test_rejects_vertex_collision(self):
        with pytest.raises(DegenerateConfiguration):
            triangle_closed_form(1e-12 + 0j)
        with pytest.raises(DegenerateConfiguration):
            triangle_closed_form(1 + 1e-12j)

    def test_nonreal_strengths_off_the_line(self):
        # a non-collinear triangle never carries purely real strengths
        rng = np.random.default_rng(75)
        done = 0
        while done < 5000:
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if abs(z.imag) < 1e-3 or abs(z) < 1e-2 or abs(z - 1) < 1e-2:
                continue
            done += 1
            g = triangle_closed_form(z).values
            assert np.abs(g.imag).max() > 1e-8


class TestTriangleEigenvalues:
    def test_equilateral_triple_zero_exact_route(self):
        lam = triangle_eigenvalues(np.exp(1j * np.pi / 3)).lambdas
        assert np.abs(lam).max() <= 1e-12

    def test_agrees_with_matrix_route(self):
        rng = np.random.default_rng(76)
        done = 0
        while done < 50:
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if abs(z) < 5e-2 or abs(z - 1) < 5e-2:
                continue
            done += 1
            lam_f = np.sort_complex(triangle_eigenvalues(z).lambdas)
            lam_m = np.sort_complex(eigenvalues(build_matrix([0j, 1 + 0j, z]).entries).lambdas)
            scale = max(np.abs(lam_m).max(), 1.0)
            assert np.abs(lam_f - lam_m).max() <= 1e-6 * scale

    @pytest.mark.parametrize("z", [1e-12 + 0j, 1 + 1e-12j])
    def test_rejects_vertex_collision_like_the_closed_form(self, z):
        base = round(z.real)  # the base point, 0 or 1, that z collides with
        with pytest.raises(DegenerateConfiguration) as closed:
            triangle_closed_form(z)
        with pytest.raises(DegenerateConfiguration) as eig:
            triangle_eigenvalues(z)
        assert str(eig.value) == str(closed.value) == (
            f"points {base} and 2 are separated by 1.000e-12 (< delta_min 1.000e-09)")

    def test_pure_imaginary_pair_plus_zero(self):
        lam = triangle_eigenvalues(0.5 + 0j).lambdas
        mags = np.sort(np.abs(lam))
        assert mags[0] == 0.0
        assert np.abs(lam.real).max() <= 1e-12


class TestNormalizeLeading:
    def test_divides_by_first_significant(self):
        out = normalize_leading(np.array([0.0, 2j, 4.0])).values
        assert out[0] == 0.0
        assert out[1] == 1.0 + 0.0j
        assert out[2] == pytest.approx(-2j)

    def test_all_tiny_rejected(self):
        with pytest.raises(ZeroStrengths):
            normalize_leading(np.array([0j, 0j]))


class TestResidual:
    def test_strengths_must_match_the_matrix(self):
        with pytest.raises(ValueError, match=r"matrix is \(3, 3\), strengths have length 2"):
            residual(build_matrix([0j, 0.5 + 0j, 1 + 0j]), [1, 1])

    def test_equilibrium_is_tiny(self):
        a = build_matrix([0j, 0.5 + 0j, 1 + 0j])
        assert residual(a, StrengthVector([1, -0.5, 1])) <= 1e-14

    def test_unit_value_for_pair(self):
        a = build_matrix([0j, 1 + 0j])
        assert residual(a, StrengthVector([1, 1])) == pytest.approx(1.0)

    def test_zero_vector_rejected(self):
        a = build_matrix([0j, 1 + 0j])
        with pytest.raises(ZeroStrengths):
            residual(a, StrengthVector([0j, 0j]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_refused(self, bad):
        with pytest.raises(ValueError, match="matrix contains non-finite entries"):
            residual(np.array([[0, bad], [bad, 0]]), [1, 1])

    def test_non_square_matrix_refused(self):
        with pytest.raises(ValueError, match="matrix must be square"):
            residual(np.ones((2, 3)), [1, 1, 1])

    @pytest.mark.parametrize("scale", [1e160, 1e200, 1e300, 1e-170, 1e-300])
    def test_scaled_equilibrium_keeps_a_tiny_residual(self, scale):
        # |Gamma|^2 overflows from about 1e154 and underflows below about
        # 1e-162; a RuntimeWarning would fail the test
        z = np.linspace(0.0, 1.0, 7) + 0j
        gamma = solve(z).strengths.values
        assert residual(build_matrix(z), scale * gamma) <= 1e-13


class TestPolygonPlusCentre:
    """The odd n-gon plus its centre under a similarity z -> a z + b, with a
    and b standard complex normal: the known strengths hold it still and
    the kernel has dimension 2. Over 50 draws per n the worst residual was
    2.6e-15 sigma_max."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 11), st.integers(0, 2**32 - 1))
    def test_nullity_two_with_the_known_strengths_in_the_kernel(self, k, seed):
        z, gamma = polygon_plus_centre(2 * k + 1)
        rng = np.random.default_rng(seed)
        a, b = (rng.standard_normal(2) + 1j * rng.standard_normal(2)) / np.sqrt(2)
        points = PointSet(a * z + b)
        sol = solve_strengths(points)
        assert sol.nullity == 2
        assert residual(build_matrix(points), gamma) <= 1e-13 * sol.kernel.sigma[0]



class TestAdlerMoser9:
    """The nine-point Adler-Moser family under a similarity z -> c z + b:
    the kernel has dimension 3 and holds the known +/-1 strengths.

    Draws with two roots closer than 1e-3 are skipped. Near a close pair
    the roots are only as accurate as np.roots places them, so the +/-1
    vector's residual is allowed max(1e-13, 2e-15 / separation^2) of
    sigma_max; over 6000 draws near a collision of a +1 and a -1 root it
    stayed below 4e-16 / separation^2, and below 1e-13 from a separation of
    0.1 up. The angle between g and the computed kernel is then bounded by
    that residual plus the SVD's backward error, over the smallest nonzero
    singular value.
    """

    @settings(max_examples=300, deadline=None)
    @given(st.complex_numbers(min_magnitude=0.1, max_magnitude=3),
           st.complex_numbers(max_magnitude=3),
           st.floats(-2, 2), st.floats(0, 2 * np.pi),
           st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False))
    def test_nullity_three_with_the_known_strengths_in_the_kernel(
            self, tau2, tau3, log_scale, angle, shift):
        z, g = adler_moser_9(tau2, tau3)
        separation = float(pairwise_distances(z).min())
        assume(separation >= 1e-3)
        points = PointSet(10.0**log_scale * np.exp(1j * angle) * z + shift)
        sol = solve_strengths(points)
        sigma, rank = sol.kernel.sigma, sol.kernel.rank
        assert sol.nullity == 3
        res = residual(build_matrix(points), g)
        assert res <= max(1e-13, 2e-15 / separation**2) * sigma[0]
        basis = sol.basis
        outside = np.linalg.norm(g - basis @ (basis.conj().T @ g)) / np.linalg.norm(g)
        assert outside <= (res + 1e-13 * sigma[0]) / sigma[rank - 1]

class TestClassification:
    def test_named_cases(self):
        assert classify_singularity(1.0) == "vortex_ccw"
        assert classify_singularity(-2.0) == "vortex_cw"
        assert classify_singularity(0.5j) == "source"
        assert classify_singularity(-0.5j) == "sink"
        assert classify_singularity(0.0) == "null"
        assert classify_singularity(1 + 1j) == "spiral_source_ccw"
        assert classify_singularity(-1 + 0.5j) == "spiral_source_cw"
        assert classify_singularity(2 - 1j) == "spiral_sink_ccw"
        assert classify_singularity(-2.4508 - 0.8449j) == "spiral_sink_cw"

    def test_tolerance_absorbs_noise(self):
        assert classify_singularity(1 + 1e-9j) == "vortex_ccw"
        assert classify_singularity(complex(1e-9, -1)) == "sink"

    def test_far_field_aggregates_total(self):
        sv = StrengthVector([1, -0.5, 1])
        far = classify_far_field(sv)
        assert far.total_strength == pytest.approx(1.5)
        assert far.kind == "vortex_ccw"

    def test_far_field_null_when_sum_cancels(self):
        z = np.exp(2j * np.pi * np.arange(7) / 7)
        far = classify_far_field(solve(z).strengths)
        assert far.kind == "null"

    def test_far_field_tolerance_is_relative(self):
        sv = StrengthVector([1e6 + 0j, 1.0 + 0j, -1e6 + 0j])
        assert classify_far_field(sv).kind == "null"


class TestCenterOfVorticity:
    def test_symmetric_collinear(self):
        cov = center_of_vorticity(PointSet([0j, 0.5 + 0j, 1 + 0j]),
                                  StrengthVector([1, -0.5, 1]))
        assert cov.defined
        assert cov.value == pytest.approx(0.5 + 0j)

    def test_seven_collinear_midpoint(self):
        xs = np.linspace(0, 1, 7)
        sol = solve(xs)
        cov = center_of_vorticity(PointSet(xs + 0j), sol.strengths)
        assert cov.defined
        assert cov.value == pytest.approx(0.5 + 0j, abs=1e-9)

    def test_undefined_for_cancelling_total(self):
        z = np.exp(2j * np.pi * np.arange(7) / 7)
        sol = solve(z)
        cov = center_of_vorticity(PointSet(z), sol.strengths)
        assert not cov.defined
        assert cov.value is None
        assert np.isfinite(cov.moment.real)


@st.composite
def odd_configurations(draw):
    """Odd N from 3 to 25 in general position, or the same with one pair
    moved 1e-1 to 1e-6 apart (a strongly graded matrix)."""
    n = 2 * draw(st.integers(1, 12)) + 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = random_points(rng, n)
    if draw(st.booleans()):
        gap = 10.0 ** draw(st.floats(-6, -1))
        z[1] = z[0] + gap * np.exp(1j * draw(st.floats(0, 2 * np.pi)))
    return z


def separation_spread(z) -> float:
    return float(np.abs(z).max() / pairwise_distances(z).min())


class TestInvariance:
    """Permuting the points permutes the strengths; a similarity c z + b
    leaves them unchanged, since A(c z + b) = A(z) / c has the same kernel.

    The kernel vector is only as accurate as its separation from the rest
    of the spectrum allows: a perturbation of A of relative size e moves it
    by about e sigma_1 / sigma_rank (Wedin's theorem), with sigma_rank the
    smallest nonzero singular value. Here e is the SVD's backward error,
    about n eps. A similarity also rounds the moved positions, which
    perturbs a difference z_a - z_b by about eps max|z| / min|z_a - z_b|
    relative; a permutation moves no bits. The tolerance is that bound
    times 100; over 3000 random and graded inputs the worst case used
    about 1.4 of the 100.
    """

    def solve_normalized(self, z, at):
        sol = solve_strengths(PointSet(z))
        assert sol.nullity == 1
        g = sol.strengths.values
        return g / g[at]

    def tolerance(self, sol, spread=0.0) -> float:
        sigma = sol.kernel.sigma
        condition = sigma[0] / sigma[sol.kernel.rank - 1]
        return 100 * np.finfo(float).eps * condition * (sol.strengths.values.size + spread)

    @settings(max_examples=150, deadline=None)
    @given(odd_configurations(), st.randoms(use_true_random=False))
    def test_permuting_points_permutes_strengths(self, z, random):
        sol = solve_strengths(PointSet(z))
        assume(sol.nullity == 1)
        g = sol.strengths.values
        at = int(np.argmax(np.abs(g)))
        perm = np.array(random.sample(range(z.size), z.size))
        moved = np.empty_like(g)
        moved[perm] = self.solve_normalized(z[perm], int(np.flatnonzero(perm == at)[0]))
        assert np.abs(moved - g / g[at]).max() <= self.tolerance(sol)

    @settings(max_examples=150, deadline=None)
    @given(odd_configurations(), st.floats(-3, 3), st.floats(0, 2 * np.pi),
           st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False))
    def test_similarity_leaves_strengths_unchanged(self, z, log_scale, angle, shift):
        sol = solve_strengths(PointSet(z))
        assume(sol.nullity == 1)
        # the separation floor is absolute: a shrink that takes a pair under
        # it leaves the configurations PointSet admits
        assume(10.0**log_scale * pairwise_distances(z).min() >= 2 * DELTA_MIN_DEFAULT)
        g = sol.strengths.values
        at = int(np.argmax(np.abs(g)))
        w = 10.0**log_scale * np.exp(1j * angle) * z + shift
        got = self.solve_normalized(w, at)
        spread = max(separation_spread(z), separation_spread(w))
        assert np.abs(got - g / g[at]).max() <= self.tolerance(sol, spread)


class TestResidualScale:
    """residual scales Gamma by a power of two before it sums squares, so
    2^k Gamma has the residual of Gamma bit for bit over the whole exponent
    range, and at moderate scales it is the plain quotient of norms."""

    @settings(max_examples=200, deadline=None)
    @given(odd_configurations(), st.integers(-1000, 1000))
    def test_power_of_two_scale_keeps_every_bit(self, z, k):
        a = build_matrix(z)
        gamma = solve_strengths(PointSet(z)).strengths.values
        scaled = np.ldexp(gamma.view(np.float64), k).view(np.complex128)
        assume(np.isfinite(scaled.view(np.float64)).all())
        want = residual(a, gamma)
        assert want == np.linalg.norm(a.entries @ gamma) / np.linalg.norm(gamma)
        parts = np.abs(scaled.view(np.float64))
        if (parts[parts > 0.0] >= np.finfo(np.float64).tiny).all():
            assert residual(a, scaled) == want
        else:
            # subnormal parts of 2^k Gamma lost bits: at most 2^-1074 each,
            # against a norm of at least 2^-1000
            assert abs(residual(a, scaled) - want) <= 1e-20 * np.abs(a.entries).max()


def scaled_by(values, k):
    """2^k times a real or complex array, exactly where the products are normal."""
    arr = np.asarray(values)
    return np.ldexp(arr.view(np.float64), k).view(arr.dtype)


class TestZeroCountScale:
    """The zero count and the 3x3 closed form scale A by a power of two
    before they square its entries, so 2^k A has A's zero count and
    2^k times its eigenvalues over the whole exponent range. Unscaled, the
    squares over- or underflowed: A's Frobenius norm made the cutoff
    infinite or zero, and the closed form returned NaN or zeros."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 25), st.integers(0, 2**32 - 1), st.integers(-1000, 990))
    def test_power_of_two_scale_keeps_the_count(self, n, seed, k):
        a = build_matrix(random_points(np.random.default_rng(seed), n)).entries
        assert zero_eigenvalue_multiplicity(scaled_by(a, k)) == zero_eigenvalue_multiplicity(a)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 2**32 - 1), st.integers(-25, 1021))
    def test_solved_points_at_any_scale_keep_the_count(self, half, seed, k):
        # coordinates within [-1, 1] times 2^1021 stay below MAX_COORDINATE,
        # and gaps of 0.05 times 2^-25 above the separation floor
        z = random_points(np.random.default_rng(seed), 2 * half + 1)
        want = solve_strengths(PointSet(z))
        got = solve_strengths(PointSet(scaled_by(z, k)))
        assume(got.nullity == want.nullity == 1)
        assert got.zero_eigenvalue_multiplicity == want.zero_eigenvalue_multiplicity

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(-1000, 990))
    def test_three_by_three_eigenvalues_scale_exactly(self, seed, k):
        a = build_matrix(random_points(np.random.default_rng(seed), 3)).entries
        got = eigenvalues(scaled_by(a, k)).lambdas
        assert got.tobytes() == scaled_by(eigenvalues(a).lambdas, k).tobytes()


class TestClosedFormScale:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(-20, 1024))
    @example(seed=0, k=1024)  # x3 - x1 = 1.19 * 2^1024 overflows unscaled
    def test_collinear_keeps_every_bit_at_any_scale(self, seed, k):
        xs = np.sort(np.random.default_rng(seed).uniform(-1, 1, 3))
        assume(np.ldexp(np.diff(xs).min(), k) >= 2 * DELTA_MIN_DEFAULT)
        got = collinear_three_closed_form(*scaled_by(xs, k)).values
        assert got.tobytes() == collinear_three_closed_form(*xs).values.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-6, 300), st.floats(0, 2 * np.pi))
    def test_triangle_eigenvalues_are_finite_up_to_huge_apexes(self, log_modulus, angle):
        z = 10.0**log_modulus * complex(np.cos(angle), np.sin(angle))
        assume(min(abs(z), abs(z - 1)) >= 1e-6)
        got = triangle_eigenvalues(z).lambdas
        want = eigenvalues(build_matrix([0j, 1 + 0j, z])).lambdas
        assert np.isfinite(got).all()
        # the matrix route loses about 1e-8 near the equilateral apexes
        tol = 1e-6 * max(np.abs(want).max(), 1.0)
        assert all(np.abs(want - lam).min() <= tol for lam in got)


def assert_solution_uses_the_public_helpers(points):
    sol = solve_strengths(points)
    want = normalize_leading(sol.basis[:, 0]).values
    assert sol.strengths.values.tobytes() == want.tobytes()
    assert not sol.strengths.values.flags.writeable
    assert sol.residual == residual(build_matrix(points), sol.strengths)


class TestSolveMatchesPublicHelpers:
    """solve_strengths forms its representative and residual from LAPACK's
    basis without re-checking it; the result must be the public helpers'
    to the bit."""

    @settings(max_examples=150, deadline=None)
    @given(odd_configurations())
    def test_random(self, z):
        assert_solution_uses_the_public_helpers(PointSet(z))

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_polygon_plus_centre(self, k):
        z, _ = polygon_plus_centre(2 * k + 1)
        assert_solution_uses_the_public_helpers(PointSet(0.7j * z + 0.2))

    @pytest.mark.parametrize("tau2, tau3", [(1.0, 1.0), (0.5 + 1j, 2.0), (2j, -1.0)])
    def test_adler_moser_9(self, tau2, tau3):
        z, _ = adler_moser_9(tau2, tau3)
        assert_solution_uses_the_public_helpers(PointSet(z))


def pfaffian_minors(a):
    """(-1)^a Pf(A with row and column a deleted), a = 0..n-1: for odd n
    at nullity 1 these span the kernel (the adjugate of an odd skew
    matrix is the outer product of this vector with itself)."""
    n = a.shape[0]
    return np.array([(-1) ** k * pfaffian(np.delete(np.delete(a, k, 0), k, 1))
                     for k in range(n)])


class TestPfaffianMinors:
    """The Pfaffian minors are a second route to the strengths, with no
    SVD: for odd N at nullity 1, Gamma_a is proportional to
    (-1)^a Pf(A_aa). The tolerance is TestInvariance's, the kernel vector's
    sensitivity bound times 100; over 3000 random draws the worst case
    used about 1.2 of the 100."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 7), st.integers(0, 2**32 - 1))
    def test_minors_are_the_strengths(self, k, seed):
        z = random_points(np.random.default_rng(seed), 2 * k + 1)
        sol = solve_strengths(PointSet(z))
        assume(sol.nullity == 1)
        g = sol.strengths.values
        at = int(np.argmax(np.abs(g)))
        minors = pfaffian_minors(build_matrix(z).entries)
        sigma = sol.kernel.sigma
        tol = 100 * np.finfo(float).eps * sigma[0] / sigma[sol.kernel.rank - 1] * z.size
        assert np.abs(minors / minors[at] - g / g[at]).max() <= tol
