"""Spectral distributions, entropy, gap."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stillflow import (
    EmptySpectrum,
    InvalidDistribution,
    NoEquilibrium,
    PointSet,
    SpectralReport,
    build_matrix,
    nullspace,
    solve_strengths,
    spectral_report,
)

from known_configurations import adler_moser_9, polygon_plus_centre
from test_core import random_points


def skew_blocks(sigma) -> np.ndarray:
    """The block-diagonal skew matrix whose block k is sigma_k [[0, 1], [-1, 0]]:
    its singular values are each sigma_k twice."""
    sigma = np.asarray(sigma, dtype=np.float64)
    a = np.zeros((2 * sigma.size, 2 * sigma.size), dtype=np.complex128)
    k = 2 * np.arange(sigma.size)
    a[k, k + 1], a[k + 1, k] = sigma, -sigma
    return a


class TestNormalize:
    def test_flat_pair(self):
        for mode in ("power", "linear"):
            p = spectral_report(skew_blocks([1.0]), mode=mode).sigma_normalized
            assert np.allclose(p, [0.5, 0.5])

    def test_power_weighting(self):
        p = spectral_report(skew_blocks([3.0, 2, 1]), mode="power").sigma_normalized
        expect = np.array([9, 9, 4, 4, 1, 1]) / 28.0
        assert np.allclose(p, expect, atol=1e-14)

    def test_linear_weighting(self):
        p = spectral_report(skew_blocks([3.0, 2, 1]), mode="linear").sigma_normalized
        expect = np.array([3, 3, 2, 2, 1, 1]) / 12.0
        assert np.allclose(p, expect, atol=1e-14)

    def test_zeros_dropped(self):
        rep = spectral_report(skew_blocks([2.0, 1.0, 0.0, 0.0]))
        assert rep.rank == 4 and rep.sigma_normalized.shape == (4,)
        assert rep.sigma_normalized.sum() == pytest.approx(1.0)


class TestEntropy:
    def test_flat_pair_gives_log_two(self):
        for mode in ("power", "linear"):
            assert spectral_report(skew_blocks([1.0]), mode=mode).entropy == pytest.approx(np.log(2))

    def test_flat_k_gives_log_k(self):
        # k equal pairs: 2k equal singular values
        for k in (1, 2, 3, 5):
            for mode in ("power", "linear"):
                s = spectral_report(skew_blocks(np.full(k, 0.7)), mode=mode).entropy
                assert s == pytest.approx(np.log(2 * k), rel=1e-12)

    def test_flat_distribution_maximizes(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            k = int(rng.integers(1, 9))
            sigma = np.sort(rng.uniform(0.01, 1.0, k))[::-1]
            for mode in ("power", "linear"):
                assert spectral_report(skew_blocks(sigma), mode=mode).entropy <= np.log(2 * k) + 1e-12


class TestSpectralReport:
    def test_generic_triangle(self):
        rep = spectral_report(build_matrix([0j, 1 + 0j, 0.4 + 0.8j]).entries)
        assert rep.rank == 2
        assert np.allclose(rep.sigma_normalized, [0.5, 0.5], atol=1e-9)
        assert rep.entropy == pytest.approx(np.log(2), abs=1e-9)

    def test_seven_on_circle(self):
        z = np.exp(2j * np.pi * np.arange(7) / 7)
        rep = spectral_report(build_matrix(z).entries)
        assert np.allclose(rep.sigma_raw, [3, 3, 2, 2, 1, 1, 0], atol=1e-9)
        expect = np.array([9, 9, 4, 4, 1, 1]) / 28.0
        assert np.allclose(rep.sigma_normalized, expect, atol=1e-9)
        assert rep.entropy == pytest.approx(1.523619, abs=1e-5)
        assert rep.spectral_gap_raw == pytest.approx(1.0, abs=1e-9)
        assert rep.spectral_gap_normalized == pytest.approx(1.0 / 28, abs=1e-9)
        assert rep.rank == 6

    def test_seven_collinear_even(self):
        xs = np.linspace(0, 1, 7)
        rep = spectral_report(build_matrix(xs + 0j).entries)
        assert rep.entropy == pytest.approx(1.523696, abs=1e-5)
        expect = np.array([13.5981, 13.5981, 9.0642, 9.0642, 4.5346, 4.5346, 0.0])
        assert np.allclose(rep.sigma_raw, expect, atol=5e-4)

    def test_linear_mode_differs(self):
        z = np.exp(2j * np.pi * np.arange(7) / 7)
        a = build_matrix(z).entries
        lin = spectral_report(a, mode="linear")
        assert np.allclose(lin.sigma_normalized,
                           np.array([3, 3, 2, 2, 1, 1]) / 12.0, atol=1e-9)
        assert lin.mode == "linear"
        assert lin.entropy != pytest.approx(spectral_report(a).entropy, abs=1e-3)

    def test_similarity_invariance(self):
        # rotation, translation, uniform scaling leave the distribution alone
        rng = np.random.default_rng(62)
        z = random_points(rng, 7)
        base = spectral_report(build_matrix(z).entries)
        moved = spectral_report(build_matrix(1.7 * np.exp(0.9j) * z + (3 - 2j)).entries)
        assert np.allclose(moved.sigma_normalized, base.sigma_normalized, atol=1e-9)
        assert moved.entropy == pytest.approx(base.entropy, abs=1e-9)

    def test_normalized_values_come_in_pairs(self):
        rng = np.random.default_rng(63)
        for n in (5, 7, 9):
            rep = spectral_report(build_matrix(random_points(rng, n)).entries)
            p = rep.sigma_normalized
            assert p.shape[0] % 2 == 0
            for k in range(0, p.shape[0], 2):
                assert abs(p[k] - p[k + 1]) <= 1e-8

    def test_concentration_lowers_entropy(self):
        flat = spectral_report(skew_blocks([1.0, 1, 1])).entropy
        assert spectral_report(skew_blocks([8.0, 1, 0.5])).entropy < flat


@st.composite
def configurations(draw):
    """Odd N in general position, even N in general position (generically
    no kernel), or a regular odd polygon plus its center (even N with a
    two-dimensional kernel), moved by a random similarity."""
    kind = draw(st.sampled_from(["odd", "even", "even_kernel"]))
    n = 2 * draw(st.integers(1, 12)) + (kind != "even")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "even_kernel":
        z = np.append(np.exp(2j * np.pi * np.arange(n) / n), 0)
    else:
        z = random_points(rng, n)
    scale = draw(st.floats(1e-3, 1e3)) * np.exp(1j * draw(st.floats(0, 2 * np.pi)))
    return scale * z + complex(*rng.uniform(-5, 5, 2)), kind


def same_bits(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, float):
        return type(b) is float and np.float64(a).tobytes() == np.float64(b).tobytes()
    return type(a) is type(b) and a == b


class TestRegularPolygon:
    """The regular N-gon in closed form: on the unit circle its singular
    values are |N - 1 - 2j| / 2 for j = 0 ... N - 1, and a similarity
    z -> a z + b divides them by |a| and leaves the distribution alone."""

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(st.integers(2, 60), st.sampled_from([101, 201])),
           st.floats(-3, 3), st.floats(0, 2 * np.pi), st.floats(-2, 2), st.floats(-2, 2))
    def test_closed_form_under_similarity(self, n, log_scale, angle, bx, by):
        unit = np.exp(2j * np.pi * np.arange(n) / n)
        a = 10.0**log_scale * np.exp(1j * angle)
        # b is a multiple of a, so the moved points keep the circle's relative
        # rounding: an offset of 5 on a radius of 1e-3 would lose 1e-12 of it
        rep = spectral_report(build_matrix(a * unit + a * complex(bx, by)))
        base = spectral_report(build_matrix(unit))
        sigma = np.sort(np.abs(n - 1 - 2 * np.arange(n)) / 2)[::-1]
        assert np.abs(rep.sigma_raw * abs(a) - sigma).max() <= 1e-13 * sigma[0]
        assert rep.rank == n - n % 2
        assert np.abs(rep.sigma_normalized - base.sigma_normalized).max() <= 1e-13
        assert abs(rep.entropy - base.entropy) <= 1e-13 * base.entropy


def clear_rank_margin(report, factor=100.0) -> bool:
    """Whether the singular values on both sides of the rank threshold sit
    at least factor away from it."""
    sigma, cut, rank = report.sigma, report.threshold, report.rank
    return sigma[rank - 1] >= factor * cut and (rank == sigma.size or sigma[rank] * factor <= cut)


class TestSimilarityInvariance:
    """A similarity z -> a z + a c divides A by a, which leaves the rank,
    the normalized spectrum and the entropy alone, in either mode.

    The offset is tied to a: the moved positions are rounded relative to
    |a| (1 + |c|), not to the differences |a| |z_a - z_b|. An offset b
    independent of a, with |b| >> |a|, loses digits of every difference
    to cancellation: over 4000 such draws the normalized spectrum moved by
    up to 2.3e-12. Over 8000 draws of this property the worst change was
    4.7e-15 in the normalized spectrum and 7.2e-15 relative in the entropy.
    Draws whose rank decision sits near its threshold, where rounding may
    flip it, are set aside; none of those 8000 was.
    """

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 25), st.integers(0, 2**32 - 1), st.floats(-3, 3),
           st.floats(0, 2 * np.pi),
           st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False))
    def test_rank_spectrum_and_entropy_unchanged(self, n, seed, log_scale, angle, c):
        z = random_points(np.random.default_rng(seed), n)
        a = 10.0**log_scale * np.exp(1j * angle)
        base = nullspace(build_matrix(z))
        assume(clear_rank_margin(base))
        moved = nullspace(build_matrix(a * z + a * c))
        assert moved.rank == base.rank
        for mode in ("power", "linear"):
            got, want = spectral_report(moved, mode=mode), spectral_report(base, mode=mode)
            assert np.abs(got.sigma_normalized - want.sigma_normalized).max() <= 1e-12
            assert abs(got.entropy - want.entropy) <= 1e-12 * want.entropy


class TestSpectrumScale:
    """spectral_report scales sigma by a power of two before it weighs it, so
    2^k A has the normalized spectrum and entropy of A over the whole
    exponent range, in either mode. Unscaled, sigma^2 under- or overflowed:
    of 800 draws (N = 2-25, both modes) 195 were refused and the worst of
    the rest was 18% off. Scaled, the worst relative change of those 800
    was 4.5e-14."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 25), st.integers(0, 2**32 - 1), st.integers(-1000, 990))
    def test_power_of_two_scale_keeps_the_spectrum(self, n, seed, k):
        a = build_matrix(random_points(np.random.default_rng(seed), n)).entries
        assume(clear_rank_margin(nullspace(a)))
        scaled = np.ldexp(a.view(np.float64), k).view(np.complex128)
        for mode in ("power", "linear"):
            got, want = spectral_report(scaled, mode=mode), spectral_report(a, mode=mode)
            assert got.rank == want.rank
            deviation = np.abs(got.sigma_normalized - want.sigma_normalized)
            assert (deviation <= 1e-12 * want.sigma_normalized).all()
            assert abs(got.entropy - want.entropy) <= 1e-12 * want.entropy


class TestReportFromSolution:
    @settings(max_examples=150, deadline=None)
    @given(configurations(), st.sampled_from(["power", "linear"]),
           st.sampled_from([1e-12, 1e-10, 1e-8, 1e-6, 1e-3]))
    def test_solution_kernel_reproduces_matrix_report(self, case, mode, tol):
        z, kind = case
        points = PointSet(z)
        direct = spectral_report(build_matrix(points), mode=mode, rel_tol=tol)
        try:
            kernel = solve_strengths(points, rel_tol=tol).kernel
        except NoEquilibrium:
            assert kind == "even" and direct.rank == z.size
            kernel = nullspace(build_matrix(points), rel_tol=tol)
        if kind == "even_kernel":
            assert kernel.nullity == 2
        # the report's rank decision stands whatever rel_tol says
        for via in (spectral_report(kernel, mode=mode),
                    spectral_report(kernel, mode=mode, rel_tol=0.5)):
            for field in dataclasses.fields(SpectralReport):
                assert same_bits(getattr(via, field.name), getattr(direct, field.name)), field


def assert_report_follows_the_formula(a, mode):
    """Every figure of spectral_report, to the bit, against its formula written
    out here: sigma[:rank] scaled by 2^-e, e the exponent of sigma[0], weighed,
    divided by its sum, and the entropy -sum(p ln p)."""
    report = spectral_report(a, mode=mode)
    nonzero = report.sigma_raw[: report.rank]
    scaled = np.ldexp(nonzero, -np.frexp(nonzero[0])[1])
    weights = scaled**2 if mode == "power" else scaled
    p = weights / weights.sum()
    assert same_bits(report.sigma_normalized, p)
    assert not report.sigma_normalized.flags.writeable
    assert same_bits(report.entropy, float(-(p * np.log(p)).sum()))
    assert same_bits(report.spectral_gap_raw, float(nonzero[-1]))
    assert same_bits(report.spectral_gap_normalized, float(p[-1]))


class TestReportMatchesPublicHelpers:
    """spectral_report against the formula of assert_report_follows_the_formula,
    and the refusals it keeps."""

    @settings(max_examples=150, deadline=None)
    @given(configurations(), st.sampled_from(["power", "linear"]))
    def test_random(self, case, mode):
        z, _ = case
        points = PointSet(z)
        assert_report_follows_the_formula(build_matrix(points), mode)
        if z.size % 2:
            assert_report_follows_the_formula(solve_strengths(points).kernel, mode)

    @pytest.mark.parametrize("mode", ["power", "linear"])
    @pytest.mark.parametrize("z", [polygon_plus_centre(7)[0], adler_moser_9(0.5 + 1j, 2.0)[0]],
                             ids=["heptagon_centre", "adler_moser_9"])
    def test_known_kernels(self, z, mode):
        points = PointSet(z)
        assert_report_follows_the_formula(build_matrix(points), mode)
        assert_report_follows_the_formula(solve_strengths(points).kernel, mode)

    def test_extreme_scales_match_the_helpers(self):
        # unscaled, sigma^2 underflows for the first and overflows for the second
        for a in (build_matrix([0j, 1e300 + 0j, -1e300 + 0j]),
                  1e200 * build_matrix([0j, 1 + 0j, 1j, 1 + 1j]).entries):
            for mode in ("power", "linear"):
                assert_report_follows_the_formula(a, mode)

    def test_kept_sigma_too_small_to_square_is_refused_as_by_the_helpers(self):
        # a tolerance that keeps sigma_4 = 1e-165 sigma_1, whose square is 0
        # in power mode even after the scaling
        a = build_matrix([0j, 1 + 0j, 1e170 + 0j, 1e170 + 1e165 + 0j])
        report = nullspace(a, rel_tol=1e-250)
        assert report.rank == 4
        with pytest.raises(InvalidDistribution, match="entries must be positive"):
            spectral_report(a, rel_tol=1e-250)
        assert spectral_report(a, mode="linear", rel_tol=1e-250).rank == 4

    def test_rank_zero_and_mode_are_still_refused(self):
        with pytest.raises(EmptySpectrum, match="all singular values are zero"):
            spectral_report(np.zeros((3, 3)))
        with pytest.raises(ValueError, match="mode must be one of"):
            spectral_report(build_matrix([0j, 1 + 0j, 1j]), mode="cubic")
