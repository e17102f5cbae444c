"""Singular decomposition, nullspace, eigenvalues, Pfaffian."""

import cmath
import random
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stillflow import (
    DELTA_MIN_DEFAULT,
    ConvergenceFailure,
    OddDimension,
    build_matrix,
    determinant,
    eigenvalues,
    nullspace,
    pfaffian,
    pfaffian_determinant_check,
    svd,
    zero_eigenvalue_multiplicity,
)
from stillflow.linalg import _certified_zero_count

from known_configurations import polygon_plus_centre
from test_core import random_points


def config_matrix(rng, n):
    return build_matrix(random_points(rng, n)).entries


def eigen_residuals(a, lambdas):
    """min_q |Aq - lambda q| / |q| for each lambda: the smallest singular
    value of A - lambda I."""
    eye = np.eye(a.shape[0], dtype=np.complex128)
    return np.array([np.linalg.svd(a - lam * eye, compute_uv=False)[-1] for lam in lambdas])


def pfaffian_by_expansion(m):
    """Reference Pfaffian by expansion along the first row; its exact
    combinatorial structure makes it an oracle, its cost (doubling per
    dimension) limits it to small matrices."""
    n = m.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    if n == 2:
        return complex(m[0, 1])
    total = 0.0 + 0.0j
    for j in range(1, n):
        if m[0, j] == 0.0:
            continue
        keep = [k for k in range(1, n) if k != j]
        sign = -1.0 if j % 2 == 0 else 1.0
        total += sign * m[0, j] * pfaffian_by_expansion(m[np.ix_(keep, keep)])
    return total


#: Pair separations for strongly graded matrices: entries near 1/gap next
#: to entries of order one, the case where Jacobi SVD beats bidiagonalization
#: in relative accuracy.
GAPS = 10.0 ** -np.arange(1, 9)


def graded_matrix(rng, n, gap):
    z = random_points(rng, n, min_gap=2 * GAPS[0])
    z[1] = z[0] + gap * np.exp(2j * np.pi * rng.uniform())
    return build_matrix(z).entries


#: Eight points, two of them 1.3e-8 apart: Householder tridiagonalization
#: put Pf(A) 1.2e-8 off, and Pf^2 = det read as inconsistent.
GRADED_EIGHT = np.array([
    -0.5467834720872736 - 0.053496512855339524j, 0.13293677011533384 + 1.2153149804494732j,
    1.038637649654726 + 0.2697737542482618j, -1.6230924416147121 - 0.16430732432527395j,
    -1.5422467905883765 - 1.2821428368964098j, 0.1329367578295065 + 1.2153149753255161j,
    -0.3952971913417674 - 1.1890597767480278j, -0.6675953913996012 + 0.6425687514635733j,
])


@st.composite
def even_configurations(draw):
    """2 to 16 points, at random or with one pair 1e-8 to 1e-1 apart, under
    a random similarity z -> s z + b."""
    n = draw(st.sampled_from(range(2, 17, 2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gap = draw(st.one_of(st.none(), st.floats(-8.0, -1.0)))
    if gap is None:
        z = random_points(rng, n)
    else:
        z = random_points(rng, n, min_gap=2 * GAPS[0])
        i, j = rng.choice(n, 2, replace=False)
        z[j] = z[i] + 10.0**gap * np.exp(2j * np.pi * rng.uniform())
    s = 10.0 ** rng.uniform(-1, 1) * np.exp(2j * np.pi * rng.uniform())
    return s * z + complex(*rng.uniform(-5, 5, 2))


@st.composite
def odd_kernel_configurations(draw):
    """Odd N = 3 to 51 at random, with one pair 1e-8 to 1e-1 apart, or on a
    line; the regular N-gon, exact or with every point moved by 1e-12 to
    1e-2, which puts eigenvalues near the zero count's cutoff; or an
    (N - 1)-gon plus its centre, N = 3 to 51.
    Each under a random similarity z -> s z + b, |s| in [1e-3, 1e3] but
    never bringing the pair within 1e-8."""
    kind = draw(st.sampled_from(["random", "pair", "collinear", "polygon", "near_polygon",
                                 "polygon_centre"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    log_gap = rng.uniform(-8, -1)
    if kind == "polygon_centre":
        z, _ = polygon_plus_centre(draw(st.integers(2, 50)))
    else:
        n = draw(st.sampled_from(range(3, 52, 2)))
        if kind in ("polygon", "near_polygon"):
            z = np.exp(2j * np.pi * np.arange(n) / n)
            if kind == "near_polygon":
                z += 10.0 ** rng.uniform(-12, -2) * np.exp(2j * np.pi * rng.uniform(size=n))
        elif kind == "collinear":
            z = np.cumsum(rng.uniform(0.1, 1.0, n)) + 0j
        else:
            z = random_points(rng, n, min_gap=1e-3)
        if kind == "pair":
            i, j = rng.choice(n, 2, replace=False)
            z[j] = z[i] + 10.0**log_gap * np.exp(2j * np.pi * rng.uniform())
    log_scale = rng.uniform(max(-3.0, -8.0 - log_gap) if kind == "pair" else -3.0, 3.0)
    s = 10.0**log_scale * np.exp(2j * np.pi * rng.uniform())
    return s * z + complex(*rng.normal(size=2))


class TestSvd:
    def test_unit_pair(self):
        res = svd(np.array([[0, -1], [1, 0]], dtype=complex))
        assert np.allclose(res.sigma, [1.0, 1.0], atol=1e-14)

    def test_collinear_three(self):
        a = build_matrix([0j, 0.5 + 0j, 1 + 0j]).entries
        res = svd(a)
        assert np.allclose(res.sigma, [3.0, 3.0, 0.0], atol=1e-12)

    def test_seven_on_circle(self):
        z = np.exp(2j * np.pi * np.arange(7) / 7)
        res = svd(build_matrix(z).entries)
        assert np.allclose(res.sigma, [3, 3, 2, 2, 1, 1, 0], atol=1e-9)

    def test_factor_properties_random(self):
        rng = np.random.default_rng(21)
        eye_tol = 1e-10
        for _ in range(40):
            n = int(rng.integers(2, 13))
            a = config_matrix(rng, n)
            res = svd(a)
            u, s, v = res.u, res.sigma, res.v
            assert np.linalg.norm(u.conj().T @ u - np.eye(n)) <= eye_tol
            assert np.linalg.norm(v.conj().T @ v - np.eye(n)) <= eye_tol
            assert np.all(np.diff(s) <= 1e-15 * max(s[0], 1.0))
            assert np.all(s >= 0)
            scale = max(s[0], 1.0)
            assert np.linalg.norm(a - (u * s) @ v.conj().T) <= 1e-10 * scale
            assert np.linalg.norm(a @ v - u * s) <= 1e-10 * scale

    def test_matches_gram_eigenvalues(self):
        # squared singular values must be the Gram spectrum; comparing the
        # squares keeps a fair tolerance for the zero values, where the
        # Gram route itself is only good to eps * sigma_max^2
        rng = np.random.default_rng(22)
        for _ in range(20):
            n = int(rng.integers(2, 10))
            a = config_matrix(rng, n)
            s = svd(a).sigma
            gram = np.maximum(np.linalg.eigvalsh(a.conj().T @ a)[::-1], 0.0)
            assert np.allclose(s**2, gram, rtol=1e-8, atol=1e-12 * max(gram[0], 1.0))

    def test_inverse_scale_covariance(self):
        rng = np.random.default_rng(23)
        z = random_points(rng, 6)
        s1 = svd(build_matrix(z).entries).sigma
        for c in (2.0, -0.5j, 1 + 1j):
            s2 = svd(build_matrix(c * z).entries).sigma
            assert np.allclose(s2, s1 / abs(c), rtol=1e-10)

    def test_paired_singular_values(self):
        rng = np.random.default_rng(24)
        mats = [config_matrix(rng, n) for n in (3, 5, 7, 9)]
        mats += [graded_matrix(rng, n, gap) for n in (3, 5, 7, 9) for gap in GAPS]
        for a in mats:
            s = svd(a).sigma
            n = s.size
            for k in range(0, n - 1, 2):
                assert abs(s[k] - s[k + 1]) <= 1e-8 * s[0]

    def test_lapack_failure_is_typed(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        a = config_matrix(np.random.default_rng(25), 5)
        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(ConvergenceFailure):
            svd(a)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            svd(np.zeros((2, 3), dtype=complex))


class TestNullspace:
    def test_pair_has_trivial_kernel(self):
        rep = nullspace(np.array([[0, -1], [1, 0]], dtype=complex))
        assert rep.rank == 2 and rep.nullity == 0
        assert rep.basis.shape == (2, 0)

    def test_odd_size_has_kernel(self):
        rng = np.random.default_rng(31)
        sizes = (3, 5, 7, 9, 11)
        mats = [config_matrix(rng, n) for n in sizes]
        mats += [graded_matrix(rng, n, gap) for n in sizes for gap in GAPS]
        for a in mats:
            rep = nullspace(a)
            n = a.shape[0]
            assert rep.nullity >= 1
            assert rep.rank % 2 == 0
            w = rep.basis
            assert np.linalg.norm(w.conj().T @ w - np.eye(rep.nullity)) <= 1e-10
            for k in range(rep.nullity):
                assert np.linalg.norm(a @ w[:, k]) <= 10 * rep.threshold
            # the last basis vector belongs to the exact zero of odd skew input
            gamma = w[:, -1]
            residual = np.linalg.norm(a @ gamma) / np.linalg.norm(gamma)
            assert residual <= 1e-12 * rep.sigma[0] * n

    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_zero_matrix_has_rank_zero(self, n):
        rep = nullspace(np.zeros((n, n), dtype=complex))
        assert rep.threshold == 0.0
        assert rep.rank == 0 and rep.nullity == n and rep.basis.shape == (n, n)

    def test_threshold_formula(self):
        a = config_matrix(np.random.default_rng(32), 5)
        rep = nullspace(a, rel_tol=1e-10)
        assert rep.threshold == pytest.approx(1e-10 * rep.sigma[0] * 5)

    def test_rank_plus_nullity(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            n = int(rng.integers(2, 11))
            rep = nullspace(config_matrix(rng, n))
            assert rep.rank + rep.nullity == n

    def test_equilateral_triangle_rank_two(self):
        z = np.array([0, 1, np.exp(1j * np.pi / 3)])
        rep = nullspace(build_matrix(z).entries)
        assert rep.rank == 2 and rep.nullity == 1

    def test_threshold_inside_a_pair_demotes_the_straggler(self):
        # LAPACK returns the two equal singular values of a pair split by
        # rounding; a threshold at their midpoint leaves an odd count above it
        rng = np.random.default_rng(34)
        demoted = 0
        while demoted < 20:
            a = config_matrix(rng, int(rng.integers(4, 30)))
            s = svd(a)
            n = s.sigma.size
            for k in range(0, n - 1, 2):
                mid = 0.5 * (s.sigma[k] + s.sigma[k + 1])
                rep = nullspace(a, rel_tol=mid / (s.sigma[0] * n))
                if s.sigma[k + 1] < rep.threshold < s.sigma[k]:
                    break
            else:
                continue
            demoted += 1
            assert rep.rank == k and rep.nullity == n - k
            assert np.array_equal(rep.basis[:, 0], s.v[:, k])


class TestEigenvalues:
    def test_one_by_one_is_its_entry(self):
        for value in (2.0 - 1.0j, 0j, -3.5e4 + 0j):
            assert eigenvalues(np.array([[value]])).lambdas.tolist() == [value]

    def test_pair_spectrum(self):
        for d in (0.5, 1.0, 2.0):
            lam = eigenvalues(build_matrix([0j, d + 0j]).entries).lambdas
            expect = np.array([1j / d, -1j / d])
            assert np.allclose(sorted(lam, key=lambda v: v.imag),
                               sorted(expect, key=lambda v: v.imag), atol=1e-12)

    def test_collinear_three_closed_form(self):
        xs = [0.0, 0.5, 1.0]
        lam = eigenvalues(build_matrix([x + 0j for x in xs]).entries).lambdas
        mags = np.sort(np.abs(lam))
        assert np.allclose(mags, [0.0, 3.0, 3.0], atol=1e-12)
        assert np.abs(lam.real).max() <= 1e-12

    def test_negation_closure(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            n = int(rng.integers(2, 10))
            lam = eigenvalues(config_matrix(rng, n)).lambdas
            scale = np.abs(lam).max()
            neg = list(-lam)
            for v in lam:
                dist = [abs(v - w) for w in neg]
                k = int(np.argmin(dist))
                assert dist[k] <= 1e-8 * max(scale, 1e-300)
                neg.pop(k)

    def test_collinear_spectrum_is_imaginary(self):
        rng = np.random.default_rng(42)
        for n in (3, 4, 6, 9):
            xs = np.sort(rng.uniform(0, 1, n))
            while np.diff(xs).min() < 5e-2:
                xs = np.sort(rng.uniform(0, 1, n))
            lam = eigenvalues(build_matrix(xs + 0j).entries).lambdas
            scale = np.abs(lam).max()
            assert np.abs(lam.real).max() <= 1e-10 * scale
            # normal case: |eigenvalues| equal the singular values
            s = svd(build_matrix(xs + 0j).entries).sigma
            assert np.allclose(np.sort(np.abs(lam)), np.sort(s), rtol=1e-8,
                               atol=1e-8 * scale)

    def test_equilateral_near_triple_zero(self):
        # entries stored in doubles put the true spectrum of this matrix
        # near 1.8e-8, not at zero; the matrix route cannot do better
        z = np.array([0, 1, np.exp(1j * np.pi / 3)])
        lam = eigenvalues(build_matrix(z).entries).lambdas
        assert np.abs(lam).max() <= 5e-8

    def test_ordering(self):
        rng = np.random.default_rng(43)
        lam = eigenvalues(config_matrix(rng, 8)).lambdas
        mags = np.abs(lam)
        assert np.all(np.diff(mags) <= 1e-12 * max(mags[0], 1.0))

    def test_residuals_small(self):
        rng = np.random.default_rng(44)
        for n in (2, 3, 5, 8):
            a = config_matrix(rng, n)
            lam = eigenvalues(a).lambdas
            res = eigen_residuals(a, lam)
            assert res.max() <= 1e-8 * max(np.abs(lam).max(), 1.0)


class TestZeroMultiplicity:
    def test_pair(self):
        assert zero_eigenvalue_multiplicity(build_matrix([0j, 1 + 0j]).entries) == 0

    def test_generic_triangle(self):
        a = build_matrix([0j, 1 + 0j, 0.3 + 0.9j]).entries
        assert zero_eigenvalue_multiplicity(a) == 1

    def test_equilateral_triple(self):
        z = np.array([0, 1, np.exp(1j * np.pi / 3)])
        a = build_matrix(z).entries
        assert zero_eigenvalue_multiplicity(a) == 3


class TestNilpotentPolygon:
    """The regular odd N-gon's A is nilpotent, a single Jordan block of
    size N: its SVD nullity is 1, yet (A / ||A||)^N vanishes to rounding, so
    its zero count is N. The regular 4-, 6- and 8-gons have no kernel, and
    that power stays above 1e-3 (0.11, 1.4e-2 and 1.9e-3). Only singular
    values are taken. A similarity z -> a z + a c divides A by a; the
    offset is tied to a so that the moved points keep their relative
    rounding."""

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([*range(3, 16, 2), 4, 6, 8]), st.floats(-3, 3),
           st.floats(0, 2 * np.pi), st.floats(-2, 2), st.floats(-2, 2))
    def test_odd_polygons_are_nilpotent_and_even_ones_are_not(self, n, log_scale, angle, bx, by):
        a = 10.0**log_scale * np.exp(1j * angle)
        m = build_matrix(a * np.exp(2j * np.pi * np.arange(n) / n) + a * complex(bx, by))
        power = np.linalg.matrix_power(m.entries / np.linalg.norm(m.entries, 2), n)
        if n % 2:
            assert nullspace(m).nullity == 1
            assert np.linalg.norm(power, 2) <= 1e-15
        else:
            assert nullspace(m).nullity == 0
            assert np.linalg.norm(power, 2) >= 1e-3


class TestCertifiedZeroCount:
    """The zero count read from the rank report is the eigenvalue count
    wherever the certificate gives one."""

    @settings(max_examples=300, deadline=None)
    @given(odd_kernel_configurations(), st.floats(-12.0, -1.0))
    def test_certified_count_is_the_eigenvalue_count(self, z, log_tol):
        a = build_matrix(z)
        count = _certified_zero_count(nullspace(a, rel_tol=10.0**log_tol))
        if count is not None:
            assert count == zero_eigenvalue_multiplicity(a)

    @pytest.mark.parametrize("n", range(3, 52, 2))
    def test_declines_on_odd_polygons(self, n):
        rng = np.random.default_rng(n)
        s = 10.0 ** rng.uniform(-3, 3) * np.exp(2j * np.pi * rng.uniform())
        z = s * np.exp(2j * np.pi * np.arange(n) / n) + complex(*rng.normal(size=2))
        assert _certified_zero_count(nullspace(build_matrix(z))) is None

    def test_declines_on_the_equilateral_triangle(self):
        a = build_matrix([0j, 1 + 0j, np.exp(1j * np.pi / 3)])
        assert _certified_zero_count(nullspace(a)) is None
        assert zero_eigenvalue_multiplicity(a) == 3

    def test_certifies_random_odd_configurations(self):
        rng = np.random.default_rng(20)
        for n in range(3, 22, 2):
            a = build_matrix(random_points(rng, n, min_gap=1e-2))
            assert _certified_zero_count(nullspace(a)) == 1 == zero_eigenvalue_multiplicity(a)

    def test_declines_at_other_nullities(self):
        z, _ = polygon_plus_centre(7)
        assert _certified_zero_count(nullspace(build_matrix(z))) is None
        assert _certified_zero_count(nullspace(build_matrix([0j, 1 + 0j]))) is None


class TestPfaffianAndDeterminant:
    def test_two_by_two(self):
        a = np.array([[0, -1], [1, 0]], dtype=complex)
        assert pfaffian(a) == pytest.approx(-1.0)
        assert determinant(a) == pytest.approx(1.0)

    def test_four_by_four_block(self):
        a = np.zeros((4, 4), dtype=complex)
        a[0, 1], a[1, 0] = 1, -1
        a[2, 3], a[3, 2] = 1, -1
        assert pfaffian(a) == pytest.approx(1.0)

    def test_odd_dimension_rejected(self):
        with pytest.raises(OddDimension):
            pfaffian(np.zeros((3, 3), dtype=complex))

    def test_non_skew_rejected(self):
        with pytest.raises(ValueError):
            pfaffian(np.eye(4, dtype=complex))

    def test_zero_matrix(self):
        assert pfaffian(np.zeros((4, 4), dtype=complex)) == 0

    def test_odd_configuration_determinant_vanishes(self):
        rng = np.random.default_rng(51)
        for n in (3, 5, 7):
            a = config_matrix(rng, n)
            scale = np.linalg.norm(a) ** n
            assert abs(determinant(a)) <= 1e-8 * scale

    def test_square_identity_random_even(self):
        rng = np.random.default_rng(52)
        for n in (4, 6, 8, 10):
            a = config_matrix(rng, n)
            check = pfaffian_determinant_check(a)
            assert check.consistent
            assert check.pfaffian ** 2 == pytest.approx(check.determinant, rel=1e-8)

    def test_expansion_and_reduction_routes_agree(self):
        # the elimination against the cofactor-expansion oracle
        rng = np.random.default_rng(53)
        for n in (2, 4, 6, 8):
            for _ in range(5):
                a = config_matrix(rng, n)
                assert pfaffian(a) == pytest.approx(pfaffian_by_expansion(a), rel=1e-10)
        # a padded embedding: Pf(A (+) J) = Pf(A) for J = [[0, 1], [-1, 0]]
        a = config_matrix(rng, 8)
        big = np.zeros((10, 10), dtype=complex)
        big[:8, :8] = a
        big[8, 9], big[9, 8] = 1, -1
        assert pfaffian(big) == pytest.approx(pfaffian_by_expansion(a), rel=1e-10)

    def test_square_identity_past_float_range(self):
        # the unit circle scaled by 1e-3 at N = 400: |det A| is about
        # e^4483, far past the largest double (about e^709.8)
        z = 1e-3 * np.exp(2j * np.pi * np.arange(400) / 400)
        a = build_matrix(z).entries
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            check = pfaffian_determinant_check(a)
            pf, det = pfaffian(a), determinant(a)
        assert check.consistent is True
        log_det = float(np.log(svd(a).sigma).sum())
        assert check.log_abs_determinant == pytest.approx(log_det, rel=1e-12)
        assert 2 * check.log_abs_pfaffian == pytest.approx(log_det, rel=1e-12)
        assert cmath.isinf(check.pfaffian) and cmath.isinf(check.determinant)
        assert (pf, det) == (check.pfaffian, check.determinant)

    def test_check_decides_in_log_space(self, monkeypatch):
        # |Pf^2 - det| <= rel_tol * max(|Pf|^2, |det|) read from phases and
        # log-moduli: shift det's logarithm or phase and watch the verdict
        a = config_matrix(np.random.default_rng(55), 6)
        sign, log_abs = np.linalg.slogdet(a)
        for shift, phase, expected in ((0.0, 1.0, True), (1e-10, 1.0, True),
                                       (-1e-10, 1.0, True), (1e-6, 1.0, False),
                                       (-1e-6, 1.0, False), (0.0, -1.0, False),
                                       (0.0, np.exp(1e-6j), False)):
            monkeypatch.setattr(np.linalg, "slogdet",
                                lambda m: (sign * phase, log_abs + shift))
            assert pfaffian_determinant_check(a).consistent is expected
        monkeypatch.setattr(np.linalg, "slogdet", lambda m: (0.0, -np.inf))
        assert pfaffian_determinant_check(a).consistent is False
        monkeypatch.undo()
        zero = pfaffian_determinant_check(np.zeros((4, 4), dtype=complex))
        assert zero.consistent is True
        assert zero.pfaffian == 0 and zero.determinant == 0
        assert zero.log_abs_pfaffian == zero.log_abs_determinant == -np.inf

    def test_row_swap_changes_sign(self):
        rng = np.random.default_rng(54)
        a = config_matrix(rng, 6)
        perm = np.arange(6)
        perm[[0, 1]] = perm[[1, 0]]
        b = a[np.ix_(perm, perm)]
        assert pfaffian(b) == pytest.approx(-pfaffian(a), rel=1e-10)

    def test_graded_pair_is_consistent(self):
        a = build_matrix(GRADED_EIGHT).entries
        assert pfaffian_determinant_check(a).consistent is True
        assert pfaffian(a) == pytest.approx(pfaffian_by_expansion(a), rel=1e-12)


class TestPfaffianProperties:
    """Pf^2 = det, Pf(P A P^T) = det(P) Pf(A) and Pf(A (+) J) = Pf(A), and
    the expansion oracle for N <= 8, over random and graded even
    configurations."""

    @settings(max_examples=200, deadline=None)
    @given(even_configurations(), st.randoms(use_true_random=False))
    @example(GRADED_EIGHT, random.Random(0))
    def test_pfaffian_properties(self, z, rnd):
        a = build_matrix(z).entries
        n = a.shape[0]
        pf = pfaffian(a)
        assert pfaffian_determinant_check(a).consistent
        perm = list(range(n))
        rnd.shuffle(perm)
        sign = round(np.linalg.det(np.eye(n)[perm]).real)
        assert pfaffian(a[np.ix_(perm, perm)]) == pytest.approx(sign * pf, rel=1e-12)
        padded = np.zeros((n + 2, n + 2), dtype=complex)
        padded[:n, :n] = a
        padded[n, n + 1], padded[n + 1, n] = 1, -1
        assert pfaffian(padded) == pytest.approx(pf, rel=1e-14)
        if n <= 8:
            assert pf == pytest.approx(pfaffian_by_expansion(a), rel=1e-12)


@st.composite
def skew_configurations(draw):
    """2 to 25 points at random under a random similarity z -> s z + b,
    then possibly one of them moved to 1.3 to 1000 times the separation
    floor from another. No regular polygon: its nilpotent part makes the
    eigenvalues too ill-conditioned for either property below."""
    n = draw(st.integers(2, 25))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s = 10.0 ** rng.uniform(-1, 1) * np.exp(2j * np.pi * rng.uniform())
    z = s * random_points(rng, n, min_gap=1e-3) + complex(*rng.uniform(-5, 5, 2))
    if draw(st.booleans()):
        i, j = rng.choice(n, 2, replace=False)
        gap = DELTA_MIN_DEFAULT * 10.0 ** draw(st.floats(0.1, 3.0))
        z[j] = z[i] + gap * np.exp(2j * np.pi * rng.uniform())
    return build_matrix(z).entries


class TestSkewPairing:
    """A complex skew-symmetric A is unitarily congruent to a direct sum of
    2x2 blocks [[0, s], [-s, 0]] (Youla), so its singular values come in
    equal pairs, plus one zero for odd n; and det(lambda I - A) =
    (-1)^n det(-lambda I - A), so its eigenvalues are closed under
    negation. build_matrix's A is skew bit for bit, so only the solvers'
    rounding separates the partners. Tolerances are relative to sigma_max:
    over 12000 draws, the worst singular pair differed by 1.4 n eps
    sigma_max, and the worst eigenvalue by 1.2e-12 sigma_max from its
    negated partner."""

    @settings(max_examples=200, deadline=None)
    @given(skew_configurations())
    def test_singular_values_come_in_pairs(self, a):
        sigma = svd(a).sigma
        n = sigma.size
        gaps = sigma[0:n - 1:2] - sigma[1::2]
        if n % 2:
            gaps = np.append(gaps, sigma[-1])
        assert np.abs(gaps).max() <= 100 * n * np.finfo(float).eps * sigma[0]

    @settings(max_examples=200, deadline=None)
    @given(skew_configurations())
    def test_eigenvalues_are_closed_under_negation(self, a):
        lam = eigenvalues(a).lambdas
        partners = list(-lam)
        worst = 0.0
        for v in lam:
            dist = np.abs(v - np.array(partners))
            k = int(dist.argmin())
            worst = max(worst, float(dist[k]))
            partners.pop(k)
        assert worst <= 1e-9 * svd(a).sigma[0]
