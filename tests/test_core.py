"""Configuration types and interaction matrix structure."""

from typing import NamedTuple

import numpy as np
import pytest

from stillflow import (
    ConfigurationMatrix,
    DegenerateConfiguration,
    PointSet,
    StrengthVector,
    build_matrix,
)


def random_points(rng, n, min_gap=0.05):
    while True:
        z = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
        gap = np.abs(z[:, None] - z[None, :])
        np.fill_diagonal(gap, np.inf)
        if gap.min() >= min_gap:
            return z


def _entries(a):
    return a.entries if isinstance(a, ConfigurationMatrix) else np.asarray(a, dtype=np.complex128)


class HermitianSplit(NamedTuple):
    """Decomposition A = B + C into Hermitian B and skew-Hermitian C."""

    hermitian: np.ndarray
    antihermitian: np.ndarray


def hermitian_split(a):
    """B = (A + A')/2 and C = (A - A')/2, ' the conjugate transpose. A real
    skew-symmetric matrix gives B = 0; A is normal exactly when B and C
    commute."""
    m = _entries(a)
    ah = m.conj().T
    return HermitianSplit((m + ah) / 2.0, (m - ah) / 2.0)


def normality_defect(a):
    """Frobenius norm of AA' - A'A; zero exactly for normal matrices."""
    m = _entries(a)
    ah = m.conj().T
    return float(np.linalg.norm(m @ ah - ah @ m, "fro"))


class TestPointSet:
    def test_requires_two_points(self):
        with pytest.raises(ValueError):
            PointSet([1.0 + 0j])

    def test_rejects_coincident_points(self):
        with pytest.raises(DegenerateConfiguration) as exc:
            PointSet([0j, 0j, 1 + 0j])
        assert "0" in str(exc.value) and "1" in str(exc.value)

    def test_rejects_near_coincident_below_floor(self):
        with pytest.raises(DegenerateConfiguration):
            PointSet([0j, 1e-10 + 0j, 1 + 0j])
        # at the floor itself the pair is allowed
        PointSet([0j, 2e-9 + 0j, 1 + 0j])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            PointSet([0j, complex(np.nan, 0)])

    def test_custom_separation_floor(self):
        PointSet([0j, 0.01 + 0j], delta_min=1e-3)
        with pytest.raises(DegenerateConfiguration):
            PointSet([0j, 0.01 + 0j], delta_min=0.1)

    def test_positions_read_only(self):
        ps = PointSet([0j, 1 + 0j])
        with pytest.raises(ValueError):
            ps.positions[0] = 5.0

    def test_diameter(self):
        ps = PointSet([0j, 3 + 4j, 1 + 0j])
        assert ps.diameter() == pytest.approx(5.0)
        assert len(ps) == 3


class TestStrengthVector:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            StrengthVector([])

    def test_total_and_rotation(self):
        sv = StrengthVector([1 + 0j, -0.5 + 0j, 1 + 0j])
        assert sv.total() == pytest.approx(1.5)
        rotated = sv.rotated()
        assert np.allclose(rotated.values, 1j * sv.values)
        assert sv.n == 3


class TestBuildMatrix:
    def test_two_points(self):
        a = build_matrix(PointSet([0j, 1 + 0j]))
        assert np.array_equal(a.entries, np.array([[0, -1], [1, 0]], dtype=complex))

    def test_three_point_entries(self):
        x = 0.3
        a = build_matrix(PointSet([0j, x + 0j, 1 + 0j])).entries
        xs = [0.0, x, 1.0]
        for i in range(3):
            for j in range(3):
                expect = 0.0 if i == j else 1.0 / (xs[i] - xs[j])
                assert a[i, j] == pytest.approx(expect)

    def test_coincident_points_rejected(self):
        with pytest.raises(DegenerateConfiguration):
            build_matrix([0j, 0j, 1 + 0j])

    def test_exact_skew_symmetry(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 5, 8, 13):
            a = build_matrix(PointSet(random_points(rng, n))).entries
            # bit-for-bit, not approximately
            assert np.all(a + a.T == 0)
            assert np.all(a.diagonal() == 0)

    def test_translation_invariance(self):
        rng = np.random.default_rng(12)
        z = random_points(rng, 6)
        a = build_matrix(PointSet(z)).entries
        for shift in (1.7 - 0.3j, 100j, -5.5 + 2j):
            b = build_matrix(PointSet(z + shift)).entries
            assert np.allclose(b, a, rtol=1e-12, atol=1e-12 * np.abs(a).max())

    def test_scaling_covariance(self):
        rng = np.random.default_rng(13)
        z = random_points(rng, 5)
        a = build_matrix(PointSet(z)).entries
        for c in (2.0, 0.5j, 1.3 - 0.7j):
            b = build_matrix(PointSet(c * z)).entries
            assert np.allclose(b, a / c, rtol=1e-12)

    def test_entries_read_only(self):
        a = build_matrix(PointSet([0j, 1 + 0j]))
        with pytest.raises(ValueError):
            a.entries[0, 1] = 3.0


class TestHermitianSplit:
    def test_real_collinear_is_skew_hermitian(self):
        a = build_matrix(PointSet([0j, 0.5 + 0j, 1 + 0j]))
        split = hermitian_split(a)
        assert np.abs(split.hermitian).max() <= 1e-14
        assert np.allclose(split.antihermitian, a.entries, atol=1e-14)

    def test_hermitian_input_has_no_skew_part(self):
        m = np.array([[0, 1j], [-1j, 0]])
        split = hermitian_split(m)
        assert np.allclose(split.hermitian, m, atol=1e-14)
        assert np.abs(split.antihermitian).max() <= 1e-14

    def test_reconstruction_and_symmetry(self):
        a = build_matrix(PointSet([0j, 1 + 0j, 1j]))
        split = hermitian_split(a)
        b, c = split.hermitian, split.antihermitian
        assert np.abs(b - b.conj().T).max() <= 1e-14
        assert np.abs(c + c.conj().T).max() <= 1e-14
        assert np.abs((b + c) - a.entries).max() <= 1e-14
        assert np.abs(b).max() > 0 and np.abs(c).max() > 0


class TestNormalityDefect:
    def test_real_collinear_is_normal(self):
        a = build_matrix(PointSet([0j, 0.3 + 0j, 1 + 0j]))
        assert normality_defect(a) <= 1e-12

    def test_two_points_always_normal(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            a = build_matrix(PointSet(random_points(rng, 2)))
            assert normality_defect(a) <= 1e-12

    def test_generic_triangle_is_not_normal(self):
        a = build_matrix(PointSet([0j, 1 + 0j, 1j]))
        assert normality_defect(a) > 0.1

    def test_commutator_identity_cross_check(self):
        # AA' - A'A = 2(CB - BC) for the Hermitian split parts B, C
        rng = np.random.default_rng(15)
        for _ in range(100):
            n = int(rng.integers(2, 8))
            a = build_matrix(PointSet(random_points(rng, n)))
            defect = normality_defect(a)
            b, c = hermitian_split(a)
            alt = 2.0 * float(np.linalg.norm(c @ b - b @ c, "fro"))
            scale = max(defect, alt, 1e-300)
            assert defect >= 0.0
            assert abs(defect - alt) <= 1e-10 * scale + 1e-13 * np.linalg.norm(a.entries) ** 2
