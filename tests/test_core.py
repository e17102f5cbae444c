"""Configuration types and interaction matrix structure."""

import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stillflow import (
    DELTA_MIN_DEFAULT,
    ConfigurationMatrix,
    DegenerateConfiguration,
    PointSet,
    StrengthVector,
    build_matrix,
    core,
)
from stillflow.core import pairwise_distances


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

    def test_result_is_the_only_n_by_n_array(self):
        # a PointSet made first: a plain sequence's separation check has a
        # peak of its own
        points = PointSet(random_points(np.random.default_rng(14), 1000, min_gap=1e-6))
        tracemalloc.start()
        try:
            a = build_matrix(points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * a.entries.nbytes
        assert not a.entries.flags.writeable
        assert a.entries.tobytes() == upper_triangle_matrix(points.positions).tobytes()

    def test_constructor_copies_the_callers_array(self):
        entries = np.array([[0, -1], [1, 0]], dtype=np.complex128)
        a = ConfigurationMatrix(entries)
        assert not np.shares_memory(a.entries, entries)
        assert entries.flags.writeable and not a.entries.flags.writeable
        entries[0, 1] = 3.0
        assert a.entries[0, 1] == -1


@pytest.fixture
def no_empty(monkeypatch):
    """np.empty fails: a call that raises under it allocated nothing first."""
    def refuse(*args, **kwargs):
        raise AssertionError("np.empty was called")

    monkeypatch.setattr(np, "empty", refuse)


def upper_triangle_matrix(z):
    """The interaction matrix as first built: each 1/(z_a - z_b) with a < b
    computed once, negated into the lower triangle, on a zero diagonal."""
    n = z.size
    a = np.zeros((n, n), dtype=np.complex128)
    iu, ju = np.triu_indices(n, k=1)
    vals = 1.0 / (z[iu] - z[ju])
    a[iu, ju] = vals
    a[ju, iu] = -vals
    return a


@st.composite
def matrix_configurations(draw):
    """Random points, polygons, collinear points or integer lattices, of 2 to
    29, 51 or 201 points. The x and y coordinates are scaled by their own
    powers of ten, from 1e-150 to 1e150, and every zero coordinate part
    gets a drawn sign."""
    n = draw(st.one_of(st.integers(2, 29), st.sampled_from([51, 201])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    family = draw(st.sampled_from(["random", "polygon", "collinear", "lattice"]))
    if family == "random":
        z = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
    elif family == "polygon":
        z = np.exp(2j * np.pi * np.arange(n) / n)
    elif family == "collinear":
        direction = draw(st.sampled_from([1.0, 1j, -1.0, np.exp(0.3j)]))
        z = rng.permutation(np.linspace(-1.0, 1.0, n)) * direction
    else:
        side = int(np.ceil(np.sqrt(n))) + 2
        cells = rng.choice(side * side, n, replace=False)
        z = (cells % side - side // 2) + 1j * (cells // side - side // 2)
    z = (z.real * 10.0 ** draw(st.integers(-150, 150))
         + 1j * z.imag * 10.0 ** draw(st.integers(-150, 150)))
    parts = z.view(np.float64)
    zeros = np.flatnonzero(parts == 0.0)
    parts[zeros] = np.where(rng.random(zeros.size) < 0.5, 0.0, -0.0)
    return z


class TestMatrixOracle:
    """build_matrix against the upper-triangle construction, byte for byte:
    == cannot tell +0 from -0, tobytes can."""

    @settings(max_examples=300, deadline=None)
    @given(matrix_configurations())
    @example(np.array([complex(0.0, -0.0), complex(-0.0, 1.0), complex(-0.0, -1.0),
                       complex(1.0, 0.0), complex(2.0, -0.0), complex(1.0, -2.0)]))
    def test_bytes_match_upper_triangle_construction(self, z):
        if pairwise_distances(z).min() < DELTA_MIN_DEFAULT:
            with pytest.raises(DegenerateConfiguration):
                build_matrix(PointSet(z))
            return
        points = PointSet(z)
        got = build_matrix(points).entries
        assert got.tobytes() == upper_triangle_matrix(points.positions).tobytes()


class TestPointBound:
    """One check before the N x N differences are allocated covers PointSet
    and build_matrix."""

    def test_too_many_points_raise_before_allocating(self, no_empty):
        z = np.arange(core.MAX_POINTS + 1, dtype=np.complex128)
        for build in (PointSet, build_matrix):
            with pytest.raises(ValueError, match=f"need at most {core.MAX_POINTS} points,"
                                                 f" got {core.MAX_POINTS + 1}"):
                build(z)

    def test_bound_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(core, "MAX_POINTS", 5)
        assert build_matrix(np.arange(5.0)).n == 5
        with pytest.raises(ValueError, match="need at most 5 points, got 6"):
            PointSet(np.arange(6.0))
        with pytest.raises(ValueError, match="need at most 5 points, got 6"):
            pairwise_distances(np.arange(6.0) + 0j)


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
