"""Correctness checks made apart from the program.

Nothing here imports stillflow. Every expected value is computed from the
inputs with plain numpy (the interaction matrix, LAPACK singular values, the
determinant, direct field sums, the closed-form tracer orbit) or is a
property the method must have (even rank, paired singular values, unit-speed
streamline steps). A failed check raises CheckFailure with the reason.
"""

from __future__ import annotations

import math

import numpy as np

#: Relative rank tolerance the program uses by default; the threshold is
#: RANK_TOL * sigma_max * n.
RANK_TOL = 1e-10
SIGMA_TOL = 1e-10
RESIDUAL_TOL = 1e-10
ENTROPY_TOL = 1e-9
PAIR_TOL = 1e-8
PFAFFIAN_TOL = 1e-8
DRIFT_TOL = 1e-6
VERIFY_RESIDUAL_TOL = 1e-8
FIELD_TOL = 1e-9
ORBIT_TOL = 1e-6
TERMINATIONS = ("step_limit", "window_exit", "singularity_approach", "stagnation")
EXIT_OK = 0
EXIT_NO_EQUILIBRIUM = 4


class CheckFailure(AssertionError):
    """A program output disagrees with the benchmark's own computation."""


class Accuracy:
    """Worst accuracy figures seen across checked outputs, for the report."""

    def __init__(self):
        self.worst = {}

    def note(self, name: str, value: float) -> None:
        self.worst[name] = max(self.worst.get(name, 0.0), float(value))


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailure(message)


def interaction_matrix(z) -> np.ndarray:
    """A[a, b] = 1 / (z_a - z_b), zero diagonal."""
    z = np.asarray(z, dtype=np.complex128)
    diff = z[:, None] - z[None, :]
    np.fill_diagonal(diff, 1.0)
    a = 1.0 / diff
    np.fill_diagonal(a, 0.0)
    return a


def lapack_sigma(a: np.ndarray) -> np.ndarray:
    return np.linalg.svd(a, compute_uv=False)


def rank_threshold(sigma: np.ndarray) -> float:
    return RANK_TOL * float(sigma[0]) * sigma.size


def entropy(sigma_nonzero: np.ndarray) -> float:
    w = sigma_nonzero ** 2
    p = w / w.sum()
    return float(-(p * np.log(p)).sum())


def direct_velocity(z_nodes, z, gamma) -> np.ndarray:
    """v(p) = conj(sum_a gamma_a / (p - z_a) / (2 pi i)), summed node by node."""
    nodes = np.atleast_1d(np.asarray(z_nodes, dtype=np.complex128))
    out = np.empty(nodes.size, dtype=np.complex128)
    for k, p in enumerate(nodes):
        out[k] = np.conj(np.sum(gamma / (p - z)) / (2j * math.pi))
    return out


def relative_residual(a: np.ndarray, gamma) -> float:
    gamma = np.asarray(gamma, dtype=np.complex128)
    return float(np.linalg.norm(a @ gamma) / np.linalg.norm(gamma))


# -- spectrum and kernel -----------------------------------------------------


def check_sigma(sigma, sigma_ref, acc: Accuracy) -> None:
    """The program's sigma against LAPACK's, entrywise within 1e-10 sigma_max."""
    sigma = np.asarray(sigma, dtype=np.float64)
    require(sigma.shape == sigma_ref.shape,
            f"sigma has {sigma.size} entries, expected {sigma_ref.size}")
    err = float(np.abs(sigma - sigma_ref).max()) / float(sigma_ref[0])
    acc.note("sigma_rel_error", err)
    require(err <= SIGMA_TOL, f"sigma differs from LAPACK by {err:.3e} sigma_max")


def check_pairs(sigma, rank: int) -> None:
    """Even rank, and the nonzero singular values come in equal pairs."""
    require(rank % 2 == 0, f"rank {rank} is odd")
    nz = np.asarray(sigma[:rank], dtype=np.float64)
    split = np.abs(nz[0::2] - nz[1::2]) / nz[0::2] if rank else np.zeros(0)
    require(bool(np.all(split <= PAIR_TOL)),
            f"nonzero singular values are not paired (split {split.max():.3e})")


def check_spectral_report(z, sigma_raw, rank: int, ent: float, acc: Accuracy) -> None:
    a = interaction_matrix(z)
    ref = lapack_sigma(a)
    check_sigma(sigma_raw, ref, acc)
    check_pairs(sigma_raw, rank)
    expected = entropy(ref[:rank])
    acc.note("entropy_error", abs(ent - expected))
    require(abs(ent - expected) <= ENTROPY_TOL,
            f"entropy {ent!r} differs from -sum p ln p = {expected!r}")


def check_kernel(z, strengths, nullity: int, acc: Accuracy) -> None:
    """Odd N: a nontrivial kernel whose vector A annihilates."""
    require(nullity >= 1, f"nullity {nullity} for an odd configuration")
    res = relative_residual(interaction_matrix(z), strengths)
    acc.note("residual", res)
    require(res <= RESIDUAL_TOL, f"|A gamma| / |gamma| = {res:.3e} on the benchmark's A")


def expects_no_equilibrium(z) -> bool:
    """True when LAPACK's sigma_min lies above the rank threshold."""
    sigma = lapack_sigma(interaction_matrix(z))
    return float(sigma[-1]) > rank_threshold(sigma)


def check_even_outcome(z, raised_no_equilibrium: bool) -> None:
    expected = expects_no_equilibrium(z)
    require(raised_no_equilibrium == expected,
            f"NoEquilibrium {'raised' if raised_no_equilibrium else 'not raised'}"
            f" but LAPACK sigma_min is {'above' if expected else 'below'} the threshold")


def check_pfaffian(z, pfaffian: complex, acc: Accuracy) -> None:
    det = complex(np.linalg.det(interaction_matrix(z)))
    err = abs(pfaffian * pfaffian - det) / max(abs(det), abs(pfaffian) ** 2, 1e-300)
    acc.note("pfaffian_rel_error", err)
    require(err <= PFAFFIAN_TOL, f"Pf^2 differs from det by {err:.3e} relative")


def check_polygon_sigma(sigma) -> None:
    """Regular odd N-gon on the unit circle: sigma = {k, k} for k = 1..(N-1)/2, and 0."""
    sigma = np.asarray(sigma, dtype=np.float64)
    m = (sigma.size - 1) // 2
    expected = np.concatenate([np.repeat(np.arange(m, 0, -1, dtype=np.float64), 2), [0.0]])
    err = float(np.abs(sigma - expected).max())
    require(err <= SIGMA_TOL * m, f"polygon spectrum off by {err:.3e}")


def check_triangle_kernel(apex: complex, strengths) -> None:
    """Triangle (0, 1, z): the kernel is spanned by (1/(z-1), -1/z, 1)."""
    ref = np.array([1.0 / (apex - 1.0), -1.0 / apex, 1.0], dtype=np.complex128)
    g = np.asarray(strengths, dtype=np.complex128)
    cos = abs(np.vdot(ref, g)) / (np.linalg.norm(ref) * np.linalg.norm(g))
    require(abs(1.0 - cos) <= 1e-12, f"triangle kernel not parallel to the closed form ({cos!r})")


# -- dynamics and field ------------------------------------------------------


def check_drift(drift: float, acc: Accuracy) -> None:
    acc.note("drift", drift)
    require(0.0 <= drift <= DRIFT_TOL, f"drift {drift!r} exceeds {DRIFT_TOL}")


def check_grid_samples(z, gamma, nodes, velocity, acc: Accuracy) -> None:
    """Sampled lattice nodes against the benchmark's direct sum."""
    expected = direct_velocity(nodes, z, gamma)
    velocity = np.asarray(velocity, dtype=np.complex128)
    scale = np.maximum(np.abs(expected), 1e-300)
    err = float((np.abs(velocity - expected) / scale).max())
    acc.note("field_rel_error", err)
    require(err <= FIELD_TOL, f"grid velocity differs from the direct sum by {err:.3e} relative")


def check_twin(velocity, twin) -> None:
    """Strengths times i rotate the field pointwise: twin = -i * velocity."""
    velocity = np.asarray(velocity)
    err = float(np.abs(np.asarray(twin) + 1j * velocity).max())
    scale = float(np.abs(velocity).max())
    require(err <= 1e-12 * scale, f"twin field differs from -i * field by {err:.3e}")


def check_streamline(vertices, terminated_by: str, step: float) -> None:
    require(terminated_by in TERMINATIONS, f"undocumented termination {terminated_by!r}")
    v = np.asarray(vertices, dtype=np.complex128)
    require(v.size >= 1, "streamline has no vertices")
    if v.size > 1:
        gap = float(np.abs(np.diff(v)).max())
        require(gap <= step * (1.0 + 1e-9), f"vertex spacing {gap!r} exceeds step {step}")


def far_field_deviation(z, gamma, radius: float, samples: int = 64) -> float:
    """max |v_config - v_single| / |v_single| on a circle about the center of vorticity."""
    total = complex(np.sum(gamma))
    center = complex(np.sum(gamma * z)) / total
    probes = center + radius * np.exp(2j * math.pi * np.arange(samples) / samples)
    v_conf = direct_velocity(probes, z, gamma)
    v_single = np.conj(total / (probes - center) / (2j * math.pi))
    return float((np.abs(v_conf - v_single) / np.abs(v_single)).max())


def check_far_field(z, gamma, radius: float, near: float, far: float, acc: Accuracy) -> None:
    """Deviations at R and 2R match the benchmark's own, and fall by 3-5x."""
    for r, got in ((radius, near), (2.0 * radius, far)):
        ref = far_field_deviation(z, gamma, r)
        err = abs(got - ref) / ref
        acc.note("far_field_rel_error", err)
        require(err <= 1e-8, f"far-field deviation at R={r:.4g} is {got!r}, expected {ref!r}")
    ratio = near / far
    require(3.0 <= ratio <= 5.0, f"far-field deviation falls by {ratio:.3f} from R to 2R")


def orbit_closed_form(gamma: complex, r0: float, t: float) -> tuple[float, float]:
    """r^2 = r0^2 + gamma_i t / pi; theta from integrating gamma_r / (2 pi r^2)."""
    gr, gi = gamma.real, gamma.imag
    r = math.sqrt(r0 * r0 + gi * t / math.pi)
    if gi == 0.0:
        theta = gr * t / (2.0 * math.pi * r0 * r0)
    else:
        theta = (gr / (2.0 * gi)) * math.log1p(gi * t / (math.pi * r0 * r0))
    return r, theta


def check_orbit(gamma: complex, r0: float, t: float, analytic, numeric, acc: Accuracy) -> None:
    r, theta = orbit_closed_form(gamma, r0, t)
    err_a = max(abs(analytic[0] - r), abs(analytic[1] - theta))
    err_n = max(abs(numeric[0] - r), abs(numeric[1] - theta))
    acc.note("orbit_error", err_n)
    require(err_a <= 1e-12, f"analytic orbit ({analytic}) differs from the closed form ({r}, {theta})")
    require(err_n <= ORBIT_TOL, f"numeric orbit off the closed form by {err_n:.3e}")


def check_exit(code: int, expected: int, what: str) -> None:
    require(code == expected, f"{what}: exit {code}, expected {expected}")
