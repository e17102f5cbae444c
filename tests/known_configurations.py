"""Configurations whose equilibrium strengths are known in closed form."""

import numpy as np


def polygon_plus_centre(n):
    """The regular n-gon on the unit circle plus its centre, last, with the
    strengths that hold it still: 1 on the ring and -(n - 1)/2 at the centre
    (Aref et al., "Vortex crystals", Adv. Appl. Mech. 39, 2003).

    Each ring point moves with (n - 1)/(2 z_a) from the rest of the ring and
    with Gamma_c / z_a from the centre, and the ring's terms cancel at the
    centre. For odd n the kernel of A has dimension 2.
    """
    z = np.append(np.exp(2j * np.pi * np.arange(n) / n), 0j)
    gamma = np.append(np.ones(n), -(n - 1) / 2).astype(np.complex128)
    return z, gamma


def adler_moser_9(tau2, tau3):
    """Nine points held still by strengths of +1 and -1 (Adler and Moser,
    Comm. Math. Phys. 61, 1978; Aref, "Vortices and polynomials", Fluid
    Dyn. Res. 39, 2007): +1 on the roots of theta_2 = x^3 + tau2 and -1 on
    those of theta_3 = x^6 + 5 tau2 x^3 + tau3 x - 5 tau2^2, for any complex
    tau2 and tau3 that keep the nine roots apart. The kernel of A has
    dimension 3.

    The roots come from np.roots, which places a root of a close pair only
    to about eps / (its distance to the other), so the +/-1 vector holds
    the rounded points still to about eps / separation^2 relative to
    sigma_max.
    """
    plus = np.roots([1, 0, 0, tau2])
    minus = np.roots([1, 0, 0, 5 * tau2, 0, tau3, -5 * tau2**2])
    gamma = np.repeat([1.0 + 0j, -1.0 + 0j], [3, 6])
    return np.concatenate([plus, minus]), gamma
