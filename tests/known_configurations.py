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
