"""Test-only helpers: an exact Gaussian CDF and exactly orthogonal channels.

The reference oracles the frozen values come from (bisection water-filling,
Gram-eigen singular values, cofactor inverses, two-user grid searches and
counting CDFs) live in `dmimo.selfcheck`, so the `dmimo oracle` subcommand
and the test suite check the library against the same references.
"""

import math

import numpy as np


def normal_cdf(x, mean=0.0, std=1.0):
    """Exact Gaussian CDF through the error function."""
    return 0.5 * (1.0 + math.erf((x - mean) / (std * math.sqrt(2.0))))


def orthogonal_rows(num_users, num_antennas, norms, rng):
    """Random matrix with exactly orthogonal rows and prescribed row norms."""
    z = rng.standard_normal((num_antennas, num_users)) + 1j * rng.standard_normal(
        (num_antennas, num_users)
    )
    q, _ = np.linalg.qr(z)
    return np.asarray(norms, dtype=float)[:, None] * q.conj().T
