"""Named constants for the inequality registry.

Each constant uses exact integer arithmetic (factorials, binomials) and the
two-step ball-volume recurrence where it can.  The tests check every one
against an independent log-gamma route (``tests/oracles.py``).
"""

from __future__ import annotations

import math
from functools import lru_cache

LOG_PI = math.log(math.pi)


@lru_cache(maxsize=None)
def ball_volume(m) -> float:
    """Volume of the unit ball in R^m via omega_m = 2*pi*omega_{m-2}/m."""
    m = int(m)
    if m < 0:
        raise ValueError("dimension must be >= 0")
    if m == 0:
        return 1.0
    if m == 1:
        return 2.0
    return 2.0 * math.pi * ball_volume(m - 2) / m


class ConstantsCatalog:
    """Registry constants."""

    @staticmethod
    def omega(m):
        return ball_volume(m)

    @staticmethod
    def b_d(d, dims):
        """Per-frame shadow-product upper constant (d! / (2^d prod d_i!))^(1/d)."""
        num = math.factorial(d)
        den = 2**d
        for d_i in dims:
            den *= math.factorial(d_i)
        return (num / den) ** (1.0 / d)

    @staticmethod
    def c_d(d, dims):
        """Lower constant (1/(2 sqrt d)) (d! / prod sqrt(d_i!))^(1/d)."""
        val = math.factorial(d)
        for d_i in dims:
            val /= math.sqrt(math.factorial(d_i))
        return val ** (1.0 / d) / (2.0 * math.sqrt(d))

    @staticmethod
    def reverse_lw(d, dims):
        """Thin-shadow product constant d^(d/2) / prod sqrt(d_j!)."""
        val = float(d) ** (0.5 * d)
        for d_i in dims:
            val /= math.sqrt(math.factorial(d_i))
        return val

    @staticmethod
    def q_bezout(d, j, dims, s):
        """Transversality form of the Bezout constant (ball body)."""
        r = len(dims)
        val = ball_volume(d) ** (-r / (s * j))
        val *= (
            math.factorial(d) * ball_volume(d) / (math.factorial(d - j) * ball_volume(d - j))
        ) ** (1.0 / j)
        for d_i in dims:
            val *= (
                math.comb(j, d_i) * ball_volume(d - d_i) / (math.comb(d, d_i) * math.factorial(d_i))
            ) ** (1.0 / (s * j))
        return val

    @staticmethod
    def big_c_ell(d, dims, weights):
        """Ellipsoid shadow-product constant omega_d / prod omega_{d_j}^{p_j}."""
        val = ball_volume(d)
        for d_j, p_j in zip(dims, weights):
            val /= ball_volume(d_j) ** p_j
        return val

    @staticmethod
    def c_ell(d, dims, weights):
        """Ellipsoid section-product constant
        (omega_d / d^(d/2)) prod (d_j^(d_j/2) / omega_{d_j})^{p_j}."""
        val = ball_volume(d) / d ** (0.5 * d)
        for d_j, p_j in zip(dims, weights):
            val *= (d_j ** (0.5 * d_j) / ball_volume(d_j)) ** p_j
        return val

    @staticmethod
    def c_dp(d, p):
        """First-moment comparison constant
        ((d+p)/p) (omega_{d-1}/omega_d) Gamma((p+1)/2) Gamma((d+1)/2)
        / Gamma((d+p+1)/2)."""
        return (
            (d + p)
            / p
            * (ball_volume(d - 1) / ball_volume(d))
            * math.gamma((p + 1) / 2.0)
            * math.gamma((d + 1) / 2.0)
            / math.gamma((d + p + 1) / 2.0)
        )

    @staticmethod
    def c_dp_sharp(d, p):
        """Sharp direction-moment value E |theta_1|^p on S^{d-1}:
        Gamma((p+1)/2) Gamma(d/2) / (sqrt(pi) Gamma((d+p)/2))."""
        return math.exp(
            math.lgamma((p + 1) / 2.0)
            + math.lgamma(0.5 * d)
            - 0.5 * LOG_PI
            - math.lgamma(0.5 * (d + p))
        )

    @staticmethod
    def c0(d, p):
        """Lower visibility constant Gamma(d/p+1)^(1/d) / (d^(1/p) 2 Gamma(1/p+1))."""
        return math.gamma(d / p + 1.0) ** (1.0 / d) / (d ** (1.0 / p) * 2.0 * math.gamma(1.0 / p + 1.0))

    @staticmethod
    def lp_ball_volume(d, p):
        """|{x : sum |x_i|^p <= 1}| = (2 Gamma(1/p + 1))^d / Gamma(d/p + 1)."""
        return (2.0 * math.gamma(1.0 / p + 1.0)) ** d / math.gamma(d / p + 1.0)
