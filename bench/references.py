"""References for the benchmark's correctness checks, computed apart from the
package: closed forms of the isotropic packet and 30-digit ``mpmath``
quadratures of its energy and velocity moments.
"""

from __future__ import annotations

import functools
import math

import mpmath as mp

MP_DIGITS = 30


def radial_moments(gamma: float, pbar: float, m: float) -> tuple[float, float, float]:
    """<H>, <V> and <V^2> of phi(p) ~ p^(gamma pbar - 3/2) exp(-gamma p).

    The radial density 4 pi p^2 phi^2 is (2 gamma)^(2a) p^(2a-1)
    exp(-2 gamma p) / Gamma(2a) with a = gamma pbar.
    """
    with mp.workdps(MP_DIGITS):
        a = mp.mpf(gamma) * mp.mpf(pbar)
        mu = 2 * mp.mpf(gamma)
        mm = mp.mpf(m) ** 2
        c = mu ** (2 * a) / mp.gamma(2 * a)
        split = [0, mp.mpf(pbar), mp.inf]

        def moment(f):
            return c * mp.quad(lambda p: p ** (2 * a - 1) * mp.exp(-mu * p) * f(p), split)

        h = moment(lambda p: mp.sqrt(p * p + mm))
        v = moment(lambda p: p / mp.sqrt(p * p + mm))
        v2 = moment(lambda p: p * p / (p * p + mm))
        return float(h), float(v), float(v2)


@functools.lru_cache(maxsize=None)
def packet_table(gamma, pbar, m, theta_s, x0) -> dict[str, tuple[float, float]]:
    """(expectation, dispersion) of every packet observable; ``x0`` is a tuple."""
    h, v, v2 = radial_moments(gamma, pbar, m)
    p2 = pbar * pbar + pbar / (2.0 * gamma)  # <P^2>
    x2 = sum(c * c for c in x0)
    s, c = math.sin(theta_s), math.cos(theta_s)
    out = {
        "H": (h, p2 + m * m - h * h),
        "P": (pbar, pbar / (2.0 * gamma)),
        "V": (v, v2 - v * v),
        "S1": (s / 2.0, c * c / 4.0),
        "S2": (0.0, 0.25),
        "S3": (c / 2.0, s * s / 4.0),
        "Ws": (c / 2.0, s * s / 4.0),
    }
    for i in range(3):
        k = str(i + 1)
        out["P" + k] = (0.0, p2 / 3.0)
        out["V" + k] = (0.0, v2 / 3.0)
        out["X" + k] = (float(x0[i]), gamma * gamma / (6.0 * (gamma * pbar - 1.0)))
        out["L" + k] = (0.0, p2 * (x2 - x0[i] ** 2) / 3.0)
    return out


def rel_error(got: float, ref: float) -> float:
    return abs(got - ref) / max(abs(ref), 1.0)


def figure_row(which: int, q: float, gamma_m: float = 1.0) -> tuple[float, float, float]:
    """One row of ``diracmr figures --which N`` at q = gamma pbar, mass 1."""
    gamma, m = gamma_m, 1.0
    pbar = q / gamma
    h, v, v2 = radial_moments(gamma, pbar, m)
    e_bar = math.sqrt(pbar * pbar + m * m)
    if which == 1:
        disp_h = pbar * pbar + m * m + pbar / (2.0 * gamma) - h * h
        return q, h / e_bar, 2.0 * gamma * disp_h / pbar
    return q, v / (pbar / e_bar), v2 - v * v
