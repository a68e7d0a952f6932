"""Reproducible random sampling for the verification suites.

Uses the counter-based Philox generator (64-bit, splittable) so residual
reports are bit-reproducible across platforms for a given seed.
"""

from __future__ import annotations

import numpy as np

from .algebra import Momentum, boost_param, rotation

POLE_MARGIN = 0.05  # 1 - |n3| below which avoid_poles resamples a direction
MAX_RAPIDITY = 1.5  # upper end of the uniform rapidity of sample_boosts


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def sample_momenta(
    n: int,
    m: float,
    seed: int,
    lo: float = 0.01,
    hi: float = 10.0,
    avoid_poles: bool = False,
) -> list[Momentum]:
    """n seeded single momenta, each a ``Momentum`` of shape (3,), with |p|/m
    log-uniform in [lo, hi] and uniform direction.

    With ``avoid_poles`` directions with 1 - |n3| < ``POLE_MARGIN`` are
    resampled, so helicity-basis evaluations at +p and -p stay far from the
    chart singularity on the -e3 ray (and, through -p, the +e3 one).  Only
    ``appendix_b``, whose nested finite-difference oracle steps a fixed 1e-3 |p|,
    draws this way; every other suite samples the whole sphere.
    """
    rng = make_rng(seed)
    log_lo, log_hi = np.log(lo), np.log(hi)
    out: list[Momentum] = []
    while len(out) < n:
        mag = m * np.exp(rng.uniform(log_lo, log_hi))
        d = rng.standard_normal(3)
        norm = np.sqrt(d.dot(d))  # np.linalg.norm(d) bit for bit, without its wrapper
        if norm < 1e-12:
            continue
        d = d / norm
        if avoid_poles and min(1.0 - d[2], 1.0 + d[2]) < POLE_MARGIN:
            continue
        out.append(Momentum(d * mag, m))
    return out


def sample_boosts(n: int, seed: int) -> np.ndarray:
    """n seeded SL(2,C) elements, (n, 4, 4): a boost of rapidity uniform in
    [0.1, MAX_RAPIDITY] along a random axis times a random rotation.  Each sample
    draws its axis, rapidity and angles in turn, so only the draws loop."""
    rng = make_rng(seed)
    tau, theta = np.empty((n, 3)), np.empty((n, 3))
    for i in range(n):
        axis = rng.standard_normal(3)
        tau[i] = axis * (rng.uniform(0.1, MAX_RAPIDITY) / np.linalg.norm(axis))
        theta[i] = rng.uniform(-np.pi, np.pi, size=3)
    return boost_param(tau) @ rotation(theta)
