"""One-particle wave packets: preparation, detection and statistics.

A packet is a normalized scalar profile phi(p) times a constant polarization
spinor (cos(theta_s/2), sin(theta_s/2)) and a translation phase
exp(-i x0.p).  Expectation values and dispersions of the one-particle
observables are momentum-space quadratures; no position grids ever appear.

The packet engine works in a common (momentum independent) polarization
basis, where the covariant derivative reduces to d/dp.  Peculiar bases are
handled by the associated-operator machinery, not here.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .algebra import PAULI
from .polarization import CommonBasis, PolarizationBasis

OBSERVABLES = (
    "H",
    "P1",
    "P2",
    "P3",
    "P",
    "V1",
    "V2",
    "V3",
    "V",
    "X1",
    "X2",
    "X3",
    "S1",
    "S2",
    "S3",
    "Ws",
    "L1",
    "L2",
    "L3",
)

_NEG_DISP_TOL = 1e-10


class NormalizationError(ValueError):
    """Profile does not integrate to one on the quadrature grid."""


# ---------------------------------------------------------------------------
# quadrature grid


def _radial_rule(n: int, t_floor: float) -> np.ndarray:
    """Double-exponential rule (Takahasi & Mori 1974) on (0, 1]: rows log p, log w.

    p = exp(f(t) - f(3)), f(t) = t - exp(-t), w = h (1 + exp(-t)) p, n uniform t on
    [max(t_floor, 3 - 0.128 (n - 1)), 3]; the step cap binds below 67 nodes."""
    if n < 2:
        raise ValueError("the radial rule needs at least 2 nodes")
    t, h = np.linspace(max(t_floor, 3.0 - 0.128 * (n - 1)), 3.0, n, retstep=True)
    log_p = t - np.exp(-t) - (3.0 - np.exp(-3.0))
    return np.stack([log_p, log_p + np.log(h * (1.0 + np.exp(-t)))])


@dataclass(frozen=True)
class QuadratureGrid:
    """Product quadrature in spherical momentum coordinates.

    The radial rule on (0, p_max] down to t = -5.4 (node 2e-100 p_max, where
    |grad phi|^2 still fits a double as g pbar -> 1), Gauss-Legendre in cos(theta)
    and a uniform (trapezoidal, exact for trig polynomials) rule in phi.  Node arrays
    are flattened, radial slowest; ``weights`` include the p^2 Jacobian so that
    sum(w * f) approximates the d^3p integral of f.
    """

    p_max: float
    n_radial: int = 200
    n_cos: int = 32
    n_phi: int = 64

    # filled in __post_init__
    radial_nodes: np.ndarray = field(init=False, repr=False)
    radial_weights: np.ndarray = field(init=False, repr=False)
    nodes: np.ndarray = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        r, wr = self.p_max * np.exp(_radial_rule(self.n_radial, -5.4))
        c, wc = np.polynomial.legendre.leggauss(self.n_cos)
        phi = 2.0 * np.pi * np.arange(self.n_phi) / self.n_phi
        wphi = 2.0 * np.pi / self.n_phi

        # node layout: radial slowest, then cos(theta), then phi; one table of
        # unit directions broadcast against the radial nodes
        sin_t = np.sqrt(1.0 - c**2)
        dirs = np.empty((self.n_cos, self.n_phi, 3))
        dirs[..., 0] = np.outer(sin_t, np.cos(phi))
        dirs[..., 1] = np.outer(sin_t, np.sin(phi))
        dirs[..., 2] = c[:, None]
        nodes = (r[:, None, None, None] * dirs).reshape(-1, 3)
        w = np.repeat(np.outer(wr * r**2, wc) * wphi, self.n_phi)
        object.__setattr__(self, "radial_nodes", r)
        object.__setattr__(self, "radial_weights", wr)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", w)

    def integrate(self, values: np.ndarray) -> float | complex:
        # numpy reductions use pairwise summation: deterministic for a fixed grid
        return np.sum(self.weights * values)


# ---------------------------------------------------------------------------
# profiles


@dataclass(frozen=True)
class PacketProfile:
    """Scalar profile with gradient, polarization angle and preparation point.

    ``phi`` and ``grad_phi`` take an (N, 3) array of momenta and are
    real-valued: ``phi`` returns (N,), ``grad_phi`` returns (N, 3).  theta_s
    in [0, pi]; the polarization spinor is (cos(theta_s/2), sin(theta_s/2)) in
    the common basis.
    """

    phi: Callable[[np.ndarray], np.ndarray]
    grad_phi: Callable[[np.ndarray], np.ndarray]
    m: float
    theta_s: float = 0.0
    x0: np.ndarray = field(default_factory=lambda: np.zeros(3))
    basis: PolarizationBasis = field(default_factory=CommonBasis)

    def __post_init__(self):
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float).reshape(3))
        if not 0.0 <= self.theta_s <= np.pi:
            raise ValueError("theta_s must lie in [0, pi]")
        if self.basis.kind != "common":
            raise NotImplementedError(
                "packet statistics are implemented for common polarization bases"
            )

    @property
    def chi(self) -> np.ndarray:
        return np.array(
            [np.cos(self.theta_s / 2.0), np.sin(self.theta_s / 2.0)], dtype=complex
        )


@dataclass(frozen=True)
class IsotropicProfile:
    """Radial profile phi(p) = N p^(g pbar - 3/2) exp(-g p).

    pbar is the radial-momentum expectation value and g pbar > 1 is required
    for the position dispersion to be finite.
    """

    gamma: float
    pbar: float
    m: float

    def __post_init__(self):
        if not (self.gamma > 0 and self.pbar > 0):
            raise ValueError("gamma and pbar must be positive")
        if self.gamma * self.pbar <= 1.0:
            raise ValueError(
                f"gamma*pbar = {self.gamma * self.pbar:g} <= 1: "
                "position dispersion would diverge"
            )

    @property
    def a(self) -> float:
        return self.gamma * self.pbar

    @property
    def norm(self) -> float:
        # N = (2 gamma)^(g pbar) / (2 sqrt(pi Gamma(2 g pbar)))
        logn = (
            self.a * np.log(2.0 * self.gamma)
            - 0.5 * np.log(np.pi)
            - 0.5 * math.lgamma(2.0 * self.a)
            - np.log(2.0)
        )
        return float(np.exp(logn))

    def radial(self, p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        return self.norm * p ** (self.a - 1.5) * np.exp(-self.gamma * p)

    def radial_derivative(self, p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        return ((self.a - 1.5) / p - self.gamma) * self.radial(p)

    def profile(self, theta_s: float = 0.0, x0=(0.0, 0.0, 0.0)) -> PacketProfile:
        def magnitude(pts: np.ndarray) -> np.ndarray:
            return np.sqrt(np.einsum("...i,...i->...", pts, pts))

        def phi(pts: np.ndarray) -> np.ndarray:
            return self.radial(magnitude(pts))

        def grad_phi(pts: np.ndarray) -> np.ndarray:
            mag = magnitude(pts)
            return pts * (self.radial_derivative(mag) / mag)[..., None]

        return PacketProfile(phi, grad_phi, self.m, theta_s, np.asarray(x0))

    def default_grid(self, n_radial: int = 200, n_cos: int = 32, n_phi: int = 64):
        # p_max chosen so the exp(-2 gamma p) tail is far below double precision
        return QuadratureGrid(
            (self.a + 40.0) / self.gamma, n_radial, n_cos, n_phi
        )


def make_isotropic(gamma: float, pbar: float, m: float) -> IsotropicProfile:
    return IsotropicProfile(gamma, pbar, m)


def expectation_and_dispersion(
    profile: PacketProfile, observable: str, grid: "QuadratureGrid"
) -> "StatisticsReport":
    """Grid-quadrature statistics of one observable for an arbitrary profile."""
    return PacketStatistics(profile, grid).report(observable)


def position_dispersion_at_time(
    profile: PacketProfile, t: float, grid: "QuadratureGrid"
) -> np.ndarray:
    """disp(X^i(t)) = disp(X^i) + t^2 disp(V^i) for each component."""
    return PacketStatistics(profile, grid).position_dispersion_at_time(t)


# ---------------------------------------------------------------------------
# statistics


@dataclass(frozen=True)
class StatisticsReport:
    """One row; ``quad_error`` is the measured error of its grid sums (0 for spin)."""

    observable: str
    expectation: float
    dispersion: float
    uncertainty: float
    quad_error: float
    closed_expectation: float | None = None
    closed_dispersion: float | None = None

    @property
    def rel_error(self) -> float | None:
        ref_pairs = [
            (self.expectation, self.closed_expectation),
            (self.dispersion, self.closed_dispersion),
        ]
        errs = []
        for got, ref in ref_pairs:
            if ref is None:
                continue
            scale = max(abs(ref), 1.0)
            errs.append(abs(got - ref) / scale)
        return max(errs) if errs else None


def _clip_dispersion(value: float, name: str) -> float:
    if value < -_NEG_DISP_TOL:
        raise ValueError(f"dispersion of {name} is negative beyond tolerance: {value}")
    if value < 0.0:
        warnings.warn(f"clipping tiny negative dispersion of {name} ({value:.2e})")
        return 0.0
    return value


class PacketStatistics:
    """Grid-quadrature engine for expectation values and dispersions.

    All observables act on alpha(p) = phi(p) exp(-i x0.p) chi with a real
    profile phi.  Each orbital observable acts as
    A alpha = (i G + S phi) exp(-i x0.p) chi with real G and S, so
    <A> = int w phi^2 S and <A alpha, A alpha> = int w G^2 + int w phi^2 S^2:
    real means and second moments of the one weighted density w phi^2.  The
    multiplicative observables have G = 0; X~^i has G = d_i phi, S = x0^i, and
    L~_i has G = -(p x grad phi)_i, S = (x0 x p)_i.
    """

    def __init__(self, profile: PacketProfile, grid: QuadratureGrid):
        self.profile = profile
        self.grid = grid
        pts = grid.nodes
        phi = profile.phi(pts)
        # vector components as contiguous (3, N) rows: each reduction reads (N,) arrays
        self.gphi = np.ascontiguousarray(profile.grad_phi(pts).T)
        if np.iscomplexobj(phi) or np.iscomplexobj(self.gphi):
            raise TypeError("packet profiles must be real-valued (phi and grad_phi)")
        self.p = np.ascontiguousarray(pts.T)
        p2 = np.einsum("ij,ij->j", self.p, self.p)
        self.pmag = np.sqrt(p2)
        p2 += profile.m**2
        self.energy = np.sqrt(p2, out=p2)
        self.density = grid.weights * phi**2
        self.norm, self._norm_error = self._sum(self.density)
        if not abs(self.norm - 1.0) <= 1e-6:  # also NaN
            raise NormalizationError(
                f"profile norm on grid is {self.norm!r}, expected 1"
            )

    # -- helpers ---------------------------------------------------------

    def _sum(self, x: np.ndarray) -> tuple[float, float]:
        """Q_h = sum(x) by radial shells; error |Q_h - Q_2h| + |deepest shell|, Q_2h = 2 odd shells."""
        shells = x.reshape(self.grid.n_radial, -1).sum(axis=1)
        q = float(shells.sum())
        return q, abs(q - 2.0 * float(shells[1::2].sum())) + abs(float(shells[0]))

    def _moments(self, s, g: np.ndarray | None = None) -> tuple[float, float, float]:
        """Mean, dispersion and quadrature error of (i G + S phi).

        A scalar S (the X rows) scales the norm; w G^2 reuses the buffer of S.
        """
        if np.ndim(s):
            buf = self.density * s
            mean, e_mean = self._sum(buf)
            buf *= s
            second, e_second = self._sum(buf)
        else:
            q, e, buf = self.norm, self._norm_error, None
            mean, e_mean, second, e_second = s * q, abs(s) * e, s * s * q, s * s * e
        if g is not None:
            buf = np.multiply(self.grid.weights, g, out=buf)
            buf *= g
            g2, e_g2 = self._sum(buf)
            second, e_second = second + g2, e_second + e_g2
        return mean, second - mean**2, max(e_mean, e_second + 2.0 * abs(mean) * e_mean)

    def _spin_matrix(self, name: str) -> np.ndarray:
        if name == "Ws":
            return 0.5 * PAULI[2]
        return 0.5 * self.profile.basis.sigma(None)[int(name[1]) - 1]

    # -- public ----------------------------------------------------------

    def report(self, observable: str) -> StatisticsReport:
        if observable not in OBSERVABLES:
            raise KeyError(f"unknown observable {observable!r}")
        name = observable
        p, gphi = self.p, self.gphi
        if name == "H":
            mean, disp, err = self._moments(self.energy)
        elif name == "P":
            mean, disp, err = self._moments(self.pmag)
        elif name == "V":
            mean, disp, err = self._moments(self.pmag / self.energy)
        elif name[0] == "P":
            mean, disp, err = self._moments(p[int(name[1]) - 1])
        elif name[0] == "V":
            mean, disp, err = self._moments(p[int(name[1]) - 1] / self.energy)
        elif name[0] == "X":
            i = int(name[1]) - 1
            mean, disp, err = self._moments(self.profile.x0[i], gphi[i])
        elif name[0] == "L":
            i = int(name[1]) - 1
            j, k = (i + 1) % 3, (i + 2) % 3
            x0 = self.profile.x0
            g = p[k] * gphi[j] - p[j] * gphi[k]
            mean, disp, err = self._moments(x0[j] * p[k] - x0[k] * p[j], g)
        else:  # spin observables, profile independent: no quadrature
            chi = self.profile.chi
            sm = self._spin_matrix(name)
            mean = float(np.real(chi.conj() @ sm @ chi))
            second = float(np.real(chi.conj() @ sm @ sm @ chi))
            disp, err = second - mean**2, 0.0
        return StatisticsReport(
            name,
            mean,
            _clip_dispersion(disp, name),
            float(np.sqrt(max(disp, 0.0))),
            err,
        )

    def position_dispersion_at_time(self, t: float) -> np.ndarray:
        """disp(X^i(t)) = disp(X^i) + t^2 disp(V^i), componentwise."""
        if t < 0:
            raise ValueError("t must be nonnegative")
        out = np.empty(3)
        for i in range(3):
            dx = self.report(f"X{i + 1}").dispersion
            dv = self.report(f"V{i + 1}").dispersion
            out[i] = dx + t * t * dv
        return out


# ---------------------------------------------------------------------------
# closed forms for the isotropic packet


def isotropic_closed_forms(iso: IsotropicProfile) -> dict[str, tuple]:
    """(expectation, dispersion) closed forms; None where no closed form is used."""
    a, g = iso.a, iso.gamma
    e2 = iso.pbar**2 + iso.m**2 + iso.pbar / (2 * g)  # <H^2>
    mean_h = 4 * np.pi * iso.norm**2 * g_integral(a, 1.5, 2 * g, iso.m)
    mean_v = 4 * np.pi * iso.norm**2 * g_integral(a + 0.5, 0.5, 2 * g, iso.m)
    mean_v2 = 4 * np.pi * iso.norm**2 * g_integral(a + 1.0, 0.0, 2 * g, iso.m)
    disp_x = g**2 / (6.0 * (a - 1.0))
    disp_pi = (iso.pbar**2 + iso.pbar / (2 * g)) / 3.0
    out = {
        "H": (mean_h, e2 - mean_h**2),
        "P": (iso.pbar, iso.pbar / (2 * g)),
        "V": (mean_v, mean_v2 - mean_v**2),
    }
    for i in "123":
        out["P" + i] = (0.0, disp_pi)
        out["V" + i] = (0.0, mean_v2 / 3.0)
        out["X" + i] = (None, disp_x)
    return out


def spin_closed_forms(theta_s: float) -> dict[str, tuple[float, float]]:
    """Profile-independent spin statistics for polarization angle theta_s."""
    s, c = np.sin(theta_s), np.cos(theta_s)
    return {
        "S1": (s / 2.0, c * c / 4.0),
        "S2": (0.0, 0.25),
        "S3": (c / 2.0, s * s / 4.0),
        "Ws": (c / 2.0, s * s / 4.0),
    }


def packet_reports(
    iso: IsotropicProfile,
    theta_s: float = 0.0,
    x0=(0.0, 0.0, 0.0),
    grid: QuadratureGrid | None = None,
) -> list[StatisticsReport]:
    """Statistics table for an isotropic packet with closed forms attached."""
    profile = iso.profile(theta_s, x0)
    grid = grid or iso.default_grid()
    eng = PacketStatistics(profile, grid)
    closed = isotropic_closed_forms(iso)
    closed.update(spin_closed_forms(theta_s))
    x0 = np.asarray(x0, dtype=float)
    out = []
    for name in OBSERVABLES:
        rep = eng.report(name)
        ce, cd = closed.get(name, (None, None))
        if name[0] == "X":
            ce = float(x0[int(name[1]) - 1])
        out.append(replace(rep, closed_expectation=ce, closed_dispersion=cd))
    return out


# ---------------------------------------------------------------------------
# the radial rule; detection: cone filtering and radial statistics

_RADIAL_RULE = _radial_rule(400, -5.7)  # 1-D rule; below its node 1e-134, p^s leaves 1e-134^(s+1)


def cone_filter(profile: PacketProfile, n, d_omega: float, p_max: float):
    """Filter momenta into a narrow cone around direction n.

    Returns (kappa, radial profile values on the nodes of the radial rule,
    nodes, weights, detection probability |d_omega * kappa|^2).  The filtered
    radial profile is phi'(p) = p phi(n p)/sqrt(kappa), normalized on (0, inf).
    """
    n = np.asarray(n, dtype=float)
    n = n / np.linalg.norm(n)
    if d_omega > 0.1:
        raise ValueError("cone solid angle must be small (<= 0.1 sr)")
    r, w = p_max * np.exp(_RADIAL_RULE)
    line = profile.phi(np.outer(r, n))
    kappa = float(np.sum(w * r**2 * line**2))
    if kappa <= 0.0:
        raise ValueError("profile vanishes along the filter direction")
    phi_rad = r * line / np.sqrt(kappa)
    prob = (d_omega * kappa) ** 2
    return kappa, phi_rad, r, w, prob


def radial_statistics(phi_rad: np.ndarray, r: np.ndarray, w: np.ndarray, m: float):
    """Radial H, P, V statistics of a normalized one-dimensional profile."""
    dens = phi_rad**2
    e = np.sqrt(r**2 + m**2)
    out = {}
    for name, vals in (("H", e), ("P", r), ("V", r / e)):
        mean = float(np.sum(w * vals * dens))
        second = float(np.sum(w * vals**2 * dens))
        out[name] = (mean, second - mean**2)
    return out


# ---------------------------------------------------------------------------
# auxiliary integrals and figure data


def g_integral(nu: float, rho: float, mu: float, m: float) -> float:
    """G(nu, rho; mu) = int_0^inf p^(2nu-1) (p^2+m^2)^(rho-1) exp(-mu p) dp.

    Evaluated by the radial rule on (0, (2nu + 2|rho-1| + 80)/mu] as one exp of
    a sum of logs, so that no power overflows at the deepest nodes.
    """
    if mu <= 0:
        raise ValueError("mu must be positive for convergence")
    if m > 0 and nu <= 0:
        raise ValueError("nu must be positive for integrability at 0")
    if m == 0 and (2 * nu + 2 * rho - 2) <= 0:
        raise ValueError("2nu + 2rho - 2 must be positive for m = 0")
    log_p, log_w = math.log((2 * nu + 2 * abs(rho - 1) + 80.0) / mu) + _RADIAL_RULE
    p = np.exp(log_p)
    log_f = (2 * nu - 1) * log_p + (rho - 1) * np.log(p * p + m * m) - mu * p
    return float(np.sum(np.exp(log_f + log_w)))


def figure_data(
    which: int, q_min: float = 1.0, q_max: float = 7.0, points: int = 60,
    gamma_m: float = 1.0,
) -> np.ndarray:
    """Ratio curves of packet energy/velocity statistics against q = gamma*pbar.

    Figure 1 columns: q, <H>/E(pbar), 2 gamma disp(H)/pbar.
    Figure 2 columns: q, <V>/V(pbar), disp(V).
    The sampled grid excludes q_min itself so the default range is (1, 7].
    """
    if which not in (1, 2):
        raise ValueError("figure index must be 1 or 2")
    if q_min < 1.0 or q_max <= q_min:
        raise ValueError("need 1 <= q_min < q_max")
    if points < 1:
        raise ValueError("need at least one point")
    if not gamma_m > 0:
        raise ValueError("gamma_m must be positive")
    gamma, m = gamma_m, 1.0
    rows = np.empty((points, 3))
    for k in range(points):
        qv = q_min + (q_max - q_min) * (k + 1) / points
        iso = IsotropicProfile(gamma, qv / gamma, m)
        pref = 4 * np.pi * iso.norm**2
        e_bar = np.sqrt(iso.pbar**2 + m**2)
        if which == 1:
            mean_h = pref * g_integral(iso.a, 1.5, 2 * gamma, m)
            disp_h = iso.pbar**2 + m**2 + iso.pbar / (2 * gamma) - mean_h**2
            rows[k] = (qv, mean_h / e_bar, 2 * gamma * disp_h / iso.pbar)
        else:
            mean_v = pref * g_integral(iso.a + 0.5, 0.5, 2 * gamma, m)
            mean_v2 = pref * g_integral(iso.a + 1.0, 0.0, 2 * gamma, m)
            rows[k] = (qv, mean_v / (iso.pbar / e_bar), mean_v2 - mean_v**2)
    return rows
