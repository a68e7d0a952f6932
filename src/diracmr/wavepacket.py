"""One-particle wave packets: preparation, detection and statistics.

A packet is a normalized scalar profile phi(p) times a constant polarization
spinor (cos(theta_s/2), sin(theta_s/2)) and a translation phase
exp(-i x0.p).  Expectation values and dispersions of the one-particle
observables are momentum-space quadratures; no position grids ever appear.

The packet engine works in the common polarization basis along e3, where
xi = 1, the spin matrices are the Pauli matrices and the covariant derivative
reduces to d/dp.  Peculiar bases are handled by the associated-operator
machinery, not here.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .algebra import PAULI, read_only

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


def _u_rows(dirs: np.ndarray) -> np.ndarray:
    """u = (1, n) of each of the (n_dir, 3) unit vectors n, as (4, n_dir) rows."""
    return np.concatenate([np.ones((1, len(dirs))), dirs.T])


def _phi_weight(n_phi: int) -> float:
    return 2.0 * np.pi / n_phi


@functools.lru_cache(maxsize=4)
def _unit_radial_rule(n: int) -> np.ndarray:
    """Nodes and weights (rows) of the radial rule on (0, 1] down to t = -5.4, read-only."""
    return read_only(np.exp(_radial_rule(n, -5.4)))


@functools.lru_cache(maxsize=4)
def _angular_rule(n_cos: int, n_phi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The angular factors of every grid of one shape, built once and read-only:
    Gauss-Legendre weights in cos(theta), the unit directions and their 4x4 moment table."""
    c, wc = np.polynomial.legendre.leggauss(n_cos)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi

    sin_t = np.sqrt(1.0 - c**2)
    dirs = np.empty((n_cos, n_phi, 3))
    dirs[..., 0] = np.outer(sin_t, np.cos(phi))
    dirs[..., 1] = np.outer(sin_t, np.sin(phi))
    dirs[..., 2] = c[:, None]
    dirs = dirs.reshape(-1, 3)
    u = _u_rows(dirs)
    wu = np.repeat(wc * _phi_weight(n_phi), n_phi) * u
    # each entry is one pairwise sum over contiguous rows
    moments = np.array([[np.sum(a * b) for b in u] for a in wu])
    return read_only((wc, dirs, moments))


@dataclass(frozen=True)
class QuadratureGrid:
    """Product quadrature in spherical momentum coordinates: radial shells times directions.

    The radial rule on (0, p_max] down to t = -5.4 (node 2e-100 p_max, where
    |grad phi|^2 still fits a double as g pbar -> 1) gives ``radial_nodes`` and
    ``radial_weights``.  Gauss-Legendre in cos(theta) (``cos_weights``) and a
    uniform (trapezoidal, exact for trig polynomials) rule in phi give the
    n_cos * n_phi unit ``directions``, cos(theta) slowest, and
    ``direction_moments``, the 4x4 table sum_d w_d u u^T of u = (1, n) over
    them: the direction integrals of 1, n_i and n_i n_j.  These three angular
    factors depend on (n_cos, n_phi) alone: every grid of one shape shares
    the same read-only arrays.  The radial rule on (0, 1] is likewise kept
    per n_radial and scaled by p_max.

    ``nodes`` (N, 3), flattened radial slowest, and ``weights`` (N,), which
    include the p^2 Jacobian so that sum(w * f) approximates the d^3p integral
    of f, are derived from these factors on first read and then kept.
    """

    p_max: float
    n_radial: int = 200
    n_cos: int = 32
    n_phi: int = 64

    # filled in __post_init__
    radial_nodes: np.ndarray = field(init=False, repr=False)
    radial_weights: np.ndarray = field(init=False, repr=False)
    cos_weights: np.ndarray = field(init=False, repr=False)
    directions: np.ndarray = field(init=False, repr=False)
    direction_moments: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        r, wr = self.p_max * _unit_radial_rule(self.n_radial)
        wc, dirs, moments = _angular_rule(self.n_cos, self.n_phi)
        object.__setattr__(self, "radial_nodes", r)
        object.__setattr__(self, "radial_weights", wr)
        object.__setattr__(self, "cos_weights", wc)
        object.__setattr__(self, "directions", dirs)
        object.__setattr__(self, "direction_moments", moments)

    @functools.cached_property
    def nodes(self) -> np.ndarray:
        return (self.radial_nodes[:, None, None] * self.directions).reshape(-1, 3)

    @functools.cached_property
    def weights(self) -> np.ndarray:
        r, wr = self.radial_nodes, self.radial_weights
        return np.repeat(np.outer(wr * r**2, self.cos_weights) * _phi_weight(self.n_phi), self.n_phi)

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
    the common basis along e3.  ``radial`` is the pair (R, R') of an isotropic
    profile phi(p) = R(|p|), or None; given it, the packet engine reads R and
    R' on the grid's radial nodes instead of phi and grad_phi on all nodes.
    """

    phi: Callable[[np.ndarray], np.ndarray]
    grad_phi: Callable[[np.ndarray], np.ndarray]
    m: float
    theta_s: float = 0.0
    x0: np.ndarray = field(default_factory=lambda: np.zeros(3))
    radial: tuple[Callable[[np.ndarray], np.ndarray], ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float).reshape(3))
        if not 0.0 <= self.theta_s <= np.pi:
            raise ValueError("theta_s must lie in [0, pi]")
        if not 0.0 <= self.m < np.inf:  # also rejects nan; m = 0 is a massless packet
            raise ValueError(f"mass must be nonnegative and finite, got {self.m}")

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
        if not (0.0 < self.gamma < np.inf and 0.0 < self.pbar < np.inf):  # also rejects nan
            raise ValueError("gamma and pbar must be positive and finite")
        if not 0.0 <= self.m < np.inf:
            raise ValueError(f"mass must be nonnegative and finite, got {self.m}")
        if self.gamma * self.pbar <= 1.0:
            raise ValueError(
                f"gamma*pbar = {self.gamma * self.pbar:g} <= 1: "
                "position dispersion would diverge"
            )

    @property
    def a(self) -> float:
        return self.gamma * self.pbar

    @property
    def _log_norm(self) -> float:
        # log N, N = (2 gamma)^(g pbar) / (2 sqrt(pi Gamma(2 g pbar)))
        return (
            self.a * np.log(2.0 * self.gamma)
            - 0.5 * np.log(np.pi)
            - 0.5 * math.lgamma(2.0 * self.a)
            - np.log(2.0)
        )

    @property
    def norm(self) -> float:
        return float(np.exp(self._log_norm))

    def radial(self, p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        return self.norm * p ** (self.a - 1.5) * np.exp(-self.gamma * p)

    def radial_derivative(self, p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        return ((self.a - 1.5) / p - self.gamma) * self.radial(p)

    def profile(self, theta_s: float = 0.0, x0=(0.0, 0.0, 0.0)) -> PacketProfile:
        """The packet with phi and grad_phi built from, and carrying, the pair (R, R')."""
        radial, derivative = self.radial, self.radial_derivative

        def magnitude(pts: np.ndarray) -> np.ndarray:
            return np.sqrt(np.einsum("...i,...i->...", pts, pts))

        def phi(pts: np.ndarray) -> np.ndarray:
            return radial(magnitude(pts))

        def grad_phi(pts: np.ndarray) -> np.ndarray:
            mag = magnitude(pts)
            return pts * (derivative(mag) / mag)[..., None]

        return PacketProfile(
            phi, grad_phi, self.m, theta_s, np.asarray(x0), (radial, derivative)
        )

    def default_grid(self, n_radial: int = 200, n_cos: int = 32, n_phi: int = 64):
        # p_max chosen so the exp(-2 gamma p) tail is far below double precision
        return QuadratureGrid(
            (self.a + 40.0) / self.gamma, n_radial, n_cos, n_phi
        )


def make_isotropic(gamma: float, pbar: float, m: float) -> IsotropicProfile:
    return IsotropicProfile(gamma, pbar, m)


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


def _shell_tables(grid: QuadratureGrid, rad: np.ndarray, slope: np.ndarray):
    """Tables of phi = R(|p|) from R and R' on the radial nodes: grad phi = n R'."""
    shell = grid.radial_weights * grid.radial_nodes**2
    moments = (shell * rad**2)[:, None, None] * grid.direction_moments
    gradient = np.zeros((2, 3, grid.n_radial))  # p x grad phi = 0
    gradient[0] = np.diagonal(grid.direction_moments)[1:, None] * (shell * slope**2)
    return moments, gradient


def _node_tables(grid: QuadratureGrid, phi: np.ndarray, gphi: np.ndarray):
    """Tables of any profile from phi (N,) and grad phi (N, 3) on the grid nodes."""
    w = grid.weights.reshape(grid.n_radial, -1)
    u = _u_rows(grid.directions)
    uu = (u[:, None] * u).reshape(16, -1)
    moments = ((w * phi.reshape(w.shape) ** 2) @ uu.T).reshape(-1, 4, 4)
    terms = np.concatenate([gphi, np.cross(grid.nodes, gphi)], axis=1) ** 2
    gradient = np.einsum("ad,adc->ca", w, terms.reshape(*w.shape, 6))
    return moments, gradient.reshape(2, 3, -1)


# the quadrature rows, in OBSERVABLES order: H, P, V and their components, then X and L
_ROWS = tuple(name for name in OBSERVABLES if name[0] not in "SW")
# the spin rows' operators: S_i = sigma_i / 2, and Ws = S3 in the common basis along e3
_SPIN = {
    name: 0.5 * PAULI[2 if name == "Ws" else int(name[1]) - 1]
    for name in OBSERVABLES
    if name[0] in "SW"
}


def _sums(shells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Q_h = sum of the radial shells (last axis); error |Q_h - Q_2h| (Q_2h = 2 odd shells) plus
    the deepest shell s0 and its geometric tail s0 rho/(1 - rho), rho = s0/|s1|, inf if >= 1."""
    shells = np.ascontiguousarray(shells)  # pairwise summation runs along contiguous rows only
    q = shells.sum(axis=-1)
    s0, s1 = np.abs(shells[..., 0]), np.abs(shells[..., 1])
    with np.errstate(divide="ignore", invalid="ignore"):
        tail = np.where(s1 > s0, s0 * s0 / (s1 - s0), np.where(s0 != 0.0, np.inf, 0.0))
    return q, np.abs(q - 2.0 * shells[..., 1::2].sum(axis=-1)) + s0 + tail


class PacketStatistics:
    """Shell-moment engine for expectation values and dispersions.

    All observables act on alpha(p) = phi(p) exp(-i x0.p) chi with a real
    profile phi.  Each orbital observable acts as
    A alpha = (i G + S phi) exp(-i x0.p) chi with real G and S, so
    <A> = int w phi^2 S and <A alpha, A alpha> = int w G^2 + int w phi^2 S^2.
    Every S is a radial function times a polynomial of degree <= 1 in
    n = p/|p|: S = c(|p|) . u with u = (1, n).  The multiplicative rows have
    G = 0 and c = E, |p| or |p|/E times a unit vector (H, P, V and their
    Cartesian components); X~^i has G = d_i phi and c = x0^i (plus t |p|/E in
    slot i for X~(t) = X~ + t V~); L~_i has G = -(p x grad phi)_i and
    c = |p| (0, e_i x x0).  So each row reads two per-shell tables:

    * ``moments`` (n_radial, 4, 4): sum over the shell's directions of
      w phi^2 u u^T, the moments of 1, n_i and n_i n_j;
    * ``gradient`` (2, 3, n_radial): the shell sums of w (d_i phi)^2 (X rows)
      and w (p x grad phi)_i^2 (L rows).

    A profile that carries its radial pair (R, R') fills them as outer
    products of w_r r^2 R^2 and w_r r^2 R'^2 with the grid's
    ``direction_moments``, and its L terms are exactly 0; any other profile
    is evaluated once on the grid nodes and contracted with one matmul.

    The engine stacks the c of all 15 quadrature rows shell-major, into one
    (n_radial, rows, 4) array, when it is built.  Every mean is one einsum
    against the moments' first column; every second moment is one batched
    matmul, a (rows, 4) x (4, 4) product per shell, and one row-wise dot
    product.  The rows, and the four spin rows (2x2 closed forms in chi),
    are kept as Python floats: ``report`` looks its row up and builds its
    one ``StatisticsReport``, with the closed forms it is given.
    ``position_dispersion_at_time`` runs the three X~(t) rows through the
    same routine.  Each row is centered before its second moment: with
    mu = <A>/norm taken off slot 0 of c, the second moment is the dispersion
    itself, and no <A>^2 cancels against it (disp X~ stays at rounding for
    any x0).
    """

    def __init__(self, profile: PacketProfile, grid: QuadratureGrid):
        self.profile = profile
        self.grid = grid
        r = grid.radial_nodes
        if profile.radial is not None:
            tables, values = _shell_tables, [f(r) for f in profile.radial]
        else:
            tables, values = _node_tables, [profile.phi(grid.nodes), profile.grad_phi(grid.nodes)]
        if any(np.iscomplexobj(v) for v in values):
            raise TypeError("packet profiles must be real-valued (phi and grad_phi)")
        self.moments, self.gradient = tables(grid, *values)
        self._energy = e = np.sqrt(r**2 + profile.m**2)
        self.norm = float(self.moments[:, 0, 0].sum())
        if not abs(self.norm - 1.0) <= 1e-6:  # also NaN
            raise NormalizationError(
                f"profile norm on grid is {self.norm!r}, expected 1"
            )
        c = np.zeros((grid.n_radial, len(_ROWS), 4))
        g2 = np.zeros((len(_ROWS), grid.n_radial))
        radial = {"H": e, "P": r, "V": r / e}
        for k, name in enumerate(_ROWS[:9]):  # S = f(|p|) u_i, i the slot: 0 for H, P and V
            c[:, k, int(name[1:] or 0)] = radial[name[0]]
        c[:, 9:12] = self._position_rows(0.0)  # X~ rows, then L~: c = |p| (0, e_i x x0)
        x1, x2, x3 = profile.x0
        skew = np.array([[0.0, -x3, x2], [x3, 0.0, -x1], [-x2, x1, 0.0]])  # row i: e_i x x0
        c[:, 12:, 1:] = r[:, None, None] * skew
        g2[9:] = self.gradient.reshape(6, -1)
        # every row as Python floats (mean, dispersion, quad_error), the spin rows' from chi
        table = (v.tolist() for v in self._statistics(c, g2))
        self._rows = dict(zip(_ROWS, zip(*table)))
        chi = profile.chi
        bra = chi.conj()
        for name, sm in _SPIN.items():  # profile independent: no quadrature
            mean = float(np.real(bra @ sm @ chi))
            self._rows[name] = (mean, float(np.real(bra @ sm @ sm @ chi)) - mean**2, 0.0)

    # -- helpers ---------------------------------------------------------

    def _statistics(self, c: np.ndarray, g2: np.ndarray):
        """Means, dispersions and quadrature errors of the rows i G + S phi, S = c . u by shell,
        from c (n_radial, rows, 4) and the shells g2 of w G^2 (rows, n_radial).

        The second moment is taken of S - mu, mu = mean/norm in slot 0: it is the dispersion
        itself, with no mean^2 to cancel, and stationary in mu, so the mean's error enters it
        at second order only."""
        mean, e_mean = _sums(np.einsum("ark,ak->ra", c, self.moments[:, :, 0]))
        c = c.copy()
        c[..., 0] -= mean / self.norm
        # shell-major: one (rows, 4) x (4, 4) matmul per shell, then a dot product per row
        disp, e_disp = _sums(np.einsum("ark,ark->ra", c @ self.moments, c) + g2)
        return mean, disp, np.maximum(e_mean, e_disp)

    def _position_rows(self, t: float) -> np.ndarray:
        """c (n_radial, 3, 4) of X~^1..3(t): x0^i in slot 0 and t |p|/E in slot i + 1."""
        c = np.zeros((self.grid.n_radial, 3, 4))
        c[..., 0] = self.profile.x0
        i = np.arange(3)
        c[:, i, i + 1] = (t * self.grid.radial_nodes / self._energy)[:, None]
        return c

    # -- public ----------------------------------------------------------

    def report(
        self,
        observable: str,
        closed_expectation: float | None = None,
        closed_dispersion: float | None = None,
    ) -> StatisticsReport:
        """The row of one observable, with the closed forms it is compared against, if any."""
        if observable not in self._rows:
            raise KeyError(f"unknown observable {observable!r}")
        mean, disp, err = self._rows[observable]
        return StatisticsReport(
            observable,
            mean,
            _clip_dispersion(disp, observable),
            math.sqrt(max(disp, 0.0)),
            err,
            closed_expectation,
            closed_dispersion,
        )

    def position_dispersion_at_time(self, t: float) -> np.ndarray:
        """disp(X~^i(t)) of X~(t) = X~ + t V~: the X rows with S = x0^i + t p^i/E."""
        if t < 0:
            raise ValueError("t must be nonnegative")
        disp = self._statistics(self._position_rows(t), self.gradient[0])[1]
        return np.array([_clip_dispersion(float(d), f"X{i + 1}") for i, d in enumerate(disp)])


# ---------------------------------------------------------------------------
# closed forms for the isotropic packet


def _radial_mean(iso: IsotropicProfile, s: float, rho: float) -> tuple[float, float]:
    """<|p|^(2s) E^(2 rho - 2)> = 4 pi N^2 G(a + s, rho; 2 gamma) of the isotropic packet,
    with log(4 pi N^2) inside G's log-space sum: N^2 underflows and G overflows once 2a
    passes about 171, while their product is O(pbar^(2s)).  Second, the rule's own
    relative error estimate |Q_h - Q_2h|/Q_h, Q_2h from its odd nodes as in ``_sums``."""
    log_c = math.log(4 * np.pi) + 2 * iso._log_norm
    terms = np.exp(_g_log_terms(iso.a + s, rho, 2 * iso.gamma, iso.m) + log_c)
    total = float(np.sum(terms))
    return total, abs(total - 2.0 * float(np.sum(terms[1::2]))) / total


def _energy_statistics(iso: IsotropicProfile) -> tuple[float, float, float]:
    """(<H>, disp H, <H>'s relative error estimate), with <H^2> = pbar^2 + m^2 +
    pbar/(2 gamma) in closed form."""
    mean_h, error = _radial_mean(iso, 0.0, 1.5)
    e2 = iso.pbar**2 + iso.m**2 + iso.pbar / (2 * iso.gamma)
    return mean_h, e2 - mean_h**2, error


def _velocity_statistics(iso: IsotropicProfile) -> tuple[float, float]:
    """(<V>, disp V) of the isotropic packet, V = |p|/E, from one log-space evaluation of its
    radial density p^(2a-1) exp(-2 gamma p) on the radial rule, normalized there.

    The rule spans g_integral's range plus ten standard deviations sqrt(2a)/(2 gamma) of p.
    The dispersion is centered: sum w rho (U - <U>)^2 of U = 1 - V = m^2/(E(E + |p|)), which
    is V - <V> without the cancellation of V near 1 (disp V is 1.8e-9 at a = 50, m = 1)."""
    a, g, m = iso.a, iso.gamma, iso.m
    p_max = (2 * a + 80.0 + 10.0 * math.sqrt(2 * a)) / (2 * g)
    log_p, log_w = math.log(p_max) + _RADIAL_RULE
    p = np.exp(log_p)
    log_f = (2 * a - 1) * log_p - 2 * g * p + log_w
    rho = np.exp(log_f - log_f.max())
    rho /= rho.sum()
    e = np.sqrt(p * p + m * m)
    u = m * m / (e * (e + p))
    mean_u = np.sum(rho * u)
    return float(np.sum(rho * (p / e))), float(np.sum(rho * (u - mean_u) ** 2))


def isotropic_closed_forms(iso: IsotropicProfile) -> dict[str, tuple]:
    """(expectation, dispersion) closed forms; None where no closed form is used."""
    a, g = iso.a, iso.gamma
    mean_v2 = _radial_mean(iso, 1.0, 0.0)[0]
    disp_x = g**2 / (6.0 * (a - 1.0))
    disp_pi = (iso.pbar**2 + iso.pbar / (2 * g)) / 3.0
    out = {
        "H": _energy_statistics(iso)[:2],
        "P": (iso.pbar, iso.pbar / (2 * g)),
        "V": _velocity_statistics(iso),
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
    for i, x in enumerate(profile.x0.tolist(), 1):
        closed[f"X{i}"] = (x, closed[f"X{i}"][1])
    return [eng.report(name, *closed.get(name, (None, None))) for name in OBSERVABLES]


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
    norm = np.linalg.norm(n)
    if not 0.0 < norm < np.inf:  # also rejects nan
        raise ValueError("cone direction must be a nonzero finite vector")
    n = n / norm
    if not 0.0 < d_omega <= 0.1:  # also rejects nan
        raise ValueError("cone solid angle must be positive and small (<= 0.1 sr)")
    if not 0.0 < p_max < np.inf:
        raise ValueError("p_max must be positive and finite")
    r, w = p_max * np.exp(_RADIAL_RULE)
    line = profile.phi(np.outer(r, n))
    kappa = float(np.sum(w * r**2 * line**2))
    if not kappa > 0.0:  # also rejects nan
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
        out[name] = (mean, float(np.sum(w * (vals - mean) ** 2 * dens)))  # centered
    return out


# ---------------------------------------------------------------------------
# auxiliary integrals and figure data


def g_integral(nu: float, rho: float, mu: float, m: float) -> float:
    """G(nu, rho; mu) = int_0^inf p^(2nu-1) (p^2+m^2)^(rho-1) exp(-mu p) dp.

    Evaluated by the radial rule on (0, (k + max(80, 10 sqrt(k)))/mu], k = 2nu + 2|rho-1|,
    as one exp of a sum of logs, so that no power overflows at the deepest nodes.  The
    integrand is a Gamma density of shape about k in mu p, so the rule reaches ten of its
    standard deviations sqrt(k)/mu past the peak; for k <= 64, 80/mu already does.
    """
    if not (all(map(math.isfinite, (nu, rho, mu, m))) and m >= 0):
        raise ValueError("nu, rho, mu and m must be finite and m nonnegative")
    if mu <= 0:
        raise ValueError("mu must be positive for convergence")
    if m > 0 and nu <= 0:
        raise ValueError("nu must be positive for integrability at 0")
    if m == 0 and (2 * nu + 2 * rho - 2) <= 0:
        raise ValueError("2nu + 2rho - 2 must be positive for m = 0")
    return float(np.sum(np.exp(_g_log_terms(nu, rho, mu, m))))


def _g_log_terms(nu: float, rho: float, mu: float, m: float) -> np.ndarray:
    """log(w f) at the nodes of ``g_integral``'s rule for its integrand f."""
    k = 2 * nu + 2 * abs(rho - 1)
    log_p, log_w = math.log((k + max(80.0, 10.0 * math.sqrt(k))) / mu) + _RADIAL_RULE
    p = np.exp(log_p)
    log_f = (2 * nu - 1) * log_p + (rho - 1) * np.log(p * p + m * m) - mu * p
    return log_f + log_w


# figure 1 refuses a row whose <H> has a radial-rule error estimate above this bound.
# disp H = <H^2> - <H>^2 loses about log10(4q) digits of <H>, and the estimate
# overstates <H>'s own error.  Against 40-digit mpmath rows at gamma = 1, the
# estimates and the errors of scaled_disp_H are: q = 100, 2.9e-14 and 1.3e-11;
# q = 300, 1.1e-7 and 1.4e-10; q = 1e3, 1.4e-2 and 3.8e-5; q = 2e3, 6.8e-2 and
# 1.0.  The bound sits a decade above the largest estimate of an accepted row.
FIGURE_RULE_TOL = 1e-6


def figure_data(
    which: int, q_min: float = 1.0, q_max: float = 7.0, points: int = 60,
    gamma_m: float = 1.0,
) -> np.ndarray:
    """Ratio curves of packet energy/velocity statistics against q = gamma*pbar.

    Figure 1 columns: q, <H>/E(pbar), 2 gamma disp(H)/pbar.
    Figure 2 columns: q, <V>/V(pbar), disp(V).
    The sampled grid excludes q_min itself so the default range is (1, 7].  Figure 1
    raises ``ValueError`` at a row past ``FIGURE_RULE_TOL``, from q = 318 at any gamma_m.
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
        e_bar = np.sqrt(iso.pbar**2 + m**2)
        if which == 1:
            mean_h, disp_h, error = _energy_statistics(iso)
            if not error <= FIGURE_RULE_TOL:  # also refuses nan
                raise ValueError(
                    f"figure 1 at q = {qv:g}: <H> has a radial-rule error estimate of "
                    f"{error:.2g}, above {FIGURE_RULE_TOL:g}, so disp(H) would be wrong; "
                    "lower q_max"
                )
            rows[k] = (qv, mean_h / e_bar, 2 * gamma * disp_h / iso.pbar)
        else:
            mean_v, disp_v = _velocity_statistics(iso)
            rows[k] = (qv, mean_v / (iso.pbar / e_bar), disp_v)
    return rows
