"""Free Gaussian beam emitted by a single slit.

Each slit releases a minimum-uncertainty Gaussian packet at t = 0 that
spreads ballistically while drifting at constant velocity.  With
D = hbar/(2 m) and xi = x - center - drift*t the envelope and phase are

    sigma(t)  = sigma0 * sqrt(1 + (D t / sigma0^2)^2)
    R(x, t)   = weight * (2 pi sigma(t)^2)^(-1/4) * exp(-xi^2 / (4 sigma(t)^2))
    theta     = xi^2 D t / (4 sigma0^2 sigma(t)^2) + m*drift*(x - center)/hbar
                - m*drift^2 t / (2 hbar) + phase0 - arctan(D t / sigma0^2) / 2

and the two velocity moments carried by the packet are

    v(x, t) = drift + xi * D^2 t / (sigma0^2 sigma(t)^2)    (convective)
    u(x, t) = (hbar / m) * xi / (2 sigma(t)^2)              (diffusive)

theta is hbar^(-1) times the action phase, so the complex profile is
psi = R * exp(i theta).  Phases are never consumed directly downstream;
evaluations expose the unit carrier (cos theta, sin theta) instead, and
relative phases come from pairwise products of carriers.

The domain rule is these formulas themselves: _check_domain evaluates
them where a run will, and the config parser applies it to every slit.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import NegativeTime

__all__ = [
    "PhysParams",
    "SlitSpec",
    "PacketEval",
    "sigma_t",
    "eval_packet",
    "psi",
]


def _check_finite_fields(spec) -> None:
    """The one finiteness rule for a parameter record: every field is a finite number."""
    for f in fields(spec):
        if not np.isfinite(getattr(spec, f.name)):
            raise ValueError(f"{f.name} must be finite")


@dataclass(frozen=True)
class PhysParams:
    """Global physical constants of a run."""

    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self) -> None:
        if not self.hbar > 0.0:
            raise ValueError("hbar > 0 violated")
        if not self.mass > 0.0:
            raise ValueError("mass > 0 violated")
        _check_finite_fields(self)

    @property
    def diffusion(self) -> float:
        """Osmotic diffusion scale hbar / (2 m), recomputed on access."""
        return self.hbar / (2.0 * self.mass)


@dataclass(frozen=True)
class SlitSpec:
    """Geometry and preparation of one slit source; _check_domain decides its finite range."""

    center: float
    sigma0: float = 1.0
    drift: float = 0.0
    weight: float = 1.0
    phase0: float = 0.0

    def __post_init__(self) -> None:
        if not self.sigma0 > 0.0:
            raise ValueError("sigma0 > 0 violated")
        if not self.weight >= 0.0:
            raise ValueError("weight >= 0 violated")
        _check_finite_fields(self)


@dataclass(frozen=True)
class PacketEval:
    """One packet evaluated at a common space-time point.

    amplitude      weighted envelope, weight * R_unit(x, t), >= 0
    cos, sin       the unit phase carrier (cos theta, sin theta), each
                   shaped like x; (1, 0) where the amplitude is 0
    conv_velocity  convective velocity v = grad(S)/m
    diff_velocity  signed diffusive velocity u
    x, t           the evaluation point (x may be an array)
    """

    amplitude: np.ndarray
    cos: np.ndarray
    sin: np.ndarray
    conv_velocity: np.ndarray
    diff_velocity: np.ndarray
    x: np.ndarray
    t: float


def _check_time(t: float) -> float:
    """The one time rule: t as a float, finite and at or after the release at 0."""
    t = float(t)
    if not 0.0 <= t < np.inf:  # NaN too
        if t == np.inf:
            raise ValueError(f"t = {t} is not finite")
        raise NegativeTime(f"t = {t} is not at or after the release time 0")
    return t


def _check_count(n, name: str, least: int = 1) -> None:
    """The one count rule: n is an int or NumPy integer, not a bool, and n >= least."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValueError(f"{name} must be an integer")
    if n < least:
        raise ValueError(f"{name} >= {least} violated")


def sigma_t(params: PhysParams, slit: SlitSpec, t: float) -> float:
    """Envelope width sigma(t) of the spreading packet."""
    t = _check_time(t)
    tau = params.diffusion * t / slit.sigma0**2
    return slit.sigma0 * np.sqrt(1.0 + tau * tau)


def eval_packet(params: PhysParams, slit: SlitSpec, x, t: float) -> PacketEval:
    """Evaluate envelope, phase carrier, and both velocity moments at (x, t)."""
    t = _check_time(t)
    x = np.asarray(x, dtype=float)
    d = params.diffusion
    s0sq = slit.sigma0**2
    ssq = s0sq + (d * t) ** 2 / s0sq  # sigma(t)^2
    xi = x - slit.center - slit.drift * t

    amp = slit.weight * (2.0 * np.pi * ssq) ** -0.25 * np.exp(-(xi * xi) / (4.0 * ssq))
    theta = (
        xi * xi * d * t / (4.0 * s0sq * ssq)
        + params.mass * slit.drift * (x - slit.center) / params.hbar
        - params.mass * slit.drift**2 * t / (2.0 * params.hbar)
        + slit.phase0
        - 0.5 * np.arctan(d * t / s0sq)
    )
    # finite where the amplitude underflows to 0 (theta may overflow there)
    theta = np.where(amp > 0.0, theta, 0.0)
    v = slit.drift + xi * d * d * t / (s0sq * ssq)
    u = (params.hbar / params.mass) * xi / (2.0 * ssq)
    return PacketEval(
        amplitude=amp,
        cos=np.cos(theta),
        sin=np.sin(theta),
        conv_velocity=v,
        diff_velocity=u,
        x=x,
        t=t,
    )


def psi(params: PhysParams, slit: SlitSpec, x, t: float) -> np.ndarray:
    """Complex profile weight * R * exp(i theta), evaluated in closed form."""
    t = _check_time(t)
    x = np.asarray(x, dtype=float)
    d = params.diffusion
    s0sq = slit.sigma0**2
    st = s0sq + 1j * d * t  # complex squared width
    xi = x - slit.center - slit.drift * t
    drift_phase = (
        params.mass * slit.drift * (x - slit.center) / params.hbar
        - params.mass * slit.drift**2 * t / (2.0 * params.hbar)
        + slit.phase0
    )
    pref = slit.weight * (2.0 * np.pi * s0sq) ** -0.25 / np.sqrt(1.0 + 1j * d * t / s0sq)
    return pref * np.exp(-(xi * xi) / (4.0 * st) + 1j * drift_phase)


_PACKET_OUTPUTS = ("amplitude", "cos", "sin", "conv_velocity", "diff_velocity")
_WINDOW_WIDTHS = 10.0  # the sampler's window: this many widths either side of a centre
_PROBES = np.arange(-_WINDOW_WIDTHS, _WINDOW_WIDTHS + 1.0)  # one width apart


def _check_domain(params: PhysParams, slit: SlitSpec, times, xs=()) -> None:
    """Raise ValueError unless sigma_t, eval_packet and psi are finite for slit.

    At each t of times they run at xs and at the packet centre +-
    _WINDOW_WIDTHS widths, one width apart (the sampler's window):
    beyond a square that overflows the amplitude reads 0, which would
    hide a non-finite phase nearer the centre.  A Python-float power or division that raises
    counts as not finite.
    """
    for t in times:
        name = "sigma_t"  # the output being formed, then the first not finite
        try:
            with np.errstate(all="ignore"):
                width = sigma_t(params, slit, t)
                if np.isfinite(width):
                    x = np.concatenate([slit.center + slit.drift * t + _PROBES * width, xs])
                    name = "eval_packet"
                    ev = eval_packet(params, slit, x, t)
                    outputs = {f"eval_packet {f}": getattr(ev, f) for f in _PACKET_OUTPUTS}
                    name = "psi"
                    outputs[name] = psi(params, slit, x, t)
                    name = next((k for k, v in outputs.items() if not np.isfinite(v).all()), None)
        except (OverflowError, ZeroDivisionError):
            pass
        if name is not None:
            raise ValueError(f"{name} is not finite at t = {t!r}")
