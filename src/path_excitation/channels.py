"""Velocity-channel decomposition and the projection rule.

Every slit contributes three generalized velocity channels at each
space-time point: the convective channel carrying v = grad(S)/m and a
right/left pair splitting the signed diffusive velocity u into
non-negative magnitudes u_R = max(u, 0) and u_L = max(-u, 0).  Each
channel owns a planar unit orientation built from the packet's phase
carrier (cos theta, sin theta):

    conv:  (cos theta,  sin theta)
    right: (-sin theta, cos theta)     conv rotated a quarter turn
    left:  (sin theta, -cos theta)     exact negation of right

The handedness of the quarter turn paired with the R/L velocity split
is not a free choice: it is fixed by requiring the assembled current
to reproduce the complex-amplitude current (and with it probability
continuity).  The opposite pairing flips the diffusive cross terms and
breaks both.  All three channels of a slit share the slit's envelope
amplitude.  The
emergent density assigned to channel i with orientation w_i and
amplitude R_i is the signed projection onto the amplitude-weighted mean
orientation M = sum_j R_j w_j over all 3n channels,

    P(i) = R_i * (w_i . M),        J(i) = velocity_i * P(i),

and the totals are the fixed-order sums p_tot = sum_i P(i) and
j_tot = sum_i J(i) with guidance velocity v_tot = j_tot / p_tot away
from nodal points.  Because the left orientation is the exact negation
of the right one, the two diffusive projections of a slit cancel in
p_tot identically, while their currents combine to u * P(right).

Relative phases enter only through dot products of carriers, never
through unwrapped phase values.  This module is the verification twin
of `field`'s pairwise path, whose nodal rule it applies.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .field import DEFAULT_NODE_FLOOR, FieldSample, _common_point, _guidance, _workspace
from .packet import PacketEval

__all__ = [
    "ChannelKind",
    "Channel",
    "ChannelSet",
    "build_channels",
    "project",
    "channel_current",
    "assemble",
]


class ChannelKind(Enum):
    CONVECTIVE = "convective"
    DIFFUSIVE_RIGHT = "diffusive_right"
    DIFFUSIVE_LEFT = "diffusive_left"


@dataclass(frozen=True)
class Channel:
    """One generalized velocity channel at the evaluation point."""

    kind: ChannelKind
    slit_index: int
    orientation: np.ndarray
    physical_velocity: np.ndarray
    amplitude: np.ndarray


@dataclass(frozen=True)
class ChannelSet:
    """All 3n channels of one evaluation point, in slit order.

    Channel order is (conv, diff_right, diff_left) per slit, slits in
    the order the evaluations were given.
    """

    channels: tuple[Channel, ...]

    @property
    def n_slits(self) -> int:
        return len(self.channels) // 3


def build_channels(evals: list[PacketEval]) -> ChannelSet:
    """Expand per-slit evaluations into the ordered 3n-channel set.

    Orientations are stacked from each carrier's cos and sin.  All
    evaluations must pass _common_point.
    """
    _common_point(evals)
    chans: list[Channel] = []
    for j, ev in enumerate(evals):
        conv = np.stack([ev.cos, ev.sin], axis=-1)
        right = np.stack([-ev.sin, ev.cos], axis=-1)
        u = np.asarray(ev.diff_velocity, dtype=float)
        chans += [
            Channel(ChannelKind.CONVECTIVE, j, conv, ev.conv_velocity, ev.amplitude),
            Channel(ChannelKind.DIFFUSIVE_RIGHT, j, right, np.maximum(u, 0.0), ev.amplitude),
            Channel(ChannelKind.DIFFUSIVE_LEFT, j, -right, np.maximum(-u, 0.0), ev.amplitude),
        ]
    return ChannelSet(channels=tuple(chans))


def _mean_orientation(cset: ChannelSet) -> np.ndarray:
    """Amplitude-weighted mean orientation M = sum_j R_j w_j, fixed order."""
    m = np.zeros(np.broadcast_shapes(*(ch.orientation.shape for ch in cset.channels)))
    for ch in cset.channels:
        m = m + ch.amplitude[..., np.newaxis] * ch.orientation
    return m


def project(cset: ChannelSet, i: int) -> np.ndarray:
    """Signed emergent density P(i) = R_i * (w_i . M) of channel i."""
    m = _mean_orientation(cset)
    ch = cset.channels[i]
    return ch.amplitude * (ch.orientation[..., 0] * m[..., 0] + ch.orientation[..., 1] * m[..., 1])


def channel_current(cset: ChannelSet, i: int) -> np.ndarray:
    """Channel current J(i) = physical velocity times projected density."""
    return cset.channels[i].physical_velocity * project(cset, i)


def assemble(
    cset: ChannelSet,
    node_floor: float = DEFAULT_NODE_FLOOR,
    peak: float = 1.0,
) -> FieldSample:
    """Sum all channel densities and currents into one FieldSample.

    Sums run in channel order so repeated runs are bit-identical.  The
    nodal reference peak is supplied by the caller (1.0 makes the floor
    absolute) and field._guidance applies the rule.
    """
    m = _mean_orientation(cset)
    p_tot = np.zeros(m.shape[:-1])
    j_tot = np.zeros(m.shape[:-1])
    for ch in cset.channels:
        p_i = ch.amplitude * (ch.orientation[..., 0] * m[..., 0] + ch.orientation[..., 1] * m[..., 1])
        p_tot = p_tot + p_i
        j_tot = j_tot + ch.physical_velocity * p_i
    conv = [ch.physical_velocity for ch in cset.channels if ch.kind is ChannelKind.CONVECTIVE]
    return _guidance(p_tot, j_tot, node_floor, peak, conv, _workspace(m.shape[:-1], 0))
