"""Emergent velocity-channel model of n-slit interference.

Gaussian packets released from n slits are decomposed into convective
and diffusive velocity channels whose amplitude-weighted projections
assemble the detection intensity, the current, and the guidance field
that trajectories follow.  An independent complex-amplitude oracle, a
Crank-Nicolson propagator, Born-rule equivariance checks, and the
interference sum-rule hierarchy validate the construction.
"""

from .channels import (
    Channel,
    ChannelKind,
    ChannelSet,
    assemble,
    build_channels,
    channel_current,
    project,
)
from .errors import (
    BoundaryLeak,
    DegenerateDensity,
    MismatchedPoint,
    NegativeTime,
    NodalPoint,
    ParseError,
    ValidationError,
)
from .field import (
    FieldSample,
    GridSpec,
    SlitMask,
    field_grid,
    intensity,
    open_evals,
    pairwise_field,
    peak_bound,
)
from .oracle import (
    EquivalenceReport,
    Superposition,
    bohm_velocity,
    equivalence_report,
    fd_propagate,
    qm_current,
    superpose,
)
from .packet import (
    PacketEval,
    PhysParams,
    SlitSpec,
    eval_packet,
    psi,
    sigma_t,
)
from .sorkin import SumRuleReport, interference_term, subset_intensity, sumrule_report, sumrule_verdict
from .trajectories import (
    EnsembleResult,
    Termination,
    Trajectory,
    ensemble,
    integrate,
    quantile_initial,
    sample_initial,
    streamlines,
)

__version__ = "0.1.0"
