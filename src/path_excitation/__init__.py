"""Emergent velocity-channel model of n-slit interference.

Gaussian packets released from n slits are decomposed into convective
and diffusive velocity channels whose amplitude-weighted projections
assemble the detection intensity, the current, and the guidance field
that trajectories follow.  An independent complex-amplitude oracle, a
Crank-Nicolson propagator, Born-rule equivariance checks, and the
interference sum-rule hierarchy validate the construction.

The package namespace is the union of its modules' ``__all__`` lists,
which are the one list of each module's public names.
"""

from .channels import *  # noqa: F403
from .errors import *  # noqa: F403
from .field import *  # noqa: F403
from .oracle import *  # noqa: F403
from .packet import *  # noqa: F403
from .sorkin import *  # noqa: F403
from .trajectories import *  # noqa: F403

__version__ = "0.1.0"
