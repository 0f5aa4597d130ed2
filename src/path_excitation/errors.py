"""Exception types shared across the package."""

__all__ = [
    "NegativeTime", "MismatchedPoint", "NodalPoint", "BoundaryLeak",
    "DegenerateDensity", "ParseError", "ValidationError",
]


class NegativeTime(ValueError):
    """Raised when an evaluation time is NaN or lies before the packet release at t = 0."""


class MismatchedPoint(ValueError):
    """Raised when per-slit evaluations passed to a combiner disagree on (x, t)."""


class NodalPoint(ValueError):
    """Raised when a velocity is requested where the density is below the node floor."""


class BoundaryLeak(RuntimeError):
    """Raised when a propagated profile develops non-negligible edge amplitude."""


class DegenerateDensity(ValueError):
    """Raised when a sampling density has vanishing total mass."""


class ParseError(ValueError):
    """Raised for malformed or unrecognized run configuration input.

    Only the CLI raises it; the library modules never name it.
    """


class ValidationError(ValueError):
    """Raised when a parsed configuration violates a model invariant.

    Only the CLI raises it, from a cap or from a library rule's
    ValueError through cli._checked; the library modules never name it.
    """
