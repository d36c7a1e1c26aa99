"""Exception types shared across the package."""


class RdfluxError(Exception):
    """Base class for all package-specific errors."""


class InvalidArgument(RdfluxError):
    """An argument is outside the domain an operation supports."""


class DegenerateElement(RdfluxError):
    """Triangle with zero or negative area (after orientation fixing)."""


class InvalidTopology(RdfluxError):
    """Connectivity that does not describe a conforming triangulation."""


class NonPhysicalState(RdfluxError):
    """State with non-positive density or pressure where positivity is required."""


class ConfigError(RdfluxError):
    """Run configuration that cannot be parsed or validated."""


class Diverged(RdfluxError):
    """Pseudo-time march aborted because the residual blew up."""


class StagnantField(RdfluxError):
    """No node has any inflow, so no stable time step exists."""
