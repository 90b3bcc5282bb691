"""Exception types shared across the library."""


class GaudinLabError(Exception):
    """Base class for library errors."""


class DimensionError(GaudinLabError, ValueError):
    """Matrix or vector dimensions are inconsistent or invalid."""


class ConfigError(GaudinLabError, ValueError):
    """A model, state or run configuration violates a precondition."""


class PoleError(GaudinLabError, ValueError):
    """Evaluation requested too close to a pole of a meromorphic quantity."""


class ResonanceError(PoleError):
    """A root paired with the Cartan coordinates landed on a lattice point,
    so the elliptic kernel degenerates."""


class NumericalAbort(GaudinLabError, RuntimeError):
    """A flow ran into a pole during integration.  Carries the last time at
    which the state was still valid: the arc length of the last state that
    passed the finiteness and resonance guard, or of a failed step's start.
    In a lockstep evolve, member is the index of the member that failed
    (its curve's arc length is the one reported); otherwise None."""

    def __init__(self, reason, last_good_time, member=None):
        super().__init__(reason)
        self.reason = reason
        self.last_good_time = last_good_time
        self.member = member
