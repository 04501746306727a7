"""Shared exception types."""


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration.

    ``location`` carries a "path:line" anchor when the error originates
    from a config file.
    """

    def __init__(self, message, location=None):
        self.location = location
        if location is not None:
            message = f"{location}: {message}"
        super().__init__(message)


class DegenerateSampleError(ValueError):
    """Sample carries no usable variation (e.g. all values equal)."""


class PositivityError(RuntimeError):
    """An integration step drove some wealth value to zero or below, or
    to a non-finite value (NaN or +-inf).

    Signals that the step size is too large for the parameters.  Carries
    the first offending agent index, whether its value was still finite,
    the simulation time and the index of the failing step, which the
    stepping loop sets; ``step`` is None only for an error built by hand.
    ``snapshots`` holds whatever snapshots were emitted before the failure.
    """

    def __init__(self, agent, t, step=None, snapshots=None, finite=True):
        self.agent = int(agent)
        self.t = float(t)
        self.step = step
        self.finite = bool(finite)
        self.snapshots = snapshots if snapshots is not None else []
        super().__init__(self.agent, self.t)

    def __str__(self):
        return (
            f"wealth became {'non-positive' if self.finite else 'non-finite'}"
            f" for agent {self.agent} at t={self.t:g}"
            + (f" (step {self.step})" if self.step is not None else "")
            + "; reduce dt"
        )
