"""Exception types shared across the package."""


class PseirsError(Exception):
    """Base class for all model, solver and configuration errors."""


class InvalidParameter(PseirsError):
    """A parameter violated its documented bound."""

    def __init__(self, name, value, constraint):
        self.name = name
        self.value = value
        self.constraint = constraint
        super().__init__(f"{name}={value!r} violates: {constraint}")


class StepTooLarge(PseirsError):
    """Integration produced a compartment below the negativity floor."""


class Overflow(PseirsError):
    """A state or a statistic of a run exceeded float64's range."""


class ZeroPopulation(PseirsError):
    """Total population hit zero; the incidence term S*I/N is undefined."""


class NoPeak(PseirsError):
    """The infected curve is monotone decreasing; no interior peak exists."""


class NotEndemic(PseirsError):
    """Endemic-limit prediction requested with reproduction number <= 1."""


class OutOfDomain(PseirsError):
    """Evaluation time outside the history/trajectory domain."""


class InconsistentInit(PseirsError):
    """Trajectory was started with overridden initial values, so the
    integro-differential equivalence is not guaranteed."""


class TrajectoryTooShort(PseirsError):
    """Trajectory horizon does not exceed the delay span kappa."""


class QuadratureNotConverged(PseirsError):
    """Adaptive quadrature reached its panel cap without converging."""


class EmptyWindow(PseirsError):
    """Requested time window contains no trajectory samples."""


class InvalidGraphParams(PseirsError):
    """Graph generation parameters violate m0 >= 1, 1 <= m <= m0, n >= m0
    or seed >= 0 (numpy seeds only non-negative integers)."""


class InsufficientTail(PseirsError):
    """Fewer than four distinct degrees available for the power-law fit."""


class WorkerDied(PseirsError):
    """A forked process, a sweep worker or a CSV formatter, exited non-zero
    or without returning its run or all of its text."""
