"""Integral forms of the exposed and recovered compartments and the
equivalence verifier between them and the differential system.

For a consistently initialized run the solution satisfies

    E(t) = int_{t-omega}^t gamma*S(x)*I(x)/N(x) * exp(-mu*(t-x)) dx
    R(t) = int_{t-tau}^t   p*alpha*I(x) * exp(-mu*(t-x)) dx

at every t >= 0.  The integrands are the ones the dde module integrates at
t = 0 for consistent initialization: each maps an array of nodes to the
array of its values, reading the states of all the nodes of a quadrature
level in one ``_eval_raw`` call; a window across t = 0 is integrated in
two pieces, over the history and over the samples.
verify_integral_equivalence evaluates both integrals by adaptive Simpson
quadrature at evenly spaced checkpoints and reports the relative residuals
against the trajectory's own E and R.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import PseirsParams, Trajectory, _require, kappa
from .dde import _eval_raw, _exposed_integrand, _recovered_integrand
from .errors import InconsistentInit, OutOfDomain, TrajectoryTooShort
from .quadrature import adaptive_simpson


@dataclass(frozen=True)
class EquivalenceReport:
    times: np.ndarray
    e_residuals: np.ndarray
    r_residuals: np.ndarray
    max_residual: float
    consistent_init: bool

    def to_dict(self) -> dict:
        return {"checkpoints": int(len(self.times)),
                "max_residual": float(self.max_residual),
                "consistent_init": bool(self.consistent_init)}


def _window_integral(traj: Trajectory, t: float, lag: float, integrand,
                     params: PseirsParams) -> float:
    """The integral of ``integrand`` over [t - lag, t].  A window across
    the breaking point x = 0, where N jumps under consistent init (E(0) and
    R(0) are integrals the history's E and R need not match), is split
    there: [t - lag, 0] over the history, as consistent init integrates
    it, and [0, t] over the samples.  Across the jump Simpson would double
    to 2^18-2^19 panels and still miss E(t) by about 1e-7 relative."""
    if not 0.0 <= t <= traj.horizon + 1e-9 * traj.step:  # NaN fails too
        raise OutOfDomain(f"t={t} outside [0, {traj.horizon}]")
    a = t - lag
    if a < -traj.kappa - 1e-12 or (a < 0.0 and traj.history is None):
        raise OutOfDomain(f"trajectory does not cover [{a}, {t}]")
    f = integrand(partial(_eval_raw, traj), t, params)
    if not a < 0.0 < t:
        return adaptive_simpson(f, a, t)
    return (adaptive_simpson(integrand(traj.history.rows_at, t, params), a, 0.0)
            + adaptive_simpson(f, 0.0, t))


def exposed_integral(traj: Trajectory, t: float, params: PseirsParams) -> float:
    """Windowed incidence integral equal to E(t) on consistent runs."""
    return _window_integral(traj, t, params.omega, _exposed_integrand, params)


def recovered_integral(traj: Trajectory, t: float,
                       params: PseirsParams) -> float:
    """Windowed recovery integral equal to R(t) on consistent runs."""
    return _window_integral(traj, t, params.tau, _recovered_integrand, params)


def _relative_residual(a: float, b: float) -> float:
    d = abs(a - b)
    if d == 0.0:
        return 0.0
    return d / max(abs(a), abs(b))


def verify_integral_equivalence(traj: Trajectory, params: PseirsParams,
                    n_checkpoints: int = 20) -> EquivalenceReport:
    """Compare both integral forms against the trajectory's E and R at
    ``n_checkpoints`` evenly spaced times in [kappa, horizon].

    Checkpoints start at kappa, not 0: earlier residuals would mix history
    and computed solution.  Raises InconsistentInit when the run was
    started with overridden initial values.
    """
    _require(n_checkpoints >= 1, "n_checkpoints", n_checkpoints,
             "n_checkpoints >= 1")
    if traj.init_override:
        raise InconsistentInit(
            "trajectory was initialized with overridden E(0)/R(0)")
    kap = kappa(params)
    if traj.horizon <= kap:
        raise TrajectoryTooShort(
            f"horizon {traj.horizon} must exceed kappa {kap}")
    times = np.linspace(kap, traj.horizon, n_checkpoints)
    states = _eval_raw(traj, times)
    e_res = np.empty(n_checkpoints)
    r_res = np.empty(n_checkpoints)
    for idx, t in enumerate(times.tolist()):
        e_res[idx] = _relative_residual(
            exposed_integral(traj, t, params), states[idx, 1])
        r_res[idx] = _relative_residual(
            recovered_integral(traj, t, params), states[idx, 3])
    return EquivalenceReport(times=times, e_residuals=e_res, r_residuals=r_res,
                             max_residual=float(max(e_res.max(), r_res.max())),
                             consistent_init=not traj.init_override)
