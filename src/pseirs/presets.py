"""Canonical parameter sets used by the shipped configs and the tests.

The delayed-model scenario (S=63, E=0, I=7, R=0; N=70) is a repository
convention chosen so compartment ranges are readable; the model itself
prescribes no initial state.
"""

from __future__ import annotations

from .core import ConstantHistory, PseirsParams, SirParams, SirState


def baseline_pseirs(p: float = 1.0, omega: float = 0.15,
                    gamma: float = 0.308) -> PseirsParams:
    return PseirsParams(beta=0.330, mu=0.006, epsilon=0.060, alpha=0.040,
                        gamma=gamma, omega=omega, tau=30.0, p=p)


def baseline_history() -> ConstantHistory:
    return ConstantHistory(63.0, 0.0, 7.0, 0.0)


def sir_low_infectivity() -> SirParams:
    return SirParams(beta=0.06, alpha=0.1)


def sir_high_infectivity() -> SirParams:
    return SirParams(beta=0.2, alpha=0.1)


def sir_twelve_node_init() -> SirState:
    return SirState(s=11.0, i=1.0, r=0.0)
