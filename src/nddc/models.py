"""Closed-form stability conditions for the two-agent reductions and the theorems."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

#: Regime thresholds for the no-anticipation reaction equation, applied to 2*tau.
NON_OSCILLATORY_THRESHOLD = math.exp(-1.0)
INSTABILITY_THRESHOLD = math.pi / 2.0


class RegimeLabel(str, enum.Enum):
    STABLE_NON_OSCILLATORY = "stable-non-oscillatory"
    STABLE_OSCILLATORY = "stable-oscillatory"
    UNSTABLE = "unstable"
    BOUNDARY = "boundary"


@dataclass
class AnalyticRegime:
    label: RegimeLabel
    thresholds: dict = field(default_factory=dict)


def trans_two_agent_stable(lam: float, tau: float) -> bool:
    """Exact two-agent transmission criterion: consensus iff lam*tau < 1."""
    return lam * tau < 1.0


def react_two_agent_sufficient(lam: float, tau: float) -> bool:
    """Sufficient (not necessary) two-agent reaction criterion 2*(1+lam)*tau < 1."""
    return 2.0 * (1.0 + lam) * tau < 1.0


def theorem_transmission_condition(lam: float, tau: float) -> bool:
    """N-agent transmission consensus guarantee, equality admitted: lam*tau <= 1."""
    return lam * tau <= 1.0


def theorem_reaction_condition(lam: float, tau: float) -> bool:
    """N-agent reaction consensus guarantee, strict: (1+lam)*tau < 1/2."""
    return (1.0 + lam) * tau < 0.5


def react_no_anticipation_regime(tau: float) -> AnalyticRegime:
    """Regime of x' = -2 x(t - tau): thresholds e^-1 and pi/2 applied to 2*tau."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    two_tau = 2.0 * tau
    thresholds = {
        "non_oscillatory": NON_OSCILLATORY_THRESHOLD,
        "instability": INSTABILITY_THRESHOLD,
    }
    if two_tau == NON_OSCILLATORY_THRESHOLD or two_tau == INSTABILITY_THRESHOLD:
        label = RegimeLabel.BOUNDARY
    elif two_tau < NON_OSCILLATORY_THRESHOLD:
        label = RegimeLabel.STABLE_NON_OSCILLATORY
    elif two_tau < INSTABILITY_THRESHOLD:
        label = RegimeLabel.STABLE_OSCILLATORY
    else:
        label = RegimeLabel.UNSTABLE
    return AnalyticRegime(label=label, thresholds=thresholds)
