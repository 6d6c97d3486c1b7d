"""Closed-form stability conditions of the two-agent reductions and the theorems,
and the condition curves tau(lambda) they draw over a stability grid."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import ModelKind

#: Regime thresholds for the no-anticipation reaction equation, applied to 2*tau.
NON_OSCILLATORY_THRESHOLD = math.exp(-1.0)
INSTABILITY_THRESHOLD = math.pi / 2.0
#: Critical delay of the no-anticipation two-agent reaction equation (pi/4).
CRITICAL_TAU_NO_ANTICIPATION = INSTABILITY_THRESHOLD / 2.0


class RegimeLabel(str, enum.Enum):
    STABLE_NON_OSCILLATORY = "stable-non-oscillatory"
    STABLE_OSCILLATORY = "stable-oscillatory"
    UNSTABLE = "unstable"
    BOUNDARY = "boundary"


def trans_two_agent_stable(lam: float, tau: float) -> bool:
    """Exact two-agent transmission criterion: consensus iff lam*tau < 1."""
    return lam * tau < 1.0


def theorem_transmission_condition(lam: float, tau: float) -> bool:
    """N-agent transmission consensus guarantee, equality admitted: lam*tau <= 1."""
    return lam * tau <= 1.0


def theorem_reaction_condition(lam: float, tau: float) -> bool:
    """Reaction consensus guarantee, strict: (1+lam)*tau < 1/2. It is the N-agent
    theorem's and, exactly (doubling is exact), the two-agent sufficient 2(1+lam)tau < 1."""
    return (1.0 + lam) * tau < 0.5


def react_no_anticipation_regime(tau: float) -> RegimeLabel:
    """Regime of x' = -2 x(t - tau): thresholds e^-1 and pi/2 applied to 2*tau."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    two_tau = 2.0 * tau
    if two_tau == NON_OSCILLATORY_THRESHOLD or two_tau == INSTABILITY_THRESHOLD:
        return RegimeLabel.BOUNDARY
    if two_tau < NON_OSCILLATORY_THRESHOLD:
        return RegimeLabel.STABLE_NON_OSCILLATORY
    if two_tau < INSTABILITY_THRESHOLD:
        return RegimeLabel.STABLE_OSCILLATORY
    return RegimeLabel.UNSTABLE


def spectral_radius(model: ModelKind, tau: float, lam: float, m: int) -> float:
    """Largest root modulus rho of a gap model's scheme polynomial, at tau > 0.

    With dt = tau/m the implicit scheme's gap is a linear recurrence with the
    characteristic polynomial z^{m+1} - z^m + 2dt[(1+lam*m) z - lam*m] for the
    reaction gap and (1+dt) z^{m+1} - z^m + dt[(1+lam*m) z - lam*m] for the
    transmission gap. The gap decays iff rho < 1, at log(rho)/dt per unit time.
    """
    model = ModelKind(model)
    if not model.is_scalar or not tau > 0:
        raise ValueError("spectral_radius covers the two gap models at tau > 0")
    dt = tau / m
    scale = 2.0 * dt if model.is_reaction else dt
    coeffs = np.zeros(m + 2)
    coeffs[0] = 1.0 if model.is_reaction else 1.0 + dt
    coeffs[1] -= 1.0
    coeffs[m] += scale * (1.0 + lam * m)
    coeffs[m + 1] -= scale * lam * m
    return float(np.abs(np.roots(coeffs)).max())


@dataclass
class OverlayCurve:
    label: str
    lam: np.ndarray
    tau: np.ndarray


def analytic_overlays(model: ModelKind, lam_values) -> list[OverlayCurve]:
    """The boundary tau(lambda) of each closed-form condition on ``model``.

    Reaction models get the sufficient condition (1+lam)*tau < 1/2, and the
    two-agent one also the no-anticipation critical delay; transmission models
    get lam*tau = 1 (tau = inf at lam = 0), the exact two-agent boundary or
    the N-agent guarantee.
    """
    lam_values = np.asarray(lam_values, dtype=float)
    model = ModelKind(model)
    if not model.is_reaction:
        positive = lam_values > 0
        tau = np.where(positive, 1.0 / np.where(positive, lam_values, 1.0), np.inf)
        label = "two-agent-boundary" if model.is_scalar else "consensus-guarantee"
        return [OverlayCurve(label=label, lam=lam_values, tau=tau)]
    curves = [OverlayCurve(label="sufficient-condition", lam=lam_values,
                           tau=1.0 / (2.0 * (1.0 + lam_values)))]
    if model.is_scalar:
        curves.append(OverlayCurve(
            label="no-anticipation-critical",
            lam=lam_values,
            tau=np.full_like(lam_values, CRITICAL_TAU_NO_ANTICIPATION),
        ))
    return curves
