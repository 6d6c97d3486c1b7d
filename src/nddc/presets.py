"""Parameter presets replaying the reference two-agent experiments."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import ConstantDatum, ModelKind, SimConfig
from .sweep import SweepSettings

#: Steps per delay used by all figure runs.
FIGURE_STEPS_PER_DELAY = 64


@dataclass
class FigureRun:
    label: str
    config: SimConfig


@dataclass
class SweepJob:
    settings: SweepSettings
    lam_values: np.ndarray
    tau_values: np.ndarray


@dataclass
class FigurePreset:
    name: str
    runs: list[FigureRun] = field(default_factory=list)
    sweep: Optional[SweepJob] = None


def _gap_run(model: ModelKind, tau: float, lam: float, t_end: float) -> SimConfig:
    return SimConfig(
        model=model,
        tau=tau,
        lam=lam,
        datum=ConstantDatum([[1.0]]),
        n=1,
        steps_per_delay=FIGURE_STEPS_PER_DELAY,
        t_end=t_end,
    )


def figure_preset(name: str) -> FigurePreset:
    """The four reference experiments; each batch carries the lambda = 0 baseline.

    Horizons are multiples of the respective delay, long enough for the
    default classifier thresholds to resolve the slow growth and decay rates
    near the stability boundaries.
    """
    name = name.lower()
    if name == "fig1":
        # Transmission gap, tau = 0.25: monotone decay, slower decay, neutral
        # oscillation at lam*tau = 1, divergence beyond it.
        return FigurePreset(
            name=name,
            runs=[
                FigureRun(f"lambda={lam:g}",
                          _gap_run(ModelKind.TWO_AGENT_TRANSMISSION, 0.25, lam, 25.0))
                for lam in (0.0, 1.0, 4.0, 4.5)
            ],
        )
    if name == "fig2":
        # Transmission gap, tau = 1.25: oscillatory decay; small anticipation
        # damps the oscillation, lam = 1 crosses the boundary.
        return FigurePreset(
            name=name,
            runs=[
                FigureRun(f"lambda={lam:g}",
                          _gap_run(ModelKind.TWO_AGENT_TRANSMISSION, 1.25, lam, 50.0))
                for lam in (0.0, 0.2, 0.6, 1.0)
            ],
        )
    if name == "fig3":
        return FigurePreset(
            name=name,
            sweep=SweepJob(
                settings=SweepSettings(model=ModelKind.TWO_AGENT_REACTION),
                lam_values=np.linspace(0.0, 3.0, 31),
                tau_values=np.linspace(0.0, 1.0, 21),
            ),
        )
    if name == "fig4":
        # Reaction gap, tau = 0.85: unstable without anticipation, stabilized
        # near lam = 0.25, unstable again at lam = 0.45. Growth rates this
        # close to the threshold are slow, hence the long horizon.
        return FigurePreset(
            name=name,
            runs=[
                FigureRun(f"lambda={lam:g}",
                          _gap_run(ModelKind.TWO_AGENT_REACTION, 0.85, lam, 340.0))
                for lam in (0.0, 0.04, 0.25, 0.45)
            ],
        )
    raise ValueError(f"unknown figure preset: {name!r}")
