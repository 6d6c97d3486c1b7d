"""Parameter presets replaying the reference two-agent experiments."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import ModelKind, SimConfig
from .sweep import SweepSettings, cell_config

#: Steps per delay used by all figure runs.
FIGURE_STEPS_PER_DELAY = 64

#: The trajectory figures: model, tau, horizon and the lambda of each run; each
#: batch carries the lambda = 0 baseline. Horizons are multiples of the delay,
#: long enough for the default classifier thresholds to resolve the slow growth
#: and decay rates near the stability boundaries.
FIGURE_RUNS = {
    # Transmission gap, tau = 0.25: monotone decay, slower decay, neutral
    # oscillation at lam*tau = 1, divergence beyond it.
    "fig1": (ModelKind.TWO_AGENT_TRANSMISSION, 0.25, 25.0, (0.0, 1.0, 4.0, 4.5)),
    # Transmission gap, tau = 1.25: oscillatory decay; small anticipation
    # damps the oscillation, lam = 1 crosses the boundary.
    "fig2": (ModelKind.TWO_AGENT_TRANSMISSION, 1.25, 50.0, (0.0, 0.2, 0.6, 1.0)),
    # Reaction gap, tau = 0.85: unstable without anticipation, stabilized
    # near lam = 0.25, unstable again at lam = 0.45. Growth rates this close
    # to the threshold are slow, hence the long horizon.
    "fig4": (ModelKind.TWO_AGENT_REACTION, 0.85, 340.0, (0.0, 0.04, 0.25, 0.45)),
}
#: Every preset name: the trajectory figures and fig3, the reaction-gap sweep.
FIGURE_NAMES = tuple(sorted([*FIGURE_RUNS, "fig3"]))


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


def figure_preset(name: str) -> FigurePreset:
    """The reference experiment ``name``, one of FIGURE_NAMES."""
    if name == "fig3":
        return FigurePreset(name=name, sweep=SweepJob(
            settings=SweepSettings(model=ModelKind.TWO_AGENT_REACTION),
            lam_values=np.linspace(0.0, 3.0, 31),
            tau_values=np.linspace(0.0, 1.0, 21),
        ))
    if name not in FIGURE_RUNS:
        raise ValueError(f"unknown figure preset: {name!r}")
    model, tau, t_end, lams = FIGURE_RUNS[name]
    settings = SweepSettings(model, FIGURE_STEPS_PER_DELAY, t_end)
    return FigurePreset(name=name, runs=[FigureRun(f"lambda={lam:g}",
                                                   cell_config(settings, lam, tau))
                                         for lam in lams])
