"""Golden bytes of the four CSV writers.

Each writer is fed a fixed input whose values include NaN, +-inf, -0.0, the
smallest subnormal, 1e308 and 1/3, and the SHA-256 of the file it writes is
pinned. The hashes were taken from the per-value writers (``format(x,
".17g")`` through ``csv.writer``), so any change to a digit, a separator, a
quote or a line end fails here.
"""

import csv
import dataclasses
import hashlib
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nddc import presets
from nddc.cli import main
from nddc.core import (
    Classification,
    ClassificationEvidence,
    ConstantDatum,
    ModelKind,
    SimConfig,
    Trajectory,
)
from nddc.diagnostics import IJReport, LyapunovSeries
from nddc.integrator import run
from nddc.io import (
    TimeColumn,
    _is_gap,
    write_grid_csv,
    write_ij_csv,
    write_lyapunov_csv,
    write_trajectory_csv,
)
from nddc.sweep import StabilityGrid
from nddc.weights import make_uniform

NAN, INF = float("nan"), float("inf")
THIRD = 1.0 / 3.0
TINY = 5e-324


def _trajectory() -> Trajectory:
    config = SimConfig(model=ModelKind.TRANSMISSION, tau=0.25, lam=1.0,
                       datum=ConstantDatum(np.zeros((3, 2))), n=3, d=2,
                       steps_per_delay=2, t_end=0.375, weights=make_uniform(3))
    times = np.array([0.0, 0.125, 0.25, 0.375])
    states = np.array([
        [[0.0, -0.0], [1.0, THIRD], [-THIRD, 2.0 / 3.0]],
        [[TINY, -TINY], [1e308, -1e308], [0.1, 1e-17]],
        [[NAN, 1.0], [INF, -INF], [123456789.0, 1e22]],
        [[-0.0, 0.5], [2.0 ** -1074, 1.7976931348623157e308], [1e-5, 12345.678]],
    ])
    return Trajectory(
        config=config,
        times=times,
        states=states,
        derivatives=np.zeros_like(states),
        diameters=np.array([1.4142135623730951, INF, NAN, 0.0]),
        argmax_pairs=np.array([[1, 2], [2, 3], [1, 3], [1, 2]]),
        means=np.array([[THIRD, -0.0], [NAN, INF], [-INF, 1e308], [TINY, 0.1]]),
        classification=Classification.INCONCLUSIVE,
        evidence=ClassificationEvidence(initial_dx=1.0, final_dx=0.0,
                                        trailing_peak=0.0, trailing_ratio=0.0),
    )


def _grid() -> StabilityGrid:
    return StabilityGrid(
        lam_values=np.array([0.0, THIRD, 3.0]),
        tau_values=np.array([0.0, 0.1]),
        raster=np.array([["converged", "inconclusive", "diverged"],
                         ["converged", "diverged", "diverged"]], dtype=object),
        final_dx=np.array([[-0.0, 1e-300, INF], [TINY, 1e308, NAN]]),
        trailing_ratio=np.array([[NAN, 0.5, 1.0000000000000002], [0.0, -INF, THIRD]]),
        boundary=np.array([NAN, 0.05, NAN]),
    )


def _lyapunov() -> LyapunovSeries:
    return LyapunovSeries(
        times=np.array([0.0, 0.125, 0.25, 0.375]),
        values=np.array([1.0, THIRD, -0.0, TINY]),
        decrements=np.array([-2.0 / 3.0, NAN, 1e308]),
        bounds=np.array([0.0, -INF, INF]),
        tolerance=1e-12,
        violations=1,
        worst_margin=1e308,
    )


def _ij_report() -> IJReport:
    return IJReport(pairs=np.array([[1, 2], [2, 3], [2, 3], [1, 3]]),
                    final_pair=(1, 3), stabilization_time=None,
                    last_change_time=0.375)


GOLDEN = {
    "trajectory": (lambda path: write_trajectory_csv(_trajectory(), path),
                   "667f44442ab8069ac23991d79156115f154f994ba97f26769a4e3219dcb6ff28"),
    "grid": (lambda path: write_grid_csv(_grid(), path),
             "72128f5a077adaebe55cbdb6a40760b82b8d2c197b49691b0bd1e08ba9bb88ed"),
    "lyapunov": (lambda path: write_lyapunov_csv(_lyapunov(), path),
                 "bba176611624ec19d4f922bfa55f8f8675898cab355ced1fb904eb99d30c34d7"),
    "ij": (lambda path: write_ij_csv(_ij_report(), _trajectory(), path),
           "ed13bd1e53c178e2572a3fce0e4a4616c974f06df2a8f3f90c524988237dcea0"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_writer_bytes_are_pinned(name, tmp_path):
    write, expected = GOLDEN[name]
    path = tmp_path / f"{name}.csv"
    write(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == expected


def test_lyapunov_first_row_has_empty_unquoted_fields(tmp_path):
    path = tmp_path / "lyap.csv"
    write_lyapunov_csv(_lyapunov(), path)
    lines = path.read_bytes().split(b"\r\n")
    assert lines[0] == b"time,value,decrement,bound"
    assert lines[1] == b"0,1,,"
    assert lines[2] == b"0.125,0.33333333333333331,-0.66666666666666663,0"
    assert lines[-1] == b""


def _reference_trajectory_csv(traj, path) -> None:
    """The per-value writer the pinned hashes came from: format() through csv.writer."""
    n, d = traj.states.shape[1:]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time"] + [f"x_{i + 1}_{k + 1}" for i in range(n) for k in range(d)]
                        + ["d_x"] + [f"X_{k + 1}" for k in range(d)]
                        + ["argmax_i", "argmax_j"])
        for row in range(len(traj.times)):
            record = [format(float(v), ".17g") for v in
                      [traj.times[row], *traj.states[row].ravel(), traj.diameters[row],
                       *traj.means[row]]]
            record += [str(int(v)) for v in traj.argmax_pairs[row]]
            writer.writerow(record)


@st.composite
def _trajectories(draw):
    rows, n, d = draw(st.integers(1, 6)), draw(st.integers(2, 4)), draw(st.integers(1, 3))

    def block(*shape):
        count = int(np.prod(shape))
        values = draw(st.lists(st.floats(width=64), min_size=count, max_size=count))
        return np.array(values, dtype=float).reshape(shape)

    pairs = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)),
                          min_size=rows, max_size=rows))
    return dataclasses.replace(_trajectory(), times=block(rows), states=block(rows, n, d),
                               diameters=block(rows), means=block(rows, d),
                               argmax_pairs=np.array(pairs))


@given(_trajectories())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_trajectory_matches_per_value_writer(traj):
    with tempfile.TemporaryDirectory() as tmp:
        ours, reference = Path(tmp) / "ours.csv", Path(tmp) / "reference.csv"
        write_trajectory_csv(traj, ours)
        _reference_trajectory_csv(traj, reference)
        assert ours.read_bytes() == reference.read_bytes()


# Values a gap run's x can take, signed zeros, infinities, NaN of either sign
# and subnormals included.
_SPECIAL = [0.0, INF, NAN, TINY, 2.2250738585072014e-308, 1e308, THIRD, 1.5]


def _doubles():
    return st.one_of(st.floats(width=64), st.sampled_from(_SPECIAL)).flatmap(
        lambda v: st.sampled_from([v, float(np.copysign(v, -1.0))]))


def _column(rows):
    return st.lists(_doubles(), min_size=rows, max_size=rows).map(
        lambda values: np.array(values, dtype=float).reshape(rows))


@st.composite
def _gap_trajectories(draw):
    """N = d = 1: X_1 and d_x each either x and |x| (as runs build them) or drawn."""
    rows = draw(st.integers(1, 8))
    x = draw(_column(rows))
    derived_means, derived_diameters = draw(st.booleans()), draw(st.booleans())
    means = x.copy() if derived_means else draw(_column(rows))
    diameters = np.abs(x) if derived_diameters else draw(_column(rows))
    fixed_pairs = draw(st.booleans())
    pairs = (np.tile([1, 2], (rows, 1)) if fixed_pairs else
             np.array(draw(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)),
                                    min_size=rows, max_size=rows))))
    traj = dataclasses.replace(_trajectory(), times=draw(_column(rows)),
                               states=x[:, None, None], diameters=diameters,
                               means=means[:, None], argmax_pairs=pairs)
    return traj, derived_means and derived_diameters and fixed_pairs


@given(_gap_trajectories())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_gap_trajectory_matches_per_value_writer(case):
    traj, derived = case
    assert _is_gap(traj) or not derived
    with tempfile.TemporaryDirectory() as tmp:
        ours, reference = Path(tmp) / "ours.csv", Path(tmp) / "reference.csv"
        write_trajectory_csv(traj, ours)
        _reference_trajectory_csv(traj, reference)
        assert ours.read_bytes() == reference.read_bytes()


@st.composite
def _time_sequences(draw):
    """Times fed one after another: prefixes, extensions and unrelated arrays.

    A "zero signs" array flips the sign of each zero, which compares equal
    as a float but must not reuse the strings.
    """
    held = draw(st.lists(_doubles(), max_size=8))
    sequence = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["shorter", "longer", "unrelated", "zero signs"]))
        if kind == "shorter":
            sequence.append(held[: draw(st.integers(0, len(held)))])
            continue
        if kind == "zero signs":
            held = [-v if v == 0 else v for v in held]
        else:
            fresh = draw(st.lists(_doubles(), min_size=1, max_size=8))
            held = held + fresh if kind == "longer" else fresh
        sequence.append(held)
    return [np.array(times, dtype=float) for times in sequence]


def _trajectory_at(times, gap: bool) -> Trajectory:
    rows = len(times)
    if gap:
        x = np.linspace(-1.0, 1.0, rows)
        return dataclasses.replace(_trajectory(), times=times, states=x[:, None, None],
                                   diameters=np.abs(x), means=x[:, None],
                                   argmax_pairs=np.tile([1, 2], (rows, 1)))
    states = np.arange(rows * 4, dtype=float).reshape(rows, 2, 2) / 3.0
    return dataclasses.replace(_trajectory(), times=times, states=states,
                               diameters=np.full(rows, 0.5), means=states.mean(axis=1),
                               argmax_pairs=np.tile([1, 2], (rows, 1)))


@given(_time_sequences(), st.lists(st.booleans(), min_size=6, max_size=6))
@settings(max_examples=120, deadline=None, derandomize=True)
def test_shared_time_column_matches_standalone_writes(sequence, gaps):
    column = TimeColumn()
    with tempfile.TemporaryDirectory() as tmp:
        shared, alone = Path(tmp) / "shared.csv", Path(tmp) / "alone.csv"
        for times, gap in zip(sequence, gaps):
            traj = _trajectory_at(times, gap)
            write_trajectory_csv(traj, shared, times=column)
            _reference_trajectory_csv(traj, alone)
            assert shared.read_bytes() == alone.read_bytes()
            report = dataclasses.replace(_ij_report(),
                                         pairs=traj.argmax_pairs[: max(len(times) - 1, 0)])
            write_ij_csv(report, traj, shared, times=column)
            write_ij_csv(report, traj, alone)
            assert shared.read_bytes() == alone.read_bytes()


def test_figure_with_aborted_runs_matches_per_value_writer(tmp_path):
    # fig4's lambda = 0 and 0.45 runs abort early, so their shared times are
    # prefixes of the finished runs'.
    out = tmp_path / "out"
    assert main(["figure", "fig4", "--out", str(out)]) == 0
    lengths = set()
    for item in presets.figure_preset("fig4").runs:
        traj = run(item.config)
        lengths.add(len(traj.times))
        reference = tmp_path / "reference.csv"
        _reference_trajectory_csv(traj, reference)
        written = out / f"fig4_{item.label.replace('=', '')}.csv"
        assert written.read_bytes() == reference.read_bytes()
    assert len(lengths) == 3
