"""The fig3 stability grid, pinned byte for byte through the grid writers."""

import hashlib

from nddc import io
from nddc.presets import figure_preset
from nddc.sweep import grid_sweep

# SHA-256 of fig3_grid.csv and fig3_grid.json as `nddc figure fig3` writes them
# (numpy 2.4.6). Any change to the kernel's arithmetic, its divergence guard or
# the classifier moves these digests.
FIG3_CSV_SHA256 = "35dbd304df237c6f6b35e9d70a0fc94ab4970de4682b094457de4f86d562c0e5"
FIG3_JSON_SHA256 = "b3ddfc36138b043cb634de5667cd6228fd4d1cafb2842f88f2518188dc70ab83"


def test_fig3_grid_bytes_are_pinned(tmp_path):
    job = figure_preset("fig3").sweep
    grid = grid_sweep(job.settings, job.lam_values, job.tau_values, workers=1)
    csv_path, json_path = tmp_path / "fig3_grid.csv", tmp_path / "fig3_grid.json"
    io.write_grid_csv(grid, csv_path)
    io.write_grid_json(grid, json_path)
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == FIG3_CSV_SHA256
    assert hashlib.sha256(json_path.read_bytes()).hexdigest() == FIG3_JSON_SHA256
