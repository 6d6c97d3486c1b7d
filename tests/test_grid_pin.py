"""The fig3 stability grid, pinned byte for byte through the grid writers."""

import hashlib

from nddc import io
from nddc.presets import figure_preset
from nddc.sweep import grid_sweep

# SHA-256 of fig3_grid.csv and fig3_grid.json as `nddc figure fig3` writes them
# (numpy 2.4.6). Any change to the kernel's arithmetic, its divergence guard or
# the classifier moves these digests. The 40 cells that the horizon rules leave
# undecided are decided by their fitted decay rate, each on the side of the
# scheme's own spectral radius (see tests/test_models.py).
FIG3_CSV_SHA256 = "e5846fcdec194069aa927d83c5f13b4311b96a9c0ef081603e04b480e2ef1039"
FIG3_JSON_SHA256 = "ecbe1352aaa97ffe2e2c2f06202a2105a9e8209d9aba4315f89c30f2a7793572"


def test_fig3_grid_bytes_are_pinned(tmp_path):
    job = figure_preset("fig3").sweep
    grid = grid_sweep(job.settings, job.lam_values, job.tau_values, workers=1)
    csv_path, json_path = tmp_path / "fig3_grid.csv", tmp_path / "fig3_grid.json"
    io.write_grid_csv(grid, csv_path)
    io.write_grid_json(grid, json_path)
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == FIG3_CSV_SHA256
    assert hashlib.sha256(json_path.read_bytes()).hexdigest() == FIG3_JSON_SHA256
