"""Command outputs pinned byte for byte: the trajectory figures, their manifests'
configs, and the stdout of check-theorems and validate-weights.

The digests were taken with numpy 2.4.6. A refactor that keeps every output
keeps them; a change to the kernel's arithmetic, a preset or a writer moves them.
"""

import hashlib
import json

import pytest

from nddc.cli import main
from nddc.io import read_manifest

#: SHA-256 of each CSV that `nddc figure NAME` writes.
FIGURE_CSV_SHA256 = {
    "fig1": {
        "fig1_lambda0.csv": "4b9457cc20b4e439a7a6e6fa0784415d78190362eb70873ec86d1d15449603d6",
        "fig1_lambda1.csv": "d2f9e9de095877c5fccb6e7abfc024953cb1fd647c9291d2ac21be02f05c303d",
        "fig1_lambda4.csv": "f4b17ed5e5d7a341425d182f53a77a5577d76032277e31e077fb334746cf415d",
        "fig1_lambda4.5.csv": "8859f4f8efb389f3263ec6ebb89fc23bed43ad5e87c314669176095eeca7d759",
    },
    "fig2": {
        "fig2_lambda0.csv": "d2f451128047f443dc6b2f575b345e01db63fa839a346a19e9befb497de8239e",
        "fig2_lambda0.2.csv": "a5f1e10447b90ef9305363ff90696c42287442bb2dd6d81728d9eef8a0f52075",
        "fig2_lambda0.6.csv": "29030eb00b818b19d891f2c4df9dafaf48de33ce14afac937511dbf778572853",
        "fig2_lambda1.csv": "6d84bce9059a369d2b417f07454f426e8959881a7410a8e8cf14cb2ae5f1850f",
    },
    "fig4": {
        "fig4_lambda0.csv": "38da3b2097cd6375a2be7683866ac59af4ec19dec3c1f6b0df67a3c1d4057d24",
        "fig4_lambda0.04.csv": "bf4b1db4bd0cc68f1ae1a1a56972f89273e62672dc11f676b681aa01021c60b4",
        "fig4_lambda0.25.csv": "e6c22e12ac67ffad41ad04dbcad624affa7c7d36a3f26897f73ea80b4fced88b",
        "fig4_lambda0.45.csv": "3b0e5666d4077fb3bd58109c727fd629e5d0f1a80a66bb4a99484d7a2dc78f04",
    },
}
#: SHA-256 of each figure manifest's "config" object, dumped with sorted keys.
FIGURE_CONFIG_SHA256 = {
    "fig1": "5dc177b2d222fa9fd8db730410b85b37e86e8a54986ee3398e132e5d1c62e9c1",
    "fig2": "0300918584cbcb0e584c70571b6b395a24e6a668bd94181e17458be8fdfedae1",
    "fig4": "2921f4d3678fc4d3cc79ba5b3d7e180a3c944876548362c3a2a08be673f425d6",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(FIGURE_CSV_SHA256))
def test_figure_outputs_are_pinned(tmp_path, capsys, name):
    assert main(["figure", name, "--out", str(tmp_path)]) == 0
    csvs = {path.name: _sha256(path.read_bytes()) for path in tmp_path.glob("*.csv")}
    assert csvs == FIGURE_CSV_SHA256[name]
    manifest = read_manifest(tmp_path / f"{name}_manifest.json")
    assert manifest.outputs == [tmp_path / csv for csv in FIGURE_CSV_SHA256[name]]
    config = json.dumps(manifest.config, sort_keys=True).encode()
    assert _sha256(config) == FIGURE_CONFIG_SHA256[name]


def test_check_theorems_stdout_is_pinned(capsys):
    # At t_end = 2.5 no instance has decayed by 1e3 yet, so every row fails.
    assert main(["check-theorems", "--instances", "2", "--t-end", "2.5"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "theorem         seed  N  d     tau   lambda      decay      drift  status",
        "transmission       0  8  2  0.2889   0.1419  6.361e-02  2.748e-02  FAIL",
        "transmission       1  5  2  0.7653   0.1884  3.817e-02  2.910e-02  FAIL",
        "reaction           0  8  2  0.1444   0.0980  8.757e-02  5.004e-16  FAIL",
        "reaction           1  5  2  0.3827   0.0404  1.568e-02  3.492e-16  FAIL",
    ]


def test_validate_weights_stdout_is_pinned(capsys):
    assert main(["validate-weights", "--weights", "uniform", "--n", "3"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "row_stochastic: True",
        "symmetric: True",
        "bi_stochastic: True",
        "positive_off_diagonal: True",
        "irreducible: True",
    ]
