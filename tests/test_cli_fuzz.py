"""Fuzz the command line: every subcommand, valid and invalid values.

No exception may escape ``cli.main`` but argparse's exit 2. ``run``, ``sweep``
and ``figure`` exit 0 or 2, ``validate-weights`` and ``check-theorems`` 0, 1
or 2 (their exit 1 is a verdict), and a nonzero exit prints one stderr line.
Valid draws stay small: a few steps, at most 3 cells per axis, and figure
names that do not exist, so no large run is ever requested.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nddc.cli import main

# Each flag draws from a few small valid values, or is left out; then up to
# two flags take a value from this pool instead: zero, negative, fractional,
# non-finite, huge and not a number, or one of the flag's own bad values.
# Argparse rejects the ones a flag's type cannot parse.
VALUES = ["0", "-1", "2.5", "inf", "nan", "1e308", "abc"]
BAD = {
    "--datum": ["constant:abc", "linear:1"],
    "--lambda-range": ["0:1:0", "0:1:2.5", "0:1", "a:1:3", "nan:1:2", "0:1e308:3"],
    "--tau-range": ["0:inf:2", "-1:0:2"],
}
# JSON values of the wrong type, and a key left out; keys that no reader reads.
MISSING = object()
BAD_JSON = [None, [1], "8", MISSING]
EXTRA_KEYS = ["derivative_mode", "seeed", "slope"]
GAP_CONFIG = {"model": "two-agent-transmission", "tau": 0.25, "t_end": 0.5,
              "steps_per_delay": 2, "datum": {"kind": "constant", "values": 1.0}}
WEIGHTS = {"kind": "random-row-stochastic", "n": 3, "seed": 1}
WEIGHT_NAMES = ["uniform", "random-row", "random-sym", "weights.json"]

RUN_FLAGS = {
    "--model": ["two-agent-transmission", "two-agent-reaction", "transmission", "reaction"],
    "--tau": ["0.25", "0"],
    "--lambda": ["1", "0"],
    "--steps-per-delay": ["2"],
    "--t-end": ["0.5"],
    "--n": ["3", "1"],
    "--d": ["2"],
    "--seed": ["3"],
    "--weights": WEIGHT_NAMES,
    "--min-off-diagonal": ["0.3"],
    "--datum": ["constant:2", "linear:0,1", "file:datum.json"],
}
# A config file's keys count where no flag overrides them.
CONFIG_RUN_FLAGS = {
    "--config": ["config.json"],
    "--lambda": ["1"],
    "--seed": ["3"],
}
SWEEP_FLAGS = {
    "--model": ["two-agent-reaction", "two-agent-transmission"],
    "--lambda-range": ["0:1:3"],
    "--tau-range": ["0:0.3:2", "0.1:0.3:3"],
    "--steps-per-delay": ["2"],
    "--t-end": ["0.5"],
}
WEIGHT_FLAGS = {
    "--weights": WEIGHT_NAMES,
    "--n": ["3", "1"],
    "--min-off-diagonal": ["0.3"],
    "--seed": ["3"],
}
THEOREM_FLAGS = {
    "--instances": ["1"],
    "--t-end": ["0.5"],
    "--seed": ["3"],
}
EXIT_CODES = {"run": {0, 2}, "sweep": {0, 2}, "figure": {0, 2},
              "validate-weights": {0, 1, 2}, "check-theorems": {0, 1, 2}}


def _argv(command: str, flags: dict, always=()):
    # Flags in ``always`` are never left out, though they may be garbled;
    # the others are left out more often than not.
    drawn = st.tuples(*[st.sampled_from(values if flag in always else [None, None, *values])
                        for flag, values in flags.items()])
    garbles = st.lists(st.sampled_from(list(flags)).flatmap(
        lambda flag: st.tuples(st.just(flag), st.sampled_from(VALUES + BAD.get(flag, [])))),
        max_size=2)

    def build(pair):
        chosen = dict(zip(flags, pair[0]))
        chosen.update(pair[1])
        return [command] + [item for flag, value in chosen.items() if value is not None
                            for item in (flag, value)]
    return st.tuples(drawn, garbles).map(build)


def _broken(payload: dict):
    # ``payload`` with one key set to a wrongly typed value or left out, or
    # with an extra key.
    return st.one_of(
        st.tuples(st.sampled_from(sorted(payload)), st.sampled_from(BAD_JSON)).map(
            lambda pair: {key: value for key, value in {**payload, pair[0]: pair[1]}.items()
                          if value is not MISSING}),
        st.sampled_from(EXTRA_KEYS).map(lambda key: {**payload, key: 1}))


# Horizons are always given, and the theorem suites' size: their defaults are
# the full-length runs.
ARGV = st.one_of(
    _argv("run", RUN_FLAGS, always=("--model", "--tau", "--t-end")),
    _argv("run", CONFIG_RUN_FLAGS, always=("--config",)),
    _argv("sweep", SWEEP_FLAGS, always=("--model", "--lambda-range", "--tau-range", "--t-end")),
    st.sampled_from(["fig5", "FIG1", "abc"]).map(lambda name: ["figure", name]),
    _argv("validate-weights", WEIGHT_FLAGS, always=("--weights",)),
    _argv("check-theorems", THEOREM_FLAGS, always=("--instances", "--t-end")),
)
FILES = st.fixed_dictionaries({
    "config.json": st.one_of(st.just(GAP_CONFIG), _broken(GAP_CONFIG), st.just([GAP_CONFIG])),
    "weights.json": st.one_of(st.just(WEIGHTS), _broken(WEIGHTS),
                              st.just({"matrix": [[0, 1], [1, None]]})),
    "datum.json": st.one_of(_broken({"kind": "constant", "values": [[1.0], [0.0], [2.0]]}),
                            st.just({"kind": "linear", "start": 0.0, "slope": "1"})),
})


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=150, derandomize=True, deadline=None)
@given(argv=ARGV, files=FILES)
def test_cli_exits_cleanly(argv, files):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, payload in files.items():
            (root / name).write_text(json.dumps(payload))
        # File names, the datum spec's included, point into the directory.
        argv = [str(root / a) if a in files else
                f"file:{root / a[5:]}" if a.startswith("file:") else a for a in argv]
        argv += ["--out", str(root / "out")] if argv[0] not in ("validate-weights",
                                                                 "check-theorems") else []
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage message, on several lines
                assert exc.code == 2
                return
    assert code in EXIT_CODES[argv[0]], (argv, stderr.getvalue())
    if code:
        assert len(stderr.getvalue().splitlines()) == 1, (argv, stderr.getvalue())
