"""The theorem-instance recipe, pinned: the same seed draws the same instance."""

import hashlib

import pytest

from nddc import harness

# SHA-256 of the repr of seeds 0-9 of each generator, as ``_record`` lists them
# (numpy 2.4.6). Any change to the draws, their order or the weight generators
# moves these digests.
INSTANCE_SHA256 = {
    "transmission_instance": "d7770b7eeed8046dc1c2e56a72acaafb58962d064370893eb188828fbd290284",
    "reaction_instance": "e629c9c3678766364cf5d2bea4f4740b28a98b1ea17d7d126532067bf4132aaa",
}


def _record(config):
    return (config.n, config.d, config.tau, config.lam, config.t_end, config.seed,
            config.weights.weights.tolist(), config.datum.values.tolist())


@pytest.mark.parametrize("name", sorted(INSTANCE_SHA256))
def test_instances_are_pinned(name):
    make = getattr(harness, name)
    text = repr([_record(make(seed)) for seed in range(10)])
    assert hashlib.sha256(text.encode()).hexdigest() == INSTANCE_SHA256[name]


def test_seed_zero_instances():
    assert _record(harness.transmission_instance(0))[:6] == (
        8, 2, 0.2888506996347092, 0.14185018069200198, 100.00552816415448, 0)
    assert _record(harness.reaction_instance(0))[:6] == (
        8, 2, 0.1444253498173546, 0.09803965314196716, 100.00101487197269, 0)
