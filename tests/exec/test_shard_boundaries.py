"""Shard-boundary regression tests: pin the RNG derivations.

The atoms contract only reproduces serial bytes because each atom
draws from a seed derived from the *unit's* seed tuple plus the atom
index — never from a stream threaded across atoms. These tests pin
those derivations explicitly (so a refactor that quietly re-threads an
RNG across a boundary fails here, not in a distant digest mismatch)
and check stream continuity: ``run_atoms(a, b) + run_atoms(b, c)``
must equal ``run_atoms(a, c)`` for every cut point.
"""

from dataclasses import replace

import pytest

import repro.exec.units as units_mod
from repro.core.anchors import Anchor
from repro.core.campaign import Campaign, CampaignConfig
from repro.rng import make_rng, stable_seed
from repro.testing.digest import digest_value
from repro.units import minutes


def small_config(seed: int = 0) -> CampaignConfig:
    return CampaignConfig(
        seed=seed,
        ping_days=1.0, ping_interval_s=minutes(120),
        ping_shard_rounds=3,
        speedtest_epochs=1, speedtest_measure_s=0.5,
        speedtest_warmup_s=0.5, satcom_warmup_s=2.0,
        speedtest_connections=3,
        bulk_per_direction=1, bulk_bytes=900_000,
        bulk_segment_bytes=400_000,
        messages_per_direction=1, messages_duration_s=1.5,
        web_sites=4, web_visits_per_site=1)


# -- derivation pins --------------------------------------------------------


def test_ping_chunk_rng_is_seeded_by_unit_tuple_plus_chunk(monkeypatch):
    unit = Campaign(small_config(seed=7)).ping_units()[0]
    seen = []
    real = units_mod.make_rng

    def spy(key):
        seen.append(key)
        return real(key)

    monkeypatch.setattr(units_mod, "make_rng", spy)
    unit.run_atoms(2, 4)
    chunk_keys = [k for k in seen if "ping-campaign" in k]
    assert chunk_keys == [
        (7, "ping-campaign", unit.anchor_name, "chunk", 2),
        (7, "ping-campaign", unit.anchor_name, "chunk", 3),
    ]


def test_speedtest_connection_seed_and_fair_share(monkeypatch):
    campaign = Campaign(small_config(seed=1))
    unit = next(u for u in campaign.speedtest_units()
                if u.network == "starlink")
    calls = []
    real = units_mod._starlink_access

    def spy(config, epoch, run_seed, capacity_share=1.0):
        calls.append((run_seed, capacity_share))
        return real(config, epoch, run_seed,
                    capacity_share=capacity_share)

    monkeypatch.setattr(units_mod, "_starlink_access", spy)
    unit.run_atoms(1, 3)
    assert calls == [
        (stable_seed(unit.run_seed, "st-conn", 1), pytest.approx(1 / 3)),
        (stable_seed(unit.run_seed, "st-conn", 2), pytest.approx(1 / 3)),
    ]


def test_satcom_connection_seed_and_fair_share(monkeypatch):
    campaign = Campaign(small_config(seed=1))
    unit = next(u for u in campaign.speedtest_units()
                if u.network == "satcom")
    built = []
    real = units_mod.GeoSatComAccess

    class Spy(real):
        def __init__(self, *, seed, epoch_t, capacity_share=1.0):
            built.append((seed, capacity_share))
            super().__init__(seed=seed, epoch_t=epoch_t,
                             capacity_share=capacity_share)

    monkeypatch.setattr(units_mod, "GeoSatComAccess", Spy)
    unit.run_atoms(0, 2)
    assert built == [
        (stable_seed(unit.run_seed, "st-conn", 0), pytest.approx(1 / 3)),
        (stable_seed(unit.run_seed, "st-conn", 1), pytest.approx(1 / 3)),
    ]


def test_bulk_segment_seed_derivation(monkeypatch):
    unit = Campaign(small_config(seed=2)).bulk_units()[0]
    calls = []
    real = units_mod._starlink_access

    def spy(config, epoch, run_seed, capacity_share=1.0):
        calls.append(run_seed)
        return real(config, epoch, run_seed,
                    capacity_share=capacity_share)

    monkeypatch.setattr(units_mod, "_starlink_access", spy)
    unit.run_atoms(0, unit.n_atoms())
    assert calls == [stable_seed(unit.run_seed, "bulk-seg", seg)
                     for seg in range(unit.n_atoms())]


def test_bulk_segment_sizes_cover_payload_exactly():
    unit = Campaign(small_config(seed=2)).bulk_units()[0]
    sizes = unit._segment_sizes()
    assert len(sizes) == unit.n_atoms() == 3
    assert sizes == [400_000, 400_000, 100_000]
    assert sum(sizes) == unit.config.bulk_bytes


def test_ping_chunk_stream_is_independent_of_call_order():
    """Chunk k's draws depend only on its own seed tuple, not on which
    chunks ran before it in the same process."""
    unit = Campaign(small_config(seed=3)).ping_units()[0]
    alone = unit.run_atoms(3, 4)
    after_others = unit.run_atoms(0, unit.n_atoms())[3:4]
    assert digest_value(alone) == digest_value(after_others)
    assert make_rng((3, "ping-campaign", unit.anchor_name, "chunk", 3)
                    ).random() \
        != make_rng((3, "ping-campaign", unit.anchor_name, "chunk", 2)
                    ).random()


def test_ping_chunk_computes_each_pop_remote_rtt_once(monkeypatch):
    """A chunk keeps each PoP's fibre RTT to its anchor for the rest
    of the chunk: one great-circle computation per PoP, not per
    round."""
    config = replace(small_config(seed=5), ping_shard_rounds=12)
    unit = Campaign(config).ping_units()[0]
    pops = []
    real = Anchor.remote_rtt_from

    def spy(anchor, pop):
        pops.append(pop)
        return real(anchor, pop)

    monkeypatch.setattr(Anchor, "remote_rtt_from", spy)
    (payload,) = unit.run_atoms(0, 1)
    assert unit.n_atoms() == 1
    assert pops and len(pops) == len(set(pops))
    assert len(payload[0]) == 12 * config.pings_per_round


# -- stream continuity across every cut point --------------------------------


def _continuity_unit_cases():
    campaign = Campaign(small_config(seed=5))
    starlink = [u for u in campaign.speedtest_units()
                if u.network == "starlink"]
    return [
        pytest.param(campaign.ping_units()[0], id="ping"),
        pytest.param(starlink[0], id="speedtest"),
        pytest.param(campaign.bulk_units()[0], id="bulk"),
        pytest.param(campaign.web_units()[0], id="web"),
    ]


@pytest.mark.parametrize("unit", _continuity_unit_cases())
def test_atoms_concatenate_across_every_cut_point(unit):
    n = unit.n_atoms()
    assert n >= 2, "test needs a splittable unit"
    whole = unit.run_atoms(0, n)
    for cut in range(1, n):
        parts = unit.run_atoms(0, cut) + unit.run_atoms(cut, n)
        assert digest_value(parts) == digest_value(whole), \
            f"cut at atom {cut} changed the payload bytes"
    folded = unit.finalize(unit.merge_partial(unit.init_partial(), whole))
    assert digest_value(folded) == digest_value(unit.run())
