"""Tests for campaign scheduling helpers and window constants."""

import pytest

from repro.core.campaign import (
    Campaign,
    SESSION2_END,
    SESSION2_START,
    THROUGHPUT_END,
    THROUGHPUT_START,
    quick_config,
)
from repro.exec import units
from repro.leo.events import CampaignTimeline
from repro.testing.digest import digest_value


def test_measurement_windows_are_ordered():
    assert 0 < THROUGHPUT_START < THROUGHPUT_END
    assert THROUGHPUT_END < SESSION2_START < SESSION2_END


def test_session2_starts_after_capacity_step():
    timeline = CampaignTimeline()
    assert SESSION2_START >= timeline.capacity_step_t


def test_epochs_are_seeded_and_in_window():
    campaign = Campaign(quick_config(seed=3))
    epochs = campaign._epochs(10, THROUGHPUT_START, THROUGHPUT_END,
                              "unit")
    assert len(epochs) == 10
    assert epochs == sorted(epochs)
    assert all(THROUGHPUT_START <= e <= THROUGHPUT_END
               for e in epochs)
    again = campaign._epochs(10, THROUGHPUT_START, THROUGHPUT_END,
                             "unit")
    assert epochs == again
    other = campaign._epochs(10, THROUGHPUT_START, THROUGHPUT_END,
                             "different-label")
    assert epochs != other


def test_shared_constellation_across_accesses():
    config = quick_config(seed=3)
    campaign = Campaign(config)
    a = units._starlink_access(config, THROUGHPUT_START, run_seed=1)
    b = units._starlink_access(config, THROUGHPUT_START + 100,
                               run_seed=2)
    assert a.path_model.constellation is b.path_model.constellation
    assert a.path_model.constellation is campaign.constellation


def test_context_memo_stays_at_its_bound():
    for seed in range(units.MAX_CONTEXTS + 3):
        Campaign(quick_config(seed=100 + seed))
    assert len(units._CONTEXTS) == units.MAX_CONTEXTS


def test_evicted_context_reproduces_unit_digest():
    config = quick_config(seed=3)
    campaign = Campaign(config)
    # The campaign runs on its process's context, not a second copy.
    assert units.context_for(config).path_model is campaign.path_model
    unit = campaign.ping_units()[0]
    before = digest_value(unit.run())
    for seed in range(units.MAX_CONTEXTS):
        Campaign(quick_config(seed=200 + seed))
    assert units.context_for(config).path_model \
        is not campaign.path_model
    assert digest_value(unit.run()) == before


def test_quick_config_is_small():
    config = quick_config()
    assert config.ping_days <= 10
    assert config.bulk_bytes <= 8_000_000
    assert config.web_sites <= 40
