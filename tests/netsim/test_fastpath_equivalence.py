"""Per-layer digest equivalence for the simulation fast path.

The fast path's contract is *bit-identical* output: no optional layer
(packet-train link batching with inline fast dispatch, lazy heap
compaction, the LEO per-slot delay cache) may change a single
timestamp or byte of any result. No layer has a switch; each is
compared with a reference path the tests build without one:

* trains and fast dispatch against the per-packet path, which every
  pipe takes while :func:`repro.testing.invariants.global_checking`
  watches it -- on a hook-free bottleneck workload where the fast
  path demonstrably engages (asserted via the event count, which it
  *should* change -- timestamps, never), and on a miniature full
  campaign (the pipeline behind the benchmark's pinned digests);
* the LEO delay cache against a fresh path model per query, across
  slot boundaries and an outage injection;
* heap compaction against an analytic oracle, in
  ``test_engine_fastpath.py``.
"""

import pytest

from repro.core.campaign import Campaign, CampaignConfig
from repro.leo.access import StarlinkPathModel
from repro.leo.constellation import Constellation
from repro.netsim.packet import Packet, Protocol
from repro.netsim.queues import DropTailQueue
from repro.netsim.topology import Network
from repro.testing.digest import digest_dataset
from repro.testing.invariants import global_checking
from repro.units import minutes


# -- link trains + inline fast dispatch -------------------------------------


def _burst_run(queue_capacity, sizes=None, rate=2.1e6,
               burst_gap=0.00213):
    """Bursty one-bottleneck workload with no pipe hooks attached.

    Hook-free pipes with plain drop-tail queues are exactly what the
    train/fast-dispatch layer accelerates, so this is the workload
    where it executes fewer events than the per-packet path.
    The default sizes, rate and burst spacing are deliberately
    irregular so no cumulative serialisation sum lands float-exactly
    on a send time (exact-tie collisions on bounded queues are the
    fast path's documented caveat, pinned separately below).
    Returns the delivery log (time, marker, size) and the event count.
    """
    if sizes is None:
        sizes = [181 + (i * 131) % 1173 for i in range(90)]
    net = Network()
    net.add_host("a")
    net.add_host("b")
    net.connect("a", "b", rate_ab=rate, rate_ba=rate, delay=0.01,
                queue_ab=DropTailQueue(capacity_packets=queue_capacity),
                queue_ba=DropTailQueue(capacity_packets=queue_capacity))
    net.finalize()
    a, b = net.nodes["a"], net.nodes["b"]
    log = []
    b.bind(Protocol.UDP, 7,
           lambda packet: log.append((net.sim.now,
                                      packet.headers["n"],
                                      packet.size)))
    for i, size in enumerate(sizes):
        packet = Packet(src=a.address, dst=b.address,
                        protocol=Protocol.UDP, size=size,
                        src_port=5000, dst_port=7,
                        created_at=0.0, headers={"n": i})
        # Bursts of ten back-to-back sends queue behind the
        # serialiser, so both the idle fast-dispatch path and the
        # multi-packet train path get exercised.
        net.sim.at(burst_gap * (i // 10), a.send, packet)
    net.sim.run_until_idle()
    return log, net.sim.events_processed


# no_global_invariants, here and below: the reference run watches
# every pipe itself, which keeps it on the per-packet path, and the
# fast run must stay unwatched for the train path to engage. Under
# REPRO_INVARIANTS=1 the suite-wide checker would watch both runs.
@pytest.mark.no_global_invariants
@pytest.mark.parametrize("capacity", [None, 4, 16])
def test_trains_layer_is_digest_transparent(capacity):
    with global_checking():
        slow_log, slow_events = _burst_run(capacity)
    fast_log, fast_events = _burst_run(capacity)
    assert fast_log == slow_log
    # The layer must change bookkeeping, never results: fewer events
    # proves the fast path actually engaged rather than passing
    # vacuously.
    assert fast_events < slow_events


@pytest.mark.no_global_invariants
def test_exact_tie_on_bounded_queue_is_the_documented_caveat():
    """Pin the boundary of the fast-path contract (see link.py).

    With decimal-aligned sizes and rate, a cumulative serialisation
    finish lands float-exactly on a send time (here ``2500 bytes *
    8 / 2e6 == 0.01`` meets the burst at ``0.002 * 5``); the
    per-packet path then breaks the pop-vs-push tie by event seq,
    which the collapsed path cannot reproduce, so *which* packet
    takes the last queue slot may differ. Conservation and counts
    must still hold. This test exists so that any change to the
    documented caveat is a conscious one.
    """
    sizes = [200 + (i % 7) * 150 for i in range(90)]
    fast_log, _ = _burst_run(16, sizes=sizes, rate=2e6, burst_gap=0.002)
    with global_checking():
        slow_log, _ = _burst_run(16, sizes=sizes, rate=2e6,
                                 burst_gap=0.002)
    # Same number of deliveries either way -- one slot, one packet.
    assert len(fast_log) == len(slow_log)
    # Every delivered marker was actually sent, no duplicates.
    for log in (fast_log, slow_log):
        markers = [n for _, n, _ in log]
        assert len(set(markers)) == len(markers)
        assert set(markers) <= set(range(90))


# -- LEO per-slot delay cache -----------------------------------------------

#: 0.5 s apart for 20 s: the walk fills, hits and leaves one 15 s slot.
LEO_QUERY_TIMES = [0.5 * i for i in range(40)]


def test_leo_cache_layer_is_digest_transparent():
    """One model walked across slot boundaries and an outage injection
    (which bumps ``scheduler.version``) answers every query exactly as
    a fresh, cache-empty model built for that query."""
    constellation = Constellation()

    def fresh(outages, t):
        model = StarlinkPathModel(constellation=constellation, seed=3)
        for outage in outages:
            model.scheduler.add_outage(*outage)
        return model.base_one_way(t)

    walked = StarlinkPathModel(constellation=constellation, seed=3)
    scheduler = walked.scheduler
    before = [walked.base_one_way(t) for t in LEO_QUERY_TIMES]
    # Take the satellite serving the first slot out over the window.
    outage = (scheduler.snapshot(0.0).sat_index, 0,
              scheduler.slot_of(LEO_QUERY_TIMES[-1]) + 1)
    scheduler.add_outage(*outage)
    after = [walked.base_one_way(t) for t in LEO_QUERY_TIMES]
    assert after != before       # the outage re-routed cached slots
    for t, value in zip(LEO_QUERY_TIMES, before):
        assert value == fresh([], t)
    for t, value in zip(LEO_QUERY_TIMES, after):
        assert value == fresh([outage], t)


# -- the full campaign pipeline, miniature ----------------------------------


def _mini_campaign_digest() -> str:
    config = CampaignConfig(
        seed=0,
        ping_days=0.5, ping_interval_s=minutes(240),
        speedtest_epochs=1, speedtest_measure_s=0.5,
        speedtest_warmup_s=0.5, satcom_warmup_s=1.0,
        bulk_per_direction=1, bulk_bytes=300_000,
        messages_per_direction=1, messages_duration_s=1.0,
        web_sites=3, web_visits_per_site=1)
    return digest_dataset(Campaign(config).run_all())


@pytest.mark.no_global_invariants
def test_campaign_digest_matches_per_packet_reference():
    """The dataset pipeline behind the benchmark's pinned digests must
    digest identically when every pipe takes the per-packet path."""
    with global_checking():
        reference = _mini_campaign_digest()
    assert _mini_campaign_digest() == reference
