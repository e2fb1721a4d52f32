"""Tests for disruption windows and schedules."""

import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.disrupt.schedule import (
    CAPACITY_FLOOR,
    CLEAR_SKY,
    FADE_LOSS_COEFF,
    SURGE_CAPACITY_COEFF,
    WINDOW_KINDS,
    DisruptionSchedule,
    DisruptionWindow,
)
from repro.errors import DisruptionError, ReproError
from repro.netsim.loss import OutageSchedule


# -- window validation --------------------------------------------------

def test_unknown_kind_rejected():
    with pytest.raises(DisruptionError, match="unknown disruption kind"):
        DisruptionWindow("hailstorm", 0.0, 1.0)


def test_empty_or_inverted_window_rejected():
    with pytest.raises(DisruptionError, match="empty or inverted"):
        DisruptionWindow("fade", 5.0, 5.0)
    with pytest.raises(DisruptionError, match="empty or inverted"):
        DisruptionWindow("fade", 5.0, 4.0)


def test_severity_bounds():
    with pytest.raises(DisruptionError, match="severity"):
        DisruptionWindow("fade", 0.0, 1.0, severity=0.0)
    with pytest.raises(DisruptionError, match="severity"):
        DisruptionWindow("fade", 0.0, 1.0, severity=1.5)
    # Endpoint 1.0 is valid.
    DisruptionWindow("fade", 0.0, 1.0, severity=1.0)


def test_gateway_out_needs_target():
    with pytest.raises(DisruptionError, match="gateway name"):
        DisruptionWindow("gateway_out", 0.0, 1.0)


def test_blackout_target_restricted():
    with pytest.raises(DisruptionError, match="blackout target"):
        DisruptionWindow("blackout", 0.0, 1.0, target="gw-aerzen-de")
    DisruptionWindow("blackout", 0.0, 1.0, target="route")
    DisruptionWindow("blackout", 0.0, 1.0)


def test_disruption_error_is_repro_error():
    with pytest.raises(ReproError):
        DisruptionWindow("nope", 0.0, 1.0)


def test_window_active_is_half_open():
    w = DisruptionWindow("fade", 2.0, 4.0, severity=0.5)
    assert not w.active(1.9)
    assert w.active(2.0)
    assert w.active(3.9)
    assert not w.active(4.0)
    assert w.duration_s == pytest.approx(2.0)


# -- schedule queries ---------------------------------------------------

def test_capacity_factor_fade_and_surge():
    sched = DisruptionSchedule("s", (
        DisruptionWindow("fade", 0.0, 10.0, severity=0.5),
        DisruptionWindow("surge", 5.0, 15.0, severity=1.0),
    ))
    assert sched.capacity_factor(2.0) == pytest.approx(0.5)
    # Overlap multiplies: 0.5 * (1 - 0.6).
    assert sched.capacity_factor(7.0) == pytest.approx(
        0.5 * (1.0 - SURGE_CAPACITY_COEFF))
    assert sched.capacity_factor(12.0) == pytest.approx(
        1.0 - SURGE_CAPACITY_COEFF)
    assert sched.capacity_factor(20.0) == 1.0


def test_capacity_factor_floored():
    sched = DisruptionSchedule("s", (
        DisruptionWindow("fade", 0.0, 10.0, severity=1.0),
        DisruptionWindow("fade", 0.0, 10.0, severity=1.0),
    ))
    assert sched.capacity_factor(1.0) == pytest.approx(CAPACITY_FLOOR)


def test_extra_loss_prob():
    sched = DisruptionSchedule("s", (
        DisruptionWindow("fade", 0.0, 10.0, severity=0.5),))
    assert sched.extra_loss_prob(1.0) == pytest.approx(
        FADE_LOSS_COEFF * 0.5)
    assert sched.extra_loss_prob(11.0) == 0.0


def test_overlapping_fades_compose_loss():
    sched = DisruptionSchedule("s", (
        DisruptionWindow("fade", 0.0, 10.0, severity=1.0),
        DisruptionWindow("fade", 0.0, 10.0, severity=1.0),
    ))
    # 1 - (1 - 0.3)^2, never above 1.
    assert sched.extra_loss_prob(1.0) == pytest.approx(
        1.0 - (1.0 - FADE_LOSS_COEFF) ** 2)


def test_blackout_at_covers_link_and_route():
    sched = DisruptionSchedule("s", (
        DisruptionWindow("blackout", 0.0, 5.0),
        DisruptionWindow("blackout", 10.0, 15.0, target="route"),
    ))
    assert sched.blackout_at(1.0)
    assert sched.blackout_at(12.0)
    assert not sched.blackout_at(7.0)


def test_window_extraction_for_installers():
    sched = DisruptionSchedule("s", (
        DisruptionWindow("blackout", 0.0, 5.0),
        DisruptionWindow("blackout", 10.0, 15.0, target="route"),
        DisruptionWindow("gateway_out", 20.0, 30.0,
                         target="gw-aerzen-de"),
        DisruptionWindow("fade", 0.0, 1.0, severity=0.2),
    ))
    assert sched.link_blackouts() == [(0.0, 5.0)]
    assert sched.route_blackouts() == [(10.0, 15.0)]
    assert sched.gateway_outages() == [("gw-aerzen-de", 20.0, 30.0)]
    assert sched.has_capacity_effects()
    assert sched.has_fades()


def test_shifted_translates_windows():
    sched = DisruptionSchedule("s", (
        DisruptionWindow("blackout", 1.0, 2.0),))
    moved = sched.shifted(100.0)
    assert moved.windows[0].start_t == pytest.approx(101.0)
    assert moved.windows[0].end_t == pytest.approx(102.0)
    # Empty schedules and zero shifts return the same object.
    assert CLEAR_SKY.shifted(50.0) is CLEAR_SKY
    assert sched.shifted(0.0) is sched


def test_overlapping_query():
    w = DisruptionWindow("fade", 5.0, 10.0, severity=0.3)
    sched = DisruptionSchedule("s", (w,))
    assert sched.overlapping(0.0, 6.0) == [w]
    assert sched.overlapping(9.0, 20.0) == [w]
    assert sched.overlapping(10.0, 20.0) == []


def test_clear_sky_is_empty_and_inert():
    assert CLEAR_SKY.is_empty
    assert CLEAR_SKY.capacity_factor(0.0) == 1.0
    assert CLEAR_SKY.extra_loss_prob(0.0) == 0.0
    assert not CLEAR_SKY.blackout_at(0.0)


def test_schedule_accepts_list_windows():
    sched = DisruptionSchedule(
        "s", [DisruptionWindow("fade", 0.0, 1.0, severity=0.1)])
    assert isinstance(sched.windows, tuple)


def test_schedule_index_is_not_part_of_its_value():
    windows = (DisruptionWindow("fade", 0.0, 10.0, severity=0.5),
               DisruptionWindow("blackout", 2.0, 3.0))
    sched = DisruptionSchedule("s", windows)
    assert sched.blackout_at(2.5)          # builds the index
    twin = DisruptionSchedule("s", list(windows))
    assert sched == twin and hash(sched) == hash(twin)
    assert repr(sched) == repr(twin)
    assert [f.name for f in dataclasses.fields(sched)] == ["name",
                                                           "windows"]
    # A derived schedule answers for its own windows, not the source's.
    moved = sched.shifted(100.0)
    assert moved.blackout_at(102.5) and not moved.blackout_at(2.5)
    fewer = dataclasses.replace(sched, windows=windows[:1])
    assert not fewer.blackout_at(2.5)
    assert fewer.extra_loss_prob(5.0) == sched.extra_loss_prob(5.0)


# -- the interval index against linear scans ----------------------------

def _scan(sched, t, kind):
    """The windows of ``kind`` covering ``t``: the linear scan the
    schedule's interval index replaced."""
    return [w for w in sched.windows if w.kind == kind and w.active(t)]


def _scan_capacity_factor(sched, t):
    factor = 1.0
    for w in _scan(sched, t, "fade"):
        factor *= max(CAPACITY_FLOOR, 1.0 - w.severity)
    for w in _scan(sched, t, "surge"):
        factor *= max(CAPACITY_FLOOR,
                      1.0 - SURGE_CAPACITY_COEFF * w.severity)
    return max(CAPACITY_FLOOR, factor)


def _scan_extra_loss_prob(sched, t):
    keep = 1.0
    for w in _scan(sched, t, "fade"):
        keep *= 1.0 - FADE_LOSS_COEFF * w.severity
    return 1.0 - keep


# Bounds come from a small grid (so starts and ends coincide often)
# or anywhere in range, plus the infinities.
_BOUND = st.one_of(st.integers(-2, 12).map(float),
                   st.floats(-5.0, 15.0, allow_nan=False),
                   st.sampled_from((-math.inf, math.inf)))
_SPAN = st.lists(_BOUND, min_size=2, max_size=2, unique=True).map(sorted)
_PROBES = st.lists(st.one_of(_BOUND, st.floats()), max_size=20)
_EDGES = [-math.inf, math.inf, math.nan, -0.0]


@st.composite
def _window(draw):
    kind = draw(st.sampled_from(WINDOW_KINDS))
    start, end = draw(_SPAN)
    target = ""
    if kind == "gateway_out":
        target = "gw-x"
    elif kind == "blackout":
        target = draw(st.sampled_from(("", "route")))
    return DisruptionWindow(
        kind, start, end,
        severity=draw(st.floats(0.0, 1.0, exclude_min=True)),
        target=target)


def _probes(times, spans):
    return (times + _EDGES + [start for start, _ in spans]
            + [end for _, end in spans])


@settings(max_examples=300)
@given(windows=st.lists(_window(), max_size=12), times=_PROBES)
def test_property_schedule_queries_match_linear_scan(windows, times):
    """Overlapping and nested windows, equal starts, mixed kinds, and
    probes at every start and end, at the infinities and at NaN: the
    index answers exactly what the scan does, bit for bit."""
    sched = DisruptionSchedule("s", windows)
    spans = [(w.start_t, w.end_t) for w in windows]
    for t in _probes(times, spans):
        assert sched.blackout_at(t) == bool(_scan(sched, t, "blackout"))
        assert sched.extra_loss_prob(t) == _scan_extra_loss_prob(sched, t)
        assert sched.capacity_factor(t) == _scan_capacity_factor(sched, t)


@settings(max_examples=200)
@given(outages=st.lists(
           st.tuples(_BOUND, st.one_of(st.floats(0.0, 30.0),
                                       st.just(math.nan))),
           max_size=12),
       times=_PROBES)
def test_property_outage_schedule_matches_its_scan(outages, times):
    """A NaN duration is an outage that holds no instant; it must not
    hide the outages after it."""
    schedule = OutageSchedule(outages)
    spans = [(start, start + duration) for start, duration in outages]
    for now in _probes(times, spans):
        assert schedule.in_outage(now) == any(
            start <= now < end for start, end in spans)
