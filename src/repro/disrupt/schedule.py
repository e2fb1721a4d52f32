"""Disruption windows and schedules.

A :class:`DisruptionWindow` is one adverse condition over a time
interval of the campaign clock; a :class:`DisruptionSchedule` is a
named, validated collection of windows plus the query API the rest of
the library uses to ask "what is wrong with the network at time t?".

Window kinds and what their ``severity`` means:

``fade``
    Rain attenuation on the service link. Capacity is multiplied by
    ``1 - severity`` (floored) and packets suffer an extra Bernoulli
    loss probability of ``FADE_LOSS_COEFF * severity`` — heavier rain
    both shrinks the granted rate and pushes the modem past its
    coding margin.
``blackout``
    Total connectivity loss. With an empty ``target`` the space link
    drops every packet (a failed serving satellite); with
    ``target="route"`` the exit PoP withdraws its routes instead
    (maintenance), so packets are blackholed *behind* the access —
    the two look identical to a ping but differ for traceroute.
``gateway_out``
    The gateway named by ``target`` is out of service; the scheduler
    must pick paths through the remaining gateways (possibly moving
    the exit PoP). ``severity`` is ignored.
``surge``
    A flash crowd in the cell. The competing load consumes
    ``SURGE_CAPACITY_COEFF * severity`` of the granted capacity.

All effects are deterministic functions of (window set, seed): an
empty schedule is guaranteed to leave every code path and RNG stream
untouched, which is what keeps the ``clear_sky`` scenario
digest-identical to a scenario-less run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from repro.errors import DisruptionError
from repro.intervals import IntervalIndex

#: Valid window kinds.
WINDOW_KINDS = ("fade", "blackout", "gateway_out", "surge")

#: Extra loss probability per unit of fade severity.
FADE_LOSS_COEFF = 0.3

#: Fraction of capacity a full-severity surge consumes.
SURGE_CAPACITY_COEFF = 0.6

#: Capacity never drops below this fraction of nominal under fades
#: and surges (the modem keeps a trickle going; total loss is what
#: ``blackout`` windows are for).
CAPACITY_FLOOR = 0.05


@dataclass(frozen=True)
class DisruptionWindow:
    """One adverse condition over ``[start_t, end_t)`` campaign time."""

    kind: str
    start_t: float
    end_t: float
    severity: float = 1.0
    #: Kind-specific target: gateway name for ``gateway_out``;
    #: ``"route"`` selects route withdrawal for ``blackout``.
    target: str = ""

    def __post_init__(self) -> None:
        if self.kind not in WINDOW_KINDS:
            raise DisruptionError(
                f"unknown disruption kind {self.kind!r}; expected one "
                f"of {WINDOW_KINDS}")
        if not self.end_t > self.start_t:
            raise DisruptionError(
                f"{self.kind} window is empty or inverted: "
                f"[{self.start_t}, {self.end_t})")
        if not 0.0 < self.severity <= 1.0:
            raise DisruptionError(
                f"{self.kind} window severity must be in (0, 1], got "
                f"{self.severity!r}")
        if self.kind == "gateway_out" and not self.target:
            raise DisruptionError(
                "gateway_out window needs a gateway name in 'target'")
        if self.kind == "blackout" and self.target not in ("", "route"):
            raise DisruptionError(
                f"blackout target must be '' (link) or 'route', got "
                f"{self.target!r}")

    def active(self, t: float) -> bool:
        """Whether ``t`` falls inside this window."""
        return self.start_t <= t < self.end_t

    @property
    def duration_s(self) -> float:
        """Window length, seconds."""
        return self.end_t - self.start_t


@dataclass(frozen=True)
class DisruptionSchedule:
    """A named set of disruption windows with a time-query API."""

    name: str
    windows: tuple[DisruptionWindow, ...] = ()

    def __post_init__(self) -> None:
        # Tolerate lists from callers; normalise to a tuple so the
        # schedule stays hashable/frozen.
        if not isinstance(self.windows, tuple):
            object.__setattr__(self, "windows", tuple(self.windows))

    @property
    def is_empty(self) -> bool:
        """True when the schedule disrupts nothing (clear sky)."""
        return not self.windows

    @cached_property
    def _by_kind(self) -> dict[str, tuple[tuple[DisruptionWindow, ...],
                                          IntervalIndex]]:
        """Per kind: its windows in schedule order and their interval
        index. Derived from ``windows`` and not a field, so equality,
        hashing and ``repr`` ignore it; every new schedule builds its
        own."""
        by_kind = {}
        for kind in WINDOW_KINDS:
            of_kind = tuple(w for w in self.windows if w.kind == kind)
            if of_kind:
                by_kind[kind] = (of_kind, IntervalIndex(
                    (w.start_t, w.end_t) for w in of_kind))
        return by_kind

    def _active(self, t: float, kind: str) -> list[DisruptionWindow]:
        """Windows of ``kind`` covering ``t``, in schedule order (so
        products over them multiply in a fixed order)."""
        entry = self._by_kind.get(kind)
        if entry is None:
            return []
        windows, index = entry
        return [windows[i] for i in index.active(t)]

    # -- channel-facing queries ----------------------------------------

    def capacity_factor(self, t: float) -> float:
        """Multiplier on the granted link capacity at time ``t``."""
        factor = 1.0
        for w in self._active(t, "fade"):
            factor *= max(CAPACITY_FLOOR, 1.0 - w.severity)
        for w in self._active(t, "surge"):
            factor *= max(CAPACITY_FLOOR,
                          1.0 - SURGE_CAPACITY_COEFF * w.severity)
        return max(CAPACITY_FLOOR, factor)

    def extra_loss_prob(self, t: float) -> float:
        """Additional medium-loss probability from active fades."""
        keep = 1.0
        for w in self._active(t, "fade"):
            keep *= 1.0 - FADE_LOSS_COEFF * w.severity
        return 1.0 - keep

    def blackout_at(self, t: float) -> bool:
        """Whether any blackout (link or route) covers ``t``."""
        entry = self._by_kind.get("blackout")
        return entry is not None and entry[1].covers(t)

    # -- window extraction for installers ------------------------------

    def link_blackouts(self) -> list[tuple[float, float]]:
        """(start, duration) of space-link blackouts, outage format."""
        return [(w.start_t, w.duration_s) for w in self.windows
                if w.kind == "blackout" and w.target != "route"]

    def route_blackouts(self) -> list[tuple[float, float]]:
        """(start, end) of exit-PoP route withdrawals."""
        return [(w.start_t, w.end_t) for w in self.windows
                if w.kind == "blackout" and w.target == "route"]

    def gateway_outages(self) -> list[tuple[str, float, float]]:
        """(gateway name, start, end) of gateway maintenance windows."""
        return [(w.target, w.start_t, w.end_t) for w in self.windows
                if w.kind == "gateway_out"]

    def has_capacity_effects(self) -> bool:
        """Whether any window touches capacity (fade or surge)."""
        return any(w.kind in ("fade", "surge") for w in self.windows)

    def has_fades(self) -> bool:
        """Whether any fade window exists (extra medium loss)."""
        return any(w.kind == "fade" for w in self.windows)

    # -- transforms ----------------------------------------------------

    def shifted(self, dt: float) -> "DisruptionSchedule":
        """The same schedule translated by ``dt`` seconds."""
        if self.is_empty or dt == 0.0:
            return self
        return DisruptionSchedule(
            name=self.name,
            windows=tuple(replace(w, start_t=w.start_t + dt,
                                  end_t=w.end_t + dt)
                          for w in self.windows))

    def overlapping(self, start: float, end: float
                    ) -> list[DisruptionWindow]:
        """Windows intersecting ``[start, end)``."""
        return [w for w in self.windows
                if w.start_t < end and w.end_t > start]


#: The canonical do-nothing schedule.
CLEAR_SKY = DisruptionSchedule(name="clear_sky")
