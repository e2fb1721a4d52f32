"""In-memory span recorder and the wrappers that feed it.

A span is one call of a wrapped function: its name, start, end and
the span that was open when it began (its parent). Spans are kept in
flat arrays while the run goes and are written out once, at exit.
A span's self time is its duration minus the time its direct child
spans cover, so the self times of a tree sum to its root's duration.

Wrappers are installed by :class:`Patcher`, which replaces an
attribute of a module or class and puts the original back on
:meth:`Patcher.restore`. Every wrapper carries the attribute
:data:`MARK`, so a run can prove none is left in place.
"""

from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager

import numpy as np

#: Attribute set on every wrapper function this module makes.
MARK = "__perfbench_wrapped__"


class Tracer:
    """Records spans and plain counters of one run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        #: 1 where a span of the same name was already open.
        self.nested = array("b")
        self._stack: list[int] = []
        self._open: dict[int, int] = {}
        self.counters: dict[str, float] = {}

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open_span(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        depth = self._open.get(nid, 0)
        self.nested.append(1 if depth else 0)
        self._open[nid] = depth + 1
        self._stack.append(idx)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return idx

    def _close_span(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._open[self.name[idx]] -= 1

    @contextmanager
    def span(self, name: str):
        idx = self._open_span(self._name_id(name))
        try:
            yield
        finally:
            self._close_span(idx)

    def wrap(self, name: str, fn):
        """``fn`` recording one span named ``name`` per call."""
        nid = self._name_id(name)
        open_span, close_span = self._open_span, self._close_span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = open_span(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(idx)

        setattr(wrapper, MARK, True)
        return wrapper

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    # -- results -------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "nested": np.frombuffer(self.nested, dtype=np.int8),
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self time and inclusive time.

        Inclusive time counts only the outermost span of a name, so a
        function that recurses into itself is not counted twice.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        own = dur - child
        n = len(self.names)
        calls = np.bincount(a["name"], minlength=n)
        self_s = np.bincount(a["name"], weights=own, minlength=n)
        outer = a["nested"] == 0
        incl_s = np.bincount(a["name"][outer], weights=dur[outer],
                             minlength=n)
        return {name: {"calls": int(calls[i]), "self_s": float(self_s[i]),
                       "incl_s": float(incl_s[i])}
                for i, name in enumerate(self.names)}

    def write_spans(self, path) -> None:
        """The raw spans, as one ``.npz`` plus the name table."""
        np.savez_compressed(path, names=np.array(self.names),
                            **self.arrays())


class Patcher:
    """Replaces attributes and restores them, last in first out."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, bool, object]] = []

    def patch(self, owner, attr: str, new) -> None:
        own = attr in vars(owner)
        self._saved.append((owner, attr, own, getattr(owner, attr)))
        setattr(owner, attr, new)

    def wrap(self, tracer: Tracer, owner, attr: str, name: str) -> None:
        self.patch(owner, attr, tracer.wrap(name, getattr(owner, attr)))

    def restore(self) -> None:
        while self._saved:
            owner, attr, own, original = self._saved.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def is_wrapped(fn) -> bool:
    return getattr(fn, MARK, False)
