"""In-memory span recorder for the traced benchmark run.

A span is one call into a layer's public function: its name, host start
and end (``time.perf_counter`` seconds), the span that was open when it
started (its parent), and the id of the step, server or request it
served.  Spans live in parallel typed arrays (~30 bytes each) so a
traced run of a million calls stays small, and are written out once
when the run ends.

:func:`patched` installs the recorder by replacing functions on the
objects callers look them up on — class attributes for methods, so a
subclass's ``super()`` call nests a span inside its caller, and module
attributes for free functions.  It restores every original on exit.
The untraced run never calls it.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from array import array

import numpy as np

#: Layers of the self-time share table, in print order; every patched
#: function belongs to the ``repro`` subpackage that defines it.
LAYERS = ("mm", "kalloc", "workloads", "core", "sim", "fleet",
          "analysis", "checkpoint", "other")


def layer_of(fn) -> str:
    """The ``repro`` subpackage defining *fn*, or ``"other"``."""
    parts = getattr(fn, "__module__", "").split(".")
    if len(parts) > 1 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return "other"


class SpanRecorder:
    """Records spans for every function wrapped by :meth:`wrap`."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.unit = array("q")
        #: 1 when a span of the same name was already open (recursion
        #: or a subclass calling its base); such spans are excluded
        #: from inclusive totals so no interval is counted twice.
        self.nested = array("b")
        self.start = array("d")
        self.end = array("d")
        self.unit_id = -1
        self._stack: list[int] = []
        self._open: list[int] = []

    def __len__(self) -> int:
        return len(self.name)

    def name_id(self, name: str, layer: str = "other") -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
            self._open.append(0)
        return nid

    def wrap(self, name: str, fn, unit=None):
        """A wrapper of *fn* that records one span per call.

        *unit*, when given, maps the call's arguments to the id of the
        step, server or request the call starts; spans opened inside it
        carry that id.
        """
        nid = self.name_id(name, layer_of(fn))
        clock = time.perf_counter
        stack, open_count = self._stack, self._open
        names, parents, units = self.name, self.parent, self.unit
        nested, starts, ends = self.nested, self.start, self.end

        def traced(*args, **kwargs):
            idx = len(names)
            if unit is not None:
                self.unit_id = unit(args)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            units.append(self.unit_id)
            nested.append(1 if open_count[nid] else 0)
            ends.append(0.0)
            stack.append(idx)
            open_count[nid] += 1
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                open_count[nid] -= 1
                stack.pop()

        return functools.wraps(fn)(traced)

    # -- analysis ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "unit": np.frombuffer(self.unit, dtype=np.int64),
            "nested": np.frombuffer(self.nested, dtype=np.int8),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``."""
        a = self.arrays()
        return summarize(a["name"], a["parent"], a["nested"],
                         a["end"] - a["start"], self.names)

    def durations(self, name: str) -> np.ndarray:
        """Durations of every span called *name* (empty if none)."""
        nid = self._ids.get(name)
        if nid is None:
            return np.zeros(0)
        a = self.arrays()
        mask = a["name"] == nid
        return a["end"][mask] - a["start"][mask]

    def layer_self_seconds(self, wall_s: float) -> dict[str, float]:
        """Self seconds per layer; ``other`` also takes the part of
        *wall_s* that no root span covers (the benchmark's own loop)."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        own = self_times(a["parent"], dur)
        by_name = np.bincount(a["name"], weights=own,
                              minlength=len(self.names))
        out = dict.fromkeys(LAYERS, 0.0)
        for nid, secs in enumerate(by_name):
            out[self.layers[nid]] += float(secs)
        roots = float(dur[a["parent"] < 0].sum())
        out["other"] += max(0.0, wall_s - roots)
        return out

    def write(self, path: str) -> None:
        """Write every span plus the name table to an ``.npz`` file."""
        np.savez_compressed(path, names=np.array(json.dumps(self.names)),
                            layers=np.array(json.dumps(self.layers)),
                            **self.arrays())


def self_times(parent: np.ndarray, dur: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Children of one parent never overlap (calls nest), so this is the
    part of the span's interval no child covers.
    """
    child = np.zeros(len(dur))
    mask = parent >= 0
    if mask.any():
        child = np.bincount(parent[mask], weights=dur[mask],
                            minlength=len(dur))
    return dur - child


def summarize(name: np.ndarray, parent: np.ndarray, nested: np.ndarray,
              dur: np.ndarray, names: list[str]) -> dict[str, dict]:
    """Calls, inclusive seconds (outermost spans only) and self seconds
    per span name."""
    n = len(names)
    own = self_times(parent, dur)
    calls = np.bincount(name, minlength=n)
    outer = nested == 0
    total = np.bincount(name[outer], weights=dur[outer], minlength=n)
    selfs = np.bincount(name, weights=own, minlength=n)
    return {names[i]: {"calls": int(calls[i]), "total_s": float(total[i]),
                       "self_s": float(selfs[i])} for i in range(n)}


@contextlib.contextmanager
def patched(recorder: SpanRecorder, targets):
    """Install *recorder* on every ``(owner, attr, name, unit)`` target
    for the duration of the block.

    *owner* is the class or module the callers look *attr* up on.  The
    original must be defined on *owner* itself (not inherited), so each
    override gets its own span name.
    """
    saved = []
    try:
        for owner, attr, name, unit in targets:
            original = owner.__dict__[attr]
            if not callable(original):
                raise TypeError(f"{owner.__name__}.{attr} is not a function")
            setattr(owner, attr, recorder.wrap(name, original, unit))
            saved.append((owner, attr, original))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
