"""Checkpointing a run, restoring simulator state safely, and
crashing it on purpose.

:class:`CheckpointSession` is how every resumable front door
checkpoints; each keeps its own loop.

A checkpoint payload is a pickled object graph (kernel, workload,
recorders, RNG streams).  Pickle restores the *data* faithfully — the
SoA columns, the freelist links, every ``random.Random`` state — but
two things need explicit help after ``pickle.loads``:

* the tracepoint registry holds the simulated clock through a weakref
  that is never pickled, so the restored kernel must be re-registered
  with :func:`repro.telemetry.set_sim_clock`;
* trust: a checkpoint that passed the envelope checksum can still have
  been written by a buggy (or memory-corrupted) producer, so restore
  reruns the PR 3 sanitizer sweep — the freelist link-walk plus the
  whole-kernel accounting audit — before the run continues.

:func:`maybe_crash` is the other half of the crash-recovery harness:
wired at checkpoint boundaries, it lets the ``sim.crash`` fault site
kill a run with :class:`SimCrashError` exactly where a SIGKILL would
land, so tests and CI can assert bit-identical recovery.
"""

from __future__ import annotations

import json
from reprlib import repr as short
from typing import Any, Callable

from ..errors import CheckpointWriteError, ConfigurationError, SimCrashError
from ..faults import fault_site
from ..telemetry import set_sim_clock
from .format import CheckpointStore

_fs_crash = fault_site("sim.crash")


def reattach_kernel(kernel) -> None:
    """Re-register a freshly unpickled kernel as the simulated clock.

    ``LinuxKernel.__init__`` does this for new kernels; unpickling
    bypasses ``__init__``-side effects on process-global registries.
    """
    set_sim_clock(kernel)


def verify_restored(kernel) -> None:
    """Sanitize a restored kernel before the run continues.

    Runs ``FreelistStore.check_invariants`` (every list's link sweep)
    and ``kernel.check_consistency()`` (``verify_kernel``: occupancy
    bitmaps, per-migratetype accounting, global free counts).

    Raises:
        SimInvariantError: the checkpoint decoded cleanly but encodes a
            state the simulator itself considers impossible.
    """
    kernel.mem.freelists.check_invariants()
    kernel.check_consistency()


def restore_kernel(kernel) -> None:
    """Full post-unpickle sequence: reattach the clock, then sanitize."""
    reattach_kernel(kernel)
    verify_restored(kernel)


def maybe_crash(step: int, kind: str = "run") -> None:
    """Give the ``sim.crash`` fault site one shot at killing the run.

    Called at checkpoint boundaries (right after a checkpoint write
    attempt).  Raises :class:`SimCrashError` when the site fires; a
    no-op otherwise, including when no plan is installed.
    """
    if _fs_crash.armed and _fs_crash.fire(step=step, kind=kind):
        raise SimCrashError(
            f"injected sim.crash at {kind} checkpoint boundary, "
            f"step {step}")


class CheckpointSession:
    """One run's checkpointing: resume, boundary saves, manifest facts.

    *kind* names both the store (``<directory>/<kind>.ckpt``) and the
    envelope kind.  *config* is pickled into every payload so
    ``repro checkpoint resume <dir>`` can rebuild the run with no flags;
    *identity* is the JSON-safe dict of everything in *config* that can
    change the result.  It rides in the header meta as
    ``{"checkpoint_every", "config": identity}`` and a resume under any
    other identity is refused.  Checkpointing is off unless both
    *every* and *directory* are set.
    """

    def __init__(self, kind: str, config: Any, identity: dict, *,
                 every: int, directory: str | None,
                 resume: bool) -> None:
        self.kind = kind
        self.config = config
        self.every = every
        self.directory = directory
        self.resume = resume
        self.store = (CheckpointStore(directory, kind)
                      if every and directory is not None else None)
        # As the header holds it, after its JSON round trip.
        self.identity = json.loads(json.dumps(identity))

    def load(self) -> Any:
        """The last good checkpoint's payload, or None when off, not
        resuming, or nothing is on disk.

        Raises:
            ConfigurationError: the checkpoint was written by a run
                whose identity differs from this one's.
        """
        if self.store is None or not self.resume:
            return None
        ckpt = self.store.load_latest()
        if ckpt is None:
            return None
        theirs, ours = ckpt.meta.get("config") or {}, self.identity
        differ = sorted(key for key in theirs.keys() | ours.keys()
                        if theirs.get(key) != ours.get(key))
        if differ:
            raise ConfigurationError(
                f"checkpoint in {self.directory!r} belongs to a different "
                f"campaign: " + "; ".join(
                    f"{key} is {short(theirs.get(key))} there, "
                    f"{short(ours.get(key))} here" for key in differ))
        return ckpt.payload

    def boundary(self, done: int, payload_fn: Callable[[], dict]) -> None:
        """Checkpoint after unit *done* when it ends a cadence period.

        A failed write is counted by the store and the run continues
        (both generations are intact; a run that stays unable to
        checkpoint goes stale and the deadline watchdog flags it).
        Then the ``sim.crash`` site gets its shot.
        """
        if self.store is None or done % self.every:
            return
        try:
            self.store.save(self.kind, done,
                            {**payload_fn(), "config": self.config},
                            meta={"checkpoint_every": self.every,
                                  "config": self.identity})
        except CheckpointWriteError:
            pass
        maybe_crash(done, kind=self.kind)

    def volatile(self) -> dict:
        """Checkpoint bookkeeping for the manifest's volatile section
        (never the deterministic view: resumed and uninterrupted runs
        must agree); empty when checkpointing is off."""
        if self.store is None:
            return {}
        return {"checkpoint_dir": self.directory,
                "checkpoint_every": self.every,
                "resumed": self.resume}
