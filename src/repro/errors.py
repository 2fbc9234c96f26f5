"""Exception hierarchy for the Contiguitas reproduction, and the
warn-once helper every deprecation shim uses."""

from __future__ import annotations

import warnings

#: Deprecation keys that already warned this process.  Each shim warns
#: once (docs/API.md) so sweeps over thousands of calls do not flood
#: stderr and ``-W error`` runs do not die mid-sweep; tests discard a key
#: to re-arm its warning.
DEPRECATION_WARNED: set[str] = set()


def warn_once(key: str, message: str, stacklevel: int) -> None:
    """Issue *message* as a DeprecationWarning the first time *key* is
    seen in this process, and do nothing after that.

    *stacklevel* goes to :func:`warnings.warn` unchanged, so it counts
    frames from this helper: 2 names the shim that calls it, 3 the
    shim's caller.
    """
    if key in DEPRECATION_WARNED:
        return
    DEPRECATION_WARNED.add(key)
    warnings.warn(message, DeprecationWarning, stacklevel=stacklevel)


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class OutOfMemoryError(ReproError):
    """No free block of the requested order exists in any permitted list.

    The simulated kernel raises this only after reclaim and (where allowed)
    compaction have failed, mirroring a real allocation failure.
    """


class ContiguityError(ReproError):
    """A request for physically contiguous memory could not be satisfied
    (e.g. a HugeTLB 1 GiB reservation on a fragmented machine)."""


class MigrationError(ReproError):
    """A page could not be migrated (pinned, unmovable, or busy)."""


class ConfigurationError(ReproError):
    """Invalid simulator or kernel configuration."""


class WorkerCrashError(ReproError):
    """A fleet worker process died mid-scan (injected by the
    ``fleet.worker.crash`` fault site or a genuine crash); the supervised
    executor catches it, requeues the payload, and retries."""


class HardwareProtocolError(ReproError):
    """Contiguitas-HW protocol violation (e.g. migrating a page that is
    already under migration, or clearing an entry that does not exist)."""


class SimInvariantError(ReproError):
    """A simulator invariant was violated — the analogue of a kernel
    ``BUG_ON``.

    Raised instead of a bare ``assert`` so that invariants keep firing
    under ``python -O`` (which strips assert statements).  The runtime
    sanitizer (:mod:`repro.analysis.sanitizer`) raises the
    :class:`SanitizerError` subclasses with frame-level detail.
    """


class SanitizerError(SimInvariantError):
    """Base class for frame-state violations detected by the runtime
    sanitizer (the CONFIG_DEBUG_VM analogue).

    Attributes:
        pfn: the offending frame number, or None for aggregate checks.
        history: recent ``(action, order, tick)`` events recorded for the
            frame when a :class:`~repro.analysis.sanitizer.FrameSanitizer`
            is attached; empty otherwise.
    """

    def __init__(self, message: str, pfn: int | None = None,
                 history: tuple = ()) -> None:
        if pfn is not None:
            message = f"{message} (pfn {pfn})"
        if history:
            trail = " -> ".join(
                f"{action}@{tick}:o{order}" for action, order, tick in history)
            message = f"{message} [history: {trail}]"
        super().__init__(message)
        self.pfn = pfn
        self.history = tuple(history)


class DoubleAllocError(SanitizerError):
    """A frame that is already part of a live allocation was allocated
    again (or a duplicate head PFN was registered)."""


class DoubleFreeError(SanitizerError):
    """An allocation was freed twice."""


class FreeOfUnallocatedError(SanitizerError):
    """A free targeted a frame that is not a live allocation head."""


class MigratetypeDriftError(SanitizerError):
    """Per-migratetype free accounting diverged from the frame arrays
    (a free block sits on one type's list while the frame metadata or
    counters say another)."""


class FreelistDivergenceError(SanitizerError):
    """Buddy free-list bookkeeping diverged from the frame arrays or the
    occupancy bitmaps (missing list entry, stale order, bad nr_free)."""


class CheckpointError(ReproError):
    """Base class for checkpoint/restore failures
    (:mod:`repro.checkpoint`)."""


class CheckpointCorruptError(CheckpointError):
    """A checkpoint file failed validation on read: bad magic, truncated
    payload, or a checksum mismatch.  Recovery falls back to the
    previous good checkpoint generation when one exists."""


class CheckpointVersionError(CheckpointCorruptError):
    """A checkpoint file carries an envelope version this build does not
    understand (version skew between writer and reader)."""


class CheckpointWriteError(CheckpointError):
    """A checkpoint write failed before the atomic rename (disk error or
    the injected ``checkpoint.write-fail`` site); every previously
    written generation is left intact."""


class SimCrashError(ReproError):
    """The injected ``sim.crash`` fault site killed the run at a
    checkpoint boundary — the crash-recovery harness's stand-in for a
    SIGKILL.  Resuming from the last checkpoint must reproduce the
    uninterrupted run bit-for-bit."""
