"""Software page migration: movability rules and downtime accounting.

Software migration (paper §2.1, Fig. 1) must block access to the page: the
initiator clears the PTE, performs a synchronous TLB shootdown over every
victim core (IPI → handler flush → ack), copies the page, then re-installs
the PTE.  The page is unavailable for the whole sequence, and the shootdown
cost scales linearly with the number of victim TLBs — exactly the behaviour
Fig. 13 plots and Contiguitas-HW eliminates.

This module provides the movability predicate, the analytic downtime model
used by the OS-level simulations (the detailed event-driven model lives in
:mod:`repro.sim`), and the state transfer itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import MigrationError
from ..faults import fault_site
from . import vmstat as ev
from .page import (
    AllocationInfo,
    DEVICE_VISIBLE_SOURCES,
    PageFlag,
    sw_movable,
)
from .physmem import PhysicalMemory
from .vmstat import VmStat

# Fault-injection sites (docs/ROBUSTNESS.md): transient conditions that
# make one migration attempt fail without making the page permanently
# unmovable — a short-lived gup pin, or a raised refcount from a
# concurrent lookup.  Disarmed (the default) they cost one attribute
# load and a branch, like tracepoints.
_fs_pin = fault_site("mm.migrate.pin")
_fs_busy = fault_site("mm.migrate.busy")

#: Attempts before a transient failure is surfaced, mirroring the retry
#: loop in Linux ``migrate_pages`` (it tries up to 10 passes; scaled to
#: the simulator's much cheaper attempts).
MIGRATE_MAX_ATTEMPTS = 3


def can_migrate_sw(info: AllocationInfo) -> bool:
    """Whether software alone may relocate this allocation: the
    :func:`~repro.mm.page.sw_movable` predicate applied to *info*
    (:meth:`PhysicalMemory.sw_movable` reads the same predicate straight
    from the packed columns)."""
    return sw_movable(info.pinned, info.source)


@dataclass(frozen=True)
class MigrationCostModel:
    """Cycle cost of one 4 KiB software page migration.

    The downtime is modelled as::

        base + per_victim * victims + copy

    calibrated against the paper's Fig. 13: the copy is ~1300 cycles and the
    shootdown grows linearly with victim TLB count, reaching ~8000 cycles of
    page unavailability at 8 cores.
    """

    base_cycles: int = 1350       # PTE clear, local invalidate, IPI path
    per_victim_cycles: int = 750  # serialised IPI post + remote flush + ack
    copy_cycles_4k: int = 1320    # copy of 64 lines through the cache

    def downtime_cycles(self, victims: int, nframes: int = 1) -> int:
        """Cycles the page(s) are unavailable when *victims* remote TLBs
        must be shot down."""
        return (self.base_cycles
                + self.per_victim_cycles * victims
                + self.copy_cycles_4k * nframes)


def move_allocation(
    mem: PhysicalMemory,
    src_pfn: int,
    dst_pfn: int,
    hardware_assisted: bool = False,
) -> AllocationInfo:
    """Transfer the allocation headed at *src_pfn* to *dst_pfn*.

    The destination frames must already be captured (off the free lists)
    and unallocated.  The caller is responsible for freeing the source
    frames back to an allocator and for updating its page handle.  Pinned
    state is preserved across the move.

    Args:
        hardware_assisted: when True the Contiguitas-HW engine performs the
            copy with the page still in use, so the software movability
            check is skipped (paper §3.3).

    Returns:
        The pre-move :class:`AllocationInfo` of the source.

    Raises:
        MigrationError: if the source allocation is not software-movable
            and *hardware_assisted* is False, or a migration is in flight.
    """
    info = mem.allocation_info(src_pfn)
    if not hardware_assisted and (info.pinned
                                  or info.source in DEVICE_VISIBLE_SOURCES):
        raise MigrationError(
            f"allocation at pfn {src_pfn} (source={info.source.name}, "
            f"pinned={info.pinned}) cannot be moved by software"
        )
    if mem.flags[src_pfn] & (1 << PageFlag.UNDER_MIGRATION):
        raise MigrationError(f"pfn {src_pfn} is already under migration")
    mem.mark_free(src_pfn)
    mem.mark_allocated(
        dst_pfn, info.order, info.migratetype, info.source,
        info.birth, pinned=info.pinned,
    )
    return info


def migrate_with_retry(
    mem: PhysicalMemory,
    src_pfn: int,
    dst_pfn: int,
    hardware_assisted: bool = False,
    stat: VmStat | None = None,
    max_attempts: int = MIGRATE_MAX_ATTEMPTS,
) -> AllocationInfo:
    """:func:`move_allocation` with bounded retry over transient failures.

    Mirrors Linux ``migrate_pages``: a page that is transiently pinned
    or busy (a raised refcount) fails the attempt, the loop retries up
    to *max_attempts* times, and only a failure that persists across
    every attempt surfaces as :class:`MigrationError`.  Permanent
    conditions (pinned, device-visible, already under migration) raise
    immediately from :func:`move_allocation` on the first attempt.

    Transient failures come from the ``mm.migrate.pin`` /
    ``mm.migrate.busy`` fault sites; with no plan armed the loop is a
    single straight-through call.  Each retry counts ``migrate_retry``
    into *stat* when given; terminal failure accounting is left to the
    caller (compaction and evacuation already count their own).
    """
    attempt = 0
    while True:
        attempt += 1
        if _fs_pin.armed and _fs_pin.fire(pfn=src_pfn, attempt=attempt):
            transient = "transient page pin"
        elif _fs_busy.armed and _fs_busy.fire(pfn=src_pfn, attempt=attempt):
            transient = "busy refcount"
        else:
            return move_allocation(mem, src_pfn, dst_pfn,
                                   hardware_assisted=hardware_assisted)
        if stat is not None:
            stat.inc(ev.MIGRATE_RETRY)
        if attempt >= max_attempts:
            raise MigrationError(
                f"pfn {src_pfn}: {transient} persisted across "
                f"{attempt} attempts")
