"""Frame-level page metadata: migrate types, allocation sources, flags.

The simulator models physical memory as an array of 4 KiB *frames*.  Rather
than one Python object per frame (prohibitive for multi-GiB simulations),
per-frame state lives in packed :mod:`numpy` arrays owned by
:class:`repro.mm.physmem.PhysicalMemory`; this module defines the enums and
the lightweight :class:`AllocationInfo` view returned by queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum


class MigrateType(IntEnum):
    """Buddy-allocator migrate types, mirroring Linux's ``enum migratetype``.

    The migrate type of an *allocation* decides which free list it draws
    from; the migrate type of a *pageblock* decides which allocations the
    block is meant to serve.  Fallback allocation lets the two disagree,
    which is exactly how unmovable allocations end up scattered across
    movable pageblocks (the fragmentation root cause in the paper, §2.5).
    """

    UNMOVABLE = 0
    MOVABLE = 1
    RECLAIMABLE = 2

    @property
    def movable(self) -> bool:
        return self is MigrateType.MOVABLE


class AllocSource(IntEnum):
    """Origin of an allocation, used for the Figure-6 source breakdown.

    ``USER`` covers anonymous and file-backed application memory (movable).
    The remaining values are the unmovable kernel sources the paper
    identifies: networking buffers (73 % of unmovable pages at Meta), slab,
    filesystem buffers, page tables, and a catch-all.  ``KERNEL_CODE``
    represents boot-time allocations that live for the whole uptime and are
    placed at the far end of the unmovable region by Contiguitas.
    """

    USER = 0
    NETWORKING = 1
    SLAB = 2
    FILESYSTEM = 3
    PAGETABLE = 4
    KERNEL_OTHER = 5
    KERNEL_CODE = 6

    @property
    def unmovable(self) -> bool:
        return self is not AllocSource.USER


#: Sources whose allocations cannot be blocked for a software migration:
#: device-visible I/O memory.  Software compaction must skip these even in
#: kernels that can relocate other kernel memory; only Contiguitas-HW can
#: move them (paper §3.3).
DEVICE_VISIBLE_SOURCES = frozenset({AllocSource.NETWORKING})

_USER = int(AllocSource.USER)


def sw_movable(pinned, source):
    """Whether software alone may relocate an allocation, from its packed
    pinned bit and source value: the one definition every movability
    check reads.  Scalars give a bool; packed numpy columns give the
    per-frame boolean array.

    Pinned pages and device-visible I/O buffers (networking) cannot be
    blocked for a copy; other kernel sources (slab, page tables) are
    unmovable in practice because in-kernel pointers reference them by
    physical/linear address (paper §2.1).  Only plain, unpinned user
    memory is software-movable.
    """
    return (pinned == 0) & (source == _USER)


class PageFlag(IntEnum):
    """Bit positions in the per-frame flags array."""

    ALLOCATED = 0   # frame belongs to a live allocation
    HEAD = 1        # frame is the first frame of its allocation
    PINNED = 2      # page is pinned (DMA/RDMA); unmovable regardless of type
    UNDER_MIGRATION = 3  # a migration (SW or HW) is in flight for this frame
    HW_POISON = 4   # uncorrectable memory error: frame is offline for good


@dataclass(frozen=True)
class AllocationInfo:
    """Read-only description of one live allocation.

    Attributes:
        pfn: first frame number of the allocation.
        order: buddy order (the allocation spans ``2**order`` frames).
        migratetype: free-list type the allocation was served from.
        source: subsystem that requested the allocation.
        pinned: whether the allocation is currently pinned.
        birth: simulated time (ticks) at which it was allocated.
        poisoned: head frame took an uncorrectable memory error and the
            allocation is a hard-offlined placeholder.
    """

    pfn: int
    order: int
    migratetype: MigrateType
    source: AllocSource
    pinned: bool
    birth: int
    poisoned: bool = False

    @property
    def nframes(self) -> int:
        return 1 << self.order

    @property
    def end_pfn(self) -> int:
        """One past the last frame of the allocation."""
        return self.pfn + self.nframes

    @property
    def unmovable(self) -> bool:
        """True if software alone cannot relocate this allocation."""
        return not sw_movable(self.pinned, self.source)
