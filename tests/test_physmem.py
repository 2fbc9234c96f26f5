"""PhysicalMemory frame-state bookkeeping."""

import random

import numpy as np
import pytest

from repro.errors import (
    ConfigurationError,
    DoubleAllocError,
    OutOfMemoryError,
    SimInvariantError,
)
from repro.mm import (
    AllocationInfo,
    AllocSource,
    MigrateType,
    PhysicalMemory,
    can_migrate_sw,
)
from repro.mm.page import PageFlag
from repro.units import MiB, PAGEBLOCK_FRAMES

from conftest import make_linux


@pytest.fixture
def mem() -> PhysicalMemory:
    return PhysicalMemory(MiB(8))


def test_geometry(mem):
    assert mem.nframes == 2048
    assert mem.npageblocks == 4
    assert mem.free_frames() == 2048


def test_rejects_unaligned_size():
    with pytest.raises(ConfigurationError):
        PhysicalMemory(MiB(1))  # less than one pageblock


def test_rejects_zero_size():
    with pytest.raises(ConfigurationError):
        PhysicalMemory(0)


def test_mark_allocated_and_info(mem):
    mem.mark_allocated(64, 3, MigrateType.UNMOVABLE,
                       AllocSource.NETWORKING, birth=17)
    info = mem.allocation_info(64)
    assert info.pfn == 64
    assert info.order == 3
    assert info.nframes == 8
    assert info.end_pfn == 72
    assert info.migratetype is MigrateType.UNMOVABLE
    assert info.source is AllocSource.NETWORKING
    assert info.birth == 17
    assert info.unmovable


def test_info_from_member_frame_finds_head(mem):
    mem.mark_allocated(0, 4, MigrateType.MOVABLE, AllocSource.USER, 0)
    info = mem.allocation_info(13)
    assert info.pfn == 0
    assert info.order == 4


def test_mark_free_clears_everything(mem):
    mem.mark_allocated(0, 2, MigrateType.MOVABLE, AllocSource.USER, 0)
    assert mem.free_frames() == 2048 - 4
    order = mem.mark_free(0)
    assert order == 2
    assert mem.free_frames() == 2048
    assert not mem.is_allocated(0)
    assert 0 not in mem.alloc_heads


def test_double_allocation_raises_typed(mem):
    mem.mark_allocated(0, 0, MigrateType.MOVABLE, AllocSource.USER, 0)
    with pytest.raises(DoubleAllocError):
        mem.mark_allocated(0, 0, MigrateType.MOVABLE, AllocSource.USER, 0)


def test_pin_unpin(mem):
    mem.mark_allocated(8, 1, MigrateType.MOVABLE, AllocSource.USER, 0)
    assert not mem.is_pinned(8)
    mem.pin(8)
    assert mem.is_pinned(8)
    assert mem.is_pinned(9)
    assert mem.allocation_info(8).unmovable
    mem.unpin(8)
    assert not mem.is_pinned(8)
    assert not mem.allocation_info(8).unmovable


def test_unmovable_mask_kernel_sources(mem):
    mem.mark_allocated(0, 0, MigrateType.MOVABLE, AllocSource.USER, 0)
    mem.mark_allocated(1, 0, MigrateType.UNMOVABLE, AllocSource.SLAB, 0)
    mask = mem.unmovable_mask()
    assert not mask[0]
    assert mask[1]
    assert not mask[2]  # free frame


def test_unmovable_mask_pinned_user(mem):
    mem.mark_allocated(0, 0, MigrateType.MOVABLE, AllocSource.USER, 0,
                       pinned=True)
    assert mem.unmovable_mask()[0]


def test_allocated_mask_counts(mem):
    mem.mark_allocated(0, 3, MigrateType.MOVABLE, AllocSource.USER, 0)
    assert int(np.count_nonzero(mem.allocated_mask())) == 8


def test_pageblock_of(mem):
    assert mem.pageblock_of(0) == 0
    assert mem.pageblock_of(PAGEBLOCK_FRAMES) == 1
    assert mem.pageblock_of(PAGEBLOCK_FRAMES - 1) == 0


class TestPageblockQueries:
    """Vectorised PageblockTable queries against hand-built state."""

    @pytest.fixture
    def table(self, mem):
        from repro.mm.pageblock import PageblockTable
        return PageblockTable(mem, initial=MigrateType.MOVABLE)

    def test_counts_matches_per_type_count(self, table):
        table.set_block(0, MigrateType.UNMOVABLE)
        table.set_block(2, MigrateType.RECLAIMABLE)
        counts = table.counts()
        assert sum(counts.values()) == table.mem.npageblocks
        for mt in MigrateType:
            assert counts[mt] == table.count(mt)
        assert counts[MigrateType.UNMOVABLE] == 1
        assert counts[MigrateType.MOVABLE] == 2

    def test_occupancy_tracks_allocations(self, mem, table):
        assert table.occupancy().tolist() == [0, 0, 0, 0]
        mem.mark_allocated(0, 3, MigrateType.MOVABLE,
                           AllocSource.USER, birth=0)
        start, _ = table.block_range(1)
        mem.mark_allocated(start, 0, MigrateType.MOVABLE,
                           AllocSource.USER, birth=0)
        occ = table.occupancy()
        assert occ.tolist() == [8, 1, 0, 0]
        assert int(occ.sum()) == mem.nframes - mem.free_frames()

    def test_empty_blocks_shrinks_and_recovers(self, mem, table):
        assert table.empty_blocks().tolist() == [0, 1, 2, 3]
        start, _ = table.block_range(2)
        mem.mark_allocated(start, 0, MigrateType.MOVABLE,
                           AllocSource.USER, birth=0)
        assert table.empty_blocks().tolist() == [0, 1, 3]
        mem.mark_free(start)
        assert table.empty_blocks().tolist() == [0, 1, 2, 3]


def _reference_info(mem, pfn):
    """allocation_info rebuilt from the numpy columns with Enum calls."""
    head = int(mem.head_of[pfn])
    flags = int(mem.flags[head])
    return AllocationInfo(
        pfn=head,
        order=int(mem.alloc_order[head]),
        migratetype=MigrateType(int(mem.migratetype[head])),
        source=AllocSource(int(mem.source[head])),
        pinned=bool(flags & (1 << PageFlag.PINNED)),
        birth=int(mem.birth[head]),
        poisoned=bool(flags & (1 << PageFlag.HW_POISON)),
    )


def test_allocation_info_matches_column_reference():
    """Every allocated frame (heads and members) of a fragmented kernel
    with pinned, poisoned and every-source allocations describes the same
    allocation as a reference read of the numpy columns, with the same
    plain-int and enum-member types; the packed movability predicate
    agrees with the one on the info."""
    kernel = make_linux(16)
    rng = random.Random("test-physmem:allocation-info")
    sources = list(AllocSource)
    live = []
    try:
        while kernel.free_frames() > kernel.mem.nframes // 8:
            source = sources[len(live) % len(sources)]
            handle = kernel.alloc_pages(
                rng.choice((0, 0, 1, 2, 3)), source=source,
                migratetype=(MigrateType.MOVABLE
                             if source is AllocSource.USER
                             else MigrateType.UNMOVABLE))
            if rng.random() < 0.05:
                kernel.pin_pages(handle)
            live.append(handle)
            if len(live) % 64 == 0:
                kernel.advance(7)
    except OutOfMemoryError:
        pass
    for _ in range(len(live) // 2):
        handle = live.pop(rng.randrange(len(live)))
        if handle.pinned:
            kernel.unpin_pages(handle)
        kernel.free_pages(handle)
    kernel.drain_pcp()
    mem = kernel.mem
    # Poison frames both inside unmovable allocations (deferred, poisoned
    # in place) and in free memory (offlined placeholders).
    unmovable = np.flatnonzero(mem.unmovable_mask())
    free = np.flatnonzero(~mem.allocated_mask())
    for pfn in list(unmovable[::97][:6]) + list(free[::211][:6]):
        kernel.memory_failure(int(pfn))

    allocated = np.flatnonzero(mem.allocated_mask()).tolist()
    infos = [mem.allocation_info(pfn) for pfn in allocated]
    for pfn, info in zip(allocated, infos):
        assert info == _reference_info(mem, pfn), pfn
        assert type(info.pfn) is int and type(info.order) is int
        assert type(info.birth) is int
        assert info.migratetype is MigrateType(info.migratetype)
        assert info.source is AllocSource(info.source)
        assert mem.sw_movable(info.pfn) == can_migrate_sw(info)
    seen = {(i.source, i.pinned, i.poisoned) for i in infos}
    assert {s for s, _, _ in seen} == set(AllocSource)
    assert any(p for _, p, _ in seen) and any(x for _, _, x in seen)
    assert any(s is AllocSource.KERNEL_OTHER and x for s, _, x in seen)
    assert len({i.birth for i in infos}) > 1
    assert any(i.pfn != pfn for pfn, i in zip(allocated, infos))
    with pytest.raises(SimInvariantError):
        mem.allocation_info(int(np.flatnonzero(~mem.allocated_mask())[0]))


def test_range_reads_match_whole_memory_masks():
    mem = PhysicalMemory(MiB(8))
    mem.mark_allocated(8, 3, MigrateType.MOVABLE, AllocSource.USER, 0)
    mem.mark_allocated(600, 0, MigrateType.UNMOVABLE, AllocSource.SLAB, 0)
    mem.mark_allocated(700, 1, MigrateType.MOVABLE, AllocSource.USER, 0,
                       pinned=True)
    allocated, unmovable = mem.allocated_mask(), mem.unmovable_mask()
    for pfn, n in ((0, 2048), (0, 512), (512, 512), (12, 1), (16, 600),
                   (601, 99), (700, 1), (2047, 1), (1024, 0)):
        assert mem.range_allocated_frames(pfn, n) == int(
            np.count_nonzero(allocated[pfn:pfn + n]))
        assert mem.range_unmovable_frames(pfn, n) == int(
            np.count_nonzero(unmovable[pfn:pfn + n]))
