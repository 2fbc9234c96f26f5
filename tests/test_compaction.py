"""Compaction: scanners, unmovable skipping, downtime accounting."""

import random

import numpy as np
import pytest

from repro.errors import MigrationError, OutOfMemoryError
from repro.faults import NAMED_PLANS, FaultPlan, FaultSpec, injecting
from repro.mm import (
    AllocationInfo,
    AllocSource,
    BuddyAllocator,
    Compactor,
    HandleRegistry,
    MigrateType,
    MigrationCostModel,
    PageHandle,
    PageblockTable,
    PhysicalMemory,
    VmStat,
    can_migrate_sw,
    move_allocation,
)
from repro.units import MAX_ORDER, MiB

from conftest import make_contiguitas, make_linux


def build(mem_mib=8):
    mem = PhysicalMemory(MiB(mem_mib))
    table = PageblockTable(mem)
    stat = VmStat()
    buddy = BuddyAllocator(mem, table, stat)
    buddy.seed_free()
    handles = HandleRegistry()
    compactor = Compactor(mem, stat, MigrationCostModel(), victim_cores=7)
    return mem, buddy, handles, compactor


def fragment(buddy, handles, keep_every=2, source=AllocSource.USER):
    """Checkerboard all of memory: allocate every frame, then free every
    keep_every-th, so no free pageblock exists anywhere."""
    pfns = []
    while True:
        pfn = buddy.alloc(0, MigrateType.MOVABLE, source)
        if pfn is None:
            break
        pfns.append(pfn)
    live = []
    for i, pfn in enumerate(pfns):
        if i % keep_every == 0:
            handles.register(PageHandle(pfn, 0, MigrateType.MOVABLE,
                                        source, 0))
            live.append(pfn)
        else:
            buddy.free(pfn)
    return live


def test_compaction_creates_pageblock():
    mem, buddy, handles, compactor = build()
    fragment(buddy, handles)
    # The low blocks are checkered: no free pageblock-order block there
    # until compaction consolidates.
    result = compactor.compact(buddy, handles, target_order=MAX_ORDER)
    assert result.satisfied
    assert result.pages_migrated > 0
    assert buddy.largest_free_order() == MAX_ORDER
    buddy.check_consistency()


def test_compaction_moves_pages_toward_high_addresses():
    mem, buddy, handles, compactor = build()
    live = fragment(buddy, handles)
    before = sorted(h.pfn for h in handles.live_handles())
    compactor.compact(buddy, handles, target_order=MAX_ORDER)
    after = sorted(h.pfn for h in handles.live_handles())
    assert sum(after) > sum(before)


def test_compaction_updates_handles():
    mem, buddy, handles, compactor = build()
    fragment(buddy, handles)
    compactor.compact(buddy, handles, target_order=MAX_ORDER)
    for handle in handles.live_handles():
        info = mem.allocation_info(handle.pfn)
        assert info.pfn == handle.pfn  # head still matches


def test_compaction_skips_unmovable():
    mem, buddy, handles, compactor = build()
    # Unmovable page in the first block: that block can never be emptied.
    un = buddy.alloc(0, MigrateType.UNMOVABLE, AllocSource.NETWORKING)
    handles.register(PageHandle(un, 0, MigrateType.UNMOVABLE,
                                AllocSource.NETWORKING, 0))
    fragment(buddy, handles)
    result = compactor.compact(buddy, handles, target_order=MAX_ORDER)
    assert result.pages_skipped_unmovable >= 1
    assert mem.is_allocated(un)
    assert mem.allocation_info(un).source is AllocSource.NETWORKING


def test_compaction_skips_pinned():
    mem, buddy, handles, compactor = build()
    pfn = buddy.alloc(0, MigrateType.MOVABLE, AllocSource.USER, pinned=True)
    handles.register(PageHandle(pfn, 0, MigrateType.MOVABLE,
                                AllocSource.USER, 0, pinned=True))
    fragment(buddy, handles)
    result = compactor.compact(buddy, handles, target_order=MAX_ORDER)
    assert mem.allocation_info(pfn).pfn == pfn  # did not move
    assert result.pages_skipped_unmovable >= 1


def test_compaction_downtime_scales_with_victims():
    results = []
    for victims in (1, 7):
        mem, buddy, handles, compactor = build()
        compactor.victim_cores = victims
        fragment(buddy, handles)
        results.append(compactor.compact(buddy, handles,
                                         target_order=MAX_ORDER))
    assert results[0].pages_migrated == results[1].pages_migrated
    assert results[1].downtime_cycles > results[0].downtime_cycles


def test_compaction_respects_migration_budget():
    mem, buddy, handles, compactor = build()
    fragment(buddy, handles)
    result = compactor.compact(buddy, handles, target_order=MAX_ORDER,
                               max_migrations=10)
    assert result.pages_migrated <= 10


def test_compaction_noop_when_already_satisfied():
    mem, buddy, handles, compactor = build()
    result = compactor.compact(buddy, handles, target_order=MAX_ORDER)
    assert result.satisfied
    assert result.pages_migrated == 0


def test_cost_model_linear_in_victims():
    cost = MigrationCostModel()
    d1 = cost.downtime_cycles(1)
    d8 = cost.downtime_cycles(8)
    assert d8 - d1 == 7 * cost.per_victim_cycles


class TestCanMigrateSw:
    """The software-movability predicate that every skip path keys on:
    only plain, unpinned user memory is software-movable (§2.1)."""

    def _info(self, **kwargs) -> AllocationInfo:
        defaults = dict(pfn=0, order=0, migratetype=MigrateType.MOVABLE,
                        source=AllocSource.USER, pinned=False, birth=0)
        defaults.update(kwargs)
        return AllocationInfo(**defaults)

    def test_plain_user_memory_movable(self):
        assert can_migrate_sw(self._info())

    def test_pinned_user_memory_not_movable(self):
        assert not can_migrate_sw(self._info(pinned=True))

    def test_every_kernel_source_not_movable(self):
        for source in AllocSource:
            if source is AllocSource.USER:
                continue
            assert not can_migrate_sw(self._info(source=source)), source

    def test_poisoned_placeholder_not_movable(self):
        # Hard-offlined frames are parked as KERNEL_OTHER placeholders,
        # so compaction and evacuation route around them for free.
        info = self._info(source=AllocSource.KERNEL_OTHER, poisoned=True)
        assert not can_migrate_sw(info)


class TestMoveAllocationSkipPaths:
    def test_pinned_page_raises(self):
        mem, buddy, handles, _ = build(mem_mib=4)
        src = buddy.alloc(0, MigrateType.MOVABLE, AllocSource.USER,
                          pinned=True)
        dst = buddy.take_free_split(buddy.free_heads_in(0, mem.nframes)[-1],
                                    0)
        with pytest.raises(MigrationError, match="pinned=True"):
            move_allocation(mem, src, dst)
        assert mem.is_allocated(src)

    def test_device_visible_source_raises(self):
        mem, buddy, handles, _ = build(mem_mib=4)
        src = buddy.alloc(0, MigrateType.UNMOVABLE, AllocSource.NETWORKING)
        dst = buddy.take_free_split(buddy.free_heads_in(0, mem.nframes)[-1],
                                    0)
        with pytest.raises(MigrationError, match="NETWORKING"):
            move_allocation(mem, src, dst)
        assert mem.allocation_info(src).source is AllocSource.NETWORKING

    def test_hardware_assist_moves_pinned_page(self):
        # Contiguitas-HW relocates even pinned/device-visible memory
        # (paper §3.3); the software-only guard is bypassed.
        mem, buddy, handles, _ = build(mem_mib=4)
        src = buddy.alloc(0, MigrateType.MOVABLE, AllocSource.USER,
                          pinned=True)
        dst = buddy.take_free_split(buddy.free_heads_in(0, mem.nframes)[-1],
                                    0)
        info = move_allocation(mem, src, dst, hardware_assisted=True)
        assert info.pinned
        assert mem.is_allocated(dst)
        assert mem.allocation_info(dst).pinned


class UnmemoisedCompactor(Compactor):
    """Reference free scanner: searches every time, remembering no
    failed order."""

    def _take_free_above(self, allocator, order, above_pfn):
        lo = max(above_pfn + 1, allocator.start_pfn)
        hi = allocator.end_pfn
        if lo >= hi:
            return None
        cand = np.flatnonzero(allocator.mem.free_order[lo:hi] >= order)
        if cand.size == 0:
            return None
        return allocator.take_free_split(int(cand[-1]) + lo, order)


def fragmented_kernel(make, seed):
    """A seeded kernel whose memory is mostly allocated in mixed orders
    (movable, pinned and unmovable), with random holes punched so free
    space is scattered at every order."""
    kernel = make(16)
    rng = random.Random(f"test-compaction:fragment:{seed}")
    live = []
    try:
        while kernel.free_frames() > kernel.mem.nframes // 8:
            order = rng.choice((0, 0, 0, 1, 1, 2, 3))
            r = rng.random()
            if r < 0.03:
                handle = kernel.alloc_pages(order)
                kernel.pin_pages(handle)
            elif r < 0.08:
                handle = kernel.alloc_pages(
                    order, source=AllocSource.NETWORKING,
                    migratetype=MigrateType.UNMOVABLE)
            else:
                handle = kernel.alloc_pages(order)
            live.append(handle)
    except OutOfMemoryError:
        pass
    for _ in range(len(live) // 2):
        handle = live.pop(rng.randrange(len(live)))
        if handle.pinned:
            kernel.unpin_pages(handle)
        kernel.free_pages(handle)
    kernel.drain_pcp()
    return kernel


def compact_everything(kernel, compactor_cls, plan, seed):
    compactor = compactor_cls(kernel.mem, kernel.stat, kernel.compactor.cost,
                              kernel.compactor.victim_cores)
    results = []
    with injecting(plan, seed):
        for allocator in kernel.allocators():
            for budget in (64, None):
                results.append(compactor.compact(
                    allocator, kernel.handles, target_order=MAX_ORDER,
                    max_migrations=budget).snapshot())
    handles = [(h.pfn, h.order) for h in kernel.handles.live_handles()]
    return results, handles


#: Persistent transient failures on ~1 in 8 pages, so every run takes
#: the MigrationError give-back path many times.
STUBBORN_MIGRATE = FaultPlan("stubborn-migrate", (
    FaultSpec("mm.migrate.pin", rate=0.5),
))


@pytest.mark.parametrize("plan", [None, NAMED_PLANS["flaky-migrate"],
                                  STUBBORN_MIGRATE],
                         ids=["clean", "flaky-migrate", "stubborn-migrate"])
@pytest.mark.parametrize("make", [make_linux, make_contiguitas],
                         ids=["linux", "contiguitas"])
@pytest.mark.parametrize("seed", range(3))
def test_failed_order_memo_matches_unmemoised_scanner(seed, make, plan):
    """The failed-order memo only skips searches that would fail: runs
    with and without it migrate the same pages to the same frames,
    through the MigrationError give-back path too."""
    memo = fragmented_kernel(make, seed)
    ref = fragmented_kernel(make, seed)
    got = compact_everything(memo, Compactor, plan, seed)
    want = compact_everything(ref, UnmemoisedCompactor, plan, seed)
    assert got == want
    assert sum(r["pages_migrated"] for r in got[0]) > 0
    if plan is STUBBORN_MIGRATE:
        assert sum(r["pages_failed_transient"] for r in got[0]) > 0
    np.testing.assert_array_equal(memo.mem.free_order, ref.mem.free_order)
    np.testing.assert_array_equal(memo.mem.alloc_order, ref.mem.alloc_order)
    for allocator in memo.allocators():
        allocator.check_consistency()
