"""Free lists: intrusive array-backed doubly-linked lists over packed
per-frame ``next``/``prev`` arrays, with ordered extraction.

The buddy allocator keeps one :class:`FreeList` per (order, migrate type)
pair.  Linux threads its free lists through ``struct page`` itself — the
list nodes *are* the frames — and :class:`FreelistStore` mirrors that
layout: one pair of packed int64 ``next``/``prev`` arrays indexed by PFN,
shared by every list of one :class:`~repro.mm.physmem.PhysicalMemory`,
plus a ``list_id`` array recording which list currently links each frame
(0 = none).  Membership, append, unlink, and the LIFO/FIFO pops are all
O(1) array reads/writes; bulk insert and bulk pop are vectorised numpy
fancy-index writes, which is what lifts allocator churn from ~250k to
multi-million ops/s.

Extraction modes (why four pops exist):

* ``pop_lifo`` is stock Linux: a freed block is pushed at the list head
  and the next allocation pops it.  That temporal order is what scatters
  allocations across the address space on a busy machine (the next
  unmovable allocation lands wherever something was just freed), so the
  Linux-baseline fragmentation behaviour depends on it.
* ``pop_fifo`` is the oldest-first variant.
* ``pop_lowest`` / ``pop_highest`` give address order, which Contiguitas's
  placement policy (§3.2) needs — "the free block farthest from the
  region border" means ordered extraction from either end.

Address ordering is *two-mode*.  A list serving only temporal pops (every
stock-Linux list) carries zero heap bookkeeping — adds and unlinks touch
only the packed arrays.  The first address-ordered operation builds a
min/max heap pair by walking the list's own chain and sorting, so the
cost follows the list's length, not the store's; from then on adds
push eagerly and unlinks leave lazily-deleted stale entries, validated on
pop against ``list_id``.  Stale entries are bounded exactly as before:
once removals since the last rebuild exceed ``max(_COMPACT_MIN, live)``
the heaps are rebuilt from the live set, and an emptied list drops its
heaps entirely (back to the zero-bookkeeping mode).

Invariants (checked by :meth:`FreeList.check_invariants`, which the
debug_vm sanitizer calls):

* ``list_id[p] == id``  ⇔  frame *p* is linked on list *id*; a frame is
  on at most one list per store.
* The forward walk from ``head`` visits exactly ``len(list)`` frames,
  each agreeing with the backward links, and ends at ``tail``.
* When heaps exist, every live member has at least one heap entry and
  stale entries stay within the compaction bound.

:class:`LegacyFreeList` preserves the previous dict+deque implementation
(membership map, two lazy-deletion heaps, lazy-deletion queue) as the
differential-testing reference, with two fixes over the historical
version: queue entries are generation-stamped, so a member discarded and
later re-added consistently takes its FIFO position from the re-add
(the lazy path used to revive the old position, the compacted path the
new one), and ``_compact`` rebuilds the queue to exactly one entry per
live member, so ``stale_entries()`` is zero after every rebuild (the
historical first+last-occurrence rebuild could leave it nonzero).
"""

from __future__ import annotations

import heapq
from collections import deque
from collections.abc import Iterator

import numpy as np

from ..errors import ConfigurationError, FreelistDivergenceError

#: Rebuilds never trigger below this many removals, so tiny lists are
#: not churned; above it, a >50 % stale fraction triggers a rebuild.
_COMPACT_MIN = 64

#: Bulk inserts into a heap-carrying list push eagerly up to this many
#: entries; larger batches drop the heaps and rebuild on demand.
_EXTEND_HEAP_MAX = 32

_EMPTY_PFNS = np.empty(0, dtype=np.int64)


class FreelistStore:
    """Packed per-frame link arrays shared by every list of one memory.

    Attributes (all indexed by PFN):
        next, prev: int64 successor/predecessor links (-1 = end).
        list_id: id of the list currently linking the frame (0 = none).

    The buddy allocator sizes the store to the frame count at boot
    (:class:`~repro.mm.physmem.PhysicalMemory` hosts one as
    ``.freelists``); a store built with the default capacity grows
    on demand, which keeps standalone lists (tests, tools) ergonomic.
    """

    __slots__ = ("capacity", "next", "prev", "list_id",
                 "next_mv", "prev_mv", "list_mv", "_lists", "_next_id")

    def __init__(self, capacity: int = 1024) -> None:
        if capacity <= 0:
            raise ConfigurationError(
                f"store capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.next = np.full(capacity, -1, dtype=np.int64)
        self.prev = np.full(capacity, -1, dtype=np.int64)
        self.list_id = np.zeros(capacity, dtype=np.int32)
        self._lists: list[FreeList] = []
        self._next_id = 0
        self._refresh_views()

    def _refresh_views(self) -> None:
        # Scalar memoryviews over the shared buffers; see PhysicalMemory
        # for why (plain-int reads/writes, no numpy scalar dispatch).
        self.next_mv = memoryview(self.next)
        self.prev_mv = memoryview(self.prev)
        self.list_mv = memoryview(self.list_id)

    def __getstate__(self) -> dict:
        """Slot values minus the memoryview mirrors (not picklable;
        rebuilt from the columns on restore)."""
        return {name: getattr(self, name) for name in self.__slots__
                if not name.endswith("_mv")}

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self._refresh_views()
        # The store <-> list references are a pickle cycle: whichever
        # side unpickles second sees the other fully built.  Rebind any
        # list that already has its slots so its view handles point at
        # this store's fresh memoryviews; lists restored later rebind
        # themselves in their own __setstate__.
        for fl in self._lists:
            if hasattr(fl, "_id"):
                fl._rebind()

    def check_invariants(self) -> None:
        """Sweep every list ever threaded through this store
        (:meth:`FreeList.check_invariants` per list).  The restore path
        runs this before continuing from a checkpoint; raises
        :class:`~repro.errors.FreelistDivergenceError` on any drift."""
        for fl in self._lists:
            fl.check_invariants()

    def new_list(self) -> "FreeList":
        """A fresh empty list threaded through this store's arrays."""
        return FreeList(self)

    def _register(self, flist: "FreeList") -> int:
        self._next_id += 1
        self._lists.append(flist)
        return self._next_id

    def _grow(self, min_capacity: int) -> None:
        new_cap = self.capacity
        while new_cap < min_capacity:
            new_cap *= 2
        for name, fill in (("next", -1), ("prev", -1)):
            old = getattr(self, name)
            arr = np.full(new_cap, fill, dtype=np.int64)
            arr[: old.size] = old
            setattr(self, name, arr)
        grown = np.zeros(new_cap, dtype=np.int32)
        grown[: self.list_id.size] = self.list_id
        self.list_id = grown
        self.capacity = new_cap
        self._refresh_views()
        for fl in self._lists:
            fl._rebind()


class FreeList:
    """A set of free-block head PFNs supporting ordered extraction.

    Intrusive: the links live in the shared :class:`FreelistStore`, not
    in per-entry Python objects.  Iteration yields insertion order.
    """

    __slots__ = ("_store", "_id", "_next", "_prev", "_lid",
                 "_head", "_tail", "_count", "_min_heap", "_max_heap",
                 "_removals")

    def __init__(self, store: FreelistStore | None = None) -> None:
        if store is None:
            store = FreelistStore()
        self._store = store
        self._id = store._register(self)
        self._rebind()
        self._head = -1
        self._tail = -1
        self._count = 0
        #: Lazily-built min/max heaps for address order; ``None`` while
        #: the list has only ever served temporal (LIFO/FIFO) traffic.
        self._min_heap: list[int] | None = None
        self._max_heap: list[int] | None = None
        #: Unlinks since the last heap rebuild — an upper bound on the
        #: stale entries in either heap.
        self._removals = 0

    def _rebind(self) -> None:
        store = self._store
        self._next = store.next_mv
        self._prev = store.prev_mv
        self._lid = store.list_mv

    def __getstate__(self) -> dict:
        """Slot values minus the borrowed memoryview handles
        (``_next``/``_prev``/``_lid``), which :meth:`_rebind` re-derives
        from the store."""
        return {name: getattr(self, name) for name in self.__slots__
                if name not in ("_next", "_prev", "_lid")}

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        # Mirror image of FreelistStore.__setstate__'s cycle handling:
        # rebind now if the store is already rebuilt, otherwise the
        # store rebinds us when its own state lands.
        if hasattr(self._store, "next_mv"):
            self._rebind()

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        return self._count > 0

    def __contains__(self, pfn: int) -> bool:
        lid = self._lid
        return 0 <= pfn < len(lid) and lid[pfn] == self._id

    def __iter__(self) -> Iterator[int]:
        """Iterate members head-to-tail (insertion order), guarding
        against link corruption (a cycle would otherwise hang)."""
        nxt = self._next
        pfn = self._head
        seen = 0
        while pfn >= 0:
            seen += 1
            if seen > self._count:
                raise FreelistDivergenceError(
                    "freelist walk exceeds member count (link cycle?)",
                    pfn=pfn)
            yield pfn
            pfn = nxt[pfn]

    # -- mutation --------------------------------------------------------

    def add(self, pfn: int) -> None:
        """Link *pfn* at the tail; no-op if already on this list."""
        lid = self._lid
        try:
            cur = lid[pfn]
        except IndexError:
            self._store._grow(pfn + 1)
            lid = self._lid
            cur = 0
        ident = self._id
        if cur == ident:
            return
        if cur:
            raise FreelistDivergenceError(
                f"frame already linked on list {cur}", pfn=pfn)
        lid[pfn] = ident
        tail = self._tail
        self._prev[pfn] = tail
        self._next[pfn] = -1
        if tail >= 0:
            self._next[tail] = pfn
        else:
            self._head = pfn
        self._tail = pfn
        self._count += 1
        if self._min_heap is not None:
            heapq.heappush(self._min_heap, pfn)
            heapq.heappush(self._max_heap, -pfn)

    def extend(self, pfns) -> None:
        """Bulk-append *pfns* (unique, none currently linked) in order.

        The internal links are stitched with two fancy-index writes, so
        the cost is O(1) Python operations plus vectorised array work —
        the bulk-free fast path relies on this.
        """
        arr = np.asarray(pfns, dtype=np.int64)
        if arr.size == 0:
            return
        store = self._store
        m = int(arr.max())
        if m >= store.capacity:
            store._grow(m + 1)
        lid_arr = store.list_id
        if lid_arr[arr].any():
            bad = arr[np.flatnonzero(lid_arr[arr])[0]]
            raise FreelistDivergenceError(
                "bulk insert of an already-linked frame", pfn=int(bad))
        nxt, prv = store.next, store.prev
        nxt[arr[:-1]] = arr[1:]
        prv[arr[1:]] = arr[:-1]
        first = int(arr[0])
        last = int(arr[-1])
        tail = self._tail
        prv[first] = tail
        nxt[last] = -1
        if tail >= 0:
            self._next[tail] = first
        else:
            self._head = first
        self._tail = last
        lid_arr[arr] = self._id
        self._count += int(arr.size)
        if self._min_heap is not None:
            if arr.size <= _EXTEND_HEAP_MAX:
                mn, mx = self._min_heap, self._max_heap
                for p in arr.tolist():
                    heapq.heappush(mn, p)
                    heapq.heappush(mx, -p)
            else:
                self._min_heap = None
                self._max_heap = None
                self._removals = 0

    def discard(self, pfn: int) -> bool:
        """Unlink *pfn* if present; returns whether it was present."""
        lid = self._lid
        try:
            if lid[pfn] != self._id:
                return False
        except IndexError:
            return False
        self._unlink(pfn)
        return True

    def _unlink(self, pfn: int) -> None:
        nxt_mv, prv_mv = self._next, self._prev
        nxt = nxt_mv[pfn]
        prv = prv_mv[pfn]
        if prv >= 0:
            nxt_mv[prv] = nxt
        else:
            self._head = nxt
        if nxt >= 0:
            prv_mv[nxt] = prv
        else:
            self._tail = prv
        self._lid[pfn] = 0
        count = self._count = self._count - 1
        if self._min_heap is not None:
            if not count:
                # Emptied: drop the heaps entirely (back to the
                # zero-bookkeeping temporal mode).
                self._min_heap = None
                self._max_heap = None
                self._removals = 0
                return
            r = self._removals = self._removals + 1
            if r > _COMPACT_MIN and r > count:
                self._compact()

    # -- heap maintenance ------------------------------------------------

    def _build_heaps(self) -> None:
        """Rebuild the heaps from the live membership: walk the list's
        own chain and sort, O(k log k) in the list's length (a sorted
        list is a valid binary min-heap).  Sizing the build by the list,
        not the store, keeps a refilled, near-empty list on a large
        machine from rescanning every frame."""
        nxt = self._next
        live = []
        append = live.append
        pfn = self._head
        for _ in range(self._count):
            append(pfn)
            pfn = nxt[pfn]
        live.sort()
        self._min_heap = live
        self._max_heap = [-p for p in reversed(live)]
        self._removals = 0

    def _compact(self) -> None:
        """Rebuild the address heaps from the live set (no-op in the
        temporal mode).  Pop order is unchanged: the heaps are rebuilt
        sorted, and address pops are value-based."""
        if self._min_heap is None:
            return
        self._build_heaps()

    def stale_entries(self) -> int:
        """Total stale (lazy-deleted) entries across the heaps —
        exposed for the churn tests, the sanitizer bound, and
        diagnostics.  Zero in the temporal mode and immediately after
        a rebuild."""
        if self._min_heap is None:
            return 0
        live = self._count
        return max(0, len(self._min_heap) - live) + \
            max(0, len(self._max_heap) - live)

    # -- pops ------------------------------------------------------------

    def pop_lifo(self) -> int:
        """Remove and return the most recently added PFN (Linux
        list-head behaviour); raises KeyError if empty."""
        pfn = self._tail
        if pfn < 0:
            raise KeyError("pop from empty FreeList")
        self._unlink(pfn)
        return pfn

    def pop_fifo(self) -> int:
        """Remove and return the oldest added PFN; raises KeyError if
        empty."""
        pfn = self._head
        if pfn < 0:
            raise KeyError("pop from empty FreeList")
        self._unlink(pfn)
        return pfn

    def pop_lowest(self) -> int:
        """Remove and return the lowest PFN (raises KeyError if empty)."""
        if self._min_heap is None:
            if not self._count:
                raise KeyError("pop from empty FreeList")
            self._build_heaps()
        heap = self._min_heap
        lid = self._lid
        ident = self._id
        while heap:
            pfn = heapq.heappop(heap)
            if lid[pfn] == ident:
                self._unlink(pfn)
                return pfn
        raise KeyError("pop from empty FreeList")

    def pop_highest(self) -> int:
        """Remove and return the highest PFN (raises KeyError if empty)."""
        if self._max_heap is None:
            if not self._count:
                raise KeyError("pop from empty FreeList")
            self._build_heaps()
        heap = self._max_heap
        lid = self._lid
        ident = self._id
        while heap:
            pfn = -heapq.heappop(heap)
            if lid[pfn] == ident:
                self._unlink(pfn)
                return pfn
        raise KeyError("pop from empty FreeList")

    def pop_many_lifo(self, k: int) -> np.ndarray:
        """Unlink and return up to *k* PFNs in LIFO order, as one int64
        array — exactly the sequence ``k`` ``pop_lifo`` calls would
        yield, at a fraction of the cost (one tail-walk, vectorised
        ``list_id`` clear)."""
        count = self._count
        if k > count:
            k = count
        if k <= 0:
            return _EMPTY_PFNS
        prv = self._prev
        out = []
        append = out.append
        pfn = self._tail
        for _ in range(k):
            append(pfn)
            pfn = prv[pfn]
        return self._detach_tail(out, pfn, k)

    def pop_many_fifo(self, k: int) -> np.ndarray:
        """FIFO counterpart of :meth:`pop_many_lifo`."""
        count = self._count
        if k > count:
            k = count
        if k <= 0:
            return _EMPTY_PFNS
        nxt_mv = self._next
        out = []
        append = out.append
        pfn = self._head
        for _ in range(k):
            append(pfn)
            pfn = nxt_mv[pfn]
        arr = np.asarray(out, dtype=np.int64)
        self._store.list_id[arr] = 0
        self._head = pfn
        if pfn >= 0:
            self._prev[pfn] = -1
        else:
            self._tail = -1
        self._finish_bulk_pop(k)
        return arr

    def _detach_tail(self, out: list[int], new_tail: int,
                     k: int) -> np.ndarray:
        arr = np.asarray(out, dtype=np.int64)
        self._store.list_id[arr] = 0
        self._tail = new_tail
        if new_tail >= 0:
            self._next[new_tail] = -1
        else:
            self._head = -1
        self._finish_bulk_pop(k)
        return arr

    def _finish_bulk_pop(self, k: int) -> None:
        count = self._count = self._count - k
        if self._min_heap is not None:
            if not count:
                self._min_heap = None
                self._max_heap = None
                self._removals = 0
                return
            r = self._removals = self._removals + k
            if r > _COMPACT_MIN and r > count:
                self._compact()

    # -- peeks -----------------------------------------------------------

    def peek_lowest(self) -> int:
        """Return the lowest PFN without removing it."""
        if self._min_heap is None:
            if not self._count:
                raise KeyError("peek on empty FreeList")
            self._build_heaps()
        heap = self._min_heap
        lid = self._lid
        ident = self._id
        while heap and lid[heap[0]] != ident:
            heapq.heappop(heap)
        if not heap:
            raise KeyError("peek on empty FreeList")
        return heap[0]

    def peek_highest(self) -> int:
        """Return the highest PFN without removing it."""
        if self._max_heap is None:
            if not self._count:
                raise KeyError("peek on empty FreeList")
            self._build_heaps()
        heap = self._max_heap
        lid = self._lid
        ident = self._id
        while heap and lid[-heap[0]] != ident:
            heapq.heappop(heap)
        if not heap:
            raise KeyError("peek on empty FreeList")
        return -heap[0]

    # -- integrity -------------------------------------------------------

    def check_invariants(self) -> None:
        """Full link-integrity sweep (called by the debug_vm sanitizer).

        Walks the chain both ways, cross-checks membership against the
        store's ``list_id`` column, and bounds heap staleness.  Raises
        :class:`~repro.errors.FreelistDivergenceError` on any drift.
        """
        ident = self._id
        lid = self._lid
        nxt_mv, prv_mv = self._next, self._prev
        seen = 0
        prev = -1
        pfn = self._head
        while pfn >= 0:
            seen += 1
            if seen > self._count:
                raise FreelistDivergenceError(
                    "forward walk exceeds member count (cycle?)", pfn=pfn)
            if lid[pfn] != ident:
                raise FreelistDivergenceError(
                    f"linked frame tagged list {lid[pfn]}, "
                    f"expected {ident}", pfn=pfn)
            if prv_mv[pfn] != prev:
                raise FreelistDivergenceError(
                    f"prev link {prv_mv[pfn]} != expected {prev}", pfn=pfn)
            prev = pfn
            pfn = nxt_mv[pfn]
        if seen != self._count:
            raise FreelistDivergenceError(
                f"walk found {seen} members, count says {self._count}")
        if prev != self._tail:
            raise FreelistDivergenceError(
                f"walk ended at {prev}, tail says {self._tail}")
        tagged = int(np.count_nonzero(self._store.list_id == ident))
        if tagged != self._count:
            raise FreelistDivergenceError(
                f"{tagged} frames tagged for this list, "
                f"count says {self._count}")
        if self.stale_entries() > 2 * max(_COMPACT_MIN, self._count) + 2:
            raise FreelistDivergenceError(
                f"heap staleness {self.stale_entries()} exceeds the "
                f"compaction bound (live {self._count})")


class LegacyFreeList:
    """The previous dict+deque representation, kept as the differential
    reference for the intrusive :class:`FreeList` (and still fully
    functional standalone).

    Membership is a pfn -> generation-stamp map; address order comes
    from two lazy-deletion heaps and temporal order from a lazy-deletion
    deque of ``(stamp, pfn)`` entries.  A queue entry is live only while
    its stamp matches the member's current stamp, so a member discarded
    and later re-added takes its temporal position from the re-add —
    matching the intrusive list bit-for-bit on every pop mode.
    """

    __slots__ = ("_members", "_min_heap", "_max_heap", "_queue",
                 "_removals", "_stamp")

    def __init__(self) -> None:
        self._members: dict[int, int] = {}
        self._min_heap: list[int] = []
        self._max_heap: list[int] = []
        self._queue: deque[tuple[int, int]] = deque()
        #: Removals since the last compaction — an upper bound on the
        #: stale entries in any one structure.
        self._removals = 0
        self._stamp = 0

    def __len__(self) -> int:
        return len(self._members)

    def __bool__(self) -> bool:
        return bool(self._members)

    def __contains__(self, pfn: int) -> bool:
        return pfn in self._members

    def __iter__(self) -> Iterator[int]:
        """Iterate members in insertion order (stamp order)."""
        members = self._members
        return iter(sorted(members, key=members.__getitem__))

    def add(self, pfn: int) -> None:
        """Insert a free block head; no-op if already present."""
        if pfn in self._members:
            return
        stamp = self._stamp = self._stamp + 1
        self._members[pfn] = stamp
        heapq.heappush(self._min_heap, pfn)
        heapq.heappush(self._max_heap, -pfn)
        self._queue.append((stamp, pfn))

    def extend(self, pfns) -> None:
        """Bulk-append (scalar loop — parity surface for the fuzzer)."""
        for pfn in np.asarray(pfns, dtype=np.int64).tolist():
            self.add(pfn)

    def discard(self, pfn: int) -> bool:
        """Remove *pfn* if present; returns whether it was present."""
        if pfn in self._members:
            del self._members[pfn]
            self._note_removal()
            return True
        return False

    def _note_removal(self) -> None:
        r = self._removals = self._removals + 1
        if r > _COMPACT_MIN and r > len(self._members):
            self._compact()

    def _compact(self) -> None:
        """Rebuild all three structures from the live set.

        A sorted list is a valid binary min-heap, so the heaps pop in
        exactly the same order afterwards.  The queue is rebuilt to
        exactly one (current-stamp) entry per live member in stamp
        order, so LIFO/FIFO pops are unchanged and ``stale_entries()``
        is zero after every rebuild.
        """
        self._removals = 0
        members = self._members
        self._min_heap = sorted(members)
        self._max_heap = [-p for p in reversed(self._min_heap)]
        if len(self._queue) > len(members):
            self._queue = deque(
                sorted((stamp, pfn) for pfn, stamp in members.items()))

    def pop_lowest(self) -> int:
        """Remove and return the lowest PFN (raises KeyError if empty)."""
        members = self._members
        while self._min_heap:
            pfn = heapq.heappop(self._min_heap)
            if pfn in members:
                del members[pfn]
                self._note_removal()
                return pfn
        raise KeyError("pop from empty FreeList")

    def pop_highest(self) -> int:
        """Remove and return the highest PFN (raises KeyError if empty)."""
        members = self._members
        while self._max_heap:
            pfn = -heapq.heappop(self._max_heap)
            if pfn in members:
                del members[pfn]
                self._note_removal()
                return pfn
        raise KeyError("pop from empty FreeList")

    def pop_lifo(self) -> int:
        """Remove and return the most recently added PFN; raises
        KeyError if empty."""
        members = self._members
        while self._queue:
            stamp, pfn = self._queue.pop()
            if members.get(pfn) == stamp:
                del members[pfn]
                self._note_removal()
                return pfn
        raise KeyError("pop from empty FreeList")

    def pop_fifo(self) -> int:
        """Remove and return the oldest added PFN; raises KeyError if
        empty."""
        members = self._members
        while self._queue:
            stamp, pfn = self._queue.popleft()
            if members.get(pfn) == stamp:
                del members[pfn]
                self._note_removal()
                return pfn
        raise KeyError("pop from empty FreeList")

    def pop_many_lifo(self, k: int) -> np.ndarray:
        """Parity surface for the fuzzer (scalar loop)."""
        out = []
        while k > 0 and self._members:
            out.append(self.pop_lifo())
            k -= 1
        return np.asarray(out, dtype=np.int64) if out else _EMPTY_PFNS

    def pop_many_fifo(self, k: int) -> np.ndarray:
        """Parity surface for the fuzzer (scalar loop)."""
        out = []
        while k > 0 and self._members:
            out.append(self.pop_fifo())
            k -= 1
        return np.asarray(out, dtype=np.int64) if out else _EMPTY_PFNS

    def stale_entries(self) -> int:
        """Total stale (lazy-deleted) entries across the internal
        structures — exposed for the churn tests, the sanitizer's
        post-rebuild invariant, and diagnostics."""
        live = len(self._members)
        return (len(self._min_heap) - live) + \
            (len(self._max_heap) - live) + \
            max(0, len(self._queue) - live)

    def peek_lowest(self) -> int:
        """Return the lowest PFN without removing it."""
        while self._min_heap and self._min_heap[0] not in self._members:
            heapq.heappop(self._min_heap)
        if not self._min_heap:
            raise KeyError("peek on empty FreeList")
        return self._min_heap[0]

    def peek_highest(self) -> int:
        """Return the highest PFN without removing it."""
        while self._max_heap and -self._max_heap[0] not in self._members:
            heapq.heappop(self._max_heap)
        if not self._max_heap:
            raise KeyError("peek on empty FreeList")
        return -self._max_heap[0]

    def check_invariants(self) -> None:
        """Structure-soundness sweep (sanitizer hook): every member must
        be reachable from the queue and heaps, and staleness must
        respect the compaction bound — in particular, a freshly rebuilt
        list reports ``stale_entries() == 0``."""
        members = self._members
        live = len(members)
        queued = {pfn for stamp, pfn in self._queue
                  if members.get(pfn) == stamp}
        if queued != set(members):
            raise FreelistDivergenceError(
                f"{live - len(queued)} members missing a live queue entry")
        heap_set = set(self._min_heap)
        if not set(members) <= heap_set:
            raise FreelistDivergenceError("member missing from min-heap")
        bound = 3 * (max(_COMPACT_MIN, live) + 1) + live
        if self.stale_entries() > bound:
            raise FreelistDivergenceError(
                f"staleness {self.stale_entries()} exceeds the "
                f"compaction bound {bound} (live {live})")
