"""Measurement, reporting, and correctness tooling.

Contiguity scans, the HW cost model, and table rendering reproduce the
paper's measurements; :mod:`~repro.analysis.simlint` (static analysis)
and :mod:`~repro.analysis.sanitizer` (runtime frame-state checking) keep
the simulator itself honest — see ``docs/ANALYSIS.md``.  The lint engine
is imported from its own package, so importing the simulator does not
load it.
"""

from .contiguity import (
    SCAN_GRANULARITIES,
    contiguity_report,
    free_block_count,
    free_contiguity,
    movable_potential,
    unmovable_block_fraction,
    unmovable_page_fraction,
    unmovable_region_internal_frag,
    unmovable_report,
)
from .hwcost import (
    MetadataTableCost,
    SramCostModel,
    migrations_per_second_capacity,
)
from .reporting import format_cdf, format_table, percent
from .sanitizer import (
    FrameSanitizer,
    debug_vm_enabled,
    verify_allocator,
    verify_kernel,
)
from .snapshot import MemorySnapshot, load_snapshot, save_snapshot
from .timeline import TimelineRecorder, watch_kernel

__all__ = [
    "FrameSanitizer",
    "MemorySnapshot",
    "MetadataTableCost",
    "SCAN_GRANULARITIES",
    "SramCostModel",
    "TimelineRecorder",
    "contiguity_report",
    "debug_vm_enabled",
    "format_cdf",
    "format_table",
    "free_block_count",
    "free_contiguity",
    "migrations_per_second_capacity",
    "movable_potential",
    "percent",
    "unmovable_block_fraction",
    "unmovable_page_fraction",
    "unmovable_region_internal_frag",
    "load_snapshot",
    "save_snapshot",
    "unmovable_report",
    "verify_allocator",
    "verify_kernel",
    "watch_kernel",
]
