"""Per-layer metrics: which functions the traced run wraps, and how
their spans, the run's vmstat counters and the untraced timings become
the ``per_layer`` metrics declared in ``BENCHMARK.json``.

Every metric is reported on every workload; a layer a workload never
enters reads 0 there (``sim.*`` outside ``loadgen-burst``,
``checkpoint.*`` outside the two checkpoint workloads).
"""

from __future__ import annotations

import itertools

import numpy as np

from .spans import LAYERS, SpanRecorder

#: (name, unit) of every per-layer metric, in print order.
PER_LAYER = [
    ("workloads.start_s", "s"),
    ("workloads.step_self_s", "s"),
    ("workloads.step_ms_p50", "ms"),
    ("workloads.step_ms_p95", "ms"),
    ("workloads.step_samples", "count"),
    ("workloads.tracegen_sample_s", "s"),
    ("workloads.latency_observe_s", "s"),
    ("kalloc.netbuf_alloc_s", "s"),
    ("kalloc.netbuf_free_s", "s"),
    ("kalloc.netbuf_calls", "count"),
    ("kalloc.slab_s", "s"),
    ("kalloc.slab_calls", "count"),
    ("mm.alloc_pages_s", "s"),
    ("mm.alloc_pages_calls", "count"),
    ("mm.free_pages_s", "s"),
    ("mm.free_pages_calls", "count"),
    ("mm.us_per_alloc", "us"),
    ("mm.advance_s", "s"),
    ("mm.alloc_pages_bulk_s", "s"),
    ("mm.alloc_thp_s", "s"),
    ("mm.compact_s", "s"),
    ("mm.compact_runs", "count"),
    ("mm.compact_pages_per_run", "ratio"),
    ("mm.reclaim_s", "s"),
    ("mm.reclaim_runs", "count"),
    ("mm.reclaim_yield", "ratio"),
    ("mm.alloc_fail_frac", "ratio"),
    ("mm.pageblock_steals", "count"),
    ("core.alloc_pages_self_s", "s"),
    ("core.pin_pages_s", "s"),
    ("core.advance_s", "s"),
    ("core.resize_runs", "count"),
    ("core.pin_migrations", "count"),
    ("sim.serve_request_s", "s"),
    ("sim.execute_s", "s"),
    ("sim.execute_calls", "count"),
    ("sim.ns_per_execute", "ns"),
    ("fleet.server_s_p50", "s"),
    ("fleet.server_s_p95", "s"),
    ("fleet.servers_traced", "count"),
    ("fleet.boot_s", "s"),
    ("analysis.scan_s", "s"),
    ("fleet.parallel_speedup", "ratio"),
    ("fleet.workers", "count"),
    ("fleet.degraded", "count"),
    ("checkpoint.save_s", "s"),
    ("checkpoint.saves", "count"),
    ("checkpoint.bytes", "bytes"),
    ("checkpoint.load_s", "s"),
    ("checkpoint.restore_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
] + [(f"layer.{layer}_share", "ratio") for layer in LAYERS]


def trace_targets() -> list[tuple]:
    """``(owner, attr, span name, unit)`` for every wrapped function.

    Methods are wrapped on the class that defines them, so a subclass
    override and its ``super()`` call get a span each.  Free functions
    are wrapped on the module their caller reads them from.
    """
    import repro.checkpoint as checkpoint
    import repro.fleet.server as fleet_server
    import repro.workloads.tracegen as tracegen
    from repro.checkpoint import CheckpointStore
    from repro.core import ContiguitasKernel, RegionResizer
    from repro.fleet import SimulatedServer
    from repro.kalloc import NetworkBufferPool, SlabCache
    from repro.mm import Compactor, LinuxKernel, ReclaimLRU
    from repro.sim import TimingCore
    from repro.workloads import LatencyRecorder, RequestLoop, Workload

    requests = itertools.count()
    return [
        (LinuxKernel, "__init__", "mm.kernel_init", None),
        (LinuxKernel, "alloc_pages", "mm.alloc_pages", None),
        (LinuxKernel, "alloc_pages_bulk", "mm.alloc_pages_bulk", None),
        (LinuxKernel, "alloc_thp", "mm.alloc_thp", None),
        (LinuxKernel, "free_pages", "mm.free_pages", None),
        (LinuxKernel, "advance", "mm.advance", None),
        (Compactor, "compact", "mm.compact", None),
        (ReclaimLRU, "reclaim", "mm.reclaim", None),
        (ContiguitasKernel, "__init__", "core.kernel_init", None),
        (ContiguitasKernel, "alloc_pages", "core.alloc_pages", None),
        (ContiguitasKernel, "alloc_pages_bulk", "core.alloc_pages_bulk",
         None),
        (ContiguitasKernel, "pin_pages", "core.pin_pages", None),
        (ContiguitasKernel, "advance", "core.advance", None),
        (RegionResizer, "run", "core.resize", None),
        (NetworkBufferPool, "alloc_buffer", "kalloc.netbuf_alloc", None),
        (NetworkBufferPool, "free_buffer", "kalloc.netbuf_free", None),
        (SlabCache, "alloc_object", "kalloc.slab_alloc", None),
        (SlabCache, "free_object", "kalloc.slab_free", None),
        (Workload, "start", "workloads.start", None),
        (Workload, "step", "workloads.step",
         lambda args: args[0].steps + 1),
        (tracegen, "sample_arrivals", "workloads.sample_arrivals", None),
        (tracegen, "sample_service", "workloads.sample_service", None),
        (LatencyRecorder, "observe", "workloads.latency_observe", None),
        (RequestLoop, "serve_request", "workloads.serve_request",
         lambda args: next(requests)),
        (TimingCore, "execute", "sim.execute", None),
        (SimulatedServer, "run", "fleet.server",
         lambda args: args[0].seed),
        (fleet_server, "contiguity_report", "analysis.contiguity_report",
         None),
        (fleet_server, "unmovable_report", "analysis.unmovable_report",
         None),
        (fleet_server, "free_block_count", "analysis.free_block_count",
         None),
        (fleet_server, "unmovable_breakdown", "analysis.unmovable_breakdown",
         None),
        (CheckpointStore, "save", "checkpoint.save", None),
        (CheckpointStore, "load_latest", "checkpoint.load_latest", None),
        (checkpoint, "restore_kernel", "checkpoint.restore_kernel", None),
    ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def per_layer_metrics(rec: SpanRecorder, traced_wall_s: float,
                      vmstat: dict, extra: dict) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced repetition.

    *vmstat* is the repetition's simulated counters; *extra* carries
    the untraced measurements (``step_s``, ``overhead_frac``,
    ``parallel_speedup``, ``workers``, ``degraded``,
    ``checkpoint_bytes``).
    """
    spans = rec.summary()

    def total(*names: str) -> float:
        return sum(spans.get(n, {}).get("total_s", 0.0) for n in names)

    def self_s(*names: str) -> float:
        return sum(spans.get(n, {}).get("self_s", 0.0) for n in names)

    def calls(*names: str) -> int:
        return sum(spans.get(n, {}).get("calls", 0) for n in names)

    def stat(key: str) -> int:
        return int(vmstat.get(key, 0))

    step_ms = [s * 1e3 for s in extra.get("step_s", ())]
    alloc_s = total("mm.alloc_pages", "core.alloc_pages")
    alloc_calls = calls("mm.alloc_pages", "core.alloc_pages")
    attempts = stat("alloc_success") + stat("alloc_fail")
    servers = rec.durations("fleet.server")
    out = {
        "workloads.start_s": total("workloads.start"),
        "workloads.step_self_s": self_s("workloads.step"),
        "workloads.step_ms_p50": _percentile(step_ms, 50),
        "workloads.step_ms_p95": _percentile(step_ms, 95),
        "workloads.step_samples": len(step_ms),
        "workloads.tracegen_sample_s": total("workloads.sample_arrivals",
                                             "workloads.sample_service"),
        "workloads.latency_observe_s": total("workloads.latency_observe"),
        "kalloc.netbuf_alloc_s": total("kalloc.netbuf_alloc"),
        "kalloc.netbuf_free_s": total("kalloc.netbuf_free"),
        "kalloc.netbuf_calls": calls("kalloc.netbuf_alloc",
                                     "kalloc.netbuf_free"),
        "kalloc.slab_s": total("kalloc.slab_alloc", "kalloc.slab_free"),
        "kalloc.slab_calls": calls("kalloc.slab_alloc", "kalloc.slab_free"),
        "mm.alloc_pages_s": alloc_s,
        "mm.alloc_pages_calls": alloc_calls,
        "mm.free_pages_s": total("mm.free_pages"),
        "mm.free_pages_calls": calls("mm.free_pages"),
        "mm.us_per_alloc": _ratio(alloc_s * 1e6, alloc_calls),
        "mm.advance_s": total("mm.advance", "core.advance"),
        "mm.alloc_pages_bulk_s": total("mm.alloc_pages_bulk",
                                       "core.alloc_pages_bulk"),
        "mm.alloc_thp_s": total("mm.alloc_thp"),
        "mm.compact_s": total("mm.compact"),
        "mm.compact_runs": stat("compact_runs"),
        "mm.compact_pages_per_run": _ratio(stat("compact_pages_migrated"),
                                           stat("compact_runs")),
        "mm.reclaim_s": total("mm.reclaim"),
        "mm.reclaim_runs": stat("reclaim_runs"),
        "mm.reclaim_yield": _ratio(stat("pages_reclaimed"),
                                   stat("reclaim_runs")),
        "mm.alloc_fail_frac": _ratio(stat("alloc_fail"), attempts),
        "mm.pageblock_steals": stat("pageblock_steal"),
        "core.alloc_pages_self_s": self_s("core.alloc_pages"),
        "core.pin_pages_s": total("core.pin_pages"),
        "core.advance_s": total("core.advance"),
        "core.resize_runs": calls("core.resize"),
        "core.pin_migrations": stat("pin_migrations"),
        "sim.serve_request_s": total("workloads.serve_request"),
        "sim.execute_s": total("sim.execute"),
        "sim.execute_calls": calls("sim.execute"),
        "sim.ns_per_execute": _ratio(total("sim.execute") * 1e9,
                                     calls("sim.execute")),
        "fleet.server_s_p50": _percentile(servers, 50),
        "fleet.server_s_p95": _percentile(servers, 95),
        "fleet.servers_traced": len(servers),
        "fleet.boot_s": (total("mm.kernel_init", "core.kernel_init",
                               "workloads.start") if len(servers) else 0.0),
        "analysis.scan_s": total("analysis.contiguity_report",
                                 "analysis.unmovable_report",
                                 "analysis.free_block_count",
                                 "analysis.unmovable_breakdown"),
        "fleet.parallel_speedup": extra.get("parallel_speedup", 0.0),
        "fleet.workers": extra.get("workers", 0),
        "fleet.degraded": extra.get("degraded", 0),
        "checkpoint.save_s": total("checkpoint.save"),
        "checkpoint.saves": calls("checkpoint.save"),
        "checkpoint.bytes": extra.get("checkpoint_bytes", 0),
        "checkpoint.load_s": total("checkpoint.load_latest"),
        "checkpoint.restore_s": total("checkpoint.restore_kernel"),
        "trace.overhead_frac": extra.get("overhead_frac", 0.0),
        "trace.spans": len(rec),
    }
    shares = rec.layer_self_seconds(traced_wall_s)
    for layer in LAYERS:
        out[f"layer.{layer}_share"] = _ratio(shares[layer], traced_wall_s)
    return out
