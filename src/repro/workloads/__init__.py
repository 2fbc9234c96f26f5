"""Workload models: production services, fragmenters, load generation.

The typed front door (mirroring ``repro.fleet``):

* :func:`get_service` / :func:`list_services` /
  :func:`register_service` — the kebab-case service registry
  (``"web"``, ``"cache-b"``, ...; legacy CamelCase aliases resolve);
* :class:`WorkloadConfig` + :func:`run_workload` — one frozen config
  in, one :class:`WorkloadResult` out;
* :class:`LoadgenConfig` + :func:`run_loadgen` — open-loop
  trace-driven load generation with tail-latency recording
  (:mod:`repro.workloads.tracegen`).

Deprecated (warn-once shims, see docs/API.md): the service module
constants ``WEB``/``CACHE_A``/``CACHE_B``/``CI``/``ADS``/``RDMA`` and
the ``BY_NAME`` dict — use the registry instead.
"""

from ..errors import warn_once
from .base import Workload, WorkloadSpec
from .config import WorkloadConfig, WorkloadResult, run_workload
from .fragmenter import fragment_fully, fragment_partially
from .registry import (
    canonical_service_name,
    get_service,
    list_services,
    register_service,
)
from .requestloop import (
    LoopResult,
    MigrationSchedule,
    RequestLoop,
    relative_throughput_simulated,
)
from .tracegen import (
    LatencyRecorder,
    LoadgenConfig,
    LoadgenResult,
    TraceShape,
    get_shape,
    list_shapes,
    register_shape,
    run_loadgen,
    sample_arrivals,
    sample_service,
)
from .tracelog import TraceEvent, TraceRecorder, load_trace, replay
from .interference import (
    MEMCACHED,
    NGINX,
    REGULAR_RATE,
    VERY_HIGH_RATE,
    ServerApp,
    interference_overhead,
    migration_window_cycles,
    relative_throughput,
)
from .services import PRODUCTION_SERVICES, WALK_CHARACTERISATION

__all__ = [
    "LatencyRecorder",
    "LoadgenConfig",
    "LoadgenResult",
    "LoopResult",
    "MEMCACHED",
    "MigrationSchedule",
    "NGINX",
    "PRODUCTION_SERVICES",
    "REGULAR_RATE",
    "RequestLoop",
    "ServerApp",
    "TraceEvent",
    "TraceRecorder",
    "TraceShape",
    "VERY_HIGH_RATE",
    "WALK_CHARACTERISATION",
    "Workload",
    "WorkloadConfig",
    "WorkloadResult",
    "WorkloadSpec",
    "canonical_service_name",
    "fragment_fully",
    "fragment_partially",
    "get_service",
    "get_shape",
    "interference_overhead",
    "list_services",
    "list_shapes",
    "load_trace",
    "migration_window_cycles",
    "register_service",
    "register_shape",
    "relative_throughput",
    "relative_throughput_simulated",
    "replay",
    "run_loadgen",
    "run_workload",
    "sample_arrivals",
    "sample_service",
]

#: Deprecated module constants and their registry names.
_DEPRECATED_SERVICES = {
    "WEB": "web",
    "CACHE_A": "cache-a",
    "CACHE_B": "cache-b",
    "CI": "ci",
    "ADS": "ads",
    "RDMA": "rdma",
}

def __getattr__(name: str):
    """Warn-once deprecation shims for the pre-registry surface.

    ``from repro.workloads import CACHE_B`` keeps working but points at
    the registry; the first access per process warns, later accesses
    are silent even under ``-W error`` (sweeps don't die mid-run).
    """
    if name in _DEPRECATED_SERVICES:
        registry_name = _DEPRECATED_SERVICES[name]
        warn_once(name, (
            f"repro.workloads.{name} is deprecated; use "
            f"get_service({registry_name!r}) (docs/API.md)"), stacklevel=3)
        return get_service(registry_name)
    if name == "BY_NAME":
        warn_once("BY_NAME", (
            "repro.workloads.BY_NAME is deprecated; use "
            "get_service(name) / list_services() (docs/API.md)"),
            stacklevel=3)
        from .services import BY_NAME
        return BY_NAME
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}")
