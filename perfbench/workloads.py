"""The benchmark's workloads, each driven through a public front door.

Every workload runs in repetitions.  One repetition sets up a simulated
system (timed as set-up), runs a fixed amount of work on it (timed as
the run) and returns the simulated outputs that the output check
digests.  Each repetition draws its input from a sub-seed of the run's
``--seed``; the first sub-seed runs twice in a row, so every run proves
that equal inputs give equal digests, and the default seed's first
digest is compared against ``golden.json``.

Why sub-seeds: the simulated work of one input depends on its seed (a
steady-churn leg that reclaims more often also prunes its cache list
more often; two 300-step Linux-leg seeds differed by 15 % in repeated
runs).  Spreading a run over several inputs keeps that out of the
run-to-run spread across seeds.
"""

from __future__ import annotations

import dataclasses
import itertools
import multiprocessing
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field

from repro.analysis import unmovable_block_fraction
from repro.checkpoint import CheckpointStore
from repro.core import ContiguitasConfig, ContiguitasKernel
from repro.fleet import FleetConfig, ServerConfig, survey_fleet
from repro.mm import KernelConfig, LinuxKernel
from repro.sim import DEFAULT_PARAMS
from repro.units import PAGEBLOCK_FRAMES, MiB
from repro.workloads import (
    NGINX,
    LoadgenConfig,
    RequestLoop,
    Workload,
    WorkloadConfig,
    get_service,
    get_shape,
    run_loadgen,
    run_workload,
    sample_arrivals,
    sample_service,
)

clock = time.perf_counter

#: Input sizes: ``full`` is what the benchmark measures, ``tiny`` is a
#: seconds-long smoke size for the benchmark's own tests.
SIZES = ("full", "tiny")


@dataclass
class Rep:
    """One repetition's timings and simulated outputs."""

    #: Host seconds to bring the simulated system up; ``None`` when the
    #: repetition reused a system set up earlier.
    setup_s: float | None
    #: Host seconds of the timed work.
    run_s: float
    #: Work units completed in ``run_s`` (steps, servers, instructions,
    #: restores).
    units: int
    #: JSON-safe simulated outputs; their digest is the output check.
    output: dict
    #: Failure-ratio units that came back degraded (fleet servers).
    failed: int = 0
    #: Simulated values printed beside the digest; not gated.
    shown: dict = field(default_factory=dict)
    #: Simulated vmstat counters, for the per-layer metrics.
    vmstat: dict = field(default_factory=dict)
    #: Extra host measurements for the per-layer metrics.
    extra: dict = field(default_factory=dict)
    #: False when an output check inside the repetition failed.
    ok: bool = True


class Bench:
    """One benchmark workload.

    ``rep(seed, trace_config)`` runs one repetition on input *seed*.
    A traced run passes ``trace_config=True`` to its untraced baseline
    and its traced repetition alike, so a workload whose full size
    would record too many spans, or whose trace must stay in one
    process, can pick a different configuration for both.
    """

    name = ""
    unit = ""
    #: The workload's headline metric by its own name and unit: units
    #: per second, or its inverse when the unit is ``s``.
    alias: tuple = ()
    #: Failure-ratio units per repetition: kernel legs, servers,
    #: bursts or runs.
    attempts = 1
    #: Processes running a repetition at once (peak memory counts each).
    workers = 1
    #: Repetitions a traced run makes before its untraced baseline, so
    #: the baseline and the traced repetition do the same work.
    trace_warmup = 0

    def __init__(self, size: str, workdir: str) -> None:
        if size not in SIZES:
            raise ValueError(f"unknown size {size!r}; known: {SIZES}")
        self.size = size
        self.workdir = workdir

    @property
    def full(self) -> bool:
        return self.size == "full"

    def inputs(self, seed: int):
        """Input seeds of the repetitions of a run on *seed*: a fresh
        sub-seed each, except that the first one runs twice."""
        yield seed * 1000
        yield from itertools.count(seed * 1000)

    def rep(self, seed: int, trace_config: bool = False) -> Rep:
        raise NotImplementedError

    def close(self) -> None:
        """Release anything kept between repetitions."""


class SteadyChurn(Bench):
    """The ``web`` service on a 1 GiB machine with the page cache bounded
    at ~97 % utilisation (the Figs. 10-12 steady-state path)."""

    unit = "steps"

    def __init__(self, size: str, workdir: str, kernel: str) -> None:
        super().__init__(size, workdir)
        self.kernel = kernel
        self.name = f"steady-churn-{kernel}"
        self.alias = (f"{kernel}_steps_per_s", "steps/s")
        self.mem = MiB(1024) if self.full else MiB(64)
        # Linux reclaims and compacts from step ~250.  The Contiguitas
        # leg stops at 200: from step ~200 its inputs split into two
        # regimes (the unmovable region shrinks early and the leg barely
        # reclaims, or it never shrinks and reclaims ~580 times by step
        # 250), 25 % apart in cost, which a 20 s run of 3-4 inputs
        # cannot average out.
        self.steps = ({"linux": 300, "contiguitas": 200}[kernel]
                      if self.full else 5)
        spec = get_service("web")
        self.spec = dataclasses.replace(
            spec, cache_opportunistic=False,
            cache_fraction=max(0.05, 0.97 - spec.anon_fraction - 0.06))

    def boot(self):
        if self.kernel == "linux":
            return LinuxKernel(KernelConfig(mem_bytes=self.mem))
        return ContiguitasKernel(ContiguitasConfig(mem_bytes=self.mem))

    def rep(self, seed: int, trace_config: bool = False) -> Rep:
        t0 = clock()
        kernel = self.boot()
        workload = Workload(kernel, self.spec, seed=seed)
        workload.start()
        t1 = clock()
        step_s = []
        for _ in range(self.steps):
            a = clock()
            workload.step()
            step_s.append(clock() - a)
        run_s = clock() - t1
        kernel.check_consistency()
        unmovable = unmovable_block_fraction(kernel.mem, PAGEBLOCK_FRAMES)
        return Rep(
            setup_s=t1 - t0, run_s=run_s, units=self.steps,
            output={"vmstat": kernel.stat.snapshot(),
                    "unmovable_fraction": unmovable,
                    "free_frames": kernel.free_frames()},
            shown={"unmovable_fraction": round(unmovable, 4)},
            vmstat=kernel.stat.snapshot(), extra={"step_s": step_s})


class FleetSurvey(Bench):
    """``survey_fleet`` over 64 MiB servers with 40-80-step uptimes (the
    ``fleet_survey_1k`` shape) on one worker per CPU."""

    name = "fleet-survey"
    unit = "servers"
    alias = ("servers_per_s", "servers/s")

    def __init__(self, size: str, workdir: str) -> None:
        super().__init__(size, workdir)
        self.n_servers = self.attempts = 128 if self.full else 4
        self.workers = len(os.sched_getaffinity(0))
        self.server = ServerConfig(mem_bytes=MiB(64), min_uptime_steps=40,
                                   max_uptime_steps=80)

    def config(self, seed: int, n_servers: int, workers: int) -> FleetConfig:
        # Disjoint server seeds per input: server i is base_seed + i.
        return FleetConfig(n_servers=n_servers, server=self.server,
                           base_seed=seed * self.n_servers, workers=workers)

    def rep(self, seed: int, trace_config: bool = False) -> Rep:
        workers = 1 if trace_config else self.workers
        # Set-up: a campaign of one server per worker, so pool start,
        # worker imports and per-server boot show on their own.
        t0 = clock()
        survey_fleet(self.config(seed, workers, workers))
        setup_s = clock() - t0
        self.close()
        t0 = clock()
        summary = survey_fleet(self.config(seed, self.n_servers, workers))
        run_s = clock() - t0
        self.close()
        return Rep(
            setup_s=setup_s, run_s=run_s, units=self.n_servers,
            output=summary.snapshot(), failed=summary.n_failed_servers,
            shown={"no_free_2m_share":
                   round(summary.fraction_without_any_2mb, 4)},
            vmstat=summary.vmstat_totals().snapshot(),
            extra={"degraded": summary.n_failed_servers})

    def close(self) -> None:
        # The survey's pool shuts down without waiting for its workers;
        # reap them outside the timed windows, so that the next window
        # starts with none alive and their peak memory is counted.
        for child in multiprocessing.active_children():
            child.join()


class LoadgenBurst(Bench):
    """An open-loop ``azure-faas`` burst against NGINX under
    noncacheable buffer migration.  Work is counted in simulated
    instructions, not requests: service demand per request is drawn
    from a heavy-tailed family, and requests per host second ranged
    from 6.4k to 10k over six seeds."""

    name = "loadgen-burst"
    unit = "instructions"
    alias = ("instructions_per_s", "1/s")

    def __init__(self, size: str, workdir: str) -> None:
        super().__init__(size, workdir)
        self.duration_s = 4e-3 if self.full else 1e-4
        #: Shorter burst when traced: every instruction is a span.
        self.trace_duration_s = 1e-3 if self.full else 1e-4

    def rep(self, seed: int, trace_config: bool = False) -> Rep:
        duration = (self.trace_duration_s if trace_config
                    else self.duration_s)
        config = LoadgenConfig(shape="azure-faas", app="nginx",
                               design="noncacheable", rate_rps=2e6,
                               duration_s=duration, seed=seed)
        # Set-up: the inputs (arrivals and service demands) and the
        # simulated core, as the burst builds them.
        t0 = clock()
        shape = get_shape(config.shape)
        arrivals, _ = sample_arrivals(shape, config.rate_rps, duration,
                                      seed=seed)
        instructions = sum(sample_service(shape, len(arrivals), seed=seed))
        RequestLoop(NGINX, DEFAULT_PARAMS, buffer_pages=config.buffer_pages,
                    seed=seed)
        setup_s = clock() - t0
        t0 = clock()
        result = run_loadgen(config)
        run_s = clock() - t0
        summary = result.summary()
        return Rep(
            setup_s=setup_s, run_s=run_s, units=instructions,
            output=summary, shown={"all.p99_us": summary["all"]["p99_us"]})


class CheckpointedChurn(Bench):
    """``run_workload`` for ``cache-b`` on a 256 MiB Linux machine with a
    checkpoint every 100 steps, then the same run resumed from its last
    checkpoint; the two snapshots must be equal."""

    name = "checkpointed-churn"
    unit = "steps"
    alias = ("ckpt_steps_per_s", "steps/s")

    def __init__(self, size: str, workdir: str) -> None:
        super().__init__(size, workdir)
        mem = MiB(256) if self.full else MiB(32)
        steps, self.every = (400, 100) if self.full else (4, 2)
        self.base = WorkloadConfig(service="cache-b", kernel="linux",
                                   mem_bytes=mem, steps=steps)

    def config(self, seed: int) -> WorkloadConfig:
        return dataclasses.replace(self.base, seed=seed)

    def checkpointed(self, config: WorkloadConfig, directory: str,
                     resume: bool = False):
        return run_workload(config, checkpoint_every=self.every,
                            checkpoint_dir=directory, resume=resume)

    def rep(self, seed: int, trace_config: bool = False) -> Rep:
        config = self.config(seed)
        t0 = clock()
        run_workload(dataclasses.replace(config, steps=0))
        setup_s = clock() - t0
        directory = tempfile.mkdtemp(dir=self.workdir)
        try:
            t0 = clock()
            result = self.checkpointed(config, directory)
            run_s = clock() - t0
            resumed = self.checkpointed(config, directory, resume=True)
            size = os.path.getsize(
                CheckpointStore(directory, "workload").current_path)
        finally:
            shutil.rmtree(directory)
        snap = result.snapshot()
        return Rep(
            setup_s=setup_s, run_s=run_s, units=config.steps, output=snap,
            ok=resumed.snapshot() == snap,
            shown={"unmovable_fraction":
                   round(result.unmovable_fraction, 4)},
            vmstat=result.vmstat, extra={"checkpoint_bytes": size})


class CheckpointRestore(CheckpointedChurn):
    """Resume a finished ``checkpointed-churn`` run from its last
    checkpoint: load, unpickle, sanitizer sweep and result.  Set-up is
    the checkpointed run that writes the checkpoint; a run sets up
    three inputs and then cycles through them."""

    name = "checkpoint-restore"
    unit = "restores"
    alias = ("restore_s", "s")
    #: Inputs set up per run (each costs one checkpointed run).
    panel = 3
    trace_warmup = 1

    def __init__(self, size: str, workdir: str) -> None:
        super().__init__(size, workdir)
        self._ready: dict[int, tuple[str, dict]] = {}

    def inputs(self, seed: int):
        seeds = super().inputs(seed)
        panel = [next(seeds) for _ in range(self.panel + 1)]
        yield from panel
        while True:
            yield from panel[1:]

    def rep(self, seed: int, trace_config: bool = False) -> Rep:
        config = self.config(seed)
        setup_s = None
        if seed not in self._ready:
            directory = tempfile.mkdtemp(dir=self.workdir)
            t0 = clock()
            result = self.checkpointed(config, directory)
            setup_s = clock() - t0
            self._ready[seed] = (directory, result.snapshot())
        directory, snap = self._ready[seed]
        t0 = clock()
        resumed = self.checkpointed(config, directory, resume=True)
        run_s = clock() - t0
        out = resumed.snapshot()
        return Rep(
            setup_s=setup_s, run_s=run_s, units=1, output=out,
            ok=out == snap,
            shown={"unmovable_fraction":
                   round(resumed.unmovable_fraction, 4)},
            vmstat=resumed.vmstat)

    def close(self) -> None:
        for directory, _ in self._ready.values():
            shutil.rmtree(directory, ignore_errors=True)
        self._ready.clear()


#: Workload name -> constructor ``(size, workdir) -> Bench``.
WORKLOADS = {
    "steady-churn-linux":
        lambda size, workdir: SteadyChurn(size, workdir, "linux"),
    "steady-churn-contiguitas":
        lambda size, workdir: SteadyChurn(size, workdir, "contiguitas"),
    "fleet-survey": FleetSurvey,
    "loadgen-burst": LoadgenBurst,
    "checkpointed-churn": CheckpointedChurn,
    "checkpoint-restore": CheckpointRestore,
}
