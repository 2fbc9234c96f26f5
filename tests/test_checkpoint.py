"""Durable checkpoint/restore: envelope, store, watchdog, and the
crash-recovery contract — a run killed at any checkpoint boundary and
resumed produces byte-identical results to an uninterrupted run."""

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import (
    DEFAULT_DEADLINE_S,
    FORMAT_VERSION,
    MAGIC,
    CheckpointStore,
    DeadlineWatchdog,
    encode_checkpoint,
    inspect_checkpoint,
    read_checkpoint,
)
from repro.errors import (
    CheckpointCorruptError,
    CheckpointVersionError,
    CheckpointWriteError,
    ConfigurationError,
    SimCrashError,
)
from repro.faults import FaultPlan, FaultSpec, NAMED_PLANS, injecting
from repro.units import MiB


class TestEnvelope:
    def test_encode_read_round_trip(self, tmp_path):
        path = tmp_path / "x.ckpt"
        payload = {"nums": list(range(50)), "nested": {"a": (1, 2)}}
        path.write_bytes(encode_checkpoint(
            "demo", 7, payload, meta={"seed": 3}))
        ckpt = read_checkpoint(path)
        assert ckpt.kind == "demo"
        assert ckpt.step == 7
        assert ckpt.meta == {"seed": 3}
        assert ckpt.payload == payload

    def test_truncation_is_typed_corruption(self, tmp_path):
        path = tmp_path / "x.ckpt"
        data = encode_checkpoint("demo", 1, {"k": "v" * 100})
        path.write_bytes(data[:-10])
        with pytest.raises(CheckpointCorruptError):
            read_checkpoint(path)

    def test_short_file_is_typed_corruption(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(b"RP")
        with pytest.raises(CheckpointCorruptError, match="truncated"):
            read_checkpoint(path)

    def test_bit_flip_breaks_checksum(self, tmp_path):
        path = tmp_path / "x.ckpt"
        data = bytearray(encode_checkpoint("demo", 1, {"k": "v" * 100}))
        data[-5] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointCorruptError, match="checksum"):
            read_checkpoint(path)

    def test_version_skew_is_its_own_type(self, tmp_path):
        path = tmp_path / "x.ckpt"
        data = bytearray(encode_checkpoint("demo", 1, {}))
        data[4:8] = (FORMAT_VERSION + 1).to_bytes(4, "big")
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointVersionError):
            read_checkpoint(path)
        # ...and the subclassing means generic corruption handling —
        # including the store's last-good fallback — catches it too.
        assert issubclass(CheckpointVersionError, CheckpointCorruptError)

    def test_older_version_is_refused(self, tmp_path):
        # An older payload layout (version 1 pickled the netbuf pool's
        # transient list and the workload's expiry objects) must be
        # refused, not resumed into a TypeError mid-run.
        older = FORMAT_VERSION - 1
        path = tmp_path / "x.ckpt"
        data = bytearray(encode_checkpoint("demo", 1, {}))
        data[4:8] = older.to_bytes(4, "big")
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointVersionError, match=f"version {older}"):
            read_checkpoint(path)
        assert inspect_checkpoint(path)["status"] == "version-skew"

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.ckpt"
        data = bytearray(encode_checkpoint("demo", 1, {}))
        data[:4] = b"JUNK"
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointCorruptError, match="magic"):
            read_checkpoint(path)
        assert MAGIC == b"RPCK"

    def test_inspect_statuses(self, tmp_path):
        good = tmp_path / "good.ckpt"
        good.write_bytes(encode_checkpoint("demo", 4, {"a": 1},
                                           meta={"seed": 9}))
        info = inspect_checkpoint(good)
        assert info["status"] == "ok"
        assert info["kind"] == "demo" and info["step"] == 4
        assert info["meta"] == {"seed": 9}

        assert inspect_checkpoint(tmp_path / "nope.ckpt")["status"] \
            == "missing"

        flipped = bytearray(good.read_bytes())
        flipped[-1] ^= 0xFF
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(flipped))
        assert inspect_checkpoint(bad)["status"] == "corrupt"

        skew = bytearray(good.read_bytes())
        skew[4:8] = (99).to_bytes(4, "big")
        vsk = tmp_path / "skew.ckpt"
        vsk.write_bytes(bytes(skew))
        assert inspect_checkpoint(vsk)["status"] == "version-skew"


class TestStore:
    def test_rotation_keeps_two_generations(self, tmp_path):
        store = CheckpointStore(tmp_path, "run")
        store.save("demo", 1, {"step": 1})
        store.save("demo", 2, {"step": 2})
        store.save("demo", 3, {"step": 3})
        assert read_checkpoint(store.current_path).step == 3
        assert read_checkpoint(store.previous_path).step == 2
        assert store.load_latest().payload == {"step": 3}

    def test_corrupt_current_falls_back_to_previous(self, tmp_path):
        store = CheckpointStore(tmp_path, "run")
        store.save("demo", 1, {"step": 1})
        store.save("demo", 2, {"step": 2})
        data = bytearray(open(store.current_path, "rb").read())
        data[-3] ^= 0xFF
        open(store.current_path, "wb").write(bytes(data))
        ckpt = store.load_latest()
        assert ckpt.step == 1

    def test_version_skewed_current_falls_back(self, tmp_path):
        store = CheckpointStore(tmp_path, "run")
        store.save("demo", 1, {"step": 1})
        store.save("demo", 2, {"step": 2})
        data = bytearray(open(store.current_path, "rb").read())
        data[4:8] = (FORMAT_VERSION + 1).to_bytes(4, "big")
        open(store.current_path, "wb").write(bytes(data))
        assert store.load_latest().step == 1

    def test_both_corrupt_raises_current_error(self, tmp_path):
        store = CheckpointStore(tmp_path, "run")
        store.save("demo", 1, {"step": 1})
        store.save("demo", 2, {"step": 2})
        for path in (store.current_path, store.previous_path):
            data = bytearray(open(path, "rb").read())
            data[-3] ^= 0xFF
            open(path, "wb").write(bytes(data))
        with pytest.raises(CheckpointCorruptError) as err:
            store.load_latest()
        assert store.current_path in str(err.value)

    def test_empty_store_returns_none(self, tmp_path):
        assert CheckpointStore(tmp_path, "run").load_latest() is None

    def test_injected_write_fail_leaves_generations_intact(self, tmp_path):
        store = CheckpointStore(tmp_path, "run")
        store.save("demo", 1, {"step": 1})
        store.save("demo", 2, {"step": 2})
        plan = FaultPlan("wf", (
            FaultSpec("checkpoint.write-fail", rate=1.0, max_fires=1),))
        with injecting(plan, seed=0):
            with pytest.raises(CheckpointWriteError):
                store.save("demo", 3, {"step": 3})
        # Both generations untouched, no temp litter.
        assert read_checkpoint(store.current_path).step == 2
        assert read_checkpoint(store.previous_path).step == 1
        assert [f for f in os.listdir(tmp_path)
                if f.startswith(".tmp-")] == []

    def test_inspect_describes_both_generations(self, tmp_path):
        store = CheckpointStore(tmp_path, "run")
        store.save("demo", 1, {}, meta={"checkpoint_every": 5})
        report = store.inspect()
        assert report["name"] == "run"
        current, previous = report["generations"]
        assert current["status"] == "ok"
        assert current["meta"]["checkpoint_every"] == 5
        assert previous["status"] == "missing"


class TestWatchdog:
    def test_missing_then_ok_then_hung(self, tmp_path):
        path = tmp_path / "run.ckpt"
        now = [1000.0]
        dog = DeadlineWatchdog(path, deadline_s=60.0,
                               clock=lambda: now[0])
        assert dog.status() == "missing"
        assert dog.age_s() is None

        path.write_bytes(b"x")
        os.utime(path, (1000.0, 1000.0))
        assert dog.status() == "ok"

        now[0] = 1059.0
        assert dog.status() == "ok"
        now[0] = 1061.0
        assert dog.status() == "hung"
        assert dog.age_s() == pytest.approx(61.0)

    def test_describe_fields(self, tmp_path):
        dog = DeadlineWatchdog(tmp_path / "x.ckpt")
        desc = dog.describe()
        assert desc["status"] == "missing"
        assert desc["deadline_s"] == DEFAULT_DEADLINE_S


def _crash_plan(boundary: int) -> FaultPlan:
    """A plan whose sim.crash fires exactly at the Nth checkpoint
    boundary (1-based)."""
    return FaultPlan("kill", (
        FaultSpec("sim.crash", rate=1.0, max_fires=1,
                  skip=boundary - 1),))


class TestWorkloadCrashResume:
    STEPS = 12
    EVERY = 2

    def _config(self, seed):
        from repro.workloads.config import WorkloadConfig

        return WorkloadConfig(mem_bytes=MiB(16), steps=self.STEPS,
                              seed=seed)

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**31),
           boundary=st.integers(1, STEPS // EVERY))
    def test_kill_at_any_boundary_resumes_byte_identical(
            self, tmp_path_factory, seed, boundary):
        from repro.workloads import run_workload

        tmp = tmp_path_factory.mktemp("ck")
        config = self._config(seed)
        with injecting(_crash_plan(boundary), seed=0):
            with pytest.raises(SimCrashError):
                run_workload(config, checkpoint_every=self.EVERY,
                             checkpoint_dir=str(tmp))
        resumed = run_workload(config, checkpoint_every=self.EVERY,
                               checkpoint_dir=str(tmp), resume=True)
        reference = run_workload(config)
        assert (json.dumps(resumed.snapshot(), sort_keys=True)
                == json.dumps(reference.snapshot(), sort_keys=True))

    def test_resume_restores_from_exact_boundary(self, tmp_path):
        """The resumed run continues from the crash step, not from
        scratch: its store's first post-resume save is step 8."""
        from repro.workloads import run_workload

        config = self._config(5)
        with injecting(_crash_plan(3), seed=0):  # dies at step 6
            with pytest.raises(SimCrashError):
                run_workload(config, checkpoint_every=2,
                             checkpoint_dir=str(tmp_path))
        store = CheckpointStore(str(tmp_path), "workload")
        assert store.load_latest().step == 6
        run_workload(config, checkpoint_every=2,
                     checkpoint_dir=str(tmp_path), resume=True)
        assert store.load_latest().step == self.STEPS

    def test_checkpoint_payload_is_self_describing(self, tmp_path):
        from repro.workloads import run_workload

        config = self._config(5)
        run_workload(config, checkpoint_every=4,
                     checkpoint_dir=str(tmp_path))
        ckpt = CheckpointStore(str(tmp_path), "workload").load_latest()
        assert ckpt.payload["config"] == config
        assert ckpt.meta["checkpoint_every"] == 4


class TestCrashRestartPlan:
    def test_named_plan_registered_with_both_sites(self):
        plan = NAMED_PLANS["crash-restart"]
        sites = {spec.site for spec in plan.specs}
        assert sites == {"checkpoint.write-fail", "sim.crash"}

    def test_write_fail_tolerated_then_crash_then_identical_resume(
            self, tmp_path):
        """The full harness semantics: boundary 1's write dies before
        any rename (tolerated — the run continues), boundary 2's write
        lands and sim.crash kills the run, and resumption from that
        checkpoint finishes byte-identically."""
        from repro.workloads import run_workload

        config = TestWorkloadCrashResume()._config(11)
        store = CheckpointStore(str(tmp_path), "workload")
        with injecting(NAMED_PLANS["crash-restart"], seed=0):
            with pytest.raises(SimCrashError):
                run_workload(config, checkpoint_every=2,
                             checkpoint_dir=str(tmp_path))
        # Boundary 1 (step 2) failed before the rename, so the first
        # surviving generation is boundary 2 (step 4).
        assert store.load_latest().step == 4
        resumed = run_workload(config, checkpoint_every=2,
                               checkpoint_dir=str(tmp_path), resume=True)
        reference = run_workload(config)
        assert resumed.snapshot() == reference.snapshot()


class TestLoadgenCrashResume:
    def _config(self, seed):
        from repro.workloads.tracegen import LoadgenConfig

        return LoadgenConfig(rate_rps=150_000.0, duration_s=1e-3,
                             seed=seed)

    def test_kill_and_resume_rows_identical(self, tmp_path):
        from repro.workloads.tracegen import run_loadgen

        config = self._config(7)
        with injecting(_crash_plan(2), seed=0):
            with pytest.raises(SimCrashError):
                run_loadgen(config, checkpoint_every=25,
                            checkpoint_dir=str(tmp_path))
        resumed = run_loadgen(config, checkpoint_every=25,
                              checkpoint_dir=str(tmp_path), resume=True)
        reference = run_loadgen(config)
        assert resumed.rows() == reference.rows()
        assert resumed.requests == reference.requests
        assert resumed.achieved_rps == reference.achieved_rps


def _small_fleet(seed, n_servers=4, telemetry=None):
    from repro.fleet import FleetConfig, ServerConfig

    return FleetConfig(
        n_servers=n_servers,
        server=ServerConfig(mem_bytes=MiB(32), min_uptime_steps=30,
                            max_uptime_steps=60),
        base_seed=seed, workers=1, telemetry=telemetry)


class TestFleetResume:
    def test_survey_kill_and_resume_byte_identical_manifest(
            self, tmp_path):
        from repro.fleet import survey_fleet
        from repro.telemetry import TelemetryConfig, deterministic_view

        telemetry = TelemetryConfig()
        config = _small_fleet(3, telemetry=telemetry)
        with injecting(_crash_plan(2), seed=0):
            with pytest.raises(SimCrashError):
                survey_fleet(config, checkpoint_every=1,
                             checkpoint_dir=str(tmp_path))
        resumed = survey_fleet(config, checkpoint_every=1,
                               checkpoint_dir=str(tmp_path), resume=True)
        reference = survey_fleet(config)
        assert (json.dumps(deterministic_view(resumed.manifest),
                           sort_keys=True)
                == json.dumps(deterministic_view(reference.manifest),
                              sort_keys=True))

    def test_run_fleet_kill_and_resume_equal_scans(self, tmp_path):
        from repro.fleet import run_fleet

        config = _small_fleet(5)
        with injecting(_crash_plan(2), seed=0):
            with pytest.raises(SimCrashError):
                run_fleet(config, checkpoint_every=1,
                          checkpoint_dir=str(tmp_path))
        resumed = run_fleet(config, checkpoint_every=1,
                            checkpoint_dir=str(tmp_path), resume=True)
        reference = run_fleet(config)
        assert resumed == reference

    def test_resume_skips_finished_servers(self, tmp_path):
        from repro.fleet import run_fleet

        config = _small_fleet(5)
        with injecting(_crash_plan(2), seed=0):
            with pytest.raises(SimCrashError):
                run_fleet(config, checkpoint_every=1,
                          checkpoint_dir=str(tmp_path))
        ckpt = CheckpointStore(str(tmp_path), "fleet").load_latest()
        assert sorted(ckpt.payload["scans"]) == [0, 1]

    def test_campaign_mismatch_is_configuration_error(self, tmp_path):
        from repro.fleet import run_fleet

        run_fleet(_small_fleet(5), checkpoint_every=1,
                  checkpoint_dir=str(tmp_path))
        other = _small_fleet(5, n_servers=6)
        with pytest.raises(ConfigurationError,
                           match="different campaign"):
            run_fleet(other, checkpoint_every=1,
                      checkpoint_dir=str(tmp_path), resume=True)

    def test_resume_with_no_checkpoint_starts_fresh(self, tmp_path):
        from repro.fleet import run_fleet

        config = _small_fleet(9, n_servers=2)
        fresh = run_fleet(config, checkpoint_every=1,
                          checkpoint_dir=str(tmp_path / "empty"),
                          resume=True)
        assert fresh == run_fleet(config)


class TestRestoreSanitizer:
    def test_restore_runs_invariant_sweep(self, tmp_path):
        """A checkpoint whose kernel state was corrupted in flight is
        rejected by the restore-time sanitizer, not silently resumed."""
        from repro.checkpoint import restore_kernel
        from repro.errors import SanitizerError
        from repro.mm import KernelConfig, LinuxKernel

        kernel = LinuxKernel(KernelConfig(mem_bytes=MiB(16)))
        kernel.alloc_pages(0)
        # Sabotage the free accounting the sweep cross-checks.
        kernel.buddy.nr_free += 7
        with pytest.raises(SanitizerError):
            restore_kernel(kernel)


class TestExperimentMidCellResume:
    def test_checkpoints_land_under_cache_key(self, tmp_path):
        from repro.experiments import ResultCache, run_experiment

        cache = ResultCache(str(tmp_path))
        overrides = {"n_servers": 2, "mem_mib": 32,
                     "min_uptime_steps": 30, "max_uptime_steps": 60}
        result = run_experiment("fleet-survey", overrides=overrides,
                                workers=1, cache=cache,
                                checkpoint_every=1)
        ckdir = os.path.join(str(tmp_path), "checkpoints", result.key)
        # The fleet-survey producer fans out through run_fleet, whose
        # store is named "fleet".
        assert os.path.isfile(os.path.join(ckdir, "fleet.ckpt"))
        # Rows identical to a checkpoint-free run of the same cell.
        plain = run_experiment("fleet-survey", overrides=overrides,
                               workers=1,
                               cache=ResultCache(str(tmp_path / "b")))
        assert result.rows == plain.rows

    def test_killed_cell_resumes_from_checkpoint(self, tmp_path):
        from repro.experiments import ResultCache, run_experiment

        cache = ResultCache(str(tmp_path))
        overrides = {"n_servers": 4, "mem_mib": 32,
                     "min_uptime_steps": 30, "max_uptime_steps": 60}
        with injecting(_crash_plan(2), seed=0):
            with pytest.raises(SimCrashError):
                run_experiment("fleet-survey", overrides=overrides,
                               workers=1, cache=cache,
                               checkpoint_every=1)
        resumed = run_experiment("fleet-survey", overrides=overrides,
                                 workers=1, cache=cache,
                                 checkpoint_every=1)
        assert not resumed.cached
        plain = run_experiment("fleet-survey", overrides=overrides,
                               workers=1,
                               cache=ResultCache(str(tmp_path / "b")))
        assert resumed.rows == plain.rows


class TestCheckpointCli:
    def _seed_store(self, tmp_path):
        from repro.workloads import run_workload

        config = TestWorkloadCrashResume()._config(5)
        with injecting(_crash_plan(2), seed=0):
            with pytest.raises(SimCrashError):
                run_workload(config, checkpoint_every=2,
                             checkpoint_dir=str(tmp_path))
        return config

    def test_inspect_lists_generations_and_watchdog(
            self, tmp_path, capsys):
        from repro.cli import main

        self._seed_store(tmp_path)
        main(["checkpoint", "inspect", str(tmp_path)])
        out = capsys.readouterr().out
        assert "workload" in out
        assert "current" in out and "previous" in out
        assert "watchdog ok" in out

    def test_inspect_json_reports_status(self, tmp_path, capsys):
        from repro.cli import main

        self._seed_store(tmp_path)
        main(["checkpoint", "inspect", str(tmp_path), "--json"])
        reports = json.loads(capsys.readouterr().out)
        assert reports[0]["generations"][0]["status"] == "ok"
        assert reports[0]["watchdog"]["status"] == "ok"

    def test_inspect_missing_dir_exits(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="no such checkpoint"):
            main(["checkpoint", "inspect", str(tmp_path / "nope")])

    def test_resume_reconstructs_run_from_payload(
            self, tmp_path, capsys):
        from repro.cli import main
        from repro.workloads import run_workload

        config = self._seed_store(tmp_path)
        main(["checkpoint", "resume", str(tmp_path)])
        captured = capsys.readouterr()
        assert "resuming workload from step 4" in captured.err
        resumed = json.loads(captured.out)
        assert resumed == run_workload(config).snapshot()

    def test_resume_empty_dir_exits(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="no checkpoints"):
            main(["checkpoint", "resume", str(tmp_path)])


class TestManifestVolatileOnly:
    def test_checkpoint_keys_never_touch_deterministic_view(self):
        from repro.fleet import survey_fleet
        from repro.telemetry import TelemetryConfig, deterministic_view
        import tempfile

        telemetry = TelemetryConfig()
        config = _small_fleet(13, n_servers=2, telemetry=telemetry)
        with tempfile.TemporaryDirectory() as tmp:
            ck = survey_fleet(config, checkpoint_every=1,
                              checkpoint_dir=tmp)
        plain = survey_fleet(config)
        assert ck.manifest["volatile"]["checkpoint_every"] == 1
        assert "checkpoint_every" not in plain.manifest["volatile"]
        assert (deterministic_view(ck.manifest)
                == deterministic_view(plain.manifest))
