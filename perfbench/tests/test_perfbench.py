"""The benchmark's own tests: span arithmetic, the output check, the
declared names, and a tiny-size smoke run of every workload.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import gc
import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench import check, speed
from perfbench.layers import PER_LAYER
from perfbench.run import END_TO_END
from perfbench.spans import SpanRecorder, patched, self_times, summarize
from perfbench.workloads import WORKLOADS, Rep

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# -- spans ---------------------------------------------------------------

def test_self_times_of_a_hand_built_tree():
    #    root [0, 10)
    #    ├── a [1, 4)
    #    └── b [5, 9)
    #        └── c [6, 7)
    parent = np.array([-1, 0, 0, 2])
    start = np.array([0.0, 1.0, 5.0, 6.0])
    end = np.array([10.0, 4.0, 9.0, 7.0])
    assert self_times(parent, end - start).tolist() == [3.0, 3.0, 3.0, 1.0]


def test_summary_counts_a_nested_same_name_span_once():
    # f [0, 8) calls f [1, 5) (a subclass calling its base): inclusive
    # time is the outer interval only; self times still partition it.
    out = summarize(name=np.array([0, 0, 1]), parent=np.array([-1, 0, 1]),
                    nested=np.array([0, 1, 0]),
                    dur=np.array([8.0, 4.0, 1.0]), names=["f", "g"])
    assert out["f"] == {"calls": 2, "total_s": 8.0, "self_s": 7.0}
    assert out["g"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}


class _Base:
    def work(self, n):
        return n + 1


class _Sub(_Base):
    def work(self, n):
        return super().work(n) * 2


def test_patched_nests_super_calls_and_restores_originals():
    rec = SpanRecorder()
    base_work, sub_work = _Base.work, _Sub.work
    targets = [(_Base, "work", "base.work", None),
               (_Sub, "work", "sub.work", lambda args: args[1])]
    with patched(rec, targets):
        assert _Sub().work(3) == 8
    assert _Base.work is base_work and _Sub.work is sub_work
    a = rec.arrays()
    assert [rec.names[i] for i in a["name"]] == ["sub.work", "base.work"]
    assert a["parent"].tolist() == [-1, 0]
    assert a["unit"].tolist() == [3, 3]
    assert (a["end"] >= a["start"]).all()
    assert _Sub().work(3) == 8  # unpatched: no new spans
    assert len(rec) == 2


def test_layer_shares_cover_the_wall():
    rec = SpanRecorder()
    with patched(rec, [(_Base, "work", "base.work", None)]):
        _Base().work(1)
    shares = rec.layer_self_seconds(wall_s=1.0)
    assert sum(shares.values()) == pytest.approx(1.0)


# -- output check --------------------------------------------------------

def _rep(output, ok=True):
    return Rep(setup_s=0.1, run_s=1.0, units=10, output=output, ok=ok)


def test_check_rejects_a_perturbed_repetition():
    good = {"vmstat": {"alloc_success": 10}, "free_frames": 5}
    bad = {"vmstat": {"alloc_success": 11}, "free_frames": 5}
    v = check.verify([(7, _rep(good)), (7, _rep(good))], 1, None)
    assert v.failed == 0 and v.repeats_match
    v = check.verify([(7, _rep(good)), (7, _rep(bad))], 3, None)
    assert v.failed == 3 and not v.repeats_match


def test_check_rejects_a_perturbed_golden(monkeypatch):
    good = {"free_frames": 5}
    monkeypatch.setattr(check, "load_golden",
                        lambda: {"w": check.digest({"free_frames": 6})})
    v = check.verify([(1, _rep(good))], 1, "w")
    assert v.golden == "mismatch" and v.failed == 1
    monkeypatch.setattr(check, "load_golden",
                        lambda: {"w": check.digest(good)})
    v = check.verify([(1, _rep(good))], 1, "w")
    assert v.golden == "match" and v.failed == 0


def test_check_counts_a_repetition_that_failed_its_own_check():
    v = check.verify([(1, _rep({}, ok=False))], 4, None)
    assert v.failed == 4


def test_golden_recorded_for_every_workload():
    golden = check.load_golden()
    assert sorted(golden) == sorted(WORKLOADS)


def test_records_from_different_machines_are_refused(tmp_path):
    paths = []
    for i, cpu in enumerate(["cpu-a", "cpu-b"]):
        path = tmp_path / f"r{i}.json"
        check.write_record(str(path), {"fingerprint": {"cpu": cpu},
                                       "metrics": {}, "workload": "w"})
        paths.append(str(path))
    with pytest.raises(ValueError):
        check.load_comparable(paths)
    assert len(check.load_comparable(paths[:1])) == 1


# -- speed probe ---------------------------------------------------------

def test_the_speed_probe_never_starts_a_collection():
    # A probe that allocated tracked objects could start a collection
    # over the program's heap, and read slower as that heap grew.
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info)

    threshold = gc.get_threshold()
    speed.probe_s()
    gc.collect()
    gc.callbacks.append(count)
    gc.set_threshold(1)
    try:
        for _ in range(5):
            speed.probe_s()
    finally:
        gc.set_threshold(*threshold)
        gc.callbacks.remove(count)
    assert starts == []


def test_measured_scales_by_the_reference_speed(monkeypatch):
    monkeypatch.setattr(speed, "probe_s", lambda: 2 * speed.PROBE_REF_S)
    result, scale = speed.measured(lambda: 42)
    assert result == 42 and scale == 0.5


# -- declared names ------------------------------------------------------

def test_names_are_well_formed_and_declared():
    spec = declared()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
    names = ([w["name"] for w in spec["workloads"]]
             + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]])
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]), metric


# -- smoke runs ----------------------------------------------------------

def _run(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "3", "--seconds", "0.5", "--trace", str(trace),
           "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = declared()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("runs", "__pycache__"))
    proc = _run(tmp_path, "steady-churn-linux", 0)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
