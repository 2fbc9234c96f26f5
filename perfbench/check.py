"""Output check, machine fingerprint and run records.

The simulator is deterministic for a given input, so a digest of each
repetition's simulated outputs checks the run: repetitions on equal
inputs must agree, and on the default seed the first input's digest
must equal the one recorded in ``golden.json``.  Host timings never
enter a digest.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
from dataclasses import dataclass, field

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden.json")


def digest(output) -> str:
    """SHA-256 of the canonical JSON of *output*."""
    text = json.dumps(output, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def golden_key(workload: str, seed: int, size: str,
               default_seed: int) -> str | None:
    """The golden entry a run is checked against, or None when the run's
    inputs have no recorded golden (another seed or size)."""
    return workload if seed == default_seed and size == "full" else None


def load_golden() -> dict[str, str]:
    try:
        with open(GOLDEN) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def record_golden(key: str | None, value: str) -> None:
    if key is None:
        raise SystemExit("perfbench: goldens are recorded at the default "
                         "seed and full size only")
    golden = load_golden()
    golden[key] = value
    tmp = GOLDEN + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, GOLDEN)


@dataclass
class Verdict:
    """Outcome of the output check over one run's repetitions."""

    failed: int = 0
    #: Input seed -> digest of its first repetition.
    digests: dict = field(default_factory=dict)
    repeats_match: bool = True
    #: ``match``, ``mismatch``, ``missing`` or ``n/a`` (no golden for
    #: this seed and size).
    golden: str = "n/a"


def verify(reps, attempts: int, key: str | None) -> Verdict:
    """Check ``[(input seed, Rep)]``: every repetition's own checks,
    equal digests on equal inputs, and the golden.  A repetition that
    fails any of them counts all its *attempts* units as failed;
    otherwise its degraded units count."""
    v = Verdict()
    golden = load_golden().get(key) if key is not None else None
    if key is not None:
        v.golden = "missing" if golden is None else "match"
    for index, (seed, rep) in enumerate(reps):
        d = digest(rep.output)
        first = v.digests.setdefault(seed, d)
        bad = not rep.ok or d != first
        if d != first:
            v.repeats_match = False
        if key is not None and index == 0 and d != golden:
            v.golden = "missing" if golden is None else "mismatch"
            bad = True
        v.failed += attempts if bad else rep.failed
    return v


def print_verdict(v: Verdict, shown: dict) -> None:
    first = next(iter(v.digests.values()), "")
    print(f"output: digest={first[:16]} golden={v.golden} "
          f"repeats={'match' if v.repeats_match else 'MISMATCH'} "
          + " ".join(f"{k}={val}" for k, val in shown.items()))


def fingerprint() -> dict:
    """CPU model, usable CPUs, Python and numpy versions."""
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__}


def write_record(path: str, record: dict) -> None:
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=str)
        fh.write("\n")


def load_comparable(paths: list[str]) -> list[dict]:
    """Load run records, refusing a set whose machine fingerprints
    differ: timings from two machines are not comparable."""
    records = []
    for path in paths:
        with open(path) as fh:
            records.append(json.load(fh))
    prints = {json.dumps(r["fingerprint"], sort_keys=True) for r in records}
    if len(prints) > 1:
        raise ValueError("records come from different machines: "
                         + "; ".join(sorted(prints)))
    return records
