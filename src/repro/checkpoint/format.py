"""Versioned, checksummed, atomically-rotated checkpoint files.

The on-disk envelope (``RPCK``) is deliberately dumb so every failure
mode maps to one typed error:

.. code-block:: text

    offset  size  field
    0       4     magic  b"RPCK"
    4       4     format version, big-endian uint32
    8       4     header length, big-endian uint32
    12      H     header, UTF-8 JSON: {"kind", "step", "meta",
                  "payload_sha256", "payload_len"}
    12+H    N     payload, pickle protocol >= 4

A bit flip anywhere in the payload breaks the SHA-256 digest; a
truncated file breaks the recorded length before the digest is even
computed; an unknown format version is :class:`CheckpointVersionError`
(a :class:`CheckpointCorruptError` subclass, so generic corruption
handling catches it too).  The header is plain JSON so
``repro checkpoint inspect`` can describe a file without unpickling —
and therefore without importing or trusting the payload.

:class:`CheckpointStore` keeps two generations per name and rotates
them with ``os.replace`` only — the write path never leaves a window
where zero valid checkpoints exist: the new envelope is staged to a
temp file and fsynced first, then ``current`` becomes ``.prev``, then
the temp file becomes ``current``.  A crash (or the injected
``checkpoint.write-fail`` site, which fires before the first rename)
leaves both previous generations intact.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
import tempfile
from dataclasses import dataclass, field
from typing import Any

from ..errors import (
    CheckpointCorruptError,
    CheckpointVersionError,
    CheckpointWriteError,
)
from ..faults import fault_site
from ..telemetry import MetricsRegistry, tracepoint

MAGIC = b"RPCK"
#: Bumped whenever a pickled payload changes shape, so an older file is
#: refused as version skew instead of resuming into a mismatched state.
#: 2: ``NetworkBufferPool.transient`` is a dict and workload expiries
#: are plain tuples.
FORMAT_VERSION = 2

#: magic + version + header length: the minimum parseable file.
_PREFIX_LEN = 12

metrics = MetricsRegistry()

_tp_write = tracepoint("checkpoint.write")
_tp_restore = tracepoint("checkpoint.restore")

_fs_write_fail = fault_site("checkpoint.write-fail")


@dataclass(frozen=True)
class Checkpoint:
    """One decoded checkpoint: the envelope header plus the live payload."""

    kind: str
    step: int
    payload: Any
    meta: dict = field(default_factory=dict)
    path: str = ""

    def describe(self) -> dict:
        """Header-only dict (no payload), for ``inspect`` output."""
        return {"kind": self.kind, "step": self.step,
                "meta": dict(self.meta), "path": self.path}


def encode_checkpoint(kind: str, step: int, payload: Any,
                      meta: dict | None = None) -> bytes:
    """Serialise one envelope to bytes (no I/O)."""
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    header = json.dumps({
        "kind": kind,
        "step": int(step),
        "meta": meta or {},
        "payload_sha256": hashlib.sha256(blob).hexdigest(),
        "payload_len": len(blob),
    }, sort_keys=True).encode("utf-8")
    out = io.BytesIO()
    out.write(MAGIC)
    out.write(FORMAT_VERSION.to_bytes(4, "big"))
    out.write(len(header).to_bytes(4, "big"))
    out.write(header)
    out.write(blob)
    return out.getvalue()


def _parse_header(data: bytes, path: str) -> tuple[dict, int]:
    """Validate the envelope prefix; return (header dict, payload offset).

    Everything before the payload digest check lives here so
    :func:`inspect_checkpoint` can classify a file without unpickling.
    """
    if len(data) < _PREFIX_LEN:
        raise CheckpointCorruptError(
            f"{path}: truncated envelope ({len(data)} bytes, "
            f"need >= {_PREFIX_LEN})")
    if data[:4] != MAGIC:
        raise CheckpointCorruptError(
            f"{path}: bad magic {data[:4]!r} (want {MAGIC!r})")
    version = int.from_bytes(data[4:8], "big")
    if version != FORMAT_VERSION:
        raise CheckpointVersionError(
            f"{path}: format version {version} (this build reads "
            f"{FORMAT_VERSION})")
    header_len = int.from_bytes(data[8:12], "big")
    end = _PREFIX_LEN + header_len
    if len(data) < end:
        raise CheckpointCorruptError(
            f"{path}: truncated header ({len(data)} bytes, "
            f"header ends at {end})")
    try:
        header = json.loads(data[_PREFIX_LEN:end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointCorruptError(f"{path}: unparseable header: {exc}")
    for key in ("kind", "step", "payload_sha256", "payload_len"):
        if key not in header:
            raise CheckpointCorruptError(
                f"{path}: header missing {key!r}")
    return header, end


def read_checkpoint(path: str | os.PathLike) -> Checkpoint:
    """Read and fully validate one checkpoint file.

    Raises:
        FileNotFoundError: no file at *path*.
        CheckpointVersionError: envelope version skew.
        CheckpointCorruptError: bad magic, truncation, checksum or
            pickle failure.
    """
    path = str(path)
    with open(path, "rb") as fh:
        data = fh.read()
    header, offset = _parse_header(data, path)
    blob = data[offset:]
    if len(blob) != header["payload_len"]:
        raise CheckpointCorruptError(
            f"{path}: payload length {len(blob)} != recorded "
            f"{header['payload_len']}")
    digest = hashlib.sha256(blob).hexdigest()
    if digest != header["payload_sha256"]:
        raise CheckpointCorruptError(
            f"{path}: payload checksum mismatch ({digest[:12]}... != "
            f"recorded {header['payload_sha256'][:12]}...)")
    try:
        payload = pickle.loads(blob)
    except Exception as exc:
        raise CheckpointCorruptError(f"{path}: payload unpickle failed: {exc}")
    return Checkpoint(kind=header["kind"], step=int(header["step"]),
                      payload=payload, meta=dict(header.get("meta", {})),
                      path=path)


def inspect_checkpoint(path: str | os.PathLike) -> dict:
    """Header-level description of one file, never unpickling.

    Returns a dict with ``status`` ``"ok"`` (header parses and the
    payload digest matches), ``"corrupt"``, ``"version-skew"`` or
    ``"missing"``; validation detail rides in ``error``.
    """
    path = str(path)
    info: dict = {"path": path}
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        info["status"] = "missing"
        return info
    info["size"] = len(data)
    info["mtime"] = os.stat(path).st_mtime
    try:
        header, offset = _parse_header(data, path)
    except CheckpointVersionError as exc:
        info.update(status="version-skew", error=str(exc))
        return info
    except CheckpointCorruptError as exc:
        info.update(status="corrupt", error=str(exc))
        return info
    info.update(kind=header["kind"], step=header["step"],
                meta=header.get("meta", {}))
    blob = data[offset:]
    if (len(blob) != header["payload_len"]
            or hashlib.sha256(blob).hexdigest() != header["payload_sha256"]):
        info.update(status="corrupt",
                    error=f"{path}: payload fails length/checksum check")
        return info
    info["status"] = "ok"
    return info


class CheckpointStore:
    """Two-generation rotating checkpoint writer/reader for one run.

    Files live at ``<directory>/<name>.ckpt`` (current) and
    ``<directory>/<name>.ckpt.prev`` (previous good).  ``save`` rotates
    with ``os.replace`` so a crash at any instruction boundary leaves at
    least one fully-valid generation on disk; ``load_latest`` prefers
    current and falls back to previous when current fails validation.
    """

    SUFFIX = ".ckpt"
    PREV_SUFFIX = ".ckpt.prev"

    def __init__(self, directory: str | os.PathLike,
                 name: str = "run") -> None:
        self.directory = str(directory)
        self.name = name
        os.makedirs(self.directory, exist_ok=True)

    @property
    def current_path(self) -> str:
        return os.path.join(self.directory, self.name + self.SUFFIX)

    @property
    def previous_path(self) -> str:
        return os.path.join(self.directory, self.name + self.PREV_SUFFIX)

    def save(self, kind: str, step: int, payload: Any,
             meta: dict | None = None) -> str:
        """Write one checkpoint generation atomically; returns its path.

        Raises:
            CheckpointWriteError: the staged write failed (or the
                ``checkpoint.write-fail`` site fired) before any rename;
                both existing generations are untouched.
        """
        data = encode_checkpoint(kind, step, payload, meta=meta)
        fd, tmp = tempfile.mkstemp(dir=self.directory,
                                   prefix=".tmp-" + self.name,
                                   suffix=self.SUFFIX)
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
                fh.flush()
                os.fsync(fh.fileno())
            if _fs_write_fail.armed and _fs_write_fail.fire(
                    kind=kind, step=step):
                raise CheckpointWriteError(
                    f"{self.current_path}: injected checkpoint.write-fail "
                    f"at step {step}")
            if os.path.exists(self.current_path):
                os.replace(self.current_path, self.previous_path)
            os.replace(tmp, self.current_path)
        except BaseException:
            metrics.inc("checkpoint.write_failures")
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        metrics.inc("checkpoint.writes")
        if _tp_write.enabled:
            _tp_write.emit(kind=kind, step=step, bytes=len(data),
                           path=self.current_path)
        return self.current_path

    def load_latest(self) -> Checkpoint | None:
        """The newest fully-valid checkpoint, or None when none exists.

        A corrupt (or version-skewed) current generation falls back to
        the previous one, counting ``checkpoint.fallbacks``.  When both
        generations fail validation the *current* generation's error
        propagates — silent resumption from garbage is worse than a
        loud failure.
        """
        primary_error: CheckpointCorruptError | None = None
        for path in (self.current_path, self.previous_path):
            try:
                ckpt = read_checkpoint(path)
            except FileNotFoundError:
                continue
            except CheckpointCorruptError as exc:
                if primary_error is None:
                    primary_error = exc
                continue
            if primary_error is not None:
                metrics.inc("checkpoint.fallbacks")
            metrics.inc("checkpoint.restores")
            if _tp_restore.enabled:
                _tp_restore.emit(kind=ckpt.kind, step=ckpt.step,
                                 path=ckpt.path)
            return ckpt
        if primary_error is not None:
            raise primary_error
        return None

    def inspect(self) -> dict:
        """Header-level description of both generations (no unpickle)."""
        return {
            "directory": self.directory,
            "name": self.name,
            "generations": [inspect_checkpoint(self.current_path),
                            inspect_checkpoint(self.previous_path)],
        }
