"""Checkpoint/replay for the streaming engine's carry state.

:class:`~repro.engine.streaming.StreamingInference` hands one
:class:`~repro.engine.carry.Carry` from window to window: the stream
position (``pending`` snapshots, ``timestamp``, ``num_vertices``,
cumulative ``metrics``, ``window_size``), the per-vertex recurrent
``state``, the last output, GNN result and snapshot (``h_prev`` /
``z_prev`` / ``snap_prev`` — the delta baseline), the similarity
``cache`` pre-activations, the ``first`` flag, and the ``window_index``
that drives weight evolution.  A crash loses all of it — re-pushing the
remaining feed from scratch would produce *different* outputs, because
the recurrent state is path-dependent.

This module writes a ``Carry``'s fields out and builds one back, so a
stream can resume **bit-identically** from any event boundary.  Design
points:

* **No pickle.**  Everything is flattened into a ``str -> ndarray``
  mapping written with :func:`numpy.savez`; the one string travels as a
  fixed-width unicode field.  Loading a checkpoint never executes code.
* **Members cost, bytes do not.**  A zip member is ~25 us of
  ``zipfile`` + ``.npy``-header work whatever it holds, and 40 of
  format 1's 51 members held one 8-byte integer each.  Format 2 keeps
  every scalar as one field of a single 0-d structured record (its
  ``.npy`` header names and types the fields, so it is as
  self-describing as the members it replaces): 13 members, a third of
  the save time.
* **Stored, not deflated.**  float32 state barely compresses (-17 %)
  and deflate cost 13 ms a save against 1-2 ms stored.  Integrity is
  the zip's per-member CRC-32 (flipped byte) and central directory
  (torn write), not the codec; deflated archives still load.
* **Self-describing.**  ``meta/format`` versions the layout and is
  always its own member, so reading the version never depends on the
  layout it versions; ``meta/state_kind`` records the recurrent-state
  class (``lstm`` / ``gru`` / ``none``); optional sections (cache,
  previous window, pending snapshots) are present only when the stream
  carried them.
* **New reads old.**  This build writes format 3 only and reads 1, 2
  and 3 (a live store can hold them all across an upgrade); an older
  build refuses a newer archive with its "unsupported checkpoint
  format" message.
* **State is valid where it is owned.**  An owned-row stream (one
  shard) advances the per-vertex arrays on its ``Carry.rows`` only, so
  format 3 records them (``carry/rows``; absent = every row, which is
  all a format-1 or -2 writer could mean).  A stream resumes only from
  an archive that covers the rows it owns: :meth:`CheckpointStore.
  restore` refuses any other as it would a torn one.
* **No model needed to load.**  A loaded ``Carry``'s cache holds bare
  arrays; :meth:`StreamingInference.restore_carry` checks them against
  the model's cell and binds it.
* **Weight evolution needs only the window index.**  Evolving models
  (EvolveGCN-style) derive window ``i`` weights from their initial
  weights idempotently via ``advance_window(i)``, so restoring
  ``meta/window_index`` restores the weight trajectory; no weight
  tensors are stored.

The key layout, by ``Carry`` field.  In format 1 every line below is
a zip member; in format 2 the lines marked ``*`` are fields of the
``meta/scalars`` record, under the same names::

    meta/format                the layout version (always a member)
    meta/{window_size,timestamp,window_index,first,             *
          num_vertices,num_pending,state_kind}
    metrics/<field>            one int64 per ExecutionMetrics field  *
    state/h [, state/c]        ``state`` (by meta/state_kind)
    cache/{zx,zh,z_input}      ``cache`` pre-activations (optional)
    carry/{h_prev,z_prev}      ``h_prev`` / ``z_prev`` (optional)
    carry/rows                 ``rows`` (format 3; optional = every row)
    snap_prev/<field>          ``snap_prev`` (optional; ``timestamp`` *)
    pending/<i>/<field>        ``pending[i]``, i < meta/num_pending
                               (``timestamp`` *)

An archive written by an earlier build may also hold a
``metrics/window_modes`` member, a ``(W, 3)`` int64 per-window
trajectory that is no longer kept, and record fields for counters that
were retired; the reader skips both, so the format number is unchanged.
"""

from __future__ import annotations

import io
import os
import zipfile
from dataclasses import fields
from pathlib import Path

import numpy as np

from ..engine.carry import Carry
from ..engine.metrics import ExecutionMetrics
from ..engine.streaming import StreamingInference
from ..graphs.snapshot import CSRSnapshot
from ..models.rnn import GRUState, LSTMState
from ..skipping.delta import DeltaCellCache
from .faults import TransientStorageError

__all__ = [
    "CHECKPOINT_FORMAT",
    "CheckpointStore",
    "CorruptCheckpointError",
    "arrays_to_carry",
    "carry_to_arrays",
    "load_checkpoint",
    "restore_stream",
    "save_checkpoint",
]

CHECKPOINT_FORMAT = 3
_READABLE_FORMATS = (1, 2, 3)

_SNAP_FIELDS = ("indptr", "indices", "features", "present")
_CACHE_FIELDS = ("zx", "zh", "z_input")
_SCALARS = "meta/scalars"
#: record fields that are not int64
_SCALAR_DTYPES = {"meta/first": np.bool_, "meta/state_kind": "U4"}


def _put_snapshot(arrays: dict, scalars: dict, prefix: str, snap) -> None:
    for name in _SNAP_FIELDS:
        arrays[f"{prefix}/{name}"] = getattr(snap, name)
    scalars[f"{prefix}/timestamp"] = snap.timestamp


def _snapshot_from(data, scalars: dict, prefix: str) -> CSRSnapshot:
    return CSRSnapshot(
        indptr=np.asarray(data[f"{prefix}/indptr"]),
        indices=np.asarray(data[f"{prefix}/indices"]),
        features=np.asarray(data[f"{prefix}/features"]),
        present=np.asarray(data[f"{prefix}/present"]),
        timestamp=int(scalars[f"{prefix}/timestamp"]),
    )


# ----------------------------------------------------------------------
def carry_to_arrays(carry: Carry) -> dict:
    """Flatten a :class:`Carry` into the ``str -> ndarray`` checkpoint
    layout documented above (format 3).  The arrays are the carry's own,
    not copies: write them out before the stream moves on."""
    num_vertices = carry.num_vertices
    scalars: dict = {
        "meta/window_size": carry.window_size,
        "meta/timestamp": carry.timestamp,
        "meta/window_index": carry.window_index,
        "meta/first": carry.first,
        "meta/num_vertices": -1 if num_vertices is None else num_vertices,
        "meta/num_pending": len(carry.pending),
    }
    for name, value in carry.metrics.as_dict().items():
        scalars[f"metrics/{name}"] = value
    arrays: dict = {"meta/format": np.int64(CHECKPOINT_FORMAT)}
    state = carry.state
    if state is None:
        scalars["meta/state_kind"] = "none"
    elif isinstance(state, LSTMState):
        scalars["meta/state_kind"] = "lstm"
        arrays["state/h"] = state.h
        arrays["state/c"] = state.c
    elif isinstance(state, GRUState):
        scalars["meta/state_kind"] = "gru"
        arrays["state/h"] = state.h
    else:
        raise ValueError(
            f"cannot checkpoint recurrent state of type {type(state).__name__}"
        )
    if carry.cache is not None:
        for name in _CACHE_FIELDS:
            arrays[f"cache/{name}"] = getattr(carry.cache, name)
    for name in ("h_prev", "z_prev", "rows"):
        if getattr(carry, name) is not None:
            arrays[f"carry/{name}"] = getattr(carry, name)
    if carry.snap_prev is not None:
        _put_snapshot(arrays, scalars, "snap_prev", carry.snap_prev)
    for i, snap in enumerate(carry.pending):
        _put_snapshot(arrays, scalars, f"pending/{i}", snap)
    arrays[_SCALARS] = np.array(
        tuple(scalars.values()),
        dtype=[(key, _SCALAR_DTYPES.get(key, np.int64)) for key in scalars],
    )
    return arrays


def _read_scalars(data, keys: set, fmt: int) -> dict:
    """Every scalar of a checkpoint as ``key -> Python value``: the
    fields of the one record (format 2), or the 0-d members the record
    replaced (format 1).  Formats 2 and 3 share the record.  An older
    archive's ``metrics/window_modes`` member (a per-window trajectory
    this build no longer keeps) is no scalar and is never read."""
    if fmt == 1:
        return {
            key: np.asarray(data[key]).item()
            for key in keys
            if key.startswith("meta/")
            or key.endswith("/timestamp")
            or (key.startswith("metrics/") and key != "metrics/window_modes")
        }
    record = np.asarray(data[_SCALARS])
    if record.ndim != 0 or record.dtype.names is None:
        raise ValueError(f"{_SCALARS} is not a 0-d structured record")
    return dict(zip(record.dtype.names, record.item()))


def arrays_to_carry(data) -> Carry:
    """Rebuild a :class:`Carry` from the flat checkpoint layout, format
    1, 2 or 3.

    ``data`` is anything indexable by key with a ``files``/key listing —
    an :class:`numpy.lib.npyio.NpzFile` or a plain dict.  Snapshots are
    reconstructed through ``CSRSnapshot.__init__`` so a tampered
    checkpoint fails validation instead of entering the stream.
    """
    keys = set(data.files) if hasattr(data, "files") else set(data)
    fmt = int(data["meta/format"])
    if fmt not in _READABLE_FORMATS:
        raise ValueError(
            f"unsupported checkpoint format {fmt} (this build reads"
            f" formats 1 to {CHECKPOINT_FORMAT})"
        )
    scalars = _read_scalars(data, keys, fmt)
    # a counter this build retired is skipped, one it added reads 0
    metrics = ExecutionMetrics(
        **{
            f.name: int(scalars[f"metrics/{f.name}"])
            for f in fields(ExecutionMetrics)
            if f"metrics/{f.name}" in scalars
        }
    )
    state_kind = scalars["meta/state_kind"]
    if state_kind == "none":
        state = None
    elif state_kind == "lstm":
        state = LSTMState(
            np.asarray(data["state/h"]), np.asarray(data["state/c"])
        )
    elif state_kind == "gru":
        state = GRUState(np.asarray(data["state/h"]))
    else:
        raise ValueError(f"unknown checkpoint state kind {state_kind!r}")

    def optional(key):
        return np.asarray(data[key]) if key in keys else None

    cache = None
    if "cache/zx" in keys:
        cache = DeltaCellCache.from_arrays(
            *(np.asarray(data[f"cache/{name}"]) for name in _CACHE_FIELDS)
        )
    raw_n = int(scalars["meta/num_vertices"])
    rows = optional("carry/rows")
    if rows is not None and not (
        rows.ndim == 1
        and rows.dtype.kind == "i"
        and (np.diff(rows) > 0).all()
        and (not rows.size or (rows[0] >= 0 and (raw_n < 0 or rows[-1] < raw_n)))
    ):
        raise ValueError("carry/rows is not an ascending list of vertex ids")
    return Carry(
        window_size=int(scalars["meta/window_size"]),
        rows=rows,
        pending=[
            _snapshot_from(data, scalars, f"pending/{i}")
            for i in range(int(scalars["meta/num_pending"]))
        ],
        timestamp=int(scalars["meta/timestamp"]),
        window_index=int(scalars["meta/window_index"]),
        num_vertices=None if raw_n < 0 else raw_n,
        metrics=metrics,
        state=state,
        cache=cache,
        h_prev=optional("carry/h_prev"),
        z_prev=optional("carry/z_prev"),
        snap_prev=(
            _snapshot_from(data, scalars, "snap_prev")
            if "snap_prev/indptr" in keys
            else None
        ),
        first=bool(scalars["meta/first"]),
    )


# ----------------------------------------------------------------------
def save_checkpoint(stream: StreamingInference, path) -> None:
    """Write ``stream``'s carry state into a ``.npz`` checkpoint at
    ``path`` (a filesystem path or writable binary file object).  The
    live carry is serialised as it stands — written out, never written
    to — so a save costs no second deep copy beside the supervisor's
    rollback point."""
    np.savez(path, **carry_to_arrays(stream.carry))


def load_checkpoint(path) -> Carry:
    """Read a checkpoint back into a :class:`Carry` ready for
    :meth:`StreamingInference.restore_carry`."""
    with np.load(path, allow_pickle=False) as data:
        return arrays_to_carry(data)


def restore_stream(stream: StreamingInference, path) -> StreamingInference:
    """Install the checkpoint at ``path`` into ``stream`` and return it.

    The stream's model/config must match the checkpointed run; the
    restored stream then reproduces the uninterrupted run bit-identically
    from the captured boundary.
    """
    stream.restore_carry(load_checkpoint(path))
    return stream


# ----------------------------------------------------------------------
# rotating checkpoint store (keep-last-K retention)
# ----------------------------------------------------------------------
class CorruptCheckpointError(RuntimeError):
    """A stored checkpoint cannot be resumed from: it failed to
    deserialise (torn write, failed CRC, missing member, unknown
    format) or does not fit the restoring stream (its state does not
    cover the rows the stream owns)."""


class CheckpointStore:
    """Rotating checkpoint storage with a keep-last-K retention policy.

    :func:`save_checkpoint` alone accumulates files forever; the store
    rotates them: every :meth:`save` writes a new monotonically-numbered
    checkpoint and prunes everything older than the newest ``keep_last``.
    Because any single checkpoint resumes the stream bit-identically,
    retention only bounds how far back a recovery can start — never
    whether it is exact.

    Backed by a directory when ``directory`` is given, otherwise by an
    in-memory byte store (same key space, no filesystem).  Two chaos
    seams mirror real storage failure modes: :meth:`corrupt_latest`
    tears the newest checkpoint mid-write, and :meth:`fail_next_loads`
    makes upcoming loads raise a retryable
    :class:`~repro.resilience.faults.TransientStorageError` — recovery
    paths are expected to ride :func:`~repro.resilience.ingest.with_retry`
    over :meth:`load` and fall back to older checkpoints on
    :class:`CorruptCheckpointError`.
    """

    def __init__(self, directory=None, *, keep_last: int = 3,
                 prefix: str = "ckpt"):
        if keep_last < 1:
            raise ValueError(f"keep_last must be >= 1, got {keep_last}")
        self.keep_last = keep_last
        self.prefix = prefix
        self.directory = None if directory is None else Path(directory)
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self._blobs: dict[str, bytes] = {}
        self._seq = 0
        self._transient_failures = 0

    # ------------------------------------------------------------------
    def keys(self) -> list[str]:
        """Checkpoint keys, oldest first."""
        if self.directory is None:
            return sorted(self._blobs)
        return sorted(
            p.name for p in self.directory.glob(f"{self.prefix}-*.npz")
        )

    def __len__(self) -> int:
        return len(self.keys())

    def save(self, stream: StreamingInference) -> str:
        """Checkpoint ``stream`` and prune beyond ``keep_last``."""
        self._seq += 1
        key = f"{self.prefix}-{self._seq:08d}.npz"
        if self.directory is None:
            buf = io.BytesIO()
            save_checkpoint(stream, buf)
            self._blobs[key] = buf.getvalue()
        else:
            save_checkpoint(stream, self.directory / key)
        for stale in self.keys()[: -self.keep_last]:
            self._delete(stale)
        return key

    def load(self, key: str) -> Carry:
        """Read one checkpoint back into a :class:`Carry`.

        Raises :class:`TransientStorageError` when a scheduled transient
        failure is pending (retryable), :class:`KeyError` when the store
        holds no such key, and :class:`CorruptCheckpointError` when the
        blob does not deserialise — torn, failing a CRC, of an unknown
        format, or a well-formed archive that lacks a member (permanent
        for this key).
        """
        if self._transient_failures > 0:
            self._transient_failures -= 1
            raise TransientStorageError(
                f"injected transient failure loading {key}"
            )
        if self.directory is None:
            data = io.BytesIO(self._blobs[key])
        else:
            data = self.directory / key
            if not os.path.exists(data):
                raise KeyError(key)
        try:
            return load_checkpoint(data)
        except (
            KeyError, ValueError, OSError, zipfile.BadZipFile, EOFError
        ) as exc:
            raise CorruptCheckpointError(
                f"checkpoint {key} failed to deserialise: {exc}"
            ) from exc

    def restore(self, stream: StreamingInference, key: str) -> Carry:
        """:meth:`load` ``key`` and install it into ``stream``; returns
        the installed carry.

        A checkpoint the stream refuses — captured at another window
        size or width, or by a stream whose owned rows do not cover this
        one's, so part of the state it would resume from was never
        computed — is as unusable as a torn one and raises the same
        :class:`CorruptCheckpointError`: the caller falls back to an
        older key or a cold start.
        """
        carry = self.load(key)
        try:
            stream.restore_carry(carry)
        except ValueError as exc:
            raise CorruptCheckpointError(
                f"checkpoint {key} does not fit the stream: {exc}"
            ) from exc
        return carry

    # ------------------------------------------------------------------
    # chaos seams
    # ------------------------------------------------------------------
    def corrupt_latest(self) -> str | None:
        """Tear the newest checkpoint (truncate its bytes mid-archive)."""
        stored = self.keys()
        if not stored:
            return None
        key = stored[-1]
        if self.directory is None:
            blob = self._blobs[key]
            self._blobs[key] = blob[: max(1, len(blob) // 2)]
        else:
            path = self.directory / key
            blob = path.read_bytes()
            path.write_bytes(blob[: max(1, len(blob) // 2)])
        return key

    def fail_next_loads(self, count: int) -> None:
        """Schedule ``count`` retryable load failures (storage flake)."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        self._transient_failures += count

    # ------------------------------------------------------------------
    def _delete(self, key: str) -> None:
        if self.directory is None:
            self._blobs.pop(key, None)
        else:
            (self.directory / key).unlink(missing_ok=True)
