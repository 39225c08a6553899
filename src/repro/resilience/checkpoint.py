"""Checkpoint/replay for the streaming engine's carry state.

:class:`~repro.engine.streaming.StreamingInference` hands one
:class:`~repro.engine.carry.Carry` from window to window.  A checkpoint
stores what a replay of the feed cannot rebuild: the stream position
(``timestamp``, ``num_vertices``, cumulative ``metrics``,
``window_size``), the per-vertex recurrent ``state``, the last output
and GNN result (``h_prev`` / ``z_prev``), the ``cache`` that DELTA rows
count their deltas against, and the ``window_index`` that drives weight
evolution.  A crash loses all of it — re-pushing the feed from scratch
would produce *different* outputs, because the recurrent state is
path-dependent.

The snapshot a carry holds is not stored, nor are the ones its stream
buffered: the feed rebuilds them.  A loaded ``Carry`` comes back at its
last window boundary with no ``snap_prev`` — the first snapshot after a
restore takes FULL on every present row, as the first of a stream does —
and the caller replays its feed from ``carry.timestamp``.  So a stream
saved at **any** event boundary resumes bit-identically.  Design
points:

* **No pickle.**  Every field — scalar or array — is one field of a
  single 0-d structured record; the one string travels as a
  fixed-width unicode field.  Loading a checkpoint never executes code.
* **Written as** :func:`numpy.savez` **would, without its per-save
  work.**  :func:`save_checkpoint` writes the same two members in one
  ``zipfile`` pass: each member is numpy's own ``.npy`` header, then
  the array's buffer, streamed into the member.  A stream's record
  dtype is fixed once its first window ran, so the header is built by
  :func:`numpy.lib.format.write_array_header_1_0` once per dtype.  The
  members' bytes are ``np.savez``'s, so every reader of the format
  reads them unchanged, under ``np.load``'s default header cap.
* **One record, computed rows only.**  Each zip member costs ~25 us
  of ``zipfile`` + ``.npy``-header work, so every field but the format
  lives in one record; a shard's windows compute a quarter of the
  rows, so only those rows are written.
* **Stored, not deflated.**  float32 state barely compresses (-17 %)
  and deflate cost 13 ms a save against 1-2 ms stored.  Integrity is
  the zip's per-member CRC-32 (flipped byte) and central directory
  (torn write), not the codec; ``np.load`` reads a deflated archive
  all the same.
* **Self-describing.**  ``meta/format`` versions the layout and is
  always its own member, so reading the version never depends on the
  layout it versions; the record's ``.npy`` header names and types
  every field; ``meta/state_kind`` records the recurrent-state class
  (``lstm`` / ``gru`` / ``none``); optional sections (cache, previous
  window) are present only when the stream carried them.
* **A build reads the format it writes.**  This build writes and reads
  format 6 only.  An older or newer archive is refused with an
  "unsupported checkpoint format" message, which
  :meth:`CheckpointStore.load` raises as :class:`CorruptCheckpointError`:
  a shard recovers from it as from a torn archive, by rolling back to
  an older key or cold-starting, and replays bit-identically.
* **State is stored where it is computed.**  An owned-row stream (one
  shard) of a row-local cell advances the per-vertex arrays on its
  ``Carry.rows`` only, so the writer writes those rows alone — on
  :meth:`Carry.computed_rows`, the rows the engine computes — and
  ``carry/rows`` names them (absent = every row).  The reader
  scatters them into zeros: the rows not stored come back as zeros,
  which no owned row's update reads.  A stream resumes only from an
  archive that covers the rows it owns: :meth:`CheckpointStore.restore`
  refuses any other as it would a torn one.
* **No model needed to load.**  A loaded ``Carry``'s cache is a bare
  baseline; :meth:`StreamingInference.restore_carry` checks its width
  against the model's cell.
* **Weight evolution needs only the window index.**  Evolving models
  (EvolveGCN-style) derive window ``i`` weights from their initial
  weights idempotently via ``advance_window(i)``, so restoring
  ``meta/window_index`` restores the weight trajectory; no weight
  tensors are stored.

The key layout, by ``Carry`` field.  Every line but ``meta/format`` is
a field of the ``meta/record`` record::

    meta/format                the layout version (always a member)
    meta/{window_size,timestamp,window_index,num_vertices,
          state_kind}
    metrics/<field>            one int64 per ExecutionMetrics field
    state/h [, state/c]        ``state`` (by meta/state_kind)       r
    cache/z_input              ``cache`` delta baseline (optional)  r
    carry/{h_prev,z_prev}      ``h_prev`` / ``z_prev`` (optional)   r
    carry/rows                 ``rows``: the rows of the ``r`` arrays
                               (optional = every row)

``r`` marks the per-vertex arrays, written on ``carry/rows`` only.  A
record written by an earlier build may hold fields that were retired —
counters, and ``meta/first``, which always said "no window ran yet";
the reader skips them, and a counter the record lacks reads 0.
"""

from __future__ import annotations

import functools
import io
import os
import zipfile
from dataclasses import fields
from pathlib import Path

import numpy as np

from ..engine.carry import Carry
from ..engine.metrics import ExecutionMetrics
from ..engine.streaming import StreamingInference
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

CHECKPOINT_FORMAT = 6

#: the per-vertex arrays: written on the computed rows only
_ROW_KEYS = (
    "state/h", "state/c", "cache/z_input", "carry/h_prev", "carry/z_prev",
)
_RECORD = "meta/record"
#: record fields that are not int64
_SCALAR_DTYPES = {"meta/state_kind": "U4"}


def _field_type(key: str, value) -> tuple:
    if isinstance(value, np.ndarray):
        return (key, value.dtype, value.shape)
    return (key, _SCALAR_DTYPES.get(key, np.int64))


# ----------------------------------------------------------------------
def carry_to_arrays(carry: Carry, rows: np.ndarray | None = None) -> dict:
    """Flatten a :class:`Carry` into the two members of the format:
    ``meta/format`` and the ``meta/record`` that holds every field of
    the layout documented above.

    ``rows`` (ascending vertex ids; None = every row) are the rows whose
    per-vertex arrays are valid — ``carry.computed_rows(model)``: only
    they are written, and ``carry/rows`` names them."""
    num_vertices = carry.num_vertices
    record: dict = {
        "meta/window_size": carry.window_size,
        "meta/timestamp": carry.timestamp,
        "meta/window_index": carry.window_index,
        "meta/num_vertices": -1 if num_vertices is None else num_vertices,
    }
    for name, value in carry.metrics.as_dict().items():
        record[f"metrics/{name}"] = value
    per_vertex: dict = {}
    state = carry.state
    if state is None:
        record["meta/state_kind"] = "none"
    elif isinstance(state, LSTMState):
        record["meta/state_kind"] = "lstm"
        per_vertex["state/h"] = state.h
        per_vertex["state/c"] = state.c
    elif isinstance(state, GRUState):
        record["meta/state_kind"] = "gru"
        per_vertex["state/h"] = state.h
    else:
        raise ValueError(
            f"cannot checkpoint recurrent state of type {type(state).__name__}"
        )
    if carry.cache is not None:
        per_vertex["cache/z_input"] = carry.cache.z_input
    for name in ("h_prev", "z_prev"):
        if getattr(carry, name) is not None:
            per_vertex[f"carry/{name}"] = getattr(carry, name)
    if rows is not None:
        per_vertex = {key: a[rows] for key, a in per_vertex.items()}
        record["carry/rows"] = rows
    record.update(per_vertex)
    return {
        "meta/format": np.int64(CHECKPOINT_FORMAT),
        _RECORD: np.array(
            tuple(record.values()),
            dtype=[_field_type(key, value) for key, value in record.items()],
        ),
    }


def _read_record(data) -> dict:
    """Every field of ``meta/record`` as ``key -> value``: a Python
    value for a scalar, a fresh (aligned) copy for an array."""
    record = np.asarray(data[_RECORD])
    if record.ndim != 0 or record.dtype.names is None:
        raise ValueError(f"{_RECORD} is not a 0-d structured record")
    out = {}
    for name in record.dtype.names:
        value = record[name]
        out[name] = value.item() if value.ndim == 0 else value.copy()
    return out


def _scatter(key: str, sliced: np.ndarray, rows: np.ndarray, n: int):
    """A per-vertex array, written for ``rows`` only, back at
    full height: the rows no window computed are zeros."""
    sliced = np.asarray(sliced)
    if sliced.ndim != 2 or sliced.shape[0] != len(rows):
        raise ValueError(
            f"{key} has shape {sliced.shape} where carry/rows names"
            f" {len(rows)} rows"
        )
    if n < 0:
        raise ValueError(f"{key} is stored without meta/num_vertices")
    full = np.zeros((n, sliced.shape[1]), dtype=sliced.dtype)
    full[rows] = sliced
    return full


def arrays_to_carry(data) -> Carry:
    """Rebuild a :class:`Carry` from the checkpoint layout.

    ``data`` is indexed by ``meta/format`` and ``meta/record`` only — an
    :class:`numpy.lib.npyio.NpzFile` or a plain dict.  Any format but
    :data:`CHECKPOINT_FORMAT` is refused.  The carry comes back at its
    last window boundary with no ``snap_prev``, so its stream replays
    the feed from ``timestamp``.
    """
    fmt = int(data["meta/format"])
    if fmt != CHECKPOINT_FORMAT:
        raise ValueError(
            f"unsupported checkpoint format {fmt} (this build reads"
            f" format {CHECKPOINT_FORMAT})"
        )
    data = _read_record(data)
    raw_n = int(data["meta/num_vertices"])

    def optional(key):
        return np.asarray(data[key]) if key in data else None

    rows = optional("carry/rows")
    if rows is not None:
        if not (
            rows.ndim == 1
            and rows.dtype.kind == "i"
            and (np.diff(rows) > 0).all()
            and (
                not rows.size
                or (rows[0] >= 0 and (raw_n < 0 or rows[-1] < raw_n))
            )
        ):
            raise ValueError(
                "carry/rows is not an ascending list of vertex ids"
            )
        for key in _ROW_KEYS:
            if key in data:
                data[key] = _scatter(key, data[key], rows, raw_n)
    # a field this build retired is skipped, a counter it added reads 0
    metrics = ExecutionMetrics(
        **{
            f.name: int(data[f"metrics/{f.name}"])
            for f in fields(ExecutionMetrics)
            if f"metrics/{f.name}" in data
        }
    )
    state_kind = data["meta/state_kind"]
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
    cache = optional("cache/z_input")
    if cache is not None:
        cache = DeltaCellCache(cache)
    return Carry(
        window_size=int(data["meta/window_size"]),
        rows=rows,
        timestamp=int(data["meta/timestamp"]),
        window_index=int(data["meta/window_index"]),
        num_vertices=None if raw_n < 0 else raw_n,
        metrics=metrics,
        state=state,
        cache=cache,
        h_prev=optional("carry/h_prev"),
        z_prev=optional("carry/z_prev"),
    )


# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=64)
def _npy_header(dtype: np.dtype) -> bytes:
    """The ``.npy`` header ``np.save`` writes for a 0-d array of
    ``dtype``, built by numpy once per dtype: a stream's record dtype
    changes only while its first window runs."""
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(buf, {
        "descr": np.lib.format.dtype_to_descr(dtype),
        "fortran_order": False,
        "shape": (),
    })
    return buf.getvalue()


def save_checkpoint(stream: StreamingInference, path) -> None:
    """Write ``stream``'s carry state into a ``.npz`` checkpoint at
    ``path`` (a filesystem path or writable binary file object).  The
    stream's carry is serialised as it stands — a value, written out and
    never copied.  Per-vertex arrays are written for the rows the
    stream's windows compute (:meth:`Carry.computed_rows`) only.

    The archive is the one ``np.savez`` writes — stored members
    ``meta/format.npy`` and ``meta/record.npy``, the same bytes in each
    — written in one ``zipfile`` pass, each member its header and then
    the array's buffer, unjoined."""
    carry = stream.carry
    members = carry_to_arrays(carry, carry.computed_rows(stream.model))
    if not hasattr(path, "write"):  # a path, named as np.savez names it
        path = os.fspath(path)
        if not path.endswith(".npz"):
            path += ".npz"
    with zipfile.ZipFile(
        path, "w", zipfile.ZIP_STORED, allowZip64=True
    ) as archive:
        for name, value in members.items():
            with archive.open(f"{name}.npy", "w", force_zip64=True) as member:
                member.write(_npy_header(value.dtype))
                member.write(value.reshape(1).view(np.uint8))


def load_checkpoint(path) -> Carry:
    """Read a checkpoint back into a :class:`Carry` ready for
    :meth:`StreamingInference.restore_carry`; its stream replays the
    feed from ``carry.timestamp``."""
    with np.load(path, allow_pickle=False) as data:
        return arrays_to_carry(data)


def restore_stream(stream: StreamingInference, path) -> StreamingInference:
    """Install the checkpoint at ``path`` into ``stream`` and return it.

    The stream's model/config must match the checkpointed run; fed
    from its restored ``timestamp`` on, the stream reproduces the
    uninterrupted run bit-identically.
    """
    stream.restore_carry(load_checkpoint(path))
    return stream


# ----------------------------------------------------------------------
# rotating checkpoint store (keep-last-K retention)
# ----------------------------------------------------------------------
class CorruptCheckpointError(RuntimeError):
    """A stored checkpoint cannot be resumed from: it failed to
    deserialise (torn write, failed CRC, missing member, a format other
    than this build's, older or newer) or does not fit the restoring
    stream (its state does not cover the rows the stream owns)."""


#: the stem of every stored key: ``ckpt-<8-digit sequence>.npz``
_PREFIX = "ckpt"


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

    def __init__(self, directory=None, *, keep_last: int = 3):
        if keep_last < 1:
            raise ValueError(f"keep_last must be >= 1, got {keep_last}")
        self.keep_last = keep_last
        self.directory = None if directory is None else Path(directory)
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self._blobs: dict[str, bytes] = {}
        # a reopened directory goes on numbering after its newest key: a
        # lower key would sort first and be pruned by its own save
        self._seq = 0
        for key in self.keys():
            number = key[len(_PREFIX) + 1 : -len(".npz")]
            if number.isdigit():
                self._seq = max(self._seq, int(number))
        self._transient_failures = 0

    # ------------------------------------------------------------------
    def keys(self) -> list[str]:
        """Checkpoint keys, oldest first."""
        if self.directory is None:
            return sorted(self._blobs)
        return sorted(
            p.name for p in self.directory.glob(f"{_PREFIX}-*.npz")
        )

    def __len__(self) -> int:
        return len(self.keys())

    def save(self, stream: StreamingInference) -> str:
        """Checkpoint ``stream`` and prune beyond ``keep_last``."""
        self._seq += 1
        key = f"{_PREFIX}-{self._seq:08d}.npz"
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
        blob does not deserialise — torn, failing a CRC, of any format
        but this build's, or a well-formed archive that lacks a member
        (permanent for this key).
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
