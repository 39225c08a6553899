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
  mapping written with :func:`numpy.savez`; strings travel as 0-d
  unicode arrays.  Loading a checkpoint never executes code.
* **Stored, not deflated.**  float32 state barely compresses (-17 %)
  and deflate cost 13 ms a save against 1-2 ms stored.  Integrity is
  the zip's per-member CRC-32 (flipped byte) and central directory
  (torn write), not the codec; deflated archives still load.
* **Self-describing.**  ``meta/format`` versions the layout;
  ``meta/state_kind`` records the recurrent-state class (``lstm`` /
  ``gru`` / ``none``); optional sections (cache, previous window,
  pending snapshots) are present only when the stream carried them.
* **No model needed to load.**  A loaded ``Carry``'s cache holds bare
  arrays; :meth:`StreamingInference.restore_carry` checks them against
  the model's cell and binds it.
* **Weight evolution needs only the window index.**  Evolving models
  (EvolveGCN-style) derive window ``i`` weights from their initial
  weights idempotently via ``advance_window(i)``, so restoring
  ``meta/window_index`` restores the weight trajectory; no weight
  tensors are stored.

The key layout (format 1), by ``Carry`` field::

    meta/{format,window_size,timestamp,window_index,first,
          num_vertices,num_pending,state_kind}
    metrics/<field>            one int64 per scalar ExecutionMetrics field
    metrics/window_modes       (W, 3) int64 per-window (full, delta, skip)
    state/h [, state/c]        ``state`` (by meta/state_kind)
    cache/{zx,zh,z_input}      ``cache`` pre-activations (optional)
    carry/{h_prev,z_prev}      ``h_prev`` / ``z_prev`` (optional)
    snap_prev/<field>          ``snap_prev`` (optional)
    pending/<i>/<field>        ``pending[i]``, i < meta/num_pending
"""

from __future__ import annotations

import io
import os
import zipfile
from pathlib import Path

import numpy as np

from ..engine.carry import Carry
from ..engine.metrics import SCALAR_FIELDS, ExecutionMetrics
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

CHECKPOINT_FORMAT = 1

_SNAP_FIELDS = ("indptr", "indices", "features", "present")
_CACHE_FIELDS = ("zx", "zh", "z_input")


def _snapshot_arrays(prefix: str, snap: CSRSnapshot) -> dict:
    out = {f"{prefix}/{name}": getattr(snap, name) for name in _SNAP_FIELDS}
    out[f"{prefix}/timestamp"] = np.int64(snap.timestamp)
    return out


def _snapshot_from(data, prefix: str) -> CSRSnapshot:
    return CSRSnapshot(
        indptr=np.asarray(data[f"{prefix}/indptr"]),
        indices=np.asarray(data[f"{prefix}/indices"]),
        features=np.asarray(data[f"{prefix}/features"]),
        present=np.asarray(data[f"{prefix}/present"]),
        timestamp=int(data[f"{prefix}/timestamp"]),
    )


# ----------------------------------------------------------------------
def carry_to_arrays(carry: Carry) -> dict:
    """Flatten a :class:`Carry` (``StreamingInference.carry_state()``)
    into the ``str -> ndarray`` checkpoint layout documented above."""
    num_vertices = carry.num_vertices
    arrays: dict = {
        "meta/format": np.int64(CHECKPOINT_FORMAT),
        "meta/window_size": np.int64(carry.window_size),
        "meta/timestamp": np.int64(carry.timestamp),
        "meta/window_index": np.int64(carry.window_index),
        "meta/first": np.bool_(carry.first),
        "meta/num_vertices": np.int64(
            -1 if num_vertices is None else num_vertices
        ),
        "meta/num_pending": np.int64(len(carry.pending)),
    }
    metrics = carry.metrics
    for name in SCALAR_FIELDS:
        arrays[f"metrics/{name}"] = np.int64(getattr(metrics, name))
    arrays["metrics/window_modes"] = np.asarray(
        metrics.window_modes, dtype=np.int64
    ).reshape(-1, 3)
    state = carry.state
    if state is None:
        arrays["meta/state_kind"] = np.str_("none")
    elif isinstance(state, LSTMState):
        arrays["meta/state_kind"] = np.str_("lstm")
        arrays["state/h"] = state.h
        arrays["state/c"] = state.c
    elif isinstance(state, GRUState):
        arrays["meta/state_kind"] = np.str_("gru")
        arrays["state/h"] = state.h
    else:
        raise ValueError(
            f"cannot checkpoint recurrent state of type {type(state).__name__}"
        )
    if carry.cache is not None:
        for name in _CACHE_FIELDS:
            arrays[f"cache/{name}"] = getattr(carry.cache, name)
    for name in ("h_prev", "z_prev"):
        if getattr(carry, name) is not None:
            arrays[f"carry/{name}"] = getattr(carry, name)
    if carry.snap_prev is not None:
        arrays.update(_snapshot_arrays("snap_prev", carry.snap_prev))
    for i, snap in enumerate(carry.pending):
        arrays.update(_snapshot_arrays(f"pending/{i}", snap))
    return arrays


def arrays_to_carry(data) -> Carry:
    """Rebuild a :class:`Carry` from the flat checkpoint layout.

    ``data`` is anything indexable by key with a ``files``/key listing —
    an :class:`numpy.lib.npyio.NpzFile` or a plain dict.  Snapshots are
    reconstructed through ``CSRSnapshot.__init__`` so a tampered
    checkpoint fails validation instead of entering the stream.
    """
    keys = set(data.files) if hasattr(data, "files") else set(data)
    fmt = int(data["meta/format"])
    if fmt != CHECKPOINT_FORMAT:
        raise ValueError(
            f"unsupported checkpoint format {fmt}"
            f" (this build reads format {CHECKPOINT_FORMAT})"
        )
    metrics = ExecutionMetrics(
        **{
            name: int(data[f"metrics/{name}"])
            for name in SCALAR_FIELDS
            if f"metrics/{name}" in keys
        }
    )
    if "metrics/window_modes" in keys:
        modes = np.asarray(data["metrics/window_modes"], dtype=np.int64)
        metrics.window_modes = [
            (int(f), int(d), int(s)) for f, d, s in modes.reshape(-1, 3)
        ]
    state_kind = np.asarray(data["meta/state_kind"]).item()
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
    raw_n = int(data["meta/num_vertices"])
    return Carry(
        window_size=int(data["meta/window_size"]),
        pending=[
            _snapshot_from(data, f"pending/{i}")
            for i in range(int(data["meta/num_pending"]))
        ],
        timestamp=int(data["meta/timestamp"]),
        window_index=int(data["meta/window_index"]),
        num_vertices=None if raw_n < 0 else raw_n,
        metrics=metrics,
        state=state,
        cache=cache,
        h_prev=optional("carry/h_prev"),
        z_prev=optional("carry/z_prev"),
        snap_prev=(
            _snapshot_from(data, "snap_prev")
            if "snap_prev/indptr" in keys
            else None
        ),
        first=bool(data["meta/first"]),
    )


# ----------------------------------------------------------------------
def save_checkpoint(stream: StreamingInference, path) -> None:
    """Capture ``stream``'s carry state into a ``.npz`` checkpoint at
    ``path`` (a filesystem path or writable binary file object)."""
    np.savez(path, **carry_to_arrays(stream.carry_state()))


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
    """A stored checkpoint failed to deserialise (torn write)."""


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
        failure is pending (retryable) and :class:`CorruptCheckpointError`
        when the blob does not deserialise (permanent for this key).
        """
        if self._transient_failures > 0:
            self._transient_failures -= 1
            raise TransientStorageError(
                f"injected transient failure loading {key}"
            )
        try:
            if self.directory is None:
                data = io.BytesIO(self._blobs[key])
            else:
                data = self.directory / key
                if not os.path.exists(data):
                    raise KeyError(key)
            return load_checkpoint(data)
        except KeyError:
            raise
        except (ValueError, OSError, zipfile.BadZipFile, EOFError) as exc:
            raise CorruptCheckpointError(
                f"checkpoint {key} failed to deserialise: {exc}"
            ) from exc

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
