"""Crash-consistency tests for checkpoint/replay.

The headline property: kill the stream at *any* event boundary, restore
from the checkpoint into a fresh process (fresh model objects, same
seeds), replay the rest of the feed — and the combined outputs are
bit-identical to the uninterrupted run.
"""

import io
import struct
import zipfile

import numpy as np
import pytest

from repro.engine import StreamingInference
from repro.graphs import load_dataset
from repro.models import make_model
from repro.resilience import (
    CheckpointStore,
    CorruptCheckpointError,
    arrays_to_carry,
    carry_to_arrays,
    load_checkpoint,
    restore_stream,
    save_checkpoint,
)

WINDOW = 3
SEED = 3


@pytest.fixture(scope="module")
def graph():
    return load_dataset("GT", num_snapshots=7, seed=SEED)


def _model(graph, name="T-GCN"):
    return make_model(name, graph.dim, hidden_dim=16, seed=SEED)


def _run(stream, snapshots):
    outs = []
    for snap in snapshots:
        r = stream.push(snap.copy())
        if r is not None:
            outs.extend(r.outputs)
    r = stream.flush()
    if r is not None:
        outs.extend(r.outputs)
    return outs


def _uninterrupted(graph, name="T-GCN"):
    return _run(
        StreamingInference(_model(graph, name), window_size=WINDOW),
        list(graph),
    )


def _parent_blob(carry) -> bytes:
    """The deflated archive the writer produced before it stored its
    members — kept as the compatibility oracle."""
    buf = io.BytesIO()
    np.savez_compressed(buf, **carry_to_arrays(carry))
    return buf.getvalue()


def _byte_bound(carry) -> int:
    """Payload bytes plus 400 B of zip + npy framing per member."""
    arrays = carry_to_arrays(carry)
    return sum(np.asarray(a).nbytes + 400 for a in arrays.values())


def _get_blob(store, key) -> bytes:
    if store.directory is None:
        return store._blobs[key]
    return (store.directory / key).read_bytes()


def _put_blob(store, key, blob) -> None:
    if store.directory is None:
        store._blobs[key] = blob
    else:
        (store.directory / key).write_bytes(blob)


class TestCrashConsistency:
    @pytest.mark.parametrize("model_name", ["T-GCN", "GC-LSTM", "EvolveGCN"])
    def test_restore_at_every_event_boundary(self, graph, model_name):
        expected = _uninterrupted(graph, model_name)
        for crash_at in range(graph.num_snapshots + 1):
            first = StreamingInference(
                _model(graph, model_name), window_size=WINDOW
            )
            early = []
            for snap in list(graph)[:crash_at]:
                r = first.push(snap.copy())
                if r is not None:
                    early.extend(r.outputs)
            buf = io.BytesIO()
            save_checkpoint(first, buf)
            del first  # the crash
            buf.seek(0)
            resumed = StreamingInference(
                _model(graph, model_name), window_size=WINDOW
            )
            resumed.restore_carry(load_checkpoint(buf))
            late = _run(resumed, list(graph)[crash_at:])
            replayed = early + late
            assert len(replayed) == len(expected)
            for a, b in zip(expected, replayed):
                np.testing.assert_array_equal(
                    a, b, err_msg=f"crash_at={crash_at}"
                )

    def test_metrics_survive_the_round_trip(self, graph):
        stream = StreamingInference(_model(graph), window_size=WINDOW)
        for snap in list(graph)[:4]:
            stream.push(snap.copy())
        buf = io.BytesIO()
        save_checkpoint(stream, buf)
        buf.seek(0)
        resumed = restore_stream(
            StreamingInference(_model(graph), window_size=WINDOW), buf
        )
        assert resumed.metrics.as_dict() == stream.metrics.as_dict()
        assert resumed.pending == stream.pending
        # the per-window trajectory is list-valued and travels through a
        # dedicated (W, 3) array — make sure it survives as tuples
        assert resumed.metrics.window_modes == stream.metrics.window_modes
        assert stream.metrics.window_modes, "4 pushes must complete a window"
        assert all(
            isinstance(t, tuple) and len(t) == 3
            for t in resumed.metrics.window_modes
        )

    def test_file_path_round_trip(self, graph, tmp_path):
        stream = StreamingInference(_model(graph), window_size=WINDOW)
        for snap in list(graph)[:2]:
            stream.push(snap.copy())
        path = tmp_path / "carry.npz"
        save_checkpoint(stream, path)
        original = carry_to_arrays(stream.carry_state())
        restored = carry_to_arrays(load_checkpoint(path))
        assert set(original) == set(restored)
        for key in original:
            np.testing.assert_array_equal(original[key], restored[key])


class TestTamperRejection:
    def _arrays(self, graph, pushes=1):
        stream = StreamingInference(_model(graph), window_size=WINDOW)
        for snap in list(graph)[:pushes]:
            stream.push(snap.copy())
        return carry_to_arrays(stream.carry_state())

    def test_unknown_format_rejected(self, graph):
        arrays = self._arrays(graph)
        arrays["meta/format"] = np.int64(999)
        with pytest.raises(ValueError, match="format"):
            arrays_to_carry(arrays)

    def test_unknown_state_kind_rejected(self, graph):
        arrays = self._arrays(graph, pushes=4)
        arrays["meta/state_kind"] = np.str_("quantum")
        with pytest.raises(ValueError, match="state kind"):
            arrays_to_carry(arrays)

    def test_truncated_pending_snapshot_rejected(self, graph):
        arrays = self._arrays(graph, pushes=1)  # window open: 1 pending
        assert int(arrays["meta/num_pending"]) == 1
        arrays["pending/0/indices"] = arrays["pending/0/indices"][:-3]
        with pytest.raises(ValueError, match="indptr"):
            arrays_to_carry(arrays)

    def test_window_size_mismatch_rejected(self, graph):
        stream = StreamingInference(_model(graph), window_size=WINDOW)
        stream.push(graph[0].copy())
        carry = stream.carry_state()
        other = StreamingInference(_model(graph), window_size=WINDOW + 1)
        with pytest.raises(ValueError, match="window"):
            other.restore_carry(carry)

    def test_geometry_mismatch_rejected(self, graph):
        stream = StreamingInference(_model(graph), window_size=WINDOW)
        for snap in list(graph)[:4]:
            stream.push(snap.copy())
        carry = stream.carry_state()
        narrow = StreamingInference(
            make_model("T-GCN", graph.dim, hidden_dim=8, seed=SEED),
            window_size=WINDOW,
        )
        with pytest.raises(ValueError):
            narrow.restore_carry(carry)


class TestCheckpointStore:
    """Retention (keep-last-K), pruning, and the chaos seams."""

    def _filled(self, graph, *, keep_last=3, directory=None):
        from repro.resilience import CheckpointStore

        store = CheckpointStore(directory, keep_last=keep_last)
        stream = StreamingInference(_model(graph), window_size=WINDOW)
        for snap in graph:
            stream.push(snap.copy())
            store.save(stream)
        return store, stream

    def test_prunes_to_keep_last(self, graph):
        store, _ = self._filled(graph, keep_last=3)
        stored = store.keys()
        assert len(stored) == 3
        # the survivors are the newest three, in order
        assert stored == sorted(stored)
        assert stored[-1].endswith(f"{graph.num_snapshots:08d}.npz")

    def test_resume_works_after_pruning(self, graph):
        """The headline retention property: pruning old checkpoints
        never breaks recovery — the newest survivor still resumes the
        stream bit-identically."""
        expected = _uninterrupted(graph)
        store, _ = self._filled(graph, keep_last=2)
        # the oldest survivor of the prune is still a valid resume point
        carry = store.load(store.keys()[0])
        resumed = StreamingInference(_model(graph), window_size=WINDOW)
        resumed.restore_carry(carry)
        start = carry.timestamp + len(carry.pending)
        replayed = _run(resumed, list(graph)[start:])
        assert replayed
        for a, b in zip(replayed, expected[len(expected) - len(replayed):]):
            assert np.array_equal(a, b)

    def test_directory_backend_round_trip(self, graph, tmp_path):
        store, stream = self._filled(
            graph, keep_last=2, directory=tmp_path / "ckpts"
        )
        assert len(list((tmp_path / "ckpts").glob("ckpt-*.npz"))) == 2
        carry = store.load(store.keys()[-1])
        assert carry.timestamp == stream.carry_state().timestamp

    def test_corrupt_latest_falls_back_to_older(self, graph):
        from repro.resilience import CorruptCheckpointError

        store, _ = self._filled(graph, keep_last=3)
        torn = store.corrupt_latest()
        with pytest.raises(CorruptCheckpointError):
            store.load(torn)
        older = store.keys()[-2]
        carry = store.load(older)  # the older checkpoint still works
        assert carry.timestamp >= 0

    def test_flaked_load_is_retryable(self, graph):
        from repro.engine import ExecutionMetrics
        from repro.resilience import RetryPolicy, with_retry

        store, _ = self._filled(graph)
        key = store.keys()[-1]
        store.fail_next_loads(2)
        m = ExecutionMetrics()
        carry, delays = with_retry(
            lambda: store.load(key),
            policy=RetryPolicy(max_attempts=3, seed=1),
            metrics=m,
        )
        assert carry.timestamp >= 0
        assert len(delays) == 2
        assert m.retries == 2

    def test_invalid_keep_last_rejected(self):
        from repro.resilience import CheckpointStore

        with pytest.raises(ValueError):
            CheckpointStore(keep_last=0)

    def test_missing_key_raises_key_error(self, graph):
        from repro.resilience import CheckpointStore

        store = CheckpointStore()
        with pytest.raises(KeyError):
            store.load("ckpt-00000001.npz")


class TestStoredArchive:
    """The archive is stored, not deflated — and loses no safety net:
    size, CRC and torn-write detection are pinned here."""

    @pytest.fixture(params=["memory", "directory"])
    def saved(self, request, graph, tmp_path):
        """A store holding two checkpoints, and the newest one's carry."""
        directory = tmp_path / "ckpts" if request.param == "directory" else None
        store = CheckpointStore(directory, keep_last=2)
        stream = StreamingInference(_model(graph), window_size=WINDOW)
        for snap in list(graph)[:5]:
            stream.push(snap.copy())
            store.save(stream)
        return store, stream.carry_state()

    def test_members_stored_within_byte_bound(self, saved):
        store, carry = saved
        blob = _get_blob(store, store.keys()[-1])
        with zipfile.ZipFile(io.BytesIO(blob)) as zf:
            infos = zf.infolist()
        assert len(infos) == len(carry_to_arrays(carry))
        assert all(i.compress_type == zipfile.ZIP_STORED for i in infos)
        assert len(blob) <= _byte_bound(carry)

    def test_flipped_payload_byte_fails_the_crc(self, saved):
        store, _ = saved
        key = store.keys()[-1]
        blob = bytearray(_get_blob(store, key))
        with zipfile.ZipFile(io.BytesIO(bytes(blob))) as zf:
            info = zf.getinfo("state/h.npy")
        name_len, extra_len = struct.unpack_from(
            "<HH", blob, info.header_offset + 26
        )
        payload_end = (
            info.header_offset + 30 + name_len + extra_len + info.compress_size
        )
        blob[payload_end - 1] ^= 0x01  # last byte of the float data
        _put_blob(store, key, bytes(blob))
        with pytest.raises(
            CorruptCheckpointError, match=r"CRC-32 for file 'state/h\.npy'"
        ):
            store.load(key)
        assert store.load(store.keys()[-2]).timestamp >= 0

    def test_every_tear_is_detected(self, saved):
        store, carry = saved
        key = store.keys()[-1]
        blob = _get_blob(store, key)
        cuts = [len(blob) * k // 8 for k in range(1, 8)] + [len(blob) - 1]
        for cut in cuts:
            _put_blob(store, key, blob[:cut])
            with pytest.raises(CorruptCheckpointError):
                store.load(key)
        _put_blob(store, key, blob)
        assert store.load(key).timestamp == carry.timestamp

    def test_memory_store_is_bounded(self, graph):
        store = CheckpointStore(keep_last=3)
        stream = StreamingInference(_model(graph), window_size=WINDOW)
        for i in range(20):
            stream.push(graph[i % graph.num_snapshots].copy())
            store.save(stream)
        assert len(store._blobs) == store.keep_last
        held = sum(len(b) for b in store._blobs.values())
        assert held <= store.keep_last * _byte_bound(stream.carry_state())


class TestParentFormatCompatibility:
    """Deflated (parent-written) and stored archives are one format."""

    @pytest.mark.parametrize("model_name", ["T-GCN", "GC-LSTM", "EvolveGCN"])
    @pytest.mark.parametrize("crash_at", [WINDOW, WINDOW + 1])
    def test_parent_blob_resumes_bit_identically(
        self, graph, model_name, crash_at
    ):
        expected = _uninterrupted(graph, model_name)
        first = StreamingInference(
            _model(graph, model_name), window_size=WINDOW
        )
        for snap in list(graph)[:crash_at]:
            first.push(snap.copy())
        assert first.pending == crash_at % WINDOW
        blob = _parent_blob(first.carry_state())
        store = CheckpointStore()
        _put_blob(store, "ckpt-00000001.npz", blob)
        for carry in (
            load_checkpoint(io.BytesIO(blob)),
            store.load("ckpt-00000001.npz"),
        ):
            resumed = StreamingInference(
                _model(graph, model_name), window_size=WINDOW
            )
            resumed.restore_carry(carry)
            late = _run(resumed, list(graph)[crash_at:])
            tail = expected[len(expected) - len(late):]
            assert late and len(late) == len(tail)
            for a, b in zip(tail, late):
                assert a.tobytes() == b.tobytes()

    def test_both_writers_decode_to_equal_arrays(self, graph):
        stream = StreamingInference(_model(graph), window_size=WINDOW)
        for snap in list(graph)[:4]:
            stream.push(snap.copy())
        buf = io.BytesIO()
        save_checkpoint(stream, buf)
        with np.load(io.BytesIO(buf.getvalue())) as new, np.load(
            io.BytesIO(_parent_blob(stream.carry_state()))
        ) as old:
            assert new.files == old.files
            for key in new.files:
                assert new[key].dtype == old[key].dtype, key
                assert np.array_equal(new[key], old[key]), key
