"""Crash-consistency tests for checkpoint/replay.

The headline property: kill the stream at *any* event boundary, restore
from the checkpoint into a fresh process (fresh model objects, same
seeds), replay the feed from the restored ``timestamp`` — a checkpoint
holds no snapshot, so that is the last window boundary before the
crash — and the combined outputs are bit-identical to the
uninterrupted run.
"""

import io
import struct
import zipfile
from dataclasses import fields

import numpy as np
import pytest

from repro.engine import ExecutionMetrics, StreamingInference
from repro.graphs import load_dataset
from repro.models import make_model
from repro.models.rnn import GRUState, LSTMState
from repro.resilience import (
    CHECKPOINT_FORMAT,
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


def _expected_fields(carry) -> dict:
    """Every field a whole-row record of ``carry`` must hold, by key,
    taken from the carry itself.  The independent oracle for the
    layout — do not route it through ``carry_to_arrays``."""
    n = carry.num_vertices
    arrays = {
        "meta/window_size": np.int64(carry.window_size),
        "meta/timestamp": np.int64(carry.timestamp),
        "meta/window_index": np.int64(carry.window_index),
        "meta/num_vertices": np.int64(-1 if n is None else n),
    }
    for f in fields(ExecutionMetrics):
        arrays[f"metrics/{f.name}"] = np.int64(getattr(carry.metrics, f.name))
    state = carry.state
    if state is None:
        arrays["meta/state_kind"] = np.str_("none")
    elif isinstance(state, LSTMState):
        arrays["meta/state_kind"] = np.str_("lstm")
        arrays["state/h"] = state.h
        arrays["state/c"] = state.c
    else:
        assert isinstance(state, GRUState)
        arrays["meta/state_kind"] = np.str_("gru")
        arrays["state/h"] = state.h
    if carry.cache is not None:
        arrays["cache/z_input"] = carry.cache.z_input
    for name in ("h_prev", "z_prev"):
        if getattr(carry, name) is not None:
            arrays[f"carry/{name}"] = getattr(carry, name)
    return arrays


#: the two members of an archive
MEMBERS = ["meta/format.npy", "meta/record.npy"]
_DROP = object()


def _record_fields(record) -> dict:
    """A structured record's fields, ``key -> array``."""
    return {name: np.asarray(record[name]) for name in record.dtype.names}


def _edit(arrays: dict, key: str, value=_DROP) -> None:
    """Overwrite, add or drop one field of a flattened carry's
    ``meta/record``; the record is rebuilt from its fields (a field of
    shape ``()`` is a scalar)."""
    fields_ = _record_fields(arrays["meta/record"])
    if value is _DROP:
        del fields_[key]
    else:
        fields_[key] = np.asarray(value)
    arrays["meta/record"] = np.array(
        tuple(fields_.values()),
        dtype=[(name, v.dtype, v.shape) for name, v in fields_.items()],
    )


def _per_vertex(carry) -> list:
    """The carry's per-vertex arrays: state, delta baseline, previous
    outputs."""
    state = carry.state
    arrays = [] if state is None else [state.h]
    if isinstance(state, LSTMState):
        arrays.append(state.c)
    if carry.cache is not None:
        arrays.append(carry.cache.z_input)
    return arrays + [a for a in (carry.h_prev, carry.z_prev) if a is not None]


#: zip framing of the two members and the record's ``.npy`` header,
#: which names every field (≈ 40 B each), plus the scalars themselves
HEADER_ALLOWANCE = 6 * 1024


def _byte_bound(carry) -> int:
    """What the archive of an owned-row carry may hold: its
    owned rows at their per-row widths (a row id, then one row of each
    per-vertex array) and a fixed header allowance — never a row it
    does not own, and no snapshot."""
    per_row = carry.rows.itemsize + sum(
        a.shape[1] * a.itemsize for a in _per_vertex(carry)
    )
    return len(carry.rows) * per_row + HEADER_ALLOWANCE


def _get_blob(store, key) -> bytes:
    if store.directory is None:
        return store._blobs[key]
    return (store.directory / key).read_bytes()


def _put_blob(store, key, blob) -> None:
    if store.directory is None:
        store._blobs[key] = blob
    else:
        (store.directory / key).write_bytes(blob)


def _without_field(blob: bytes, key: str) -> bytes:
    """``blob`` re-written as a valid archive whose record lacks
    ``key``."""
    with np.load(io.BytesIO(blob)) as data:
        arrays = {name: data[name] for name in data.files}
    _edit(arrays, key)
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


def _with_format(blob: bytes, fmt: int) -> bytes:
    """``blob`` re-written as a valid archive whose ``meta/format`` is
    ``fmt``, its record kept."""
    with np.load(io.BytesIO(blob)) as data:
        arrays = dict(data)
    arrays["meta/format"] = np.int64(fmt)
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


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
            # back at the last window boundary: the snapshots pushed
            # since then replay with the rest of the feed
            assert resumed.pending == 0
            assert resumed.timestamp == crash_at - crash_at % WINDOW
            late = _run(resumed, list(graph)[resumed.timestamp:])
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
        assert resumed.metrics == stream.metrics
        assert resumed.timestamp == stream.timestamp == WINDOW
        assert (resumed.pending, stream.pending) == (0, 1)
        assert stream.metrics.windows_processed, "4 pushes complete a window"

    def test_file_path_round_trip(self, graph, tmp_path):
        stream = StreamingInference(_model(graph), window_size=WINDOW)
        for snap in list(graph)[:2]:
            stream.push(snap.copy())
        path = tmp_path / "carry.npz"
        save_checkpoint(stream, path)
        original = carry_to_arrays(stream.carry)
        restored = carry_to_arrays(load_checkpoint(path))
        assert set(original) == set(restored)
        for key in original:
            np.testing.assert_array_equal(original[key], restored[key])


class TestTamperRejection:
    def _arrays(self, graph, pushes=1):
        stream = StreamingInference(_model(graph), window_size=WINDOW)
        for snap in list(graph)[:pushes]:
            stream.push(snap.copy())
        return carry_to_arrays(stream.carry)

    def test_unknown_format_rejected(self, graph):
        arrays = self._arrays(graph)
        arrays["meta/format"] = np.int64(999)
        with pytest.raises(ValueError, match="format 999"):
            arrays_to_carry(arrays)

    def test_unknown_state_kind_rejected(self, graph):
        arrays = self._arrays(graph, pushes=4)
        _edit(arrays, "meta/state_kind", "quantum")
        with pytest.raises(ValueError, match="state kind"):
            arrays_to_carry(arrays)

    def test_scalar_record_must_be_a_structured_scalar(self, graph):
        arrays = self._arrays(graph)
        arrays["meta/record"] = np.zeros(4, dtype=np.int64)
        with pytest.raises(ValueError, match="structured record"):
            arrays_to_carry(arrays)

    def test_window_size_mismatch_rejected(self, graph):
        stream = StreamingInference(_model(graph), window_size=WINDOW)
        stream.push(graph[0].copy())
        carry = stream.carry
        other = StreamingInference(_model(graph), window_size=WINDOW + 1)
        with pytest.raises(ValueError, match="window"):
            other.restore_carry(carry)

    def test_geometry_mismatch_rejected(self, graph):
        stream = StreamingInference(_model(graph), window_size=WINDOW)
        for snap in list(graph)[:4]:
            stream.push(snap.copy())
        carry = stream.carry
        narrow = StreamingInference(
            make_model("T-GCN", graph.dim, hidden_dim=8, seed=SEED),
            window_size=WINDOW,
        )
        with pytest.raises(ValueError):
            narrow.restore_carry(carry)


class TestCheckpointStore:
    """Retention (keep-last-K), pruning, and the chaos seams."""

    def _filled(self, graph, *, keep_last=3, directory=None):
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
        replayed = _run(resumed, list(graph)[carry.timestamp:])
        assert replayed
        for a, b in zip(replayed, expected[len(expected) - len(replayed):]):
            assert np.array_equal(a, b)

    def test_directory_backend_round_trip(self, graph, tmp_path):
        store, stream = self._filled(
            graph, keep_last=2, directory=tmp_path / "ckpts"
        )
        assert len(list((tmp_path / "ckpts").glob("ckpt-*.npz"))) == 2
        carry = store.load(store.keys()[-1])
        assert carry.timestamp == stream.carry.timestamp

    def test_corrupt_latest_falls_back_to_older(self, graph):
        store, _ = self._filled(graph, keep_last=3)
        torn = store.corrupt_latest()
        with pytest.raises(CorruptCheckpointError):
            store.load(torn)
        older = store.keys()[-2]
        carry = store.load(older)  # the older checkpoint still works
        assert carry.timestamp >= 0

    def test_flaked_load_is_retryable(self, graph):
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
        with pytest.raises(ValueError):
            CheckpointStore(keep_last=0)

    def test_missing_key_raises_key_error(self, graph):
        store = CheckpointStore()
        with pytest.raises(KeyError):
            store.load("ckpt-00000001.npz")

    @pytest.mark.parametrize("backend", ["memory", "directory"])
    def test_archive_lacking_a_member_is_corrupt_not_missing(
        self, graph, tmp_path, backend
    ):
        """A well-formed zip whose record lacks ``state/h`` is a corrupt
        checkpoint (recovery falls back to the older key), not an
        unknown key."""
        directory = tmp_path / "ckpts" if backend == "directory" else None
        store, _ = self._filled(graph, keep_last=2, directory=directory)
        newest = store.keys()[-1]
        _put_blob(store, newest, _without_field(_get_blob(store, newest),
                                                "state/h"))
        with pytest.raises(CorruptCheckpointError, match="state/h"):
            store.load(newest)
        assert store.load(store.keys()[-2]).timestamp >= 0
        with pytest.raises(KeyError):
            store.load("ckpt-99999999.npz")

    def test_future_format_is_corrupt_with_the_format_message(self, graph):
        store, _ = self._filled(graph, keep_last=2)
        newest = store.keys()[-1]
        _put_blob(store, newest, _with_format(_get_blob(store, newest), 7))
        with pytest.raises(
            CorruptCheckpointError, match="unsupported checkpoint format 7"
        ):
            store.load(newest)
        assert store.load(store.keys()[-2]).timestamp >= 0

    @pytest.mark.parametrize("fmt", [1, 2, 3, 4, 5, 7])
    def test_any_other_format_is_refused_with_the_format_message(
        self, graph, fmt
    ):
        """A build reads the format it writes: an older archive is
        refused exactly as a newer one is, from every entry point."""
        store, _ = self._filled(graph, keep_last=2)
        newest = store.keys()[-1]
        blob = _with_format(_get_blob(store, newest), fmt)
        message = f"unsupported checkpoint format {fmt} "
        with pytest.raises(ValueError, match=message):
            load_checkpoint(io.BytesIO(blob))
        stream = StreamingInference(_model(graph), window_size=WINDOW)
        with pytest.raises(ValueError, match=message):
            restore_stream(stream, io.BytesIO(blob))
        assert stream.timestamp == 0  # nothing was installed
        _put_blob(store, newest, blob)
        with pytest.raises(CorruptCheckpointError, match=message):
            store.load(newest)

    def test_a_reopened_directory_goes_on_numbering(self, graph, tmp_path):
        """A store opened over a filled directory saves after its newest
        key: the save survives its own prune and is the newest key."""
        directory = tmp_path / "ckpts"
        store, stream = self._filled(graph, keep_last=3, directory=directory)
        old = store.keys()
        assert [k[5:13] for k in old] == ["00000005", "00000006", "00000007"]
        reopened = CheckpointStore(directory, keep_last=3)
        key = reopened.save(stream)
        assert key == "ckpt-00000008.npz"
        assert reopened.keys() == old[1:] + [key]
        assert reopened.load(key).timestamp == stream.timestamp


class TestStoredArchive:
    """The archive is stored, not deflated — and loses no safety net:
    size, CRC and torn-write detection are pinned here."""

    @staticmethod
    def _owned_stream(graph):
        """A T-GCN stream owning every fourth row, as one of four
        shards would."""
        return StreamingInference(
            _model(graph), window_size=WINDOW,
            rows=np.arange(0, graph.num_vertices, 4),
        )

    @pytest.fixture(params=["memory", "directory"])
    def saved(self, request, graph, tmp_path):
        """A store holding two checkpoints, and the stream that saved
        them."""
        directory = tmp_path / "ckpts" if request.param == "directory" else None
        store = CheckpointStore(directory, keep_last=2)
        stream = self._owned_stream(graph)
        for snap in list(graph)[:5]:
            stream.push(snap.copy())
            store.save(stream)
        return store, stream

    def test_members_stored_within_byte_bound(self, saved):
        store, stream = saved
        carry = stream.carry
        blob = _get_blob(store, store.keys()[-1])
        with zipfile.ZipFile(io.BytesIO(blob)) as zf:
            infos = zf.infolist()
        assert [i.filename for i in infos] == MEMBERS
        assert all(i.compress_type == zipfile.ZIP_STORED for i in infos)
        assert stream.pending == 2 and len(_per_vertex(carry)) == 4
        assert len(blob) <= _byte_bound(carry)

    def test_flipped_payload_byte_fails_the_crc(self, saved):
        store, _ = saved
        key = store.keys()[-1]
        blob = bytearray(_get_blob(store, key))
        with zipfile.ZipFile(io.BytesIO(bytes(blob))) as zf:
            info = zf.getinfo("meta/record.npy")
        name_len, extra_len = struct.unpack_from(
            "<HH", blob, info.header_offset + 26
        )
        payload_end = (
            info.header_offset + 30 + name_len + extra_len + info.compress_size
        )
        blob[payload_end - 1] ^= 0x01  # last byte of the record's data
        _put_blob(store, key, bytes(blob))
        with pytest.raises(
            CorruptCheckpointError, match=r"CRC-32 for file 'meta/record\.npy'"
        ):
            store.load(key)
        assert store.load(store.keys()[-2]).timestamp >= 0

    def test_every_tear_is_detected(self, saved):
        store, stream = saved
        key = store.keys()[-1]
        blob = _get_blob(store, key)
        cuts = [len(blob) * k // 8 for k in range(1, 8)] + [len(blob) - 1]
        for cut in cuts:
            _put_blob(store, key, blob[:cut])
            with pytest.raises(CorruptCheckpointError):
                store.load(key)
        _put_blob(store, key, blob)
        assert store.load(key).timestamp == stream.timestamp

    def test_memory_store_is_bounded(self, graph):
        store = CheckpointStore(keep_last=3)
        stream = self._owned_stream(graph)
        for i in range(20):
            stream.push(graph[i % graph.num_snapshots].copy())
            store.save(stream)
        assert len(store._blobs) == store.keep_last
        held = sum(len(b) for b in store._blobs.values())
        assert held <= store.keep_last * _byte_bound(stream.carry)


class TestFormat2Layout:
    """The record layout: every field but the format lives in one
    record, so an archive is two members."""

    def _saved(self, graph, pushes, name="T-GCN"):
        stream = StreamingInference(_model(graph, name), window_size=WINDOW)
        for snap in list(graph)[:pushes]:
            stream.push(snap.copy())
        buf = io.BytesIO()
        save_checkpoint(stream, buf)
        return stream, buf.getvalue()

    def test_writes_format_6(self, graph):
        _, blob = self._saved(graph, WINDOW)
        assert CHECKPOINT_FORMAT == 6
        with np.load(io.BytesIO(blob)) as data:
            assert int(data["meta/format"]) == 6

    @pytest.mark.parametrize("model_name", ["T-GCN", "GC-LSTM"])
    def test_the_delta_cache_is_its_baseline_alone(self, graph, model_name):
        """The record holds the delta baseline ``cache/z_input`` and
        none of the pre-activation blocks format 4 stored."""
        stream, blob = self._saved(graph, WINDOW + 1, model_name)
        with np.load(io.BytesIO(blob)) as data:
            names = data["meta/record"].dtype.names
        cache = [n for n in names if n.startswith("cache/")]
        assert cache == ["cache/z_input"]
        assert stream.carry.cache.z_input.shape[1] == (
            stream.model.cell.input_dim
        )

    @pytest.mark.parametrize("pending", [0, 1, 2])
    def test_member_count_is_two_plus_array_members(self, graph, pending):
        """The record layout has no array member: whatever the carry
        holds, the archive is the format and the record — and the
        record holds no snapshot, pending or previous."""
        stream, blob = self._saved(graph, WINDOW + pending)
        assert stream.pending == pending
        assert stream.carry.snap_prev is not None
        with zipfile.ZipFile(io.BytesIO(blob)) as zf:
            assert zf.namelist() == MEMBERS
        with np.load(io.BytesIO(blob)) as data:
            names = data["meta/record"].dtype.names
        assert not [
            n for n in names if n.startswith(("pending/", "snap_prev/"))
        ]
        assert "meta/num_pending" not in names
        assert "metrics/window_modes" not in names  # a retired trajectory

    @pytest.mark.parametrize("model_name", ["T-GCN", "GC-LSTM", "EvolveGCN"])
    @pytest.mark.parametrize("pushes", [0, 1, WINDOW, WINDOW + 1])
    def test_no_scalar_but_the_format_has_its_own_member(
        self, graph, model_name, pushes
    ):
        stream, blob = self._saved(graph, pushes, model_name)
        with np.load(io.BytesIO(blob)) as data:
            members = {key: data[key] for key in data.files}
        lone = [
            key
            for key, value in members.items()
            if value.ndim == 0 and value.dtype.names is None
        ]
        assert lone == ["meta/format"]
        # the record holds exactly the carry's fields, under the layout's
        # names and with the carry's values
        old = _expected_fields(stream.carry)
        record = members["meta/record"]
        assert set(members) == {"meta/format", "meta/record"}
        assert record.shape == ()
        assert set(record.dtype.names) == set(old)
        for key, value in _record_fields(record).items():
            assert value.shape == np.shape(old[key]), key
            assert (value == old[key]).all(), key

    def test_a_long_window_loads(self):
        """A stream 60 snapshots into a window of 64 saves no snapshot:
        its record loads under numpy's default header cap, and the
        resumed stream replays the window from its start."""
        small = load_dataset("GT", scale=0.05, num_snapshots=60, seed=SEED)
        stream = StreamingInference(_model(small), window_size=64)
        for snap in small:
            stream.push(snap.copy())
        buf = io.BytesIO()
        save_checkpoint(stream, buf)
        blob = buf.getvalue()
        with np.load(io.BytesIO(blob), allow_pickle=False) as data:
            assert data["meta/record"].shape == ()
        resumed = StreamingInference(_model(small), window_size=64)
        resumed.restore_carry(load_checkpoint(io.BytesIO(blob)))
        assert (resumed.pending, resumed.timestamp) == (0, 0)
        got = _run(resumed, list(small)[resumed.timestamp:])
        want = stream.flush().outputs
        assert len(got) == len(want) == 60
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    def test_save_leaves_the_live_carry_untouched(self, graph):
        stream = StreamingInference(_model(graph), window_size=WINDOW)
        for snap in list(graph)[: WINDOW + 1]:
            stream.push(snap.copy())
        live = _expected_fields(stream.carry)
        before = {k: np.asarray(v).tobytes() for k, v in live.items()}
        store = CheckpointStore()
        store.save(stream)
        after = _expected_fields(stream.carry)
        assert list(after) == list(before)
        for key, value in after.items():
            assert np.asarray(value).tobytes() == before[key], key
            if np.ndim(value):
                assert value is live[key], key  # same arrays: not replaced


class TestParentFormatCompatibility:
    """A format-4 record an earlier build wrote resumes like this
    build's own."""

    @pytest.mark.parametrize("model_name", ["T-GCN", "GC-LSTM"])
    @pytest.mark.parametrize("crash_at", [WINDOW, WINDOW + 1])
    def test_a_record_with_retired_counters_resumes_bit_identically(
        self, graph, model_name, crash_at
    ):
        """An older build's record still carries counters this build
        dropped (``checkpoints_taken``, ``plan_kernel_switches``,
        ``windows_planned``), and lacks one this build may add: the
        reader skips the fields it does not know, and a counter the
        record lacks reads 0."""
        first = StreamingInference(
            _model(graph, model_name), window_size=WINDOW
        )
        for snap in list(graph)[:crash_at]:
            first.push(snap.copy())
        assert first.window_index == 1 and first.timestamp == WINDOW
        assert first.metrics.drift_probes == 0
        retired = {
            "metrics/checkpoints_taken": 2,
            "metrics/plan_kernel_switches": 1,
            "metrics/windows_planned": first.window_index,
        }
        arrays = carry_to_arrays(first.carry)
        assert not set(retired) & set(arrays["meta/record"].dtype.names)
        for key, value in retired.items():
            _edit(arrays, key, np.int64(value))
        _edit(arrays, "metrics/drift_probes")
        buf = io.BytesIO()
        np.savez(buf, **arrays)
        carry = load_checkpoint(io.BytesIO(buf.getvalue()))
        assert carry.metrics == first.carry.metrics
        resumed = StreamingInference(
            _model(graph, model_name), window_size=WINDOW
        )
        resumed.restore_carry(carry)
        late = _run(resumed, list(graph)[resumed.timestamp:])
        expected = _uninterrupted(graph, model_name)
        tail = expected[len(expected) - len(late):]
        assert late and len(late) == len(tail)
        for a, b in zip(tail, late):
            assert a.tobytes() == b.tobytes()


class TestRetiredFirstFlag:
    """An earlier build wrote ``meta/first`` ("no window ran yet") into
    its format-6 record; this build writes none and skips it on
    reading."""

    @pytest.mark.parametrize("crash_at", [1, WINDOW, WINDOW + 1])
    def test_a_record_with_the_first_flag_resumes_bit_identically(
        self, graph, crash_at
    ):
        first = StreamingInference(_model(graph), window_size=WINDOW)
        for snap in list(graph)[:crash_at]:
            first.push(snap.copy())
        arrays = carry_to_arrays(first.carry)
        fields_ = _record_fields(arrays["meta/record"])
        assert "meta/first" not in fields_
        # where the earlier build wrote it: after meta/window_index
        keys = list(fields_)
        keys.insert(keys.index("meta/window_index") + 1, "meta/first")
        fields_["meta/first"] = np.asarray(first.window_index == 0)
        arrays["meta/record"] = np.array(
            tuple(fields_[key] for key in keys),
            dtype=[(key, fields_[key].dtype, fields_[key].shape)
                   for key in keys],
        )
        buf = io.BytesIO()
        np.savez(buf, **arrays)
        assert CHECKPOINT_FORMAT == 6
        resumed = restore_stream(
            StreamingInference(_model(graph), window_size=WINDOW),
            io.BytesIO(buf.getvalue()),
        )
        assert resumed.metrics == first.metrics
        start = resumed.timestamp
        assert start == first.timestamp
        late = _run(resumed, list(graph)[start:])
        expected = _uninterrupted(graph)
        assert late and len(late) == len(expected) - start
        for a, b in zip(expected[start:], late):
            assert a.tobytes() == b.tobytes()


class TestOwnedRowCheckpoints:
    """An owned-row stream's state is valid on the rows it computes
    only: the archive stores those rows alone and names them, and a
    stream resumes only from an archive that covers the rows it owns."""

    A = np.arange(0, 40)
    B = np.arange(30, 60)  # not inside A

    def _stream(self, graph, rows, name="T-GCN"):
        return StreamingInference(
            _model(graph, name), window_size=WINDOW, rows=rows
        )

    def _store(self, tmp_path, backend, **kwargs):
        directory = tmp_path / "ckpts" if backend == "directory" else None
        return CheckpointStore(directory, **kwargs)

    def _saved(self, graph, rows, name="T-GCN", pushes=WINDOW):
        stream = self._stream(graph, rows, name)
        for snap in list(graph)[:pushes]:
            stream.push(snap.copy())
        buf = io.BytesIO()
        save_checkpoint(stream, buf)
        return stream, buf.getvalue()

    @staticmethod
    def _fields(blob) -> dict:
        with np.load(io.BytesIO(blob)) as data:
            assert data.files == ["meta/format", "meta/record"]
            return _record_fields(data["meta/record"])

    def test_the_ownership_is_one_optional_member(self, graph):
        """A row-local cell's archive holds its owned rows alone, and
        ``carry/rows`` names them; the whole stream's holds every row."""
        _, owned = self._saved(graph, self.A)
        _, whole = self._saved(graph, None)
        owned, whole = self._fields(owned), self._fields(whole)
        assert set(owned) - set(whole) == {"carry/rows"}
        assert set(whole) <= set(owned)
        assert owned["carry/rows"].tolist() == self.A.tolist()
        per_vertex = [key for key in whole if key.split("/")[0] in (
            "state", "cache") or key in ("carry/h_prev", "carry/z_prev")]
        assert len(per_vertex) == 4
        for key in per_vertex:
            assert whole[key].shape[0] == graph.num_vertices, key
            assert owned[key].shape == (len(self.A),) + whole[key].shape[1:]
        loaded = load_checkpoint(io.BytesIO(self._saved(graph, self.A)[1]))
        assert loaded.rows.tolist() == self.A.tolist()
        assert loaded.h_prev.shape == (graph.num_vertices, 16)
        assert not loaded.h_prev[len(self.A):].any()  # never computed

    def test_a_neighbour_reading_cell_writes_every_row(self, graph):
        """GC-LSTM's cell convolves the state, so an owned-row stream
        computes every row: its archive is whole, names no rows, and
        resumes any stream bit-identically on every row."""
        stream, blob = self._saved(graph, self.A, "GC-LSTM", WINDOW + 1)
        assert stream.carry.computed_rows(stream.model) is None
        saved = self._fields(blob)
        assert "carry/rows" not in saved
        assert saved["state/h"].shape[0] == graph.num_vertices
        assert saved["carry/h_prev"].shape[0] == graph.num_vertices
        expected = _uninterrupted(graph, "GC-LSTM")
        for rows in (self.A, None):
            resumed = self._stream(graph, rows, "GC-LSTM")
            resumed.restore_carry(load_checkpoint(io.BytesIO(blob)))
            late = _run(resumed, list(graph)[resumed.timestamp:])
            tail = expected[len(expected) - len(late):]
            assert late and len(late) == len(tail)
            for got, want in zip(late, tail):
                assert got.tobytes() == want.tobytes()

    def test_a_sliced_array_of_the_wrong_height_is_corrupt(self, graph):
        _, blob = self._saved(graph, self.A)
        with np.load(io.BytesIO(blob)) as data:
            arrays = {key: data[key] for key in data.files}
        h = _record_fields(arrays["meta/record"])["state/h"]
        _edit(arrays, "state/h", h[:-1])
        buf = io.BytesIO()
        np.savez(buf, **arrays)
        store = CheckpointStore()
        _put_blob(store, "ckpt-00000001.npz", buf.getvalue())
        with pytest.raises(CorruptCheckpointError, match="state/h has shape"):
            store.load("ckpt-00000001.npz")

    @pytest.mark.parametrize(
        "rows",
        [
            np.array([3, 2, 7]),  # not ascending
            np.array([2, 2, 7]),  # repeated
            np.array([-1, 4]),
            np.array([4, 10_000]),  # beyond num_vertices
            np.array([[1, 2]]),
            np.array([1.0, 2.0]),
        ],
    )
    def test_a_tampered_ownership_member_is_rejected(self, graph, rows):
        for pushes in (1, WINDOW):  # without and with per-vertex arrays
            stream = self._stream(graph, self.A)
            for snap in list(graph)[:pushes]:
                stream.push(snap.copy())
            arrays = carry_to_arrays(stream.carry, stream.rows)
            _edit(arrays, "carry/rows", rows)
            with pytest.raises(ValueError, match="carry/rows"):
                arrays_to_carry(arrays)

    @pytest.mark.parametrize("backend", ["memory", "directory"])
    def test_an_archive_that_does_not_cover_the_stream_is_refused(
        self, graph, tmp_path, backend
    ):
        store = self._store(tmp_path, backend)
        first = self._stream(graph, self.A)
        for snap in list(graph)[:WINDOW]:
            first.push(snap.copy())
        key = store.save(first)
        assert store.load(key).rows.tolist() == self.A.tolist()
        for rows in (self.B, None):
            resumed = self._stream(graph, rows)
            with pytest.raises(CorruptCheckpointError, match="does not cover"):
                store.restore(resumed, key)
            assert resumed.timestamp == 0  # nothing was installed
        # inside A it resumes, bit-identically on the rows it owns
        inside = self.A[5:20]
        resumed = self._stream(graph, inside)
        carry = store.restore(resumed, key)
        assert carry.timestamp == WINDOW and resumed.rows.tolist() == inside.tolist()
        expected = _uninterrupted(graph)
        late = _run(resumed, list(graph)[WINDOW:])
        assert late
        for got, want in zip(late, expected[WINDOW:]):
            assert got[inside].tobytes() == want[inside].tobytes()

    def test_restore_after_a_degraded_window(self, graph):
        """A degraded window runs on the reference engine, which computes
        every row, so the live carry's unowned rows stop being zeros; the
        archive brings them back as zeros.  No owned row reads
        them, so every later output is the uninterrupted run's on the
        owned rows."""
        from repro.resilience import ResilientStreamingInference

        def supervised():
            sup = ResilientStreamingInference(
                _model(graph), window_size=WINDOW, rows=self.A
            )
            sup.inject_fault(RuntimeError("injected engine fault"))
            return sup

        def run(sup, snapshots):
            outs = []
            for snap in snapshots:
                result = sup.push(snap.copy())
                if result is not None:
                    outs.extend(result.outputs)
            result = sup.flush()
            return outs + ([] if result is None else result.outputs)

        expected = run(supervised(), graph)
        first = supervised()
        early = run(first, list(graph)[:WINDOW])  # the degraded window
        crash_at = WINDOW + 1
        first.push(graph[WINDOW].copy())
        assert first.metrics.fallback_windows == 1
        unowned = np.setdiff1d(np.arange(graph.num_vertices), self.A)
        assert first.stream.carry.state.h[unowned].any()
        store = CheckpointStore()
        key = store.save(first.stream)
        del first  # the crash

        resumed = ResilientStreamingInference(
            _model(graph), window_size=WINDOW, rows=self.A
        )
        carry = store.restore(resumed.stream, key)
        assert not carry.state.h[unowned].any()
        assert carry.timestamp == crash_at - 1  # the pending one replays
        late = run(resumed, list(graph)[carry.timestamp:])
        assert len(early) + len(late) == len(expected) == graph.num_snapshots
        for got, want in zip(early + late, expected):
            assert got[self.A].tobytes() == want[self.A].tobytes()

    def test_restore_turns_any_mismatch_into_a_corrupt_checkpoint(self, graph):
        store = CheckpointStore()
        stream = self._stream(graph, None)
        stream.push(graph[0].copy())
        key = store.save(stream)
        other = StreamingInference(_model(graph), window_size=WINDOW + 1)
        with pytest.raises(CorruptCheckpointError, match="window_size"):
            store.restore(other, key)


def _numpy_header(array) -> bytes:
    """The ``.npy`` header ``np.save`` writes for ``array``."""
    buf = io.BytesIO()
    np.lib.format.write_array(buf, np.asanyarray(array))
    blob = buf.getvalue()
    return blob[: len(blob) - np.asanyarray(array).nbytes]


def _members(blob: bytes) -> dict:
    with zipfile.ZipFile(io.BytesIO(blob)) as zf:
        return {name: zf.read(name) for name in zf.namelist()}


def _savez_blob(stream) -> bytes:
    """The archive an ``np.savez`` writer makes of the two members."""
    carry = stream.carry
    buf = io.BytesIO()
    np.savez(buf, **carry_to_arrays(carry, carry.computed_rows(stream.model)))
    return buf.getvalue()


class TestArchiveWriter:
    """``save_checkpoint`` writes each member as numpy's header for the
    record's dtype, then the record's buffer.  Its members are
    ``np.savez``'s byte for byte, so any ``.npy`` reader reads them."""

    @staticmethod
    def _saved(stream) -> bytes:
        buf = io.BytesIO()
        save_checkpoint(stream, buf)
        return buf.getvalue()

    @pytest.mark.parametrize("model_name", ["T-GCN", "GC-LSTM", "EvolveGCN"])
    @pytest.mark.parametrize("owned", [False, True])
    def test_members_are_np_savez_members(self, graph, model_name, owned):
        """At every event boundary; and a plain ``np.load`` — default
        ``max_header_size``, no pickle — reads both members."""
        rows = np.arange(1, graph.num_vertices, 4) if owned else None
        stream = StreamingInference(
            _model(graph, model_name), window_size=WINDOW, rows=rows
        )
        for snap in [None] + list(graph):
            if snap is not None:
                stream.push(snap.copy())
            blob = self._saved(stream)
            assert _members(blob) == _members(_savez_blob(stream))
            with np.load(io.BytesIO(blob), allow_pickle=False) as data:
                assert int(data["meta/format"]) == CHECKPOINT_FORMAT
                assert data["meta/record"].shape == ()
            assert load_checkpoint(io.BytesIO(blob)).timestamp == (
                stream.timestamp
            )

    def test_the_long_window_header_is_numpys(self):
        """K = 64 holding 60 pending snapshots writes the header a
        window boundary writes: numpy's to the byte, version 1.0, far
        under ``np.load``'s default cap."""
        small = load_dataset("GT", scale=0.05, num_snapshots=60, seed=SEED)
        stream = StreamingInference(_model(small), window_size=64)
        for snap in small:
            stream.push(snap.copy())
        blob = self._saved(stream)
        assert _members(blob) == _members(_savez_blob(stream))
        header = _numpy_header(carry_to_arrays(stream.carry)["meta/record"])
        assert header.startswith(b"\x93NUMPY\x01\x00")
        assert len(header) < 10_000
        assert _members(blob)["meta/record.npy"].startswith(header)

    def test_a_layout_change_writes_a_fresh_correct_header(self, graph):
        """A pending snapshot adds no field, so the header changes only
        when the layout does — when the first window adds the state —
        and each save's header describes its record."""
        stream = StreamingInference(_model(graph), window_size=WINDOW)
        headers = []
        for snap in list(graph)[: WINDOW + 1]:
            stream.push(snap.copy())
            record = carry_to_arrays(stream.carry)["meta/record"]
            header = _numpy_header(record)
            member = _members(self._saved(stream))["meta/record.npy"]
            assert member[: len(header)] == header
            assert member[len(header):] == record.tobytes()
            headers.append(header)
        assert stream.pending == 1  # the third push ran the window
        assert headers[0] == headers[1] != headers[2] == headers[3]

    def test_a_path_is_named_as_np_savez_names_it(self, graph, tmp_path):
        stream = StreamingInference(_model(graph), window_size=WINDOW)
        stream.push(graph[0].copy())
        save_checkpoint(stream, tmp_path / "carry")
        save_checkpoint(stream, str(tmp_path / "other.npz"))
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "carry.npz", "other.npz",
        ]
        loaded = load_checkpoint(tmp_path / "carry.npz")
        assert loaded.num_vertices == graph.num_vertices
