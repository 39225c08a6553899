"""Packed Memory Array storage — the dynamic-graph baseline (TaGNN-PMA).

FPGA/GPU dynamic-graph systems (GPMA, GraSU — the paper's Fig. 13(b)
comparators) keep the edge list in a *Packed Memory Array*: a sorted array
with deliberate gaps whose density is bounded per power-of-two segment
window, so inserts/deletes cost amortised O(log² n) element moves instead
of O(n).

:class:`PackedMemoryArray` is a faithful implementation of the classic
structure (leaf segments of Θ(log n) slots, linearly interpolated density
thresholds, window rebalancing, growth/shrink at the root).  Property
tests check the invariants: keys sorted ignoring gaps, every level's
density within its thresholds after each operation, and contents equal to
a reference set.

:class:`PMAStorage` adapts it to the multi-snapshot interface: one entry
per *distinct* edge with a K-bit snapshot-presence bitmap (structure is
deduplicated, unlike per-snapshot CSR), and a feature store that
deduplicates versions but — being itself gap-padded and pointer-indexed —
pays the PMA fill-factor and indirection overhead.  That is why PMA lands
between CSR and O-CSR in both storage and scan cost, as in Fig. 13(b).
"""

from __future__ import annotations

import numpy as np

from .base import AccessCost, MultiSnapshotStorage, WindowSelection

__all__ = ["EMPTY", "PackedMemoryArray", "PMAStorage"]

_WORD = 4
EMPTY = np.int64(-1)


class PackedMemoryArray:
    """A classic PMA over int64 keys with an optional int64 payload.

    Parameters
    ----------
    capacity:
        Initial slot count (rounded up to a power of two, minimum 8).
    leaf_density:
        (min, max) density thresholds at the leaves; the root thresholds
        are fixed at (0.30, 0.75) and intermediate levels interpolate
        linearly, per the textbook construction.
    """

    ROOT_MIN, ROOT_MAX = 0.30, 0.75

    def __init__(
        self,
        capacity: int = 64,
        leaf_density: tuple[float, float] = (0.08, 0.92),
    ):
        self.leaf_min, self.leaf_max = leaf_density
        if not 0 < self.leaf_min < self.ROOT_MIN:
            raise ValueError("leaf_min must be in (0, root_min)")
        if not self.ROOT_MAX < self.leaf_max <= 1.0:
            raise ValueError("leaf_max must be in (root_max, 1]")
        cap = 8
        while cap < capacity:
            cap *= 2
        self._alloc(cap)
        self.num_items = 0
        #: total slot writes performed by rebalances (access accounting)
        self.moved_slots = 0

    # ------------------------------------------------------------------
    def _alloc(self, capacity: int) -> None:
        self.capacity = capacity
        self.keys = np.full(capacity, EMPTY, dtype=np.int64)
        self.payload = np.zeros(capacity, dtype=np.int64)
        # leaf segment size: smallest power of two >= log2(capacity)
        lg = max(1, int(np.ceil(np.log2(capacity))))
        seg = 1
        while seg < lg:
            seg *= 2
        self.segment_size = seg
        self.num_segments = capacity // seg
        self.height = max(0, int(np.log2(self.num_segments)))

    # -- density thresholds -------------------------------------------
    def thresholds(self, level: int) -> tuple[float, float]:
        """(min, max) density for a window at ``level`` (0 = leaf)."""
        if self.height == 0:
            return self.ROOT_MIN, self.ROOT_MAX
        f = level / self.height
        lo = self.leaf_min + (self.ROOT_MIN - self.leaf_min) * f
        hi = self.leaf_max + (self.ROOT_MAX - self.leaf_max) * f
        return lo, hi

    # -- queries ---------------------------------------------------------
    def __len__(self) -> int:
        return self.num_items

    def occupied(self) -> np.ndarray:
        """Boolean mask of non-empty slots."""
        return self.keys != EMPTY

    def items(self) -> tuple[np.ndarray, np.ndarray]:
        """(keys, payloads) of occupied slots in key order."""
        m = self.occupied()
        return self.keys[m], self.payload[m]

    def _slot_of(self, key: int) -> int:
        """Index of the slot holding ``key``, or -1."""
        occ = np.flatnonzero(self.occupied())
        if occ.size == 0:
            return -1
        pos = np.searchsorted(self.keys[occ], key)
        if pos < occ.size and self.keys[occ[pos]] == key:
            return int(occ[pos])
        return -1

    def __contains__(self, key: int) -> bool:
        return self._slot_of(int(key)) >= 0

    def get(self, key: int) -> int | None:
        """Payload stored under ``key``, or None."""
        s = self._slot_of(int(key))
        return int(self.payload[s]) if s >= 0 else None

    def search_cost_randoms(self) -> int:
        """Random accesses of one lookup: binary search over segments
        plus one segment scan."""
        return max(1, self.height) + 1

    # -- mutation --------------------------------------------------------
    def insert(self, key: int, payload: int = 0) -> bool:
        """Insert ``key``; returns False if already present (payload is
        then overwritten)."""
        key = int(key)
        s = self._slot_of(key)
        if s >= 0:
            self.payload[s] = payload
            return False
        if self.num_items >= int(self.capacity * self.ROOT_MAX):
            self._resize(self.capacity * 2)
        occ = np.flatnonzero(self.occupied())
        pos = int(np.searchsorted(self.keys[occ], key))
        # target slot: just after predecessor (or slot 0)
        slot = int(occ[pos - 1]) + 1 if pos > 0 else 0
        if slot < self.capacity and self.keys[slot] == EMPTY:
            self.keys[slot] = key
            self.payload[slot] = payload
        else:
            self._insert_with_shift(slot, key, payload)
        self.num_items += 1
        self._rebalance_after(slot if slot < self.capacity else self.capacity - 1)
        return True

    def bulk_load(self, keys: np.ndarray, payloads: np.ndarray | None = None) -> None:
        """Load sorted unique keys into an *empty* PMA with one even
        spread — O(n) instead of the O(n log² n) of repeated inserts.

        Capacity grows by doubling until the root density bound holds, so
        the resulting capacity (hence storage and search cost) is
        identical to what the same keys inserted one by one produce.
        """
        keys = np.asarray(keys, dtype=np.int64)
        if self.num_items:
            raise ValueError("bulk_load requires an empty PMA")
        if keys.size and not bool(np.all(np.diff(keys) > 0)):
            raise ValueError("bulk_load keys must be strictly increasing")
        if payloads is None:
            payloads = np.zeros(keys.size, dtype=np.int64)
        payloads = np.asarray(payloads, dtype=np.int64)
        if payloads.shape != keys.shape:
            raise ValueError("payloads must match keys")
        # Sequential inserts double when the pre-insert count hits the
        # root bound, i.e. while (m - 1) >= int(cap * ROOT_MAX); match it
        # exactly so bulk and sequential loads end at the same capacity.
        cap = self.capacity
        while keys.size > int(cap * self.ROOT_MAX):
            cap *= 2
        if cap != self.capacity:
            self._alloc(cap)
        if keys.size:
            positions = (
                np.arange(keys.size, dtype=np.int64) * self.capacity // keys.size
            )
            self.keys[positions] = keys
            self.payload[positions] = payloads
            self.moved_slots += int(keys.size)
        self.num_items = int(keys.size)

    def _insert_with_shift(self, slot: int, key: int, payload: int) -> None:
        """Shift the run of occupied slots right (or left) by one to open
        ``slot``, counting moved words."""
        right = slot
        while right < self.capacity and self.keys[right] != EMPTY:
            right += 1
        if right < self.capacity:
            n = right - slot
            self.keys[slot + 1 : right + 1] = self.keys[slot:right]
            self.payload[slot + 1 : right + 1] = self.payload[slot:right]
            self.moved_slots += n
            self.keys[slot] = key
            self.payload[slot] = payload
            return
        left = slot - 1
        while left >= 0 and self.keys[left] != EMPTY:
            left -= 1
        if left < 0:  # pragma: no cover - prevented by root-density resize
            raise RuntimeError("PMA full despite density bound")
        # slots (left, slot) hold keys < key and slot holds the successor,
        # so shift the predecessor run left by one and open slot - 1
        n = slot - left - 1
        self.keys[left : slot - 1] = self.keys[left + 1 : slot]
        self.payload[left : slot - 1] = self.payload[left + 1 : slot]
        self.moved_slots += n
        self.keys[slot - 1] = key
        self.payload[slot - 1] = payload

    def delete(self, key: int) -> bool:
        """Remove ``key``; returns whether it was present."""
        s = self._slot_of(int(key))
        if s < 0:
            return False
        self.keys[s] = EMPTY
        self.num_items -= 1
        if self.capacity > 8 and self.num_items < int(
            self.capacity * self.ROOT_MIN / 2
        ):
            self._resize(max(8, self.capacity // 2))
        else:
            self._rebalance_after(s)
        return True

    # -- rebalancing -----------------------------------------------------
    def _window_bounds(self, seg: int, level: int) -> tuple[int, int]:
        width = self.segment_size << level
        start = (seg >> level) * (1 << level) * self.segment_size
        return start, start + width

    def _rebalance_after(self, slot: int) -> None:
        """Walk up from the touched leaf until a window satisfies its
        density thresholds, then spread its items evenly."""
        seg = min(slot // self.segment_size, self.num_segments - 1)
        for level in range(self.height + 1):
            lo, hi = self._window_bounds(seg, level)
            window = self.keys[lo:hi]
            count = int((window != EMPTY).sum())
            dmin, dmax = self.thresholds(level)
            density = count / (hi - lo)
            if dmin <= density <= dmax or level == self.height:
                self._spread(lo, hi)
                return

    def _spread(self, lo: int, hi: int) -> None:
        """Evenly redistribute the occupied slots of [lo, hi)."""
        window_keys = self.keys[lo:hi]
        m = window_keys != EMPTY
        ks = window_keys[m].copy()
        ps = self.payload[lo:hi][m].copy()
        if ks.size == 0:
            return
        self.keys[lo:hi] = EMPTY
        positions = lo + (
            np.arange(ks.size, dtype=np.int64) * (hi - lo) // ks.size
        )
        self.keys[positions] = ks
        self.payload[positions] = ps
        self.moved_slots += int(ks.size)

    def _resize(self, new_capacity: int) -> None:
        ks, ps = self.items()
        self._alloc(new_capacity)
        if ks.size:
            positions = (
                np.arange(ks.size, dtype=np.int64) * new_capacity // ks.size
            )
            self.keys[positions] = ks
            self.payload[positions] = ps
            self.moved_slots += int(ks.size)

    # -- introspection for tests ----------------------------------------
    def check_invariants(self) -> None:
        """Raise AssertionError if any structural invariant is violated."""
        ks, _ = self.items()
        assert np.all(np.diff(ks) > 0), "keys not strictly sorted"
        assert len(ks) == self.num_items, "item count drifted"
        root_density = self.num_items / self.capacity
        assert root_density <= 1.0
        if self.num_items > 0 and self.capacity > 8:
            assert root_density <= self.ROOT_MAX + 1e-9, "root overfull"

    def storage_bytes(self, payload_words: int = 1) -> int:
        """Allocated bytes including gaps (that is the PMA trade-off)."""
        return self.capacity * (2 + payload_words) * _WORD  # 8B key + payload


class PMAStorage(MultiSnapshotStorage):
    """Multi-snapshot adapter: distinct edges + snapshot bitmaps in a PMA."""

    name = "PMA"

    def __init__(self, selection: WindowSelection):
        super().__init__(selection)
        if selection.num_snapshots > 62:
            raise ValueError("bitmap payload supports at most 62 snapshots")
        e = selection.edges()
        n = selection.window.num_vertices
        # one entry per distinct (source, target); payload is the bitmap
        keys = e[:, 0] * np.int64(n) + e[:, 1]
        bits = np.int64(1) << e[:, 2]
        uniq, inv = np.unique(keys, return_inverse=True)
        bitmaps = np.zeros(len(uniq), dtype=np.int64)
        np.bitwise_or.at(bitmaps, inv, bits)
        # size for a ~0.6 steady-state fill (the PMA space/update trade-off)
        self.pma = PackedMemoryArray(capacity=max(8, int(len(uniq) / 0.6)))
        self.pma.bulk_load(uniq, bitmaps)
        fv_vertex, _ = selection.feature_version_arrays()
        counts = np.unique(fv_vertex, return_counts=True)[1]
        self._num_feature_rows = int(counts.sum())
        self._num_touched_vertices = int(counts.size)
        self._num_changed_vertices = int((counts > 1).sum())

    # ------------------------------------------------------------------
    def gather(self, source: int) -> tuple[np.ndarray, np.ndarray]:
        n = self.selection.window.num_vertices
        ks, ps = self.pma.items()
        lo = int(np.searchsorted(ks, source * np.int64(n)))
        hi = int(np.searchsorted(ks, (source + 1) * np.int64(n)))
        if hi == lo:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        # expand the bitmaps: one (target, snapshot) pair per set bit, in
        # (snapshot, target) order like the per-bit walk produced
        bits = (
            ps[lo:hi, None] >> np.arange(self.selection.num_snapshots)
        ) & np.int64(1)
        row, snap = np.nonzero(bits)
        tgts = (ks[lo:hi] % n)[row]
        tss = snap.astype(np.int64)
        order = np.lexsort((tgts, tss))
        return tgts[order], tss[order]

    def storage_bytes(self) -> int:
        dim = self.selection.window.dim
        k = self.selection.num_snapshots
        # gapped slots: 4-byte packed (src,dst) key + 4-byte snapshot
        # bitmap per slot, over the full power-of-two capacity — the PMA
        # space trade-off (GPMA-style packed keys)
        structure = self.pma.capacity * 2 * _WORD
        # feature side-table with page-granular copy-on-write: a vertex
        # whose feature never changes in the window shares one row; any
        # vertex that changed gets a full per-snapshot copy (the PMA
        # version machinery tracks changed pages, not changed values, so
        # it cannot share the unchanged snapshots of a changed vertex —
        # the sharing O-CSR's explicit versioning provides).
        static = self._num_touched_vertices - self._num_changed_vertices
        features = (static + k * self._num_changed_vertices) * dim * _WORD
        pointers = k * self._num_touched_vertices * _WORD
        index = self._num_feature_rows * 3 * _WORD
        return structure + features + pointers + index

    def scan_cost(self) -> AccessCost:
        """Per source: a segment binary search, then a gap-inflated run
        scan; features via one pointer indirection per distinct row."""
        cost = AccessCost()
        dim = self.selection.window.dim
        n = np.int64(self.selection.window.num_vertices)
        ks, _ = self.pma.items()
        fill = max(self.pma.num_items / max(self.pma.capacity, 1), 0.25)
        srcs = self.selection.sources
        run = (
            np.searchsorted(ks, (srcs + 1) * n) - np.searchsorted(ks, srcs * n)
        ).astype(np.int64)
        # key+bitmap slots incl. gaps; per-run float-to-int truncation
        # kept so totals match the per-source accumulation exactly
        cost.add(
            randoms=self.pma.search_cost_randoms() * srcs.size,
            words=int((3.0 * run / fill).astype(np.int64).sum()),
        )
        # feature rows: ~one deduplicated row per distinct target plus
        # the source's own; each is reached through a pointer
        # indirection (random) because the PMA feature store is not
        # laid out in traversal order.
        cost.add(
            randoms=int((run + 1).sum()),
            words=int(((run + 1) * dim).sum()),
        )
        return cost
