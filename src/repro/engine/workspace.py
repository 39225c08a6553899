"""One scratch workspace per process for a window's large temporaries.

The paper's accelerator never allocates per window: its on-chip buffers
are banked, sized once by the configuration and ping-ponged between
stages.  The host engine's counterpart is :class:`Workspace`, a set of
named blocks that each grow to the largest size ever asked for and are
never shrunk.  :meth:`ConcurrentEngine.step
<repro.engine.concurrent.ConcurrentEngine.step>` leases the module's one
instance, :data:`WORKSPACE`, for the window body and writes the window's
large temporaries into it with NumPy's ``out=``, which does not reorder
arithmetic: the bits are the allocating code's by construction.

Without it every window allocated and freed the same half-megabyte
blocks, and glibc trimmed the free heap top and faulted it back in each
time (docs/performance.md, "A window that reuses its own memory").  The
workspace is shared by every engine of the process rather than owned by
each: the blocks of four streams held at once cost resident memory that
one set of blocks, used by one window at a time, does not.

A view handed out by :meth:`Workspace.take` is valid until the same name
is taken again, at the latest until the lease ends.  Nothing a window
releases, carries or keeps may alias one (``tests/engine/
test_workspace.py``).
"""

from __future__ import annotations

from contextlib import contextmanager
from math import prod

import numpy as np

__all__ = ["WORKSPACE", "Workspace"]


class Workspace:
    """Named, C-contiguous scratch blocks, each grown to the largest
    size ever taken and never shrunk.

    One window holds the lease at a time: a window body that ran inside
    another would overwrite the outer one's temporaries, so a nested
    :meth:`lease` raises ``RuntimeError``.
    """

    def __init__(self) -> None:
        self._blocks: dict[str, np.ndarray] = {}
        self._leased = False

    @contextmanager
    def lease(self):
        """Hold the workspace for one window body; released on exit,
        exceptions included."""
        if self._leased:
            raise RuntimeError(
                "workspace already leased: a window body cannot run inside"
                " another"
            )
        self._leased = True
        try:
            yield self
        finally:
            self._leased = False

    def take(
        self, name: str, shape: tuple, dtype=np.float32, *, reserve=None
    ) -> np.ndarray:
        """An uninitialised C-contiguous ``shape`` view of block
        ``name``, which grows to fit it.  Only a lease holder takes.

        ``reserve`` (None, or a shape no smaller than ``shape``) is the
        most a take of this name will ask for: a block that grows grows
        to it at once, so a take whose size moves from window to window
        allocates in the first window only."""
        if not self._leased:
            raise RuntimeError("workspace blocks are taken under a lease")
        dtype = np.dtype(dtype)
        nbytes = prod(shape) * dtype.itemsize
        block = self._blocks.get(name)
        if block is None or block.nbytes < nbytes:
            size = nbytes if reserve is None else prod(reserve) * dtype.itemsize
            block = self._blocks[name] = np.empty(
                max(size, nbytes), dtype=np.uint8
            )
        return block[:nbytes].view(dtype).reshape(shape)

    def blocks(self) -> list[np.ndarray]:
        """The blocks held now (their views alias them)."""
        return list(self._blocks.values())


#: The process's one workspace; :meth:`ConcurrentEngine.step` leases it.
WORKSPACE = Workspace()
