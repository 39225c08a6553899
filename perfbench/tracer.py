"""Span recording from outside the program.

``perfbench`` measures the layers of ``repro`` without editing them: for
the length of one traced round it replaces each layer's public entry
point (a *seam*) with a wrapper that records a span around the call, and
puts the original back afterwards.

A function seam is replaced, by object identity, in every loaded
``repro.*`` module that holds a reference to it (``from x import f``
copies the reference, so patching the defining module alone would miss
most callers).  A method seam is replaced on its class and on every
subclass that overrides it.

A span is ``(name, layer, start, end, parent, request, count)``.  Calls
nest strictly (one thread), so a span's *self time* is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

__all__ = ["Seam", "Span", "Tracer", "self_times"]


@dataclass(frozen=True)
class Seam:
    """One wrapped entry point.

    ``target`` is ``"function"`` or ``"Class.method"`` inside ``module``.
    ``count`` optionally maps ``(args, kwargs, result)`` to a number
    recorded on the span — the count taken at the same boundary as the
    time (events in the batch, bytes written, snapshots replayed).
    """

    name: str
    layer: str
    module: str
    target: str
    count: object = None


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    request: int  # driver's operation sequence number
    count: float | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Holds the spans of a run and the patches currently installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request = -1
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def begin(self, name: str, layer: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(
            Span(name, layer, time.perf_counter(), 0.0, parent, self.request)
        )
        self._open.append(index)
        return index

    def end(self, index: int, count: float | None = None) -> None:
        now = time.perf_counter()
        popped = self._open.pop()
        if popped != index:
            raise RuntimeError(
                f"span {index} closed while span {popped} was innermost"
            )
        span = self.spans[index]
        span.end = now
        span.count = count

    def wrap(self, seam: Seam, fn):
        """The recording stand-in for ``fn``."""
        name, layer, count = seam.name, seam.layer, seam.count

        def traced(*args, **kwargs):
            index = self.begin(name, layer)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.end(
                    index,
                    None if count is None else count(args, kwargs, result),
                )

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def install(self, seams) -> None:
        """Wrap every seam; :meth:`uninstall` undoes exactly this."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        try:
            for seam in seams:
                module = sys.modules[seam.module]
                owner, _, method = seam.target.partition(".")
                if method:
                    self._patch_method(seam, getattr(module, owner), method)
                else:
                    self._patch_function(seam, getattr(module, owner))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    def _set(self, holder, attr: str, original, replacement) -> None:
        self._patches.append((holder, attr, original))
        setattr(holder, attr, replacement)

    def _patch_function(self, seam: Seam, fn) -> None:
        wrapper = self.wrap(seam, fn)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == "repro" or mod_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, fn, wrapper)

    def _patch_method(self, seam: Seam, cls, method: str) -> None:
        classes = [cls]
        for klass in classes:  # grows while iterating: all descendants
            classes.extend(klass.__subclasses__())
        for klass in dict.fromkeys(classes):
            raw = vars(klass).get(method)
            if raw is None:
                continue
            if isinstance(raw, classmethod):
                replacement = classmethod(self.wrap(seam, raw.__func__))
            elif isinstance(raw, staticmethod):
                replacement = staticmethod(self.wrap(seam, raw.__func__))
            else:
                replacement = self.wrap(seam, raw)
            self._set(klass, method, raw, replacement)


def self_times(spans: list[Span]) -> list[float]:
    """Self time of every span: duration minus its direct children's."""
    out = [span.duration for span in spans]
    for span in spans:
        if span.parent >= 0:
            out[span.parent] -= span.duration
    return out
