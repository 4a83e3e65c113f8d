"""Call tracing by wrapping functions from outside the program.

:class:`LayerTracer` replaces selected methods and module functions with
thin wrappers that count calls and items and time each call.  Open calls
are kept on a stack, so a layer's *self* time is its own time minus the
time of the wrapped calls made inside it.  A call into the layer that is
already on top of the stack (``submit_many`` falling back to ``submit``)
is not counted again: its time belongs to the outer call.

Every replaced attribute is put back by :meth:`LayerTracer.restore`,
which the context-manager form calls even when the traced code raises.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Any, Callable, DefaultDict, Dict, List, Optional, Tuple

#: ``items(args, kwargs, result)``: work items of one call (jobs, bytes, ...).
ItemsFn = Callable[[tuple, dict, Any], float]
#: ``delta(obj)``: a counter of the call's receiver, read before and after.
DeltaFn = Callable[[Any], float]

_MISSING = object()


class LayerTracer:
    """Per-layer calls, items and self/total/max time of wrapped calls."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.calls: DefaultDict[str, int] = defaultdict(int)
        self.items: DefaultDict[str, float] = defaultdict(float)
        self.self_s: DefaultDict[str, float] = defaultdict(float)
        self.total_s: DefaultDict[str, float] = defaultdict(float)
        self.max_s: DefaultDict[str, float] = defaultdict(float)
        #: open timed calls: [layer, start, time spent in child calls]
        self._stack: List[list] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    # Spans                                                              #
    # ------------------------------------------------------------------ #
    def enter(self, layer: str) -> list:
        """Open a timed call of ``layer`` (counted once)."""
        self.calls[layer] += 1
        frame = [layer, self.clock(), 0.0]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> float:
        """Close ``frame``, the innermost open call; returns its duration."""
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame[0]!r} closed out of order")
        layer, start, child_s = frame
        elapsed = self.clock() - start
        self.self_s[layer] += elapsed - child_s
        self.total_s[layer] += elapsed
        if elapsed > self.max_s[layer]:
            self.max_s[layer] = elapsed
        if self._stack:
            self._stack[-1][2] += elapsed
        return elapsed

    def _reentrant(self, layer: str) -> bool:
        return bool(self._stack) and self._stack[-1][0] == layer

    # ------------------------------------------------------------------ #
    # Wrapping                                                           #
    # ------------------------------------------------------------------ #
    def wrapper(
        self,
        original: Callable,
        layer: str,
        items: Optional[ItemsFn] = None,
        delta: Optional[DeltaFn] = None,
        timed: bool = True,
    ) -> Callable:
        """A traced stand-in for ``original``."""
        tracer = self

        if not timed:

            @functools.wraps(original)
            def counted(*args, **kwargs):
                tracer.calls[layer] += 1
                return original(*args, **kwargs)

            return counted

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if tracer._reentrant(layer):
                return original(*args, **kwargs)
            before = delta(args[0]) if delta is not None else 0
            frame = tracer.enter(layer)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.exit(frame)
            if delta is not None:
                tracer.items[layer] += delta(args[0]) - before
            elif items is not None:
                tracer.items[layer] += items(args, kwargs, result)
            return result

        return traced

    def wrap_method(self, owner: type, attr: str, layer: str, **options: Any) -> None:
        """Replace ``owner.attr`` by a traced wrapper until :meth:`restore`."""
        saved = owner.__dict__.get(attr, _MISSING)
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrapper(original, layer, **options))
        self._patches.append((owner, attr, saved))

    def wrap_function(self, module_name: str, name: str, layer: str, **options: Any) -> None:
        """Trace a module function under every name the package imported it.

        ``from m import f`` copies the reference, so each loaded module of
        the same top-level package holding the original is patched too.
        """
        original = getattr(importlib.import_module(module_name), name)
        traced = self.wrapper(original, layer, **options)
        package = module_name.split(".")[0]
        for loaded_name, module in list(sys.modules.items()):
            if loaded_name != package and not loaded_name.startswith(package + "."):
                continue
            if getattr(module, name, None) is original:
                setattr(module, name, traced)
                self._patches.append((module, name, original))

    def restore(self) -> None:
        """Put back every replaced attribute (newest first)."""
        while self._patches:
            owner, attr, saved = self._patches.pop()
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)
        self._stack.clear()

    def __enter__(self) -> "LayerTracer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.restore()

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Plain copy of the per-layer counters."""
        return {
            "calls": dict(self.calls),
            "items": dict(self.items),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "max_s": dict(self.max_s),
        }
