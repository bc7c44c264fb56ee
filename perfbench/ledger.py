"""Per-layer time ledger: spans at layer boundaries, self time per span.

A span is opened when a wrapped entry point is called and closed when it
returns. Time is charged to whichever span is innermost, so a layer's
self time excludes the nested wrapped calls below it, and the self times
of all spans (root included) sum exactly to the wall time between
:meth:`Ledger.__init__` and :meth:`Ledger.close`.

Span names are ``<layer>.<entry>`` (``l1.access``, ``noc.send``); the
layer is the part before the first dot and follows the ``repro`` module
names. ``bench`` is the root: time spent in no wrapped call.

:class:`NullLedger` has the same interface and does nothing; the
untraced passes use it so the measured code path is the plain one.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, Dict, Iterator, Optional

ROOT = "bench"
#: The engine loop's span; wrapped calls made directly under it are the
#: engine events that entered a public layer entry point.
ENGINE_SPAN = "timing.run"


class Ledger:
    """Exclusive (self) time and call counts per span name."""

    traced = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 start: Optional[float] = None):
        """``start`` backdates the root span (to the process start, say);
        it must be a reading of ``clock``."""
        self._clock = clock
        self._stack = [ROOT]
        self._last = self._start = clock() if start is None else start
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: span name -> calls entered with the engine loop as direct parent.
        self.engine_direct: Dict[str, int] = defaultdict(int)
        self.wall_s = 0.0
        self._engine_classes: Dict[type, type] = {}

    # ------------------------------------------------------------------
    def enter(self, name: str) -> None:
        now = self._clock()
        stack = self._stack
        top = stack[-1]
        self.self_s[top] += now - self._last
        self._last = now
        if top == ENGINE_SPAN:
            self.engine_direct[name] += 1
        stack.append(name)
        self.calls[name] += 1

    def exit(self) -> None:
        now = self._clock()
        self.self_s[self._stack.pop()] += now - self._last
        self._last = now

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with every call recorded as a span named ``name``."""
        enter, exit_ = self.enter, self.exit

        def wrapped(*args: Any, **kwargs: Any) -> Any:
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        return wrapped

    def close(self) -> None:
        """Charge the time since the last boundary to the open spans' top
        and fix the wall time. Every span must have been exited."""
        if len(self._stack) != 1:
            raise RuntimeError(f"unclosed spans: {self._stack[1:]}")
        now = self._clock()
        self.self_s[ROOT] += now - self._last
        self._last = now
        self.wall_s = now - self._start

    # ------------------------------------------------------------------
    def instrument(self, sim: Any) -> None:
        """Wrap the public entry points of one built ``GPUSimulator``.

        Everything is wrapped on the instances, after construction, so the
        ledger sees the same calls whichever controller classes
        ``build_protocol`` chose. NoC endpoints are re-registered through
        ``Crossbar.register``; the engine, whose class has ``__slots__``,
        is moved to a slot-free subclass that only wraps ``run``.
        """
        wrap = self.wrap
        engine = sim.engine
        engine.__class__ = self._engine_class(type(engine))
        for core in sim.cores:
            core._tick = wrap("gpu.tick", core._tick)
            core.mem_op_done = wrap("gpu.mem_op_done", core.mem_op_done)
        noc = sim.noc
        for l1 in sim.proto.l1s:
            l1.access = wrap("l1.access", l1.access)
            l1.would_stall = wrap("l1.would_stall", l1.would_stall)
            noc.register(l1.endpoint, wrap("l1.on_message", l1.on_message))
        for l2 in sim.proto.l2s:
            noc.register(l2.endpoint, wrap("l2.on_message", l2.on_message))
        noc.send = wrap("noc.send", noc.send)
        for dram in sim.drams:
            dram.access = wrap("mem.dram_access", dram.access)
        if sim.sanitizer is not None:
            sim.sanitizer.emit = wrap("sanitize.emit", sim.sanitizer.emit)

    def _engine_class(self, base: type) -> type:
        cls = self._engine_classes.get(base)
        if cls is None:
            enter, exit_ = self.enter, self.exit
            base_run = base.run

            def run(engine: Any, *args: Any, **kwargs: Any) -> Any:
                enter(ENGINE_SPAN)
                try:
                    return base_run(engine, *args, **kwargs)
                finally:
                    exit_()

            cls = type(f"Traced{base.__name__}", (base,),
                       {"__slots__": (), "run": run})
            self._engine_classes[base] = cls
        return cls


class NullLedger:
    """The untraced stand-in: records nothing, wraps nothing."""

    traced = False

    def span(self, name: str):
        return nullcontext()

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        return fn

    def instrument(self, sim: Any) -> None:
        pass
