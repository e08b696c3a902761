"""Span-based tracing of a single request, on the simulated clock.

A trace is started through :meth:`Engine.trace` (or SQL ``TRACE
<select>``), which activates the env-wide :class:`Tracer`. While a trace
is active, the instrumentation points threaded through the engine
(``sql.execute``, ``asof.*``, ``pool.acquire``, ``version_store.*``,
``repl.*``, ``archive.*``) open nested spans; when no
trace is active the same calls return a shared no-op span, so the hot
paths pay one ``is None`` check.

Every span records:

* ``start_s``/``end_s`` — simulated seconds (``env.clock.now()``), so a
  seeded replay produces byte-identical trees (reprolint RL003 holds:
  no host clock is consulted);
* ``io`` — the non-zero :class:`~repro.sim.iostats.IoStats` counter
  deltas over the span (inclusive of child spans);
* ``attrs`` — instrumentation-point annotations (``hit=True``,
  ``page_id=7``, …), settable mid-span via :meth:`Span.set`.
"""

from __future__ import annotations

import threading

from repro.latch import Latch
from repro.sim.iostats import COUNTER_NAMES


class Span:
    """One node of a finished (or in-flight) span tree."""

    __slots__ = ("name", "attrs", "start_s", "end_s", "children", "_io_before", "_io_after")

    def __init__(self, name: str, attrs: dict, start_s: float, io_before: tuple) -> None:
        self.name = name
        self.attrs = dict(attrs)
        self.start_s = start_s
        self.end_s = start_s
        self.children: list[Span] = []
        #: ``IoStats.counters()`` at open and at the first seal; the deltas
        #: are only built when something reads :attr:`io`.
        self._io_before = io_before
        self._io_after: tuple | None = None

    # Instrumentation points annotate the current span mid-flight:
    # ``with tracer.span("pool.acquire") as span: ... span.set(hit=True)``.
    def set(self, **attrs) -> None:
        self.attrs.update(attrs)

    @property
    def elapsed_s(self) -> float:
        return self.end_s - self.start_s

    @property
    def io(self) -> dict[str, int]:
        """Non-zero counter deltas over the span; empty until it is sealed."""
        after = self._io_after
        if after is None:
            return {}
        return {
            name: now - then
            for name, then, now in zip(COUNTER_NAMES, self._io_before, after)
            if now != then
        }

    def find(self, name: str) -> "Span | None":
        """First span named ``name`` in this subtree (depth-first)."""
        if self.name == name:
            return self
        for child in self.children:
            found = child.find(name)
            if found is not None:
                return found
        return None

    def find_all(self, name: str) -> list["Span"]:
        spans = [self] if self.name == name else []
        for child in self.children:
            spans.extend(child.find_all(name))
        return spans

    def render(self, indent: int = 0) -> list[str]:
        """One text line per span: name, attrs, sim-elapsed, I/O deltas."""
        parts = [self.name]
        parts.extend(f"{key}={value}" for key, value in self.attrs.items())
        parts.append(f"sim={self.elapsed_s * 1000.0:.3f}ms")
        io = self.io
        if io:
            deltas = " ".join(f"{k}=+{v}" for k, v in sorted(io.items()))
            parts.append(f"io[{deltas}]")
        lines = ["  " * indent + " ".join(parts)]
        for child in self.children:
            lines.extend(child.render(indent + 1))
        return lines


class _NullSpan:
    """The shared do-nothing span handed out when no trace is active."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def set(self, **attrs) -> None:
        return None


NULL_SPAN = _NullSpan()


class _SpanContext:
    """Context manager opening one child span on the active trace."""

    __slots__ = ("_tracer", "_name", "_attrs", "_span")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self._span = None

    def __enter__(self) -> Span:
        self._span = self._tracer._open(self._name, self._attrs)
        return self._span

    def __exit__(self, *exc) -> None:
        self._tracer._close(self._span)


class Trace:
    """Handle yielded by ``engine.trace(...)``; ``root`` is the finished
    span tree once the ``with`` block exits."""

    __slots__ = ("name", "root")

    def __init__(self, name: str) -> None:
        self.name = name
        self.root: Span | None = None

    def render(self) -> list[str]:
        if self.root is None:
            raise ValueError("trace has not finished")
        return self.root.render()

    def find(self, name: str) -> Span | None:
        return self.root.find(name) if self.root is not None else None

    def find_all(self, name: str) -> list[Span]:
        return self.root.find_all(name) if self.root is not None else []


class Tracer:
    """The env-wide tracer; inactive (cheap no-ops) between traces.

    The span stacks (``_span_stack``, keyed by thread ident) are owned by
    this module; engine code interacts only through
    :meth:`span`/:meth:`begin`/:meth:`finish`. Traces are **per thread**:
    each session thread may run its own trace concurrently — its spans
    attach to its own stack, and instrumentation points on threads with
    no active trace stay no-ops. A stack's list is only ever touched by
    its own thread; the latch guards the stack *table*.
    """

    def __init__(self, clock, stats) -> None:
        self.latch = Latch("tracer")
        self._clock = clock
        self._stats = stats
        #: thread ident -> open-span stack of that thread's active trace.
        self._span_stack: dict[int, list[Span]] = {}

    def _stack(self) -> list[Span] | None:
        return self._span_stack.get(threading.get_ident())

    @property
    def active(self) -> bool:
        """Whether the *calling thread* has an active trace."""
        return self._stack() is not None

    def span(self, name: str, **attrs):
        """Open a span under the active trace; no-op when inactive."""
        if self._stack() is None:
            return NULL_SPAN
        return _SpanContext(self, name, attrs)

    def begin(self, name: str) -> Trace:
        """Activate tracing on this thread with a root span ``name``."""
        ident = threading.get_ident()
        with self.latch:
            if ident in self._span_stack:
                raise ValueError("a trace is already active on this thread")
            root = Span(name, {}, self._clock.now(), self._stats.counters())
            self._span_stack[ident] = [root]
        return Trace(name)

    def finish(self, trace: Trace) -> Trace:
        """Deactivate this thread's trace; closes the root and any spans
        left open by an exception unwinding through the traced region."""
        with self.latch:
            stack = self._span_stack.pop(threading.get_ident(), None)
        if not stack:
            return trace
        for span in reversed(stack):
            self._seal(span)
        trace.root = stack[0]
        return trace

    # -- internals (called via _SpanContext) ----------------------------

    def _open(self, name: str, attrs: dict) -> Span:
        stack = self._stack()
        span = Span(name, attrs, self._clock.now(), self._stats.counters())
        stack[-1].children.append(span)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self._seal(span)

    def _seal(self, span: Span) -> None:
        span.end_s = self._clock.now()
        if span._io_after is None:  # the first seal fixes the span's I/O
            span._io_after = self._stats.counters()
