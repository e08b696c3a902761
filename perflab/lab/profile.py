"""Fold a ``cProfile`` run into per-layer self time and call counts.

cProfile rather than hand-wrapped entry points: there is no allow-list
to maintain, call counts repeat exactly, and no source is edited. A
layer's self time is the time spent in its own functions and not in
their callees — what a span tree with a span per call would give.
Built-ins and the standard library belong to whoever called them: a
``struct.unpack`` issued by the row codec is the row codec's time.
"""

from __future__ import annotations

import importlib
import inspect
import pstats
import sys
from collections import defaultdict

from lab.metrics import HARNESS, INCLUSIVE, LAYER_OF_MODULE, LAYERS

_PREFIXES = sorted(LAYER_OF_MODULE, key=len, reverse=True)


def layer_of_file(filename: str) -> str | None:
    """The layer owning ``filename``; ``None`` for code that is nobody's
    own (built-ins, the standard library)."""
    path = filename.replace("\\", "/")
    _, found, module = path.rpartition("/repro/")
    if found:
        module = module.removesuffix(".py")
        for prefix in _PREFIXES:
            if module.startswith(prefix):
                return LAYER_OF_MODULE[prefix]
        return HARNESS  # repro code outside every measured layer (tools, chaos)
    if "/perflab/" in path:
        return HARNESS
    return None


def fold(stats: dict) -> tuple[dict[str, float], dict[str, int]]:
    """``pstats`` rows -> (self seconds per layer, calls per layer).

    A row is ``func -> (cc, nc, tt, ct, callers)`` and ``callers`` maps
    each caller to ``(nc, cc, tt, ct)`` for that edge, so the self time
    of ownerless code is known per direct caller. When that caller is
    ownerless too (``random.randint`` -> ``randrange``), its own callers
    share the time in proportion to how often each called it.
    """
    owners: dict = {}

    def owners_of(func) -> dict[str, float]:
        if func not in owners:
            layer = layer_of_file(func[0])
            if layer is not None:
                owners[func] = {layer: 1.0}
                return owners[func]
            owners[func] = {}  # while in progress: a cycle back here adds nothing
            shares = defaultdict(float)
            for caller, edge in stats[func][4].items():
                for owner, share in owners_of(caller).items():
                    shares[owner] += share * edge[0]
            # Shares of the calls that reached an owner; root frames have none.
            reached = sum(shares.values())
            owners[func] = (
                {owner: share / reached for owner, share in shares.items()}
                if reached
                else {HARNESS: 1.0}
            )
        return owners[func]

    self_s: dict[str, float] = dict.fromkeys(LAYERS, 0.0)
    calls: dict[str, int] = dict.fromkeys(LAYERS, 0)
    for func, (_cc, nc, tt, _ct, callers) in stats.items():
        layer = layer_of_file(func[0])
        if layer is not None:
            self_s[layer] += tt
            calls[layer] += nc
            continue
        if not callers:
            self_s[HARNESS] += tt
        for caller, edge in callers.items():
            for owner, share in owners_of(caller).items():
                self_s[owner] += edge[2] * share
    return self_s, calls


def inclusive_seconds(stats: dict) -> dict[str, float]:
    """Cumulative time of each function named in ``INCLUSIVE`` (0.0 when
    it never ran, or no longer exists under that name)."""
    result = {}
    for stem, target in INCLUSIVE.items():
        module_name, _, qualname = target.partition(":")
        try:
            obj = importlib.import_module(module_name)
            for part in qualname.split("."):
                obj = getattr(obj, part)
            code = inspect.unwrap(obj).__code__
        except (ImportError, AttributeError):
            print(f"perflab: {target} not found; {stem} reads 0", file=sys.stderr)
            result[stem] = 0.0
            continue
        row = stats.get((code.co_filename, code.co_firstlineno, code.co_name))
        result[stem] = row[3] if row else 0.0
    return result


def summarize(profiler, ops: int, slowdown: float) -> dict:
    """Per-op layer metrics of one traced phase, in reference
    milliseconds (the profiler's seconds divided by the phase's mean
    ``slowdown``), plus the total in the profiler's own seconds that the
    acceptance check compares with the phase's wall time.

    ``harness`` has a self time, so that the layers add up, but no call
    count: its frames include the host-speed sampler, which runs on a
    timer, and every count reported repeats exactly.
    """
    stats = pstats.Stats(profiler).stats
    self_s, calls = fold(stats)
    del calls[HARNESS]
    ms_per_op = 1e3 / ops / slowdown
    metrics = {f"{layer}.self_ms_per_op": seconds * ms_per_op for layer, seconds in self_s.items()}
    metrics.update((f"{layer}.calls_per_op", count / ops) for layer, count in calls.items())
    for stem, seconds in inclusive_seconds(stats).items():
        metrics[f"{stem}.incl_ms_per_op"] = seconds * ms_per_op
    metrics["trace.calls_per_op"] = sum(calls.values()) / ops
    return {"metrics": metrics, "self_s_sum": sum(self_s.values())}
