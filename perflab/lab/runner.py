"""Run one workload: set-up, measured phase, verification, traced pass.

End-to-end numbers come from the untraced phase. The traced pass runs
the first quarter of the same ops on a fresh, identical fixture with
``cProfile`` enabled only around the loop; the ratio of the two host
costs per op is the tracing overhead.

Host time is reported twice. The sandbox's two cores are shared and
change speed by up to a factor of two for seconds at a time (a fixed
pure-Python loop timed for a minute: interquartile spread 36 % of its
median, per-second medians 1.1 to 2.3 times its fastest), so no number
in real seconds repeats well enough to carry a bound, and real seconds
are per-layer ``host.wall_*`` metrics. The end-to-end host metrics are
in *reference* seconds: :class:`HostSpeed` times that loop ten times a
second while the code under test runs, and every duration is divided by
how slow the host was around it.
"""

from __future__ import annotations

import cProfile
import gc
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from lab import profile, workloads
from lab.metrics import END_TO_END, LATCHES, OP_KINDS, PER_LAYER, counter_metrics

from repro.obs.export import flatten_snapshot

SCHEMA = "perflab/v1"
PERFLAB = Path(__file__).resolve().parent.parent
SLICES = 5
#: What the calibration loop took on the sandbox when the workloads
#: were sized. It only sets the unit: a reference second is a second on
#: a host that runs the loop in this time.
CALIB_REF_MS = 1.6
CALIB_EVERY_S = 0.1
#: A phase whose speed samples stray further than this from what their
#: neighbours in time predict is stamped ``noisy``.
NOISY_RESIDUAL = 0.10


def calibrate() -> float:
    """Milliseconds a fixed pure-Python loop takes right now (median of
    three): the host's speed, independent of the engine."""
    rounds = []
    for _ in range(3):
        start = perf_counter()
        acc, table = 0, {}
        for i in range(20_000):
            acc = (acc * 31 + i) % 1_000_003
            table[i & 255] = acc
        rounds.append(perf_counter() - start)
    return statistics.median(rounds) * 1e3


class HostSpeed:
    """Samples the host's speed while the code under test runs.

    A build cannot be interrupted from outside and one op may last half
    a second, so the samples are taken by an interval timer's signal
    handler, inside whatever is running (``SIGALRM``: main thread only).
    The time the handler takes is left out of what it interrupted.
    """

    def __enter__(self) -> HostSpeed:
        self.loop_ms = [calibrate()]
        self.busy_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, CALIB_EVERY_S, CALIB_EVERY_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def sample(self, _signum=None, _frame=None) -> None:
        start = perf_counter()
        self.loop_ms.append(calibrate())
        self.busy_s += perf_counter() - start

    def mark(self) -> tuple[int, float, float]:
        return len(self.loop_ms) - 1, self.busy_s, perf_counter()

    def since(self, mark: tuple[int, float, float]) -> tuple[float, float]:
        """(wall seconds, reference seconds) since ``mark``: the wall
        time divided by the mean slowdown of the newest sample before
        the mark and every sample after it."""
        end = perf_counter()
        first, busy_s, start = mark
        wall = end - start - (self.busy_s - busy_s)
        samples = self.loop_ms[first:]
        return wall, wall * CALIB_REF_MS * len(samples) / sum(samples)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (an observed value, never interpolated)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / quartiles[1]


def read_counters(fixture: workloads.Fixture) -> dict:
    """One flat sheet of every public counter: the metrics registry, the
    six latches a single-threaded op pays for, the fixture's extras."""
    db, engine = fixture.db, fixture.engine
    sheet = dict(fixture.extra)
    sheet.update(flatten_snapshot(engine.metrics_snapshot()))
    latches = (db.write_latch, db.log.latch, db.buffer.latch, db.locks.latch,
               engine.snapshot_pool.latch, engine.version_store.latch)
    for label, latch in zip(LATCHES, latches, strict=True):
        stats = latch.stats()
        sheet[f"latch.{label}.acquisitions"] = stats["acquisitions"]
        sheet[f"latch.{label}.contentions"] = stats["contentions"]
    return sheet


@dataclass
class Phase:
    """What one pass over the ops observed."""

    kinds: list[str] = field(default_factory=list)
    wall_s: list[float] = field(default_factory=list)
    #: ``wall_s`` in reference seconds.
    host_s: list[float] = field(default_factory=list)
    sim_s: list[float] = field(default_factory=list)
    #: The host-speed samples taken during the phase.
    loop_ms: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    failed: int = 0
    elapsed_s: float = 0.0
    before: dict = field(default_factory=dict)
    after: dict = field(default_factory=dict)


def measure(fixture: workloads.Fixture, ops: list, speed: HostSpeed, profiler=None) -> Phase:
    """The closed loop: one client, each op starts when the previous
    returns. Only the op itself is timed."""
    phase = Phase(before=read_counters(fixture))
    clock = fixture.engine.env.clock
    gc.collect()
    speed.sample()  # the phase has a sample at each end, however short it is
    started = speed.mark()
    if profiler is not None:
        profiler.enable()
    for kind, run, think_s in ops:
        sim0 = clock.now()
        mark = speed.mark()
        try:
            run()
        except Exception as err:  # noqa: BLE001 - a failed op is a result, not a crash
            phase.failed += 1
            if len(phase.errors) < 5:
                phase.errors.append(f"{kind}: {type(err).__name__}: {err}")
        wall, host = speed.since(mark)
        phase.wall_s.append(wall)
        phase.host_s.append(host)
        phase.sim_s.append(clock.now() - sim0 - think_s)
        phase.kinds.append(kind)
    if profiler is not None:
        profiler.disable()
    phase.elapsed_s = perf_counter() - started[2]
    speed.sample()
    phase.loop_ms = speed.loop_ms[started[0]:]
    phase.after = read_counters(fixture)
    return phase


def host_numbers(durations: list[float]) -> tuple[float, float, float, list[float]]:
    """(median slice rate, p50 ms, p95 ms, slice rates) of per-op seconds."""
    ops = len(durations)
    edges = [ops * i // SLICES for i in range(SLICES + 1)]
    rates = [(hi - lo) / sum(durations[lo:hi]) for lo, hi in zip(edges, edges[1:], strict=False)]
    return (
        statistics.median(rates),
        statistics.median(durations) * 1e3,
        percentile(durations, 0.95) * 1e3,
        rates,
    )


def kind_medians(phase: Phase) -> dict[str, float]:
    by_kind: dict[str, list[float]] = {kind: [] for kind in OP_KINDS}
    for kind, host_s in zip(phase.kinds, phase.host_s, strict=True):
        by_kind[kind].append(host_s)
    return {
        f"workload.{kind}_p50_ms": statistics.median(values) * 1e3 if values else 0.0
        for kind, values in by_kind.items()
    }


def calib_residual(loop_ms: list[float]) -> float:
    """What calibration cannot take out: the spread of each speed sample
    over the mean of its two neighbours in time. Samples that are
    predicted by their neighbours correct the ops between them well,
    however far the host's speed drifts over the phase."""
    ratios = [
        mid / ((before + after) / 2)
        for before, mid, after in zip(loop_ms, loop_ms[1:], loop_ms[2:], strict=False)
    ]
    return spread(ratios) if len(ratios) > 1 else 0.0


def run_workload(name: str, *, seed: int, scale: str, trace: bool) -> dict:
    """Everything perflab knows about one workload at one seed."""
    with HostSpeed() as speed:
        mark = speed.mark()
        fixture = workloads.build(name, scale, seed)
        setup_wall_s, setup_s = speed.since(mark)
        phase = measure(fixture, fixture.ops, speed)
    # Before verify(): the oracle's checkdb and extra restores are not the workload's memory.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems = fixture.verify()
    ops = len(fixture.ops)
    rate, p50_ms, p95_ms, slice_rates = host_numbers(phase.host_s)
    log_bytes = phase.after["io.log_write_bytes"] - phase.before["io.log_write_bytes"]
    e2e = {
        "setup_s": setup_s,
        "ops_per_s": rate,
        "op_p50_ms": p50_ms,
        "op_p95_ms": p95_ms,
        "sim_s_per_op": sum(phase.sim_s) / ops,
        "log_bytes_per_op": log_bytes / ops,
        "peak_rss_mb": peak_rss_mb,
    }

    layers = counter_metrics(phase.before, phase.after, ops)
    layers.update(kind_medians(phase))
    wall_rate, wall_p50_ms, wall_p95_ms, _rates = host_numbers(phase.wall_s)
    layers.update({
        "host.wall_setup_s": setup_wall_s,
        "host.wall_ops_per_s": wall_rate,
        "host.wall_op_p50_ms": wall_p50_ms,
        "host.wall_op_p95_ms": wall_p95_ms,
        "host.calib_ms": statistics.median(phase.loop_ms),
        "host.calib_drift": spread(phase.loop_ms),
        "host.calib_residual": calib_residual(phase.loop_ms),
    })
    doc = {
        "why": workloads.WORKLOADS[name][1],
        "ops": ops,
        "failed": phase.failed,
        "failed_share": phase.failed / ops,
        "correct": phase.failed == 0 and not problems,
        "noisy": layers["host.calib_residual"] > NOISY_RESIDUAL,
        "digest": fixture.digest,
        "errors": phase.errors,
        "problems": problems,
        "e2e": e2e,
        "slice_ops_per_s": slice_rates,
        "layers": layers,
    }
    if trace:
        fixture = None  # free the measured fixture before building its twin
        quarter = max(1, ops // 4)
        profiler = cProfile.Profile()
        with HostSpeed() as speed:
            fixture = workloads.build(name, scale, seed)
            traced = measure(fixture, fixture.ops[:quarter], speed, profiler)
        slowdown = statistics.mean(traced.loop_ms) / CALIB_REF_MS
        folded = profile.summarize(profiler, quarter, slowdown)
        layers.update(folded["metrics"])
        layers["trace.overhead_ratio"] = sum(traced.host_s) / sum(phase.host_s[:quarter])
        out = PERFLAB / "out"
        out.mkdir(exist_ok=True)
        raw = out / f"{name}-{scale}-seed{seed}.prof"
        profiler.dump_stats(raw)
        doc["trace"] = {
            "ops": quarter,
            "failed": traced.failed,
            "elapsed_s": traced.elapsed_s,
            "self_s_sum": folded["self_s_sum"],
            "profile": str(raw.relative_to(PERFLAB.parent)),
        }
        doc["correct"] = doc["correct"] and traced.failed == 0
    return doc


def contract_line(doc: dict, trace: bool) -> str:
    """The one JSON object the driver reads off the last line of output:
    the end-to-end metrics, or with ``trace`` the per-layer ones."""
    values = doc["layers"] if trace else doc["e2e"]
    return json.dumps({
        "correct": doc["correct"],
        "attempted": doc["ops"],
        "failed": doc["failed"],
        "metrics": {
            metric.name: {"value": values[metric.name], "unit": metric.unit}
            for metric in (PER_LAYER if trace else END_TO_END)
        },
    })


def stamp(seed: int, scale: str) -> dict:
    def git(*args: str) -> str:
        try:
            done = subprocess.run(
                ["git", *args], cwd=PERFLAB, capture_output=True, text=True, check=True
            )
        except (OSError, subprocess.CalledProcessError):
            return "unknown"
        return done.stdout.strip()

    return {
        "commit": git("rev-parse", "--short", "HEAD"),
        "dirty": git("status", "--porcelain") not in ("", "unknown"),
        "seed": seed,
        "scale": scale,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
