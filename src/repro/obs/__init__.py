"""Engine-wide observability: metrics registry, tracer, timing boundary.

Three layers, one schema:

* :mod:`repro.obs.registry` — counters (the fields of the attached
  stats sheets), gauges and histograms with deterministic sim-time
  buckets in one
  :class:`~repro.obs.registry.MetricsRegistry` per
  :class:`~repro.config.SimEnv`. ``registry.snapshot()`` is the canonical
  JSON document consumed by ``SHOW METRICS``, ``python -m
  repro.tools.obs``, the benchmarks and the CI perf gate.
* :mod:`repro.obs.tracer` — span-based tracing of a single request.
  Spans are timed on the *simulated* clock and carry per-span I/O-counter
  deltas, so a trace of a seeded run is replay-deterministic
  byte-for-byte.
* :mod:`repro.obs.timing` — the host-clock boundary for real-time
  measurements (benchmark wall clocks, CLI elapsed). reprolint rule
  RL006 bans bare ``host_perf_counter()`` deltas outside ``obs/`` and
  ``sim/``; :func:`host_timing` is the sanctioned spelling.

On top of the point-in-time layer sits continuous monitoring:

* :mod:`repro.obs.timeseries` — a :class:`MetricsRecorder` sampling the
  canonical snapshot into bounded ring-buffer series on a sim-clock
  cadence, with windowed last/min/max/mean/rate queries.
* :mod:`repro.obs.alerts` — a deterministic :class:`AlertEngine` with
  declarative threshold/derivative/absence rules, for-duration
  debouncing, firing→cleared transitions, and subscriber callbacks.
* :mod:`repro.obs.health` — :func:`rollup` folding active alerts into
  per-subsystem OK/DEGRADED/CRITICAL verdicts.
* :mod:`repro.obs.monitor` — :class:`EngineMonitor` bundling the three
  behind the single ``tick()`` the engine pumps.
* :mod:`repro.obs.slowlog` — :class:`SlowQueryLog`, a bounded ring of
  rendered span trees for statements over the slow threshold.
"""

from repro.obs.alerts import ALERTS_SCHEMA, AlertEngine, AlertRule, builtin_rules
from repro.obs.export import (
    flatten_snapshot,
    format_metric_value,
    metrics_to_text,
)
from repro.obs.health import CRITICAL, DEGRADED, HEALTH_SCHEMA, OK, rollup
from repro.obs.monitor import EngineMonitor
from repro.obs.slowlog import SlowQueryLog
from repro.obs.timeseries import HISTORY_SCHEMA, MetricsRecorder, Series, summarize
from repro.obs.registry import (
    DEFAULT_SIM_TIME_BUCKETS_S,
    METRICS_SCHEMA,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.timing import HostTimer, host_timing
from repro.obs.tracer import Span, Trace, Tracer

__all__ = [
    "ALERTS_SCHEMA",
    "CRITICAL",
    "DEFAULT_SIM_TIME_BUCKETS_S",
    "DEGRADED",
    "HEALTH_SCHEMA",
    "HISTORY_SCHEMA",
    "METRICS_SCHEMA",
    "OK",
    "AlertEngine",
    "AlertRule",
    "EngineMonitor",
    "Gauge",
    "Histogram",
    "HostTimer",
    "MetricsRecorder",
    "MetricsRegistry",
    "Series",
    "SlowQueryLog",
    "Span",
    "Trace",
    "Tracer",
    "builtin_rules",
    "flatten_snapshot",
    "format_metric_value",
    "host_timing",
    "metrics_to_text",
    "rollup",
    "summarize",
]
