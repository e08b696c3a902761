"""The typed metrics registry.

One :class:`MetricsRegistry` lives on each :class:`~repro.config.SimEnv`
(``env.metrics``) and is shared by every database, snapshot, replica and
tool attached to that environment — mirroring how ``env.stats`` already
threads one :class:`~repro.sim.iostats.IoStats` sheet through the stack.

What it exports comes in three kinds:

* **Counters** — monotone ints, and never objects of the registry's own:
  a counter is a field of a stats dataclass (a *sheet*: ``IoStats``,
  ``PoolStats``, ``VersionStoreStats``, ``ShipperStats``,
  ``ReplicaStats``, ``ArchiverStats``) that its owner bumps as a plain
  attribute. :meth:`MetricsRegistry.sheet` attaches the sheet under a
  prefix and the registry *reads* ``dataclasses.fields()`` of it for
  names, snapshots and resets, so each value is stored exactly once.
* :class:`Gauge` — derived, read-only. Evaluated at snapshot time from a
  closure (replica apply lag, archiver cursor lag, retention-pin horizon
  distance, pool occupancy, hit rates). Never sampled, never reset.
* :class:`Histogram` — fixed, deterministic bucket bounds (sim-seconds
  or bytes). Same seeded run ⇒ same observations ⇒ byte-identical
  snapshot JSON.

Naming scheme (see ``docs/observability.md``): dot-separated
``<subsystem>[.<instance>].<metric>``, e.g. ``io.undo_log_reads``,
``pool.engine.hits``, ``replica.r1.apply_lag_bytes``. Glob filters
(``SHOW METRICS LIKE 'pool.*'``) match with :func:`fnmatch.fnmatchcase`.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from dataclasses import fields
from fnmatch import fnmatchcase

from repro.latch import Latch

#: Canonical snapshot schema identifier (bump on incompatible change).
METRICS_SCHEMA = "repro.obs.metrics/v1"

#: Default histogram bounds for simulated-seconds latencies: decades from
#: 100 µs to 100 s. Fixed at import time — deterministic by construction.
DEFAULT_SIM_TIME_BUCKETS_S = (1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0)

#: Default histogram bounds for byte sizes (log records, frames).
DEFAULT_BYTES_BUCKETS = (64, 256, 1024, 4096, 16384, 65536, 262144)


class Gauge:
    """A derived, read-only instrument evaluated at snapshot time."""

    __slots__ = ("name", "doc", "_read")

    def __init__(self, name: str, read, doc: str = "") -> None:
        self.name = name
        self.doc = doc
        self._read = read

    @property
    def value(self):
        return self._read()

    def reset(self) -> None:
        """Gauges are derived from live state; nothing to clear."""


class Histogram:
    """Fixed-bucket histogram (counts per ``value <= bound`` bucket)."""

    __slots__ = ("name", "doc", "bounds", "counts", "total", "count", "_lock")

    def __init__(self, name: str, doc: str = "", bounds=DEFAULT_SIM_TIME_BUCKETS_S) -> None:
        self.name = name
        self.doc = doc
        self.bounds = tuple(bounds)
        if list(self.bounds) != sorted(self.bounds) or not self.bounds:
            raise ValueError(f"histogram {name}: bounds must be sorted and non-empty")
        # One count per bound plus the +inf overflow bucket.
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0.0
        self.count = 0
        # A leaf lock of its own (not the registry latch): observations
        # arrive from hot paths already holding subsystem latches.
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.counts[bisect_left(self.bounds, value)] += 1
            self.total += value
            self.count += 1

    def reset(self) -> None:
        with self._lock:
            self.counts = [0] * (len(self.bounds) + 1)
            self.total = 0.0
            self.count = 0

    def as_dict(self) -> dict:
        with self._lock:
            return {
                "buckets": [
                    [bound, self.counts[i]] for i, bound in enumerate(self.bounds)
                ],
                "overflow": self.counts[-1],
                "count": self.count,
                "sum": self.total,
            }


class MetricsRegistry:
    """Everything one :class:`~repro.config.SimEnv` exports, by name.

    The tables (``_instruments``, ``_sheets``) are owned by this module:
    other modules hold the stats sheets they attached and the gauge /
    histogram *handles* returned by :meth:`gauge`/:meth:`histogram`, and
    mutate only through those (the RL005 shared-state contract).
    """

    def __init__(self) -> None:
        self.latch = Latch("metrics_registry")
        self._instruments: dict[str, object] = {}
        #: prefix -> attached stats dataclass; its fields are the
        #: counters ``<prefix>.<field>``.
        self._sheets: dict[str, object] = {}

    # -- registration ---------------------------------------------------

    def _check_kind(self, name: str, kind: str) -> None:
        """One name, one kind: ``name`` is free or a ``kind`` already."""
        instrument = self._instruments.get(name)
        prefix, _, field = name.rpartition(".")
        sheet = self._sheets.get(prefix)
        if instrument is not None:
            existing = type(instrument).__name__
        elif sheet is not None and field in [spec.name for spec in fields(sheet)]:
            existing = "Counter"
        else:
            return
        if existing != kind:
            raise ValueError(f"metric {name!r} already registered as {existing}")

    def sheet(self, prefix: str, stats) -> None:
        """Export every field of the ``stats`` dataclass as counter
        ``<prefix>.<field>``. The dataclass stays the only storage: the
        owner bumps attributes, the registry reads them. Re-attaching a
        prefix *replaces* the sheet — a subsystem restart (new pool, new
        replica under a reused name) exports its live object.
        """
        with self.latch:
            for spec in fields(stats):
                name = f"{prefix}.{spec.name}"
                if name in self._instruments:  # a gauge or histogram has it
                    self._check_kind(name, "Counter")
            self._sheets[prefix] = stats

    def gauge(self, name: str, read, doc: str = "") -> Gauge:
        """Register derived gauge ``name``; re-registration replaces the
        closure (a subsystem restart rebinds its live object)."""
        with self.latch:
            self._check_kind(name, "Gauge")
            instrument = Gauge(name, read, doc)
            self._instruments[name] = instrument
            return instrument

    def histogram(self, name: str, doc: str = "", bounds=DEFAULT_SIM_TIME_BUCKETS_S) -> Histogram:
        """Create (or fetch the existing) histogram ``name``."""
        with self.latch:
            self._check_kind(name, "Histogram")
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = Histogram(name, doc, bounds)
                self._instruments[name] = instrument
            return instrument

    def remove(self, name: str) -> None:
        """Unregister one gauge or histogram."""
        with self.latch:
            self._instruments.pop(name, None)

    def remove_prefix(self, prefix: str) -> None:
        """Unregister everything under ``prefix`` (dropped replica,
        detached archiver, dropped database): each instrument whose name
        starts with it and each sheet all of whose counters do."""
        with self.latch:
            for name in list(self._instruments):
                if name.startswith(prefix):
                    del self._instruments[name]
            for attached in list(self._sheets):
                if f"{attached}.".startswith(prefix):
                    del self._sheets[attached]

    # -- read side ------------------------------------------------------

    def _counters(self):
        """``(name, sheet, field)`` for every counter of every attached
        sheet (call under the latch)."""
        for prefix, stats in self._sheets.items():
            for spec in fields(stats):
                yield f"{prefix}.{spec.name}", stats, spec.name

    def get(self, name: str):
        """The gauge or histogram registered as ``name`` (``None`` for a
        free name and for counters, which have no object)."""
        with self.latch:
            return self._instruments.get(name)

    def names(self, like: str | None = None) -> list[str]:
        with self.latch:
            names = sorted(
                [*self._instruments, *(name for name, _, _ in self._counters())]
            )
        if like is None:
            return names
        return [n for n in names if fnmatchcase(n, like)]

    def snapshot(self, like: str | None = None) -> dict:
        """The canonical metrics document (see ``docs/observability.md``).

        Deterministic: keys sorted, values read in one pass, no host
        clocks. ``like`` applies the same glob ``SHOW METRICS LIKE``
        uses.
        """
        with self.latch:
            counters = {
                name: getattr(stats, field)
                for name, stats, field in self._counters()
                if like is None or fnmatchcase(name, like)
            }
            gauges: dict[str, float] = {}
            histograms: dict[str, dict] = {}
            for name in sorted(self._instruments):
                if like is not None and not fnmatchcase(name, like):
                    continue
                instrument = self._instruments[name]
                if type(instrument) is Gauge:
                    gauges[name] = instrument.value
                else:
                    histograms[name] = instrument.as_dict()
        return {
            "schema": METRICS_SCHEMA,
            "counters": dict(sorted(counters.items())),
            "gauges": gauges,
            "histograms": histograms,
        }

    # -- reset ----------------------------------------------------------

    def reset(self) -> None:
        """Zero every counter and histogram: the one call that clears the
        IoStats sheet *and* every subsystem sheet attached beside it
        (pool, version store, shipper, replica, archiver), on the owner
        objects themselves. Gauges are derived and untouched."""
        with self.latch:
            for _name, stats, field in self._counters():
                setattr(stats, field, 0)
            for instrument in self._instruments.values():
                instrument.reset()
