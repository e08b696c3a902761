"""Per-rule configuration and this repository's default policy.

Every rule reads its path scope and domain registries from here, so the
policy — which modules own raw host I/O, which attributes are
engine-shared, which calls can raise past the retention horizon — is
data, not code. ROADMAP item 1 (the latching refactor) grows the
``shared_state`` registry instead of growing new rule code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatch


@dataclass
class RuleConfig:
    """Scope and options for one rule."""

    enabled: bool = True
    #: fnmatch patterns over posix-style repo-relative paths.
    include: tuple[str, ...] = ("*",)
    exclude: tuple[str, ...] = ()
    options: dict = field(default_factory=dict)

    def applies_to(self, relpath: str) -> bool:
        if not self.enabled:
            return False
        path = relpath.replace("\\", "/")
        if not any(fnmatch(path, pat) for pat in self.include):
            return False
        return not any(fnmatch(path, pat) for pat in self.exclude)


#: Engine-shared mutable structures (RL005). ``attr`` names state whose
#: mutation is only legal inside one of the ``owners`` modules (matched
#: as a path suffix) or under a declared guard (``with x.latch:`` /
#: ``with x._latch:`` / ``.lock``). Entries with ``"latch": True`` are
#: **strict**: the structure has grown its latch, so every mutation —
#: owner module included — must sit lexically under the guard (the sole
#: exception is first assignment on ``self`` inside ``__init__`` /
#: ``__new__``, before the object is shared). A call of ``append``,
#: ``clear`` and the like on the attribute is a mutation; ``mutators``
#: adds the mutating methods of a structure that has its own. This is
#: the lint-side contract for the concurrent-engine latching work.
SHARED_STATE_REGISTRY: tuple[dict, ...] = (
    # Retention pins: pooled splits, shipper cursors, archiver cursors.
    {"attr": "retention_pins", "owners": ("repro/engine/database.py",)},
    # Database metadata caches (boot record, table/tree handles):
    # replicas and restores must go through
    # Database.invalidate_caches()/reload_boot().
    {"attr": "_boot_cache", "owners": ("repro/engine/database.py",)},
    # (as-of snapshots carry their own table/tree caches, same names.)
    {
        "attr": "_table_cache",
        "owners": ("repro/engine/database.py", "repro/core/asof.py"),
    },
    {
        "attr": "_tree_cache",
        "owners": ("repro/engine/database.py", "repro/core/asof.py"),
    },
    # Allocation-map search hints (soft state, but still shared).
    {"attr": "_hints", "owners": ("repro/storage/allocation.py",)},
    # Buffer pool frames; as-of snapshots carry their own frame cache.
    {
        "attr": "_frames",
        "owners": ("repro/storage/buffer.py", "repro/core/asof.py"),
        "latch": True,
    },
    # The log tail: bytes, durable boundary, truncation point,
    # directories.
    {"attr": "_data", "owners": ("repro/wal/log_manager.py",), "latch": True},
    {"attr": "_durable_end", "owners": ("repro/wal/log_manager.py",), "latch": True},
    {"attr": "_truncated_before", "owners": ("repro/wal/log_manager.py",), "latch": True},
    *(
        {
            "attr": attr,
            "owners": ("repro/wal/log_manager.py",),
            "latch": True,
            "mutators": ("note", "cut", "drop_below"),
        }
        for attr in ("_commit_dir", "_ckpt_dir", "_txn_dir")
    ),
    # The active-transaction table: entered and left with the BEGIN,
    # COMMIT or ABORT append, and read with the checkpoint-begin append,
    # under the log latch.
    {"attr": "_active", "owners": ("repro/txn/manager.py",), "latch": True},
    # Lock-manager table and declared waits (one per database).
    {"attr": "_table", "owners": ("repro/txn/locks.py",), "latch": True},
    {"attr": "_waits", "owners": ("repro/txn/locks.py",), "latch": True},
    # Snapshot pool entries and the version store's interval map.
    {"attr": "_entries", "owners": ("repro/core/snapshot_pool.py",), "latch": True},
    {"attr": "_orphans", "owners": ("repro/core/snapshot_pool.py",), "latch": True},
    {"attr": "_versions", "owners": ("repro/core/version_store.py",), "latch": True},
    # Shipper subscriptions.
    {"attr": "_subs", "owners": ("repro/replication/shipper.py",)},
    # The archive store's segment/backup/log maps and its read cursor:
    # filled by the archiver, read from session threads.
    {"attr": "_segments", "owners": ("repro/archive/store.py",), "latch": True},
    {"attr": "_backups", "owners": ("repro/archive/store.py",), "latch": True},
    {"attr": "_logs", "owners": ("repro/archive/store.py",), "latch": True},
    {"attr": "_read_cursor", "owners": ("repro/archive/store.py",), "latch": True},
    # Observability: the metrics instrument and sheet tables and the
    # tracer's span stack — engine code holds instrument handles, its
    # own stats sheets and Span objects, it never mutates the tables
    # directly.
    {"attr": "_instruments", "owners": ("repro/obs/registry.py",), "latch": True},
    {"attr": "_sheets", "owners": ("repro/obs/registry.py",), "latch": True},
    {"attr": "_span_stack", "owners": ("repro/obs/tracer.py",), "latch": True},
    # Monitoring: recorded series, alert condition states, and the
    # slow-query ring — read through the monitor/engine surfaces,
    # purged through remove_prefix on drop.
    {"attr": "_series", "owners": ("repro/obs/timeseries.py",), "latch": True},
    {"attr": "_conditions", "owners": ("repro/obs/alerts.py",), "latch": True},
    {"attr": "_slow_entries", "owners": ("repro/obs/slowlog.py",), "latch": True},
    # Chaos: the armed fault schedule and its deterministic event log
    # live in the injector; HA detection state in the detector; the HA
    # timeline is appended only through Engine._record_ha.
    {"attr": "_fault_rules", "owners": ("repro/chaos/injector.py",)},
    {"attr": "_fault_events", "owners": ("repro/chaos/injector.py",)},
    {"attr": "_ha_state", "owners": ("repro/chaos/detector.py",)},
    {"attr": "ha_events", "owners": ("repro/engine/engine.py",)},
    # The engine catalog: who is registered, who ships and archives for
    # whom, which fallback copies are cached — all under engine.latch.
    {"attr": "databases", "owners": ("repro/engine/engine.py",), "latch": True},
    {"attr": "replicas", "owners": ("repro/engine/engine.py",), "latch": True},
    {"attr": "_shippers", "owners": ("repro/engine/engine.py",), "latch": True},
    {"attr": "archives", "owners": ("repro/engine/engine.py",), "latch": True},
    {"attr": "_archive_reads", "owners": ("repro/engine/engine.py",), "latch": True},
)

#: Private methods of shared structures that outside modules must not
#: call — each has (or needs) a public wrapper on the owning class.
SHARED_METHOD_REGISTRY: tuple[dict, ...] = (
    {"method": "_load_boot", "owners": ("repro/engine/database.py",)},
    {"method": "_charge_read", "owners": ("repro/archive/store.py",)},
    {"method": "_charge_write", "owners": ("repro/archive/store.py",)},
    {"method": "_make_room", "owners": ("repro/storage/buffer.py",)},
    {"method": "_bootstrap", "owners": ("repro/engine/database.py",)},
)

#: Raw host-I/O entry points (RL002). Inside the priced-I/O scope every
#: byte must move through SimDevice/FileManager/LogManager; the one
#: sanctioned boundary to the real filesystem is repro.sim.hostio.
RAW_IO_CALLS: frozenset[str] = frozenset(
    {
        "open",
        "io.open",
        "io.FileIO",
        "os.open",
        "os.read",
        "os.write",
        "os.pread",
        "os.pwrite",
        "os.fdopen",
        "os.fsync",
        "os.truncate",
        "os.remove",
        "os.unlink",
        "os.rename",
        "os.replace",
        "os.mkdir",
        "os.makedirs",
        "os.rmdir",
        "os.removedirs",
        "os.listdir",
        "os.scandir",
        "os.stat",
        "os.path.exists",
        "os.path.getsize",
        "os.path.isfile",
        "os.path.isdir",
        "pathlib.Path",
    }
)

#: Nondeterministic call targets (RL003). Replay determinism is the
#: ground truth for replicas and restores; the only clock the engine may
#: read is the SimClock, and the only randomness a seeded Random. Host
#: timing for benchmark *reporting* goes through
#: repro.sim.clock.host_perf_counter (the sim layer owns the boundary).
NONDETERMINISTIC_CALLS: frozenset[str] = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.localtime",
        "time.gmtime",
        "time.ctime",
        "time.sleep",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "os.urandom",
        "os.getrandom",
        "uuid.uuid1",
        "uuid.uuid4",
    }
)

#: The raw host-clock entry point the obs layer wraps (RL006). Host
#: elapsed time outside the obs/sim layers goes through
#: repro.obs.timing.host_timing()/HostTimer, never a bare
#: host_perf_counter() start/stop delta.
BARE_TIMING_CALLS: frozenset[str] = frozenset(
    {"repro.sim.clock.host_perf_counter"}
)

#: random-module functions that drive the *shared, unseeded* global RNG.
#: (``random.Random(seed)`` / ``random.SystemRandom`` construction is
#: allowed — the former is the sanctioned idiom.)
GLOBAL_RNG_MODULE = "random"
GLOBAL_RNG_ALLOWED = frozenset({"Random", "SystemRandom"})

#: Calls that can raise LogTruncatedError (RL004): log-manager reads on
#: a ``log``-named receiver, plus the split-resolution helpers. A public
#: engine method reaching these must sit inside a try that catches the
#: error (or an ancestor) — the PR 1 bugfix, generalized into a checked
#: contract.
TRUNCATION_RAISING_LOG_METHODS: frozenset[str] = frozenset(
    {"read", "undo_fetch", "scan", "read_bytes"}
)
TRUNCATION_RAISING_HELPERS: frozenset[str] = frozenset(
    {"find_split_lsn", "resolve_split", "create_at_split"}
)
TRUNCATION_HANDLERS: frozenset[str] = frozenset(
    {"LogTruncatedError", "WalError", "ReproError", "Exception", "BaseException"}
)

#: Broad handlers RL007 polices in the replication/archive/chaos scope —
#: a handler this wide must re-raise, wrap typed, or record the fault;
#: silently swallowing it hides injected (and real) faults from the
#: retry, alerting and failure-detection layers.
BROAD_EXCEPTION_HANDLERS: frozenset[str] = frozenset(
    {"Exception", "BaseException"}
)

#: Calls RL007 accepts as "the fault was recorded" (matched on the last
#: dotted component of the call target).
FAULT_RECORDERS: frozenset[str] = frozenset(
    {
        "_note_failure",
        "note_apply_fault",
        "record_external",
        "record_fault",
        "note_fault",
    }
)

#: The modules that may replay a log record onto a page, and the one
#: that may roll analysis' losers back (RL008; matched as path suffixes).
REDO_OWNERS: tuple[str, ...] = ("repro/wal/apply.py", "repro/wal/records.py")
ROLLBACK_OWNERS: tuple[str, ...] = ("repro/txn/undo.py",)


def _default_rules() -> dict[str, RuleConfig]:
    return {
        "RL001": RuleConfig(
            include=("src/repro/*",),
            exclude=("src/repro/wal/lsn.py",),
        ),
        "RL002": RuleConfig(
            include=(
                "src/repro/core/*",
                "src/repro/wal/*",
                "src/repro/storage/*",
                "src/repro/archive/*",
            ),
            options={
                "banned_calls": RAW_IO_CALLS,
                # Raw log reads are banned in chain-walk code: every
                # chain record comes through undo_fetch.
                "chain_walk_modules": ("src/repro/core/*",),
                "chain_walk_banned_methods": frozenset({"read_bytes"}),
            },
        ),
        "RL003": RuleConfig(
            include=("src/repro/*", "tests/*"),
            exclude=("src/repro/sim/clock.py",),
            options={
                "banned_calls": NONDETERMINISTIC_CALLS,
                "rng_module": GLOBAL_RNG_MODULE,
                "rng_allowed": GLOBAL_RNG_ALLOWED,
            },
        ),
        "RL004": RuleConfig(
            include=("src/repro/engine/engine.py",),
            options={
                "log_methods": TRUNCATION_RAISING_LOG_METHODS,
                "helpers": TRUNCATION_RAISING_HELPERS,
                "handlers": TRUNCATION_HANDLERS,
            },
        ),
        "RL005": RuleConfig(
            include=("src/repro/*",),
            options={
                "shared_state": SHARED_STATE_REGISTRY,
                "shared_methods": SHARED_METHOD_REGISTRY,
                "guard_names": frozenset({"latch", "lock", "_latch", "_lock"}),
            },
        ),
        "RL006": RuleConfig(
            include=("src/repro/*", "tests/*"),
            exclude=("src/repro/obs/*", "src/repro/sim/*"),
            options={"banned_calls": BARE_TIMING_CALLS},
        ),
        "RL007": RuleConfig(
            include=(
                "src/repro/replication/*",
                "src/repro/archive/*",
                "src/repro/chaos/*",
            ),
            options={
                "broad_handlers": BROAD_EXCEPTION_HANDLERS,
                "recorders": FAULT_RECORDERS,
            },
        ),
        "RL008": RuleConfig(
            include=("src/repro/*",),
            options={
                "redo_owners": REDO_OWNERS,
                "rollback_owners": ROLLBACK_OWNERS,
            },
        ),
    }


@dataclass
class AnalyzerConfig:
    """The full analyzer policy: one :class:`RuleConfig` per rule id."""

    rules: dict[str, RuleConfig] = field(default_factory=_default_rules)

    def rule(self, rule_id: str) -> RuleConfig:
        return self.rules.setdefault(rule_id, RuleConfig())

    @classmethod
    def default(cls) -> "AnalyzerConfig":
        return cls()
