"""Deterministic, seeded fault injection at named engine boundaries.

Every cross-component hop in the engine — shipper poll/send, stream
frame transfer, redo apply, archiver receive/flush, sim-device I/O,
backup/restore page copy — calls :meth:`FaultInjector.hit` with a stable
*injection point* name before doing its work. The injector matches the
hit against its armed :class:`FaultRule` schedule and either lets it
pass, raises a :class:`~repro.errors.FaultInjectedError`, stalls the sim
clock, or hands back a torn/corrupted payload.

Determinism is the whole point: the injector draws randomness only from
its own seeded ``random.Random`` and reads time only from the
:class:`~repro.sim.clock.SimClock`, so the same seed against the same
workload produces a byte-identical fault schedule (:meth:`events`) —
which is what lets CI diff two chaos runs and lets a failure be replayed
exactly. This is the recoverability-check shape "Guaranteeing
Recoverability via Partially Constrained Transaction Logs" formalizes:
the injector perturbs every boundary while the engine's cursors and CRCs
must keep the log's committed prefix intact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fnmatch import fnmatchcase

from repro.errors import FaultInjectedError

#: Fault kinds a rule may inject.
#:
#: * ``transient`` — the operation raises; a retry succeeds.
#: * ``partition`` — like ``transient`` but modelling an unreachable
#:   peer; rules typically use a time ``window`` to hold the link down.
#: * ``stall``     — the operation succeeds after ``latency_s`` of
#:   injected sim-clock latency (slow disk, congested link).
#: * ``torn``      — the payload is truncated mid-frame (torn write).
#: * ``corrupt``   — one payload byte is flipped (bit rot; CRC must
#:   catch it downstream).
#: * ``crash``     — the component dies mid-operation; in-flight work is
#:   lost but — the sim having no real processes — the component comes
#:   back and the operation is retried from its durable cursor. At the
#:   special point ``"primary"`` a crash rule instead halts the whole
#:   primary database (see :meth:`FaultInjector.due_crashes`).
FAULT_KINDS = ("transient", "partition", "stall", "torn", "corrupt", "crash")

#: The injection-point catalog (see ``docs/ha.md``). Rules may glob over
#: these names; unknown points are rejected at arm time so a typo'd rule
#: cannot silently never fire.
INJECTION_POINTS: dict[str, str] = {
    "repl.ship.poll": "shipper poll entry, once per tick per primary",
    "repl.ship.send": "per-subscriber frame send (target = subscriber)",
    "repl.stream.frame": "frame in flight; torn/corrupt payload faults",
    "repl.apply": "replica redo apply (target = replica)",
    "archive.receive": "archiver frame receive (target = archiver name)",
    "archive.flush": "archive store segment flush (target = db name)",
    "device.read": "sim-device read path (target = device profile)",
    "device.write": "sim-device write path (target = device profile)",
    "backup.page_copy": "backup page copy (target = db name)",
    "restore.page_copy": "restore page copy (target = db name)",
    "primary": "whole-primary halt; crash rules only (target = db name)",
}


@dataclass(frozen=True)
class FaultRule:
    """One armed fault: where, what kind, when, and how often.

    ``point`` and ``target`` are fnmatch globs over the injection-point
    name and the per-hit target (subscriber/replica/db/device name). A
    rule fires when its time condition holds — a one-shot ``at_s``, an
    active ``window``, or always if neither is set — AND its probability
    draw passes (``probability >= 1`` means every eligible hit).
    ``max_hits`` bounds total firings; ``at_s`` implies ``max_hits=1``
    unless set explicitly.
    """

    point: str
    kind: str
    target: str = "*"
    probability: float = 1.0
    at_s: float | None = None
    window: tuple[float, float] | None = None
    latency_s: float = 0.01
    max_hits: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; one of {FAULT_KINDS}"
            )
        if not any(
            fnmatchcase(name, self.point) for name in INJECTION_POINTS
        ):
            raise ValueError(
                f"fault point glob {self.point!r} matches no known "
                f"injection point; see INJECTION_POINTS"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if self.latency_s < 0:
            raise ValueError("latency_s must be >= 0")
        if self.window is not None and self.window[0] >= self.window[1]:
            raise ValueError("window must be (start, end) with start < end")


class _ArmedRule:
    """A rule plus its mutable firing state."""

    __slots__ = ("rule", "hits")

    def __init__(self, rule: FaultRule) -> None:
        self.rule = rule
        self.hits = 0

    @property
    def budget(self) -> int | None:
        if self.rule.max_hits is not None:
            return self.rule.max_hits
        if self.rule.at_s is not None:
            return 1  # a scheduled one-shot
        return None


class FaultInjector:
    """The seeded fault schedule and its deterministic event log."""

    def __init__(self, clock, seed: int = 0) -> None:
        self.clock = clock
        self.seed = seed
        self.rng = random.Random(seed)
        self.enabled = True
        self._fault_rules: list[_ArmedRule] = []
        self._fault_events: list[dict] = []

    # ------------------------------------------------------------------
    # Arming
    # ------------------------------------------------------------------

    def add_rule(self, rule: FaultRule) -> FaultRule:
        self._fault_rules.append(_ArmedRule(rule))
        return rule

    def schedule_crash(self, db_name: str, at_s: float) -> FaultRule:
        """Arm a one-shot whole-primary halt at sim time ``at_s``."""
        return self.add_rule(
            FaultRule(point="primary", kind="crash", target=db_name, at_s=at_s)
        )

    # ------------------------------------------------------------------
    # The hot path: called at every injection point
    # ------------------------------------------------------------------

    def hit(self, point: str, target: str = "", payload=None):
        """Evaluate one boundary crossing; returns the (possibly
        mutated) payload.

        May raise :class:`FaultInjectedError` (transient/partition/crash
        kinds), advance the sim clock (stall), or return a torn/corrupted
        copy of ``payload``. Raising kinds fire at most one fault per
        hit; payload/stall kinds stack.
        """
        if not self.enabled or not self._fault_rules:
            return payload
        now = self.clock.now()
        for armed in self._fault_rules:
            rule = armed.rule
            if rule.point == "primary":
                continue  # whole-primary halts go through due_crashes()
            if not fnmatchcase(point, rule.point):
                continue
            if not fnmatchcase(target, rule.target):
                continue
            if not self._due(armed, now):
                continue
            armed.hits += 1
            if rule.kind == "stall":
                self._record(now, point, rule.kind, target,
                             f"+{rule.latency_s:g}s latency")
                self.clock.advance(rule.latency_s)
                continue
            if rule.kind == "torn" and payload:
                keep = max(1, len(payload) // 2)
                self._record(now, point, rule.kind, target,
                             f"payload torn at byte {keep}/{len(payload)}")
                payload = payload[:keep]
                continue
            if rule.kind == "corrupt" and payload:
                pos = self.rng.randrange(len(payload))
                self._record(now, point, rule.kind, target,
                             f"byte {pos} flipped")
                mutated = bytearray(payload)
                mutated[pos] ^= 0xFF
                payload = bytes(mutated)
                continue
            # transient / partition / crash: the operation dies here.
            self._record(now, point, rule.kind, target, "operation failed")
            raise FaultInjectedError(
                f"injected {rule.kind} fault at {point} "
                f"(target {target!r}, t={now:g})",
                point=point,
                kind=rule.kind,
                target=target,
                transient=True,
            )
        return payload

    def due_crashes(self, now: float) -> list[str]:
        """Targets of ``point="primary"`` crash rules whose time has
        come; each fires once. The engine polls this at tick start and
        halts the named primaries."""
        targets: list[str] = []
        for armed in self._fault_rules:
            rule = armed.rule
            if rule.point != "primary" or rule.kind != "crash":
                continue
            if not self._due(armed, now):
                continue
            armed.hits += 1
            self._record(now, "primary", "crash", rule.target,
                         "primary halted")
            targets.append(rule.target)
        return targets

    def _due(self, armed: _ArmedRule, now: float) -> bool:
        rule = armed.rule
        budget = armed.budget
        if budget is not None and armed.hits >= budget:
            return False
        if rule.at_s is not None and now < rule.at_s:
            return False
        if rule.window is not None and not (
            rule.window[0] <= now < rule.window[1]
        ):
            return False
        if rule.probability >= 1.0:
            return True
        return self.rng.random() < rule.probability

    # ------------------------------------------------------------------
    # The fault log
    # ------------------------------------------------------------------

    def _record(
        self, now: float, point: str, kind: str, target: str, detail: str
    ) -> None:
        self._fault_events.append(
            {
                "seq": len(self._fault_events),
                "t": now,
                "point": point,
                "kind": kind,
                "target": target,
                "detail": detail,
            }
        )

    def record_external(self, point: str, kind: str, target: str,
                        detail: str) -> None:
        """Let engine code append a non-injected event (e.g. a failover
        decision) onto the same deterministic timeline."""
        self._record(self.clock.now(), point, kind, target, detail)

    def events(self) -> list[dict]:
        """The fault log, in firing order (stable dict rows, suitable
        for ``json.dumps`` determinism diffs and ``SHOW FAULTS``)."""
        return [dict(event) for event in self._fault_events]

    def __repr__(self) -> str:
        return (
            f"FaultInjector(seed={self.seed}, rules={len(self._fault_rules)}, "
            f"events={len(self._fault_events)})"
        )
