"""RL008 — one replay path.

Every route to "the database at a SplitLSN" — crash recovery, both
restores, standby apply and promotion, as-of snapshot recovery — runs the
same stages (``docs/recovery.md``), each implemented once. A second redo
loop or loser-rollback loop is how routes drift apart: a per-record fork
of the applier once lived in the restore path, where it missed the
batching and the measurements the shared one received.

* Only the redo modules call ``.redo(...)`` on a log record: the applier
  and page modifiers in ``wal/apply.py``, and ``wal/records.py`` itself
  (a CLR replays its nested record). Everyone else hands records to
  ``RedoApplier.apply``.
* Only the module that owns ``rollback_losers`` constructs a
  ``RecoveredTransaction`` — the marker of a hand-rolled "sorted losers →
  ``rollback_chain``" loop.
"""

from __future__ import annotations

import ast

from repro.analysis.framework import Rule, dotted_name, register


@register
class SingleReplayPath(Rule):
    id = "RL008"
    name = "single-replay-path"
    invariant = (
        "redo and loser rollback are each implemented once: records are "
        "replayed only by wal/apply.py (and nested by wal/records.py), "
        "losers are rolled back only by txn/undo.py's rollback_losers"
    )

    def check(self, ctx) -> None:
        opts = ctx.config.rule(self.id).options
        may_redo = ctx.relpath.endswith(tuple(opts.get("redo_owners", ())))
        may_roll_back = ctx.relpath.endswith(tuple(opts.get("rollback_owners", ())))
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            callee = (dotted_name(func) or "").rsplit(".", 1)[-1]
            if isinstance(func, ast.Attribute) and func.attr == "redo" and not may_redo:
                self.report(
                    ctx,
                    node,
                    "a second redo loop: hand the records to "
                    "RedoApplier.apply instead of calling .redo() on them",
                )
            elif callee == "RecoveredTransaction" and not may_roll_back:
                self.report(
                    ctx,
                    node,
                    "a second loser-rollback loop: pass the analysis "
                    "result's losers to repro.txn.undo.rollback_losers",
                )
