"""RL002 — priced-I/O discipline.

The paper's cost figures (7–11) are only honest if *every* byte the
engine moves is charged to a simulated device. Inside the priced scope
(``core/``, ``wal/``, ``storage/``, ``archive/``) raw host I/O —
``open``, ``os.read``, directory walks — bypasses the cost model; the
one sanctioned boundary to the real filesystem is
:mod:`repro.sim.hostio`, whose caller (the archive's ``.seg``
persistence) charges its device separately.

The second half: chain-walk code must not read raw log bytes
(``read_bytes``) — every chain record comes through ``undo_fetch``, the
block-cached read that counts as an undo access, so the Figure 11
counters stay meaningful.
"""

from __future__ import annotations

import ast
from fnmatch import fnmatch

from repro.analysis.framework import Rule, register, resolve_call


@register
class PricedIoDiscipline(Rule):
    id = "RL002"
    name = "priced-io-discipline"
    invariant = (
        "Inside core/wal/storage/archive every byte moves through "
        "SimDevice-priced APIs; raw host I/O lives only in "
        "repro.sim.hostio, and chain walks read the log through undo_fetch."
    )

    def check(self, ctx) -> None:
        options = ctx.config.rule(self.id).options
        banned = options.get("banned_calls", frozenset())
        walk_modules = options.get("chain_walk_modules", ())
        walk_banned = options.get("chain_walk_banned_methods", frozenset())
        in_chain_walk_scope = any(
            fnmatch(ctx.relpath, pattern) for pattern in walk_modules
        )
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = resolve_call(node, ctx.imports)
            if target in banned:
                self.report(
                    ctx,
                    node,
                    f"raw host I/O call {target!r} inside the priced-I/O "
                    f"scope; move bytes through SimDevice/FileManager/"
                    f"LogManager, or route host access via repro.sim.hostio",
                )
            elif (
                in_chain_walk_scope
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in walk_banned
            ):
                self.report(
                    ctx,
                    node,
                    f"raw {node.func.attr!r} in chain-walk code; fetch chain "
                    f"records through undo_fetch",
                )
