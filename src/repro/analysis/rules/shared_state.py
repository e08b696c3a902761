"""RL005 — shared-state discipline.

The engine shares mutable structures across every session and standby:
the snapshot pool, the page version store, buffer-pool frames, the log
tail, retention pins, the archive's segment maps. Today the engine is
single-threaded; ROADMAP item 1 puts latches around these structures,
and this rule is the lint-side half of that contract. A registered
shared attribute may be mutated only

1. inside its owning module (the class's own methods), or
2. under a declared guard — lexically within ``with x.latch:`` /
   ``with x.lock:`` (or their underscore forms).

Entries flagged ``"latch": True`` are **strict**: the structure has its
latch now, so rule 1 no longer applies — every mutation, owner module
included, must sit lexically under the guard. The one exemption is the
constructor (``__init__`` / ``__new__`` assigning on ``self``): the
object is not yet reachable by other sessions there, and demanding a
self-latch before the latch attribute exists would be circular.

Everything else must go through a public method of the owner, which is
exactly the surface the latching refactor serializes. The registry
lives in :data:`repro.analysis.config.SHARED_STATE_REGISTRY`; flip an
entry to strict as its structure grows a latch.
"""

from __future__ import annotations

import ast

from repro.analysis.framework import Rule, ancestors, dotted_name, register

#: Method calls that mutate their receiver (``x._hints.clear()``).
_MUTATORS = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "clear",
        "discard",
        "extend",
        "insert",
        "move_to_end",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "setdefault",
        "update",
    }
)


def _owned_here(relpath: str, owners: tuple[str, ...]) -> bool:
    path = relpath.replace("\\", "/")
    return any(path.endswith(owner) for owner in owners)


def _receiver_repr(expr: ast.expr) -> str:
    return dotted_name(expr) or "<expr>"


@register
class SharedStateDiscipline(Rule):
    id = "RL005"
    name = "shared-state-discipline"
    invariant = (
        "Engine-shared structures are mutated only by their owning "
        "module or under a declared guard (with x.latch:) — the "
        "lint-side contract for the concurrent-engine latching work."
    )

    def check(self, ctx) -> None:
        options = ctx.config.rule(self.id).options
        attr_owners = {
            entry["attr"]: entry["owners"]
            for entry in options.get("shared_state", ())
        }
        strict = frozenset(
            entry["attr"]
            for entry in options.get("shared_state", ())
            if entry.get("latch")
        )
        # A structure with methods of its own names the ones that mutate.
        mutators = {
            entry["attr"]: _MUTATORS | frozenset(entry.get("mutators", ()))
            for entry in options.get("shared_state", ())
        }
        method_owners = {
            entry["method"]: entry["owners"]
            for entry in options.get("shared_methods", ())
        }
        guards = options.get("guard_names", frozenset())
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    self._check_target(
                        ctx, node, target, attr_owners, strict, guards
                    )
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                self._check_target(
                    ctx, node, node.target, attr_owners, strict, guards
                )
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    self._check_target(
                        ctx, node, target, attr_owners, strict, guards
                    )
            elif isinstance(node, ast.Call):
                self._check_call(
                    ctx, node, attr_owners, strict, mutators, method_owners, guards
                )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _shared_attr(self, expr: ast.expr, attr_owners) -> ast.Attribute | None:
        """The registered shared attribute an assignment target touches.

        Handles ``x.attr = ...``, ``x.attr[k] = ...`` and ``del`` forms.
        """
        node = expr
        while isinstance(node, ast.Subscript):
            node = node.value
        if isinstance(node, ast.Attribute) and node.attr in attr_owners:
            return node
        return None

    def _under_guard(self, node: ast.AST, guards) -> bool:
        for anc in ancestors(node):
            if isinstance(anc, (ast.With, ast.AsyncWith)):
                for item in anc.items:
                    expr = item.context_expr
                    if isinstance(expr, ast.Call):
                        expr = expr.func
                    if isinstance(expr, ast.Attribute) and expr.attr in guards:
                        return True
                    if isinstance(expr, ast.Name) and expr.id in guards:
                        return True
        return False

    def _in_ctor_on_self(self, node: ast.AST, attr: ast.Attribute) -> bool:
        """Is this a ``self.attr = ...`` inside ``__init__``/``__new__``?

        Constructor assignments predate sharing (no other session can
        reach the object yet), so strict entries exempt them.
        """
        if dotted_name(attr.value) != "self":
            return False
        for anc in ancestors(node):
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return anc.name in ("__init__", "__new__")
        return False

    def _flag(self, ctx, node, attr: ast.Attribute, owners, what: str) -> None:
        receiver = _receiver_repr(attr.value)
        owner_list = ", ".join(owners)
        self.report(
            ctx,
            node,
            f"{what} of shared state {receiver}.{attr.attr!s} outside its "
            f"owning module ({owner_list}) and outside a declared guard; "
            f"go through a public method of the owner",
        )

    def _flag_strict(
        self, ctx, node, attr: ast.Attribute, what: str
    ) -> None:
        receiver = _receiver_repr(attr.value)
        self.report(
            ctx,
            node,
            f"{what} of latched shared state {receiver}.{attr.attr!s} "
            f"outside a declared guard; hold the structure's latch "
            f"(with x.latch:) around the mutation",
        )

    # ------------------------------------------------------------------
    # Checks
    # ------------------------------------------------------------------

    def _check_target(
        self, ctx, node, target, attr_owners, strict, guards
    ) -> None:
        attr = self._shared_attr(target, attr_owners)
        if attr is None:
            return
        owners = attr_owners[attr.attr]
        if self._under_guard(node, guards):
            return
        if attr.attr in strict:
            if not self._in_ctor_on_self(node, attr):
                self._flag_strict(ctx, node, attr, "mutation")
            return
        if _owned_here(ctx.relpath, owners):
            return
        self._flag(ctx, node, attr, owners, "mutation")

    def _check_call(
        self, ctx, node, attr_owners, strict, mutators, method_owners, guards
    ) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        # x.<shared_attr>.append(...) and friends.
        if (
            isinstance(func.value, ast.Attribute)
            and func.value.attr in attr_owners
            and func.attr in mutators[func.value.attr]
        ):
            owners = attr_owners[func.value.attr]
            if self._under_guard(node, guards):
                return
            if func.value.attr in strict:
                self._flag_strict(ctx, node, func.value, "mutating call")
                return
            if not _owned_here(ctx.relpath, owners):
                self._flag(ctx, node, func.value, owners, "mutating call")
            return
        # x._private_method(...) on a registered shared structure.
        if func.attr in method_owners:
            receiver = func.value
            if isinstance(receiver, ast.Name) and receiver.id in ("self", "cls"):
                return
            owners = method_owners[func.attr]
            if _owned_here(ctx.relpath, owners) or self._under_guard(node, guards):
                return
            self.report(
                ctx,
                node,
                f"cross-object call of private {func.attr!r} (owned by "
                f"{', '.join(owners)}); use the owner's public API",
            )
