"""Regular database snapshots: copy-on-write as of creation time.

This is SQL Server's pre-existing snapshot feature (paper section 2.2),
implemented as a degenerate as-of snapshot whose SplitLSN is "now":

* At creation the primary is checkpointed and a copy-on-write hook is
  registered: the first time any page is modified after creation, its
  current content is pushed to the snapshot's sparse file.
* A page miss on the snapshot therefore reads either the pushed pre-image
  or a primary page that was never modified since the split — in both
  cases ``PreparePageAsOf`` finds ``pageLSN ≤ SplitLSN`` and undoes
  nothing.

Keeping both snapshot flavors on one code path makes the paper's
related-work contrast (proactive copy-on-write versus on-demand log-based
undo, section 7.1) directly measurable: the ablation benchmark compares
the write amplification of the COW hook against the extra logging of the
as-of scheme.
"""

from __future__ import annotations

from repro.core.asof import AsOfSnapshot
from repro.storage.page import Page


class RegularSnapshot(AsOfSnapshot):
    """Copy-on-write snapshot as of its creation instant."""

    _hook_installed = False

    @classmethod
    def create_now(cls, db, name: str) -> "RegularSnapshot":
        """Create a snapshot of the current committed state."""
        db.checkpoint()
        split = max(db.log.end_lsn - 1, db.log.start_lsn)
        snap = cls.recover_at(db, name, split)
        snap._install_hook()
        return snap

    def _install_hook(self) -> None:
        if self._hook_installed:
            return
        self.db.modifier.cow_hooks.append(self._cow_push)
        self._hook_installed = True

    def _cow_push(self, page: Page) -> None:
        """Push the pre-modification image on first write (copy-on-write)."""
        if self.dropped:
            return
        if not page.is_formatted():
            return
        page_id = page.page_id
        if page_id in self.sparse:
            return
        if page.page_lsn > self.split_lsn:
            # Already newer than the snapshot (e.g. written while the hook
            # was being installed); the undo path would handle it anyway.
            return
        self.sparse.write(page_id, bytes(page.data))

    def cow_pushed_pages(self) -> int:
        """Pages pushed proactively (the overhead section 7.1 criticizes)."""
        return self.sparse.page_count

    def drop(self) -> None:
        if self._hook_installed:
            try:
                self.db.modifier.cow_hooks.remove(self._cow_push)
            except ValueError:
                pass
            self._hook_installed = False
        super().drop()
