"""``PreparePageAsOf`` — the paper's core primitive (section 4).

Given the content of a page and a target LSN, walk the page's
modification chain backwards (``pageLSN`` → each record's
``prevPageLSN``), applying each record's exact physical inverse, until the
page's state is as of the target. Pages are undone independently of each
other — the property that makes the whole scheme's cost proportional to
the data actually accessed.

When periodic full page images are logged (section 6.1), the image chain
(``lastImageLSN`` → each image's ``prevImageLSN``) is walked first: the
earliest image past the target is applied and only the few modifications
between the target and that image are undone, skipping whole regions of
the log.

The paper's own measurements (Figure 11, section 6) put the cost of this
walk at one random log read per chain record the log block cache does
not already hold — the term that dominates as-of query latency on
high-latency media. :func:`prepare_page_version` is that walk, once:
every record comes through
:meth:`~repro.wal.log_manager.LogManager.undo_fetch`, so a log block
holding several records of one chain is read once and hit in the cache
for the rest.

The walk itself proves for which SplitLSNs the prepared image is
byte-identical: every split in ``[version_lsn, limit_lsn)`` (the page's
LSN after the rewind, and the first chain record above the target)
yields the same bytes. The returned :class:`PreparedVersion` is what the
cross-snapshot :class:`~repro.core.version_store.PageVersionStore` keys
on, so nearby as-of reads skip the walk entirely.

The page handed in need not be the current one: any image of the page
as of its pageLSN will do, since the walk starts from that LSN. On a
store miss the caller hands in the store's nearest newer version when
there is one, and the walk undoes only the records between the target
and that version. The walk also reports the records it undid
(:attr:`PreparedVersion.chain`): they are every modification of the page
between its prepared state and where the walk started.

That list makes the walk runnable the other way. When the store holds an
*older* version of the page whose chain reaches past the target,
:func:`roll_page_forward` redoes the chain's records up to the target
onto that image, the per-page, nearest-image REDO of Sauer & Härder that
a restore runs from a backup image. The records go through the engine's
one redo loop (:class:`~repro.wal.apply.RedoApplier`), fetched the way
the walk fetches them.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from repro.config import SimEnv
from repro.errors import MissingUndoInfoError, StorageError
from repro.storage.page import Page
from repro.wal.apply import RedoApplier
from repro.wal.log_manager import LogManager
from repro.wal.lsn import NULL_LSN, format_lsn
from repro.wal.records import PageImageRecord


@dataclass(frozen=True)
class PreparedVersion:
    """Validity interval of a prepared page image.

    ``version_lsn`` is the page's LSN in the prepared state (the last
    modification at or below the target). ``limit_lsn`` is the first
    chain record *above* the target — the modification that ends the
    interval — or ``None`` when the walk proved no modification above the
    target exists in the page's current state (the image is then valid
    for every split up to the log position current when it was taken).
    Preparing the page for any SplitLSN inside
    ``[version_lsn, limit_lsn)`` produces byte-identical content, which is
    the reuse invariant the cross-snapshot version store relies on.

    ``chain`` is the LSNs of the page's records the walk proved above
    ``version_lsn``, ascending and contiguous on the page's chain, so
    ``chain[0] == limit_lsn`` when it is not empty. Redoing them in order
    onto the prepared image gives the page as of each of them.
    """

    version_lsn: int
    limit_lsn: int | None
    chain: array


def prepare_page_version(
    page: Page,
    asof_lsn: int,
    log: LogManager,
    env: SimEnv,
    *,
    fetch=None,
) -> PreparedVersion | None:
    """Rewind ``page`` (in place) to ``asof_lsn`` and report the validity
    interval: the paper's ``PreparePageAsOf(page, asOfLSN)``.

    The paper's Figure 3 loop, plus the image fast path: fetch the record
    at the page's LSN, apply its inverse, follow ``prevPageLSN`` — one
    block-cached log read per record (Figure 11's access pattern).
    Returns ``None`` for a page with no chain to walk (unformatted, no
    LSN). Raises
    :class:`~repro.errors.LogTruncatedError` when the chain leaves the
    retention window and :class:`~repro.errors.MissingUndoInfoError` when
    a record on the path cannot be inverted (a re-allocation logged
    without its preformat image). ``fetch`` (``lsn -> LogRecord``, by default
    ``log.undo_fetch``) lets a caller serve records it already holds.
    """
    env.stats.pages_prepared_asof += 1
    fetch = fetch or log.undo_fetch
    current = page.page_lsn
    if current == NULL_LSN and not page.is_formatted():
        return None
    limit: int | None = None
    undone = array("Q")

    if page.last_image_lsn > asof_lsn and current > asof_lsn:
        best = _earliest_image_after(page, asof_lsn, log)
        if best is not None and best.lsn < current:
            page.restore(best.image)
            env.stats.undo_images_applied += 1
            # The image record sits on the chain above the target; until
            # the loop below finds an earlier boundary, it ends the
            # interval. Redoing it restores the image, so the chain the
            # walk proves ends there.
            limit = best.lsn
            undone.append(limit)
            current = best.prev_page_lsn

    while current > asof_lsn:
        rec = fetch(current)
        env.charge_cpu(env.cost.undo_record_cpu_s)
        _apply_inverse(rec, page, fetch, current)
        env.stats.undo_records_applied += 1
        limit = current
        undone.append(limit)
        current = rec.prev_page_lsn

    if page.is_formatted():
        page.page_lsn = current
    undone.reverse()
    return PreparedVersion(version_lsn=current, limit_lsn=limit, chain=undone)


def roll_page_forward(
    page: Page,
    chain: array,
    count: int,
    log: LogManager,
    env: SimEnv,
) -> PreparedVersion:
    """Redo ``chain[:count]`` onto ``page`` (in place), an image of the page
    as of the LSN just below ``chain[0]``; returns the prepared interval
    ``[chain[count - 1], chain[count])``, which keeps the rest of the chain.

    The forward twin of :func:`prepare_page_version`: each record comes
    through :meth:`~repro.wal.log_manager.LogManager.undo_fetch` (the same
    block-cached reads, counted as undo-path accesses) and is applied by
    :class:`~repro.wal.apply.RedoApplier`, which charges
    ``redo_record_cpu_s`` where the walk charges ``undo_record_cpu_s``.
    ``count`` must leave at least one record of ``chain`` above it. Raises
    :class:`~repro.errors.LogTruncatedError`, before touching ``page``,
    when one of the records has left the log.
    """
    fetch = log.undo_fetch
    records = [fetch(lsn) for lsn in chain[:count]]
    env.stats.pages_prepared_asof += 1
    env.stats.asof_records_redone += RedoApplier(_PageInHand(page, env)).apply(records)
    return PreparedVersion(
        version_lsn=chain[count - 1], limit_lsn=chain[count], chain=chain[count:]
    )


class _PageInHand:
    """Redo target and guard for one page already in memory: every fetch
    is that page, since a page's chain names no other."""

    __slots__ = ("page", "env")

    def __init__(self, page: Page, env: SimEnv) -> None:
        self.page = page
        self.env = env

    def fetch_page(self, page_id: int, create: bool = False) -> "_PageInHand":
        return self

    def mark_dirty(self) -> None:
        """Nothing to write back: the caller owns the page."""

    def __enter__(self) -> "_PageInHand":
        return self

    def __exit__(self, *exc) -> None:
        return None


def _apply_inverse(rec, page: Page, fetch, lsn: int) -> None:
    """Apply one record's physical inverse, naming broken chains."""
    try:
        rec.physical_undo(page, fetch)
    except StorageError as exc:
        # A physical inverse applied to an unformatted page means the
        # chain crossed an in-place format with no preformat record —
        # the paper's Figure 1 broken-chain scenario.
        raise MissingUndoInfoError(
            f"page {rec.page_id}: chain broken at {format_lsn(lsn)} "
            f"({exc})"
        ) from exc


def _earliest_image_after(page: Page, asof_lsn: int, log: LogManager) -> PageImageRecord | None:
    """Walk the image chain back to the first image past ``asof_lsn``."""
    best: PageImageRecord | None = None
    image_lsn = page.last_image_lsn
    while image_lsn > asof_lsn and image_lsn != NULL_LSN:
        rec = log.undo_fetch(image_lsn)
        if not isinstance(rec, PageImageRecord):
            raise MissingUndoInfoError(
                f"page {page.page_id}: image chain hit "
                f"{type(rec).__name__} at {format_lsn(image_lsn)}"
            )
        best = rec
        image_lsn = rec.prev_image_lsn
    return best
