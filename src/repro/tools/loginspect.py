"""Transaction log inspection.

``page_history`` walks a page's ``prevPageLSN`` back-chain — the exact
structure of the paper's Figures 1 and 2, including the preformat splice
across re-allocations. ``transaction_history`` walks a transaction's
chain; ``dump_log`` and ``log_statistics`` summarize the stream.

Archived log segments (the shipper's frame format, persisted by the
archive tier) are inspectable too: :func:`dump_archived_segment` decodes
one encoded frame, :func:`dump_archive` walks a store or a directory of
``.seg`` files, and the module doubles as a CLI::

    python -m repro.tools.loginspect --archive <file-or-dir> [--limit N]
    python -m repro.tools.loginspect --archive <file-or-dir> --chains

``--chains`` (and the :func:`chain_stats` API on a live database) answers
the capacity question behind Figure 11: how long are the per-page
back-chains, and what would preparing each page cost? The live-database
walk follows ``prevPageLSN`` through one header scan of the retained log
and prices ``PreparePageAsOf``'s access pattern: one random read per log
block a page's chain touches.
"""

from __future__ import annotations

import os
from collections import Counter

from repro.errors import LogTruncatedError
from repro.wal.lsn import NULL_LSN, format_lsn
from repro.wal.records import (
    BeginRecord,
    CheckpointBeginRecord,
    ClrRecord,
    CommitRecord,
    DeleteRowRecord,
    InsertRowRecord,
    LogRecord,
    PageImageRecord,
    PreformatPageRecord,
    UpdateRowRecord,
    decode_record,
    walk_headers,
)


def describe_record(rec: LogRecord) -> str:
    """One-line human-readable rendering of a log record."""
    name = type(rec).__name__.replace("Record", "")
    parts = [f"{format_lsn(rec.lsn)} {name}"]
    if rec.txn_id:
        parts.append(f"txn={rec.txn_id}")
    if rec.IS_PAGE_MOD:
        parts.append(f"page={rec.page_id}")
        parts.append(f"prev_page={format_lsn(rec.prev_page_lsn)}")
    if rec.object_id:
        parts.append(f"obj={rec.object_id}")
    if isinstance(rec, CommitRecord):
        parts.append(f"wall={rec.wall_clock:.3f}")
    elif isinstance(rec, CheckpointBeginRecord):
        parts.append(f"wall={rec.wall_clock:.3f}")
        parts.append(f"active={len(rec.active_txns)}")
    elif isinstance(rec, InsertRowRecord):
        parts.append(f"slot={rec.slot}")
        parts.append(f"bytes={len(rec.row)}")
    elif isinstance(rec, DeleteRowRecord):
        parts.append(f"slot={rec.slot}")
        parts.append("row=inline" if rec.row is not None else f"pair={format_lsn(rec.pair_lsn)}")
    elif isinstance(rec, UpdateRowRecord):
        parts.append(f"slot={rec.slot}")
        parts.append(f"new={len(rec.new)}B")
    elif isinstance(rec, ClrRecord):
        parts.append(f"compensates={format_lsn(rec.compensated_lsn)}")
        parts.append(f"undo_next={format_lsn(rec.undo_next_lsn)}")
        parts.append(f"comp={type(rec.comp).__name__.replace('Record', '')}")
    elif isinstance(rec, (PageImageRecord, PreformatPageRecord)):
        parts.append(f"image={len(rec.image)}B")
    if rec.is_smo:
        parts.append("SMO")
    if rec.is_heap:
        parts.append("HEAP")
    return " ".join(parts)


def dump_log(db, from_lsn: int | None = None, limit: int = 100) -> list[str]:
    """Describe up to ``limit`` records starting at ``from_lsn``."""
    start = from_lsn if from_lsn is not None else db.log.start_lsn
    lines = []
    for rec in db.log.scan(start, stop_on_torn_tail=True):
        lines.append(describe_record(rec))
        if len(lines) >= limit:
            break
    return lines


def page_history(db, page_id: int, *, max_records: int = 1000) -> list[LogRecord]:
    """The page's modification chain, newest first (paper Figures 1/2).

    Starts at the page's current ``pageLSN`` and follows ``prevPageLSN``
    through preformat splices until the chain starts (or leaves the
    retained log, in which case the walk stops silently).
    """
    with db.fetch_page(page_id) as guard:
        current = guard.page.page_lsn if guard.page.is_formatted() else NULL_LSN
    chain = []
    while current != NULL_LSN and len(chain) < max_records:
        try:
            rec = db.log.read(current)
        except LogTruncatedError:
            break
        chain.append(rec)
        current = rec.prev_page_lsn
    return chain


def transaction_history(db, txn_id: int, *, max_records: int = 1000) -> list[LogRecord]:
    """A transaction's records, newest first (rollbacks included)."""
    last = NULL_LSN
    for header, _raw in db.log.scan_headers(db.log.start_lsn, stop_on_torn_tail=True):
        if header.txn_id == txn_id:
            last = header.lsn
    chain = []
    current = last
    while current != NULL_LSN and len(chain) < max_records:
        rec = db.log.read(current)
        chain.append(rec)
        if isinstance(rec, BeginRecord):
            break
        current = rec.prev_txn_lsn
    return chain


_CHAIN_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128)


def _bucket_label(length: int) -> str:
    lo = 0
    for edge in _CHAIN_BUCKETS:
        if length < edge:
            return str(lo) if lo == edge - 1 else f"{lo}-{edge - 1}"
        lo = edge
    return f"{_CHAIN_BUCKETS[-1]}+"


def chain_stats(db, *, split_lsn: int | None = None, max_pages: int | None = None) -> dict:
    """Per-page back-chain lengths and estimated prepare cost.

    Follows every allocated page's ``prevPageLSN`` chain — down to
    ``split_lsn`` when given (the records an as-of read at that split
    would undo), otherwise to the start of the retained log — through
    one header scan of the log, priced as any scan is. Returns a
    histogram of chain lengths plus, per the log-device profile, the
    estimated cost of preparing *every* page from a cold log cache: one
    random block read per log block its chain touches (the paper's
    Figure 11 cost).
    """
    log = db.log
    profile = db.env.log_device.profile
    target = log.start_lsn - 1 if split_lsn is None else split_lsn
    prev_page_lsn = {
        header.lsn: header.prev_page_lsn
        for header, _raw in log.scan_headers(log.start_lsn, stop_on_torn_tail=True)
        if header.lsn > target
    }
    histogram: Counter = Counter()
    lengths: list[int] = []
    total_records = 0
    undo_reads = 0
    truncated_chains = 0
    pages_scanned = 0
    # Dirty pages not yet checkpointed exist only in the buffer pool, so
    # the scan covers the file extent *and* every buffered page id.
    page_extent = db.file_manager.page_count
    buffered = getattr(db.buffer, "_frames", None)
    if buffered:
        page_extent = max(page_extent, max(buffered) + 1)
    for page_id in range(page_extent):
        if max_pages is not None and pages_scanned >= max_pages:
            break
        with db.fetch_page(page_id) as guard:
            if not guard.page.is_formatted():
                continue
            current = guard.page.page_lsn
        pages_scanned += 1
        length = 0
        blocks: set[int] = set()
        while current != NULL_LSN and current > target:
            if current not in prev_page_lsn:
                truncated_chains += 1  # the chain left the retained log
                break
            length += 1
            blocks.add(current // log.block_size)
            current = prev_page_lsn[current]
        histogram[_bucket_label(length)] += 1
        lengths.append(length)
        total_records += length
        undo_reads += len(blocks)
    lengths.sort()
    return {
        "pages_scanned": pages_scanned,
        "split_lsn": split_lsn,
        "histogram": dict(histogram),
        "total_chain_records": total_records,
        "max_chain": lengths[-1] if lengths else 0,
        "median_chain": lengths[len(lengths) // 2] if lengths else 0,
        "truncated_chains": truncated_chains,
        "undo_reads": undo_reads,
        "est_prepare_s": undo_reads * profile.rand_read_time(log.block_size),
    }


def _render_histogram(histogram: dict[str, int]) -> list[str]:
    lines = []
    width = max((len(label) for label in histogram), default=1)
    for label in sorted(histogram, key=lambda item: int(item.split("-")[0].rstrip("+"))):
        count = histogram[label]
        bar = "#" * min(count, 60)
        lines.append(f"  {label.rjust(width)} | {str(count).rjust(6)} {bar}")
    return lines


def chain_report(db, *, split_lsn: int | None = None, max_pages: int | None = None) -> list[str]:
    """Human-readable rendering of :func:`chain_stats`."""
    stats = chain_stats(db, split_lsn=split_lsn, max_pages=max_pages)
    lines = [
        "per-page back-chain lengths"
        + ("" if split_lsn is None else f" above split {format_lsn(split_lsn)}")
    ]
    lines.extend(_render_histogram(stats["histogram"]))
    lines.append(
        f"  pages={stats['pages_scanned']} "
        f"chain-records={stats['total_chain_records']} "
        f"median={stats['median_chain']} max={stats['max_chain']}"
    )
    lines.append(
        f"  est prepare cost: {stats['undo_reads']} undo reads "
        f"({stats['est_prepare_s'] * 1000:.1f} ms)"
    )
    return lines


def _frame_records(frame):
    """Every record of a decoded archived frame, CRC-verified, in LSN
    order; a broken stream raises from the record it breaks at."""
    for header in walk_headers(frame.payload, base_lsn=frame.start_lsn):
        yield decode_record(frame.payload, header.lsn - frame.start_lsn, header.lsn)[0]


def _collect_segments(source, db_name: str | None) -> list[tuple[str, bytes]]:
    """``(label, blob)`` for every segment of ``source``, in LSN order.

    ``source`` may be an ArchiveStore, a ``.seg`` file path, or a
    directory of them; the label is the file name (path mode) or the
    database name (store mode), for use in diagnostics.
    """
    out: list[tuple[str, bytes]] = []
    if isinstance(source, (str, os.PathLike)):
        path = os.fspath(source)
        paths = (
            sorted(
                os.path.join(path, name)
                for name in os.listdir(path)
                if _segment_file_matches(name, db_name)
            )
            if os.path.isdir(path)
            else [path]
        )
        for seg_path in paths:
            with open(seg_path, "rb") as fh:
                out.append((os.path.basename(seg_path), fh.read()))
    else:
        names = [db_name] if db_name is not None else source.database_names()
        for name in names:
            out.extend((name, seg.blob) for seg in source.segments(name))
    return out


def archive_chain_report(source, db_name: str | None = None) -> list[str]:
    """Per-page chain-length histogram over *archived* segments.

    An archive has no page state to walk back from, but every page
    modification record it holds is one link of some page's chain — so
    grouping the archived records by page id reproduces the chain-length
    distribution over the archived window (what an as-of read landing at
    the window's start would have to undo per page).
    """
    from repro.replication.stream import LogFrame

    blobs = [blob for _label, blob in _collect_segments(source, db_name)]
    lengths: dict[int, int] = {}
    for blob in blobs:
        for record in _frame_records(LogFrame.decode(blob)):
            if record.IS_PAGE_MOD:
                lengths[record.page_id] = lengths.get(record.page_id, 0) + 1
    histogram: Counter = Counter()
    for length in lengths.values():
        histogram[_bucket_label(length)] += 1
    lines = ["per-page modification-chain lengths over archived segments"]
    lines.extend(_render_histogram(histogram))
    lines.append(
        f"  pages={len(lengths)} chain-records={sum(lengths.values())}"
    )
    return lines


def dump_archived_segment(blob: bytes, *, limit: int | None = None) -> list[str]:
    """Describe one encoded archived log segment (a shipped frame).

    The first line summarizes the frame (LSN extent, ship time); the rest
    describe its records with the same rendering ``dump_log`` uses.
    """
    from repro.replication.stream import LogFrame

    frame = LogFrame.decode(blob)
    lines = [
        f"segment [{format_lsn(frame.start_lsn)}, {format_lsn(frame.end_lsn)}) "
        f"{len(frame.payload)}B shipped at {frame.ship_wall:.3f}s"
    ]
    for record in _frame_records(frame):
        lines.append("  " + describe_record(record))
        if limit is not None and len(lines) > limit:
            lines.append("  ...")
            break
    return lines


def _segment_file_matches(name: str, db_name: str | None) -> bool:
    """Does ``name`` look like ``<db>-<16 hex>-<16 hex>.seg`` (for the
    requested database)? A bare prefix test would let ``shop`` swallow
    ``shop-eu``'s segments."""
    if not name.endswith(".seg"):
        return False
    parts = name[: -len(".seg")].rsplit("-", 2)
    if len(parts) != 3 or not all(len(p) == 16 for p in parts[1:]):
        return False
    try:
        int(parts[1], 16)
        int(parts[2], 16)
    except ValueError:
        return False
    return db_name is None or parts[0] == db_name


def dump_archive(source, db_name: str | None = None, *, limit: int = 100) -> list[str]:
    """Describe archived segments from an ArchiveStore, a ``.seg`` file,
    or a directory of them; at most ``limit`` record lines overall."""
    lines: list[str] = []
    for _label, blob in _collect_segments(source, db_name):
        remaining = limit - len(lines)
        if remaining <= 0:
            lines.append("...")
            break
        lines.extend(dump_archived_segment(blob, limit=remaining))
    return lines


def archive_metrics_report(source, db_name: str | None = None) -> list[str]:
    """Offline cursor gauges recovered from archived segments alone.

    With only an archive directory (no live engine) the observable facts
    are each database's archived extent and volume: where the durable
    archive cursor stands (``archived_lsn``), where coverage starts, and
    how many segments/bytes the store holds. The names mirror the live
    ``archive.<db>.*`` instruments so dashboards can read either source.
    """
    from repro.replication.stream import LogFrame

    per_db: dict[str, dict] = {}
    for label, blob in _collect_segments(source, db_name):
        frame = LogFrame.decode(blob)
        db_key = label.rsplit("-", 2)[0]
        entry = per_db.setdefault(
            db_key, {"segments": 0, "bytes": 0, "start": None, "end": None}
        )
        entry["segments"] += 1
        entry["bytes"] += len(frame.payload)
        if entry["start"] is None or frame.start_lsn < entry["start"]:
            entry["start"] = frame.start_lsn
        if entry["end"] is None or frame.end_lsn > entry["end"]:
            entry["end"] = frame.end_lsn
    lines = []
    for db_key in sorted(per_db):
        entry = per_db[db_key]
        lines.append(f"archive.{db_key}.archived_lsn = {entry['end']}")
        lines.append(f"archive.{db_key}.coverage_start_lsn = {entry['start']}")
        lines.append(f"archive.{db_key}.segments_archived = {entry['segments']}")
        lines.append(f"archive.{db_key}.bytes_archived = {entry['bytes']}")
    return lines


def lint_log_segments(source, db_name: str | None = None):
    """Integrity micro-check over archived log segments.

    Verifies what the analyzer's source rules cannot: the *artifacts*.
    Every segment must decode (magic, length, CRC — ``LOG001``), its
    records must exactly tile the payload (``LOG002``), and segment
    extents must be LSN-monotonic with no overlap or gap (``LOG003``).
    Returns :class:`repro.analysis.findings.Finding` objects so the
    reprolint reporters render them.
    """
    from repro.analysis.findings import Finding
    from repro.errors import ReproError
    from repro.replication.stream import LogFrame

    findings = []
    prev_end: dict[str, tuple[str, int]] = {}
    for index, (label, blob) in enumerate(_collect_segments(source, db_name)):
        try:
            frame = LogFrame.decode(blob)
        except ReproError as err:
            findings.append(
                Finding(label, index, 0, "LOG001", f"undecodable segment: {err}")
            )
            continue
        db_key = label.rsplit("-", 2)[0]
        offset = 0  # of the record being checked: where a break is reported
        try:
            for header in walk_headers(frame.payload, base_lsn=frame.start_lsn):
                decode_record(frame.payload, offset, header.lsn)
                offset += header.total
        except (ReproError, ValueError) as err:
            findings.append(
                Finding(
                    label,
                    index,
                    offset,
                    "LOG002",
                    f"record stream broken at "
                    f"{format_lsn(frame.start_lsn + offset)}: {err}",
                )
            )
        previous = prev_end.get(db_key)
        if previous is not None:
            prev_label, end_lsn = previous
            if frame.start_lsn != end_lsn:
                kind = "overlaps" if frame.start_lsn < end_lsn else "leaves a gap after"
                findings.append(
                    Finding(
                        label,
                        index,
                        0,
                        "LOG003",
                        f"segment starts at {format_lsn(frame.start_lsn)} but "
                        f"{kind} {prev_label} ending at {format_lsn(end_lsn)}",
                    )
                )
        prev_end[db_key] = (label, frame.end_lsn)
    return findings


def main(argv=None) -> int:
    """CLI entry point (``python -m repro.tools.loginspect``)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="loginspect",
        description="Inspect archived transaction-log segments.",
    )
    parser.add_argument(
        "--archive",
        metavar="PATH",
        required=True,
        help="an archived .seg file, or a directory of them",
    )
    parser.add_argument(
        "--db",
        metavar="NAME",
        default=None,
        help="only segments of this database (directory mode)",
    )
    parser.add_argument(
        "--limit",
        type=int,
        default=100,
        help="maximum record lines to print (default 100)",
    )
    parser.add_argument(
        "--chains",
        action="store_true",
        help="histogram of per-page modification-chain lengths instead "
        "of a record dump (estimates as-of prepare cost)",
    )
    parser.add_argument(
        "--lint-log",
        action="store_true",
        help="integrity check instead of a dump: segments must decode "
        "CRC-clean, tile into records, and be LSN-monotonic; exits 1 "
        "on findings",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="per-database archive cursor gauges (archived_lsn, coverage "
        "start, segment/byte volume) instead of a record dump",
    )
    args = parser.parse_args(argv)
    if args.metrics:
        for line in archive_metrics_report(args.archive, args.db):
            print(line)
        return 0
    if args.lint_log:
        from repro.analysis.reporters import render_text

        findings = lint_log_segments(args.archive, args.db)
        for line in render_text(findings, baselined=()):
            print(line)
        noun = "finding" if len(findings) == 1 else "findings"
        print(f"loginspect --lint-log: {len(findings)} {noun}")
        return 1 if findings else 0
    if args.chains:
        lines = archive_chain_report(args.archive, args.db)
    else:
        lines = dump_archive(args.archive, args.db, limit=args.limit)
    for line in lines:
        print(line)
    return 0


def log_statistics(db) -> dict:
    """Counts and byte totals per record type over the retained log."""
    counts: Counter = Counter()
    sizes: Counter = Counter()
    total = 0
    for rec in db.log.scan(db.log.start_lsn, stop_on_torn_tail=True):
        name = type(rec).__name__.replace("Record", "")
        size = len(rec.serialize())
        counts[name] += 1
        sizes[name] += size
        total += size
    return {
        "records": dict(counts),
        "bytes": dict(sizes),
        "total_records": sum(counts.values()),
        "total_bytes": total,
        "retained_from": db.log.start_lsn,
        "end_lsn": db.log.end_lsn,
    }


if __name__ == "__main__":  # pragma: no cover - thin CLI shim
    import sys

    sys.exit(main())
