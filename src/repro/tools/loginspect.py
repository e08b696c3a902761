"""Transaction log inspection.

``transaction_history`` walks a live database's transaction chain, and
``describe_record`` renders one record on one line.

Archived log segments (the shipper's frame format, persisted by the
archive tier) are inspectable too: :func:`dump_archived_segment` decodes
one encoded frame, :func:`dump_archive` walks a store or a directory of
``.seg`` files, and the module doubles as a CLI::

    python -m repro.tools.loginspect --archive <file-or-dir> [--limit N]
    python -m repro.tools.loginspect --archive <file-or-dir> --chains
    python -m repro.tools.loginspect --archive <file-or-dir> --mix [--per N]

``--chains`` answers the capacity question behind Figure 11 over the
archived window: how long are the per-page modification chains an as-of
read landing at the window's start would undo?

``--mix`` (:func:`record_mix`, also over a live log's LSN range) says what
the log's bytes are made of: records and bytes per record type, read off
the headers alone.
"""

from __future__ import annotations

import os
from collections import Counter

from repro.errors import TransactionError
from repro.wal.log_manager import LogManager
from repro.wal.lsn import NULL_LSN, format_lsn
from repro.wal.records import (
    BeginRecord,
    CheckpointBeginRecord,
    ClrRecord,
    CommitRecord,
    DeleteRowRecord,
    DeleteRowsRecord,
    InsertRowRecord,
    InsertRowsRecord,
    LogRecord,
    PageImageRecord,
    PreformatPageRecord,
    RecordType,
    UpdateBytesRecord,
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
    elif isinstance(rec, InsertRowsRecord):
        parts.append(f"slot={rec.slot}")
        parts.append(f"rows={len(rec.rows)}")
    elif isinstance(rec, DeleteRowsRecord):
        parts.append(f"slot={rec.slot}")
        parts.append(f"rows={rec.count}")
        parts.append("inline" if rec.rows else f"pair={format_lsn(rec.pair_lsn)}")
    elif isinstance(rec, UpdateBytesRecord):
        parts.append(f"slot={rec.slot}")
        parts.append(f"off={rec.offset}")
        parts.append(f"old={'-' if rec.old is None else len(rec.old)}B")
        parts.append(f"new={len(rec.new)}B")
        parts.append(f"len={rec.length}")
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


def transaction_history(db, txn_id: int, *, max_records: int = 1000) -> list[LogRecord]:
    """A transaction's records, newest first (rollbacks included), from
    its COMMIT or ABORT, or from its newest record while it is open here:
    the log's transaction directory finds the head and only the chain is
    read. An id the log never held has none. A transaction in flight on
    a standby has no owner there to name its newest record: its history
    ends on the primary. One whose BEGIN retention truncated, its end
    too or not, raises :class:`RetentionExceededError` before any record
    is read."""
    span = db.log.retained_span(txn_id)
    if span is None:
        return []
    owners = {txn.txn_id: txn.last_lsn for txn in db.txns.active_transactions()}
    current = owners.get(txn_id) if span[1] is None else span[1]
    if current is None:
        raise TransactionError(f"transaction {txn_id} in flight: its history ends on the primary")
    chain = []
    while current != NULL_LSN and len(chain) < max_records:
        rec = db.log.read(current)
        chain.append(rec)
        if isinstance(rec, BeginRecord):
            break
        current = rec.prev_txn_lsn
    return chain


def record_mix(source, start: int | None = None, stop: int | None = None, *, db_name=None) -> dict:
    """Records and bytes per record type: ``{RecordType: [records, bytes]}``.

    ``source`` is a :class:`~repro.wal.log_manager.LogManager`, read over
    ``[start, stop)`` (default: all it holds; ``stop`` a record boundary),
    or an archive as :func:`dump_archive` takes it. Only headers are read
    (:func:`walk_headers`: ``total`` and ``record_type``), so the byte sums
    add up to the range's length.
    """
    if isinstance(source, LogManager):
        lo = source.start_lsn if start is None else start
        hi = source.end_lsn if stop is None else stop
        streams = [(lo, source.read_bytes(lo, hi))]
    else:
        from repro.replication.stream import LogFrame

        frames = [LogFrame.decode(blob) for _l, _d, blob in _collect_segments(source, db_name)]
        streams = [(frame.start_lsn, frame.payload) for frame in frames]
    mix: dict = {}
    for base, data in streams:
        for header in walk_headers(data, base_lsn=base):
            counts = mix.setdefault(RecordType(header.record_type), [0, 0])
            counts[0] += 1
            counts[1] += header.total
    return mix


def mix_report(mix: dict, per: int | None = None) -> list[str]:
    """:func:`record_mix` as a table, the most bytes first; with ``per``
    (operations, say) records and bytes are also shown per one of them."""
    total_records = sum(records for records, _nbytes in mix.values())
    total_bytes = sum(nbytes for _records, nbytes in mix.values())
    rows = [(rtype.name, *counts) for rtype, counts in mix.items()]
    rows.sort(key=lambda row: (-row[2], row[0]))
    rows.append(("total", total_records, total_bytes))
    header = f"{'type':<18}{'records':>10}{'bytes':>12}{'share':>8}"
    lines = [header + (f"{'rec/op':>10}{'B/op':>10}" if per else "")]
    for name, records, nbytes in rows:
        line = f"{name:<18}{records:>10}{nbytes:>12}{nbytes / max(total_bytes, 1):>8.1%}"
        if per:
            line += f"{records / per:>10.2f}{nbytes / per:>10.1f}"
        lines.append(line)
    return lines


_CHAIN_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128)


def _bucket_label(length: int) -> str:
    lo = 0
    for edge in _CHAIN_BUCKETS:
        if length < edge:
            return str(lo) if lo == edge - 1 else f"{lo}-{edge - 1}"
        lo = edge
    return f"{_CHAIN_BUCKETS[-1]}+"


def _render_histogram(histogram: dict[str, int]) -> list[str]:
    lines = []
    width = max((len(label) for label in histogram), default=1)
    for label in sorted(histogram, key=lambda item: int(item.split("-")[0].rstrip("+"))):
        count = histogram[label]
        bar = "#" * min(count, 60)
        lines.append(f"  {label.rjust(width)} | {str(count).rjust(6)} {bar}")
    return lines


def _frame_records(frame):
    """Every record of a decoded archived frame, CRC-verified, in LSN
    order; a broken stream raises from the record it breaks at."""
    for header in walk_headers(frame.payload, base_lsn=frame.start_lsn):
        yield decode_record(frame.payload, header.lsn - frame.start_lsn, header.lsn)[0]


def _collect_segments(source, db_name: str | None) -> list[tuple[str, str, bytes]]:
    """``(label, database, blob)`` for every segment of ``source``, in LSN
    order.

    ``source`` may be an ArchiveStore, a ``.seg`` file path, or a
    directory of them; the label is the file name (path mode) or the
    database name (store mode), for use in diagnostics. The database is
    the store's name for it, or the ``<db>`` of ``<db>-<start>-<end>.seg``:
    never split out of a bare database name, which may hold hyphens.
    """
    out: list[tuple[str, str, bytes]] = []
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
            name = os.path.basename(seg_path)
            with open(seg_path, "rb") as fh:
                out.append((name, _segment_database(name) or name, fh.read()))
    else:
        names = [db_name] if db_name is not None else source.database_names()
        for name in names:
            out.extend((name, name, seg.blob) for seg in source.segments(name))
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

    blobs = [blob for _label, _database, blob in _collect_segments(source, db_name)]
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
    describe its records, one :func:`describe_record` line each.
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


def _segment_database(name: str) -> str | None:
    """The ``<db>`` of a ``<db>-<16 hex>-<16 hex>.seg`` file name, or
    ``None`` when ``name`` is not one."""
    if not name.endswith(".seg"):
        return None
    parts = name[: -len(".seg")].rsplit("-", 2)
    if len(parts) != 3 or not all(len(p) == 16 for p in parts[1:]):
        return None
    try:
        int(parts[1], 16)
        int(parts[2], 16)
    except ValueError:
        return None
    return parts[0]


def _segment_file_matches(name: str, db_name: str | None) -> bool:
    """Is ``name`` a segment file (of the requested database)? A bare
    prefix test would let ``shop`` swallow ``shop-eu``'s segments."""
    database = _segment_database(name)
    return database is not None and (db_name is None or database == db_name)


def dump_archive(source, db_name: str | None = None, *, limit: int = 100) -> list[str]:
    """Describe archived segments from an ArchiveStore, a ``.seg`` file,
    or a directory of them; at most ``limit`` record lines overall."""
    lines: list[str] = []
    for _label, _database, blob in _collect_segments(source, db_name):
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
    for _label, database, blob in _collect_segments(source, db_name):
        frame = LogFrame.decode(blob)
        entry = per_db.setdefault(
            database, {"segments": 0, "bytes": 0, "start": None, "end": None}
        )
        entry["segments"] += 1
        entry["bytes"] += len(frame.payload)
        if entry["start"] is None or frame.start_lsn < entry["start"]:
            entry["start"] = frame.start_lsn
        if entry["end"] is None or frame.end_lsn > entry["end"]:
            entry["end"] = frame.end_lsn
    lines = []
    for database in sorted(per_db):
        entry = per_db[database]
        lines.append(f"archive.{database}.archived_lsn = {entry['end']}")
        lines.append(f"archive.{database}.coverage_start_lsn = {entry['start']}")
        lines.append(f"archive.{database}.segments_archived = {entry['segments']}")
        lines.append(f"archive.{database}.bytes_archived = {entry['bytes']}")
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
    for index, (label, database, blob) in enumerate(_collect_segments(source, db_name)):
        try:
            frame = LogFrame.decode(blob)
        except ReproError as err:
            findings.append(
                Finding(label, index, 0, "LOG001", f"undecodable segment: {err}")
            )
            continue
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
        previous = prev_end.get(database)
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
        prev_end[database] = (label, frame.end_lsn)
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
        "--mix",
        action="store_true",
        help="records and bytes per record type instead of a record dump "
        "(headers only)",
    )
    parser.add_argument(
        "--per",
        type=int,
        default=None,
        metavar="N",
        help="with --mix, also show records and bytes per one of N "
        "operations",
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
    if args.mix:
        lines = mix_report(record_mix(args.archive, db_name=args.db), args.per)
    elif args.chains:
        lines = archive_chain_report(args.archive, args.db)
    else:
        lines = dump_archive(args.archive, args.db, limit=args.limit)
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":  # pragma: no cover - thin CLI shim
    import sys

    sys.exit(main())
