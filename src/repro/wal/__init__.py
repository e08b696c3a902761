"""Write-ahead log: record types, the log manager, and page modification.

The transaction log is the substrate of the paper's whole mechanism: every
page modification is a log record carrying ``prev_page_lsn``, so each
page's history is an independently walkable back-chain. This package also
implements the section 4.2 log extensions — preformat records at
re-allocation and undo information in every CLR (a row move's delete
names its insert, which holds the rows) — and periodic full page images
(section 6.1).
"""

from repro.wal.apply import PageModifier
from repro.wal.log_manager import LogManager
from repro.wal.lsn import FIRST_LSN, NULL_LSN, format_lsn
from repro.wal.records import (
    LOG_HEADER_MAGIC,
    AbortRecord,
    AllocPageRecord,
    BeginRecord,
    CheckpointBeginRecord,
    CheckpointEndRecord,
    ClrRecord,
    CommitRecord,
    DeallocPageRecord,
    DeleteRowRecord,
    DeleteRowsRecord,
    FormatPageRecord,
    InsertRowRecord,
    InsertRowsRecord,
    LogRecord,
    PageImageRecord,
    PreformatPageRecord,
    RecordHeader,
    RecordType,
    SetLinksRecord,
    UpdateBytesRecord,
    decode_record,
    decode_span,
    unpack_header,
    walk_headers,
)

__all__ = [
    "NULL_LSN",
    "FIRST_LSN",
    "format_lsn",
    "RecordType",
    "LogRecord",
    "BeginRecord",
    "CommitRecord",
    "AbortRecord",
    "CheckpointBeginRecord",
    "CheckpointEndRecord",
    "FormatPageRecord",
    "PreformatPageRecord",
    "PageImageRecord",
    "InsertRowRecord",
    "DeleteRowRecord",
    "InsertRowsRecord",
    "DeleteRowsRecord",
    "UpdateBytesRecord",
    "SetLinksRecord",
    "AllocPageRecord",
    "DeallocPageRecord",
    "ClrRecord",
    "RecordHeader",
    "decode_record",
    "decode_span",
    "unpack_header",
    "walk_headers",
    "LogManager",
    "PageModifier",
    "LOG_HEADER_MAGIC",
]
