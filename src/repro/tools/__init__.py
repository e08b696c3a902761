"""Operational tooling: log inspection and database consistency checking.

The kind of DBA-facing tools a system like the paper's ships with:
human-readable dumps of archived log segments, per-transaction traces,
and a structural consistency checker in the spirit of ``DBCC CHECKDB``.
"""

from repro.tools.checkdb import CheckReport, check_database
from repro.tools.loginspect import (
    describe_record,
    dump_archive,
    dump_archived_segment,
    transaction_history,
)

__all__ = [
    "describe_record",
    "dump_archive",
    "dump_archived_segment",
    "transaction_history",
    "check_database",
    "CheckReport",
]
