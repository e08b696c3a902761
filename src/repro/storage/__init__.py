"""Physical storage: slotted pages, files, buffer pool, allocation maps.

Everything the engine persists lives in fixed-size pages addressed by page
id. Pages carry a ``pageLSN`` (last log record that modified them) and a
``lastImageLSN`` (most recent full page image in the log), the two header
fields that page-oriented undo navigates by.
"""

from repro.storage.buffer import BufferPool, FrameGuard
from repro.storage.datafile import FileManager, MemoryDataFile
from repro.storage.page import (
    HEADER_SIZE,
    NULL_PAGE,
    Page,
    PageType,
    alloc_bitmap_geometry,
)
from repro.storage.rowcodec import RowCodec
from repro.storage.sparsefile import SparseFile

__all__ = [
    "Page",
    "PageType",
    "HEADER_SIZE",
    "NULL_PAGE",
    "alloc_bitmap_geometry",
    "RowCodec",
    "FileManager",
    "MemoryDataFile",
    "SparseFile",
    "BufferPool",
    "FrameGuard",
]
