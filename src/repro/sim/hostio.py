"""The sanctioned host-filesystem boundary.

Everything inside the priced-I/O scope (``core/``, ``wal/``,
``storage/``, ``archive/``) moves bytes through simulated devices so the
paper's cost figures stay honest; the one place that must also touch
the *real* filesystem, the archive tier's ``.seg`` persistence, does it
through these helpers. Keeping raw ``open``/``os`` access in one module
makes the discipline checkable: reprolint rule RL002 flags raw host I/O
anywhere else in the scope.

Callers remain responsible for charging their simulated device for the
logical transfer; these helpers only perform the host-side effect.
"""

from __future__ import annotations

import os


def ensure_directory(path: str) -> None:
    os.makedirs(path, exist_ok=True)


def write_blob(path: str, blob: bytes) -> None:
    """Atomically-enough persist one immutable blob (archive segments)."""
    with open(path, "wb") as handle:
        handle.write(blob)
