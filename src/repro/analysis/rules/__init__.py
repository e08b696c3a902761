"""Rule modules. Importing this package registers every rule."""

from repro.analysis.rules import (  # noqa: F401
    determinism,
    error_surface,
    fault_handling,
    lsn,
    obs,
    priced_io,
    replay,
    shared_state,
)
