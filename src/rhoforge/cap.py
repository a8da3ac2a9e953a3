"""The cell cap: one limit on the cells any construction builds.

Every builder (towers, Delta-complexes, lens complexes, hyperbolized
stages) counts the cells it is about to make and calls
``require_cells`` first, so an input too large for the machine fails
before the work starts.  This module imports nothing of the package,
so a command loads it without loading any construction it does not run.
"""

import os

DEFAULT_CELL_CAP = 10_000_000


class ResourceCapError(RuntimeError):
    """A construction would exceed the configured cell cap."""


def cell_cap() -> int:
    """Cap on constructed cells; override with env RHOFORGE_CELL_CAP."""
    raw = os.environ.get("RHOFORGE_CELL_CAP")
    if raw is None:
        return DEFAULT_CELL_CAP
    try:
        return int(raw)
    except ValueError:
        raise ValueError(
            f"RHOFORGE_CELL_CAP must be an integer, got {raw!r}"
        ) from None


def within_cap(count: int) -> bool:
    """Whether ``count`` cells are within cell_cap(): the one comparison
    with the cap."""
    return count <= cell_cap()


def require_cells(count: int, what: str) -> None:
    """Raise ResourceCapError if ``what`` needs more than cell_cap() cells."""
    if not within_cap(count):
        raise ResourceCapError(
            f"{what} needs {count} cells, cap is {cell_cap()}"
        )
