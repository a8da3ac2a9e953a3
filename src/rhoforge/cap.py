"""The cell cap: one limit on the cells any construction builds.

Every builder (towers, Delta-complexes, lens complexes, hyperbolized
stages) counts the cells it is about to make and calls
``require_cells`` first, so an input too large for the machine fails
before the work starts.  This module imports nothing of the package,
so a command loads it without loading any construction it does not run.
"""

import os

DEFAULT_CELL_CAP = 10_000_000
# a count known to have more bits than this is refused unformed
FORMED_BITS = 1 << 16


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


def require_cells(count, what: str, bits: int = 0) -> None:
    """Raise ResourceCapError if ``what`` needs more than cell_cap() cells.

    ``count`` is an int, or a function of no arguments that returns it,
    and ``bits`` a lower bound on its bit length.  Past ``FORMED_BITS``
    and the cap's bit length, that bound alone refuses the build, as "at
    least 2^(bits - 1)" cells, and the count is never formed: a power
    with a huge exponent costs no more to refuse than a small count.
    """
    cap = cell_cap()
    if bits > max(FORMED_BITS, cap.bit_length()):
        text = f"at least 2^{bits - 1}"
    else:
        if callable(count):
            count = count()
        if within_cap(count):
            return
        try:
            text = str(count)
        except ValueError:  # past the interpreter's int-to-str digit limit
            text = f"at least 2^{count.bit_length() - 1}"
    raise ResourceCapError(f"{what} needs {text} cells, cap is {cap}")
