"""Every size bound of the package, and `refuse_beyond`, the one guard that
raises `SizeLimitError` for them before any work starts."""

from __future__ import annotations

from .errors import SizeLimitError

DEFAULT_MAX_STATES = 8  # frame states for an exhaustive property check
FRAME_STATE_LIMIT = 16  # frame states, each of whose dense rows holds 2^n entries
DEFAULT_MAX_CELLS = 8  # model cells whose unions are the definable events
COMPLETION_STATE_LIMIT = 12  # frame states for a selection completion
EXHAUSTIVE_STATE_LIMIT = 4  # frame states for the exhaustive frame enumeration
ENUMERATION_FRAME_LIMIT = 10_000  # frames in a `correspond --enumerate` census
EXHAUSTIVE_VALUATION_BITS = 12  # states x atoms up to which every valuation is swept
VALUATION_ATOM_LIMIT = 3  # atoms of the valuations in a correspondence sweep
VALUATION_SAMPLES = 150  # seeded valuations swept beyond EXHAUSTIVE_VALUATION_BITS
ATOM_LIMIT = 4  # atoms of a change-function world context
DEFAULT_ATOM_LIMIT = 20  # atoms of a formula truth table
NESTING_LIMIT = 100  # nesting levels of "(", "!" and binary operators in formula text
SCAN_INSTANCE_LIMIT = 1 << 20  # instances one exhaustive scan walks


def refuse_beyond(count: int, bound: int, what: str) -> None:
    """Raise `SizeLimitError` when ``count`` (of ``what``) exceeds ``bound``."""
    if count > bound:
        raise SizeLimitError(f"{what}: {count} exceeds the bound {bound}")
