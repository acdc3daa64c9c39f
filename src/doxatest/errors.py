"""Exception types shared across the package."""


class DoxatestError(Exception):
    """Base class for all package-specific errors."""


class ParseError(DoxatestError):
    """Raised on malformed formula text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class MissingAtomError(DoxatestError):
    """An assignment does not cover an atom the formula mentions."""


class UnknownAtomError(DoxatestError):
    """A formula mentions an atom the model's valuation does not define."""


class SizeLimitError(DoxatestError):
    """An exhaustive check was asked to run beyond its configured bound."""


class UndefinedSelectionError(DoxatestError):
    """A selection entry needed by an operation is not defined."""

    def __init__(self, state: str, event_ids: tuple):
        super().__init__(
            "selection undefined at state %r for event {%s}" % (state, ", ".join(event_ids))
        )
        self.state = state
        self.event_ids = tuple(event_ids)


class InputFormatError(DoxatestError):
    """A frame or model document, or a change table, does not match its schema."""


class InvalidWitnessError(DoxatestError):
    """A claimed property violation does not re-check against the frame."""


class UnfaithfulOrderError(DoxatestError):
    """A plausibility order does not respect the belief set it is meant to encode."""
