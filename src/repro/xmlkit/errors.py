"""Errors raised by the XML substrate."""


class XMLSyntaxError(ValueError):
    """Raised when the parser encounters malformed XML.

    Carries the byte offset (into the UTF-8 encoding of the text) and a
    human-readable reason so callers can surface precise diagnostics.
    """

    def __init__(self, message, offset=None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (at offset {offset})"
        super().__init__(message)


class TreeConstructionError(ValueError):
    """Raised when an operation would produce an invalid document tree."""
