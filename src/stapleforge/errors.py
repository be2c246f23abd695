"""Exception hierarchy shared across the toolkit."""

from __future__ import annotations


class StapleForgeError(Exception):
    """Base class for all toolkit errors."""


class _LineError(StapleForgeError):
    """An error that carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ParseError(_LineError):
    """A stream violates a file format."""


class ValidationError(_LineError):
    """Well-formed input that violates a documented invariant."""


class CheckpointError(StapleForgeError):
    """A checkpoint directory is missing, unreadable, or fails its integrity check."""
