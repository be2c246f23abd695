"""Exception hierarchy shared across the toolkit."""

from __future__ import annotations


class StapleForgeError(Exception):
    """Base class for all toolkit errors."""


class ParseError(StapleForgeError):
    """A stream violates a file format. Carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ValidationError(StapleForgeError):
    """Well-formed input that violates a documented invariant."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class CheckpointError(StapleForgeError):
    """A checkpoint directory is missing, unreadable, or fails its integrity check."""
