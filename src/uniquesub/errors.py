"""Shared exception types."""
from __future__ import annotations


class UniquesubError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(UniquesubError, ValueError):
    """An argument violates a documented precondition."""


class Graph6Error(UniquesubError, ValueError):
    """Malformed graph6 input; ``offset`` is the offending byte position and
    ``reason`` the message without it."""

    def __init__(self, reason: str, offset: int):
        super().__init__(f"{reason} (byte offset {offset})")
        self.reason = reason
        self.offset = offset
