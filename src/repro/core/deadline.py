"""Per-call deadlines and the cancellation checkpoints that honour them.

A :class:`Deadline` is a budget in seconds.  ``AssessSession.assess`` and
``AssessSession.execute_many`` take one per call (``deadline=``) and make
it the calling thread's *current* deadline for the duration of the call
(:func:`bound`).  Execution polls it at its checkpoints
(:func:`checkpoint`) — before each plan operator and before each morsel
of a fact pass — and raises :class:`DeadlineExceeded` at the first one
after the budget is spent, so abandoned work stops within one operator
or one morsel.  Without a current deadline a checkpoint is one
context-variable read.
"""

from __future__ import annotations

import contextlib
import contextvars
import time
from typing import Iterator, Optional

from .errors import ReproError


class DeadlineExceeded(ReproError):
    """The per-call deadline lapsed (while queued or executing)."""

    def __init__(self, message: str = "request deadline exceeded"):
        super().__init__(message)


class Deadline:
    """A budget in seconds, checked at execution checkpoints."""

    __slots__ = ("seconds", "_expires")

    def __init__(self, seconds: float):
        self.seconds = float(seconds)
        self._expires = time.monotonic() + self.seconds

    def remaining(self) -> float:
        """Seconds left (never negative)."""
        return max(self._expires - time.monotonic(), 0.0)

    @property
    def expired(self) -> bool:
        return time.monotonic() >= self._expires

    def check(self, where: str = "execution") -> None:
        """Raise :class:`DeadlineExceeded` once the budget is spent."""
        if self.expired:
            raise DeadlineExceeded(
                f"deadline of {self.seconds:g}s exceeded during {where}"
            )


_CURRENT: "contextvars.ContextVar[Optional[Deadline]]" = contextvars.ContextVar(
    "repro_deadline", default=None
)


@contextlib.contextmanager
def bound(deadline: Optional[Deadline]) -> Iterator[None]:
    """Make ``deadline`` the current one for the block (``None``: keep the
    enclosing deadline, if any)."""
    if deadline is None:
        yield
        return
    token = _CURRENT.set(deadline)
    try:
        yield
    finally:
        _CURRENT.reset(token)


def checkpoint(where: str) -> None:
    """Raise :class:`DeadlineExceeded` if the current deadline is spent."""
    deadline = _CURRENT.get()
    if deadline is not None:
        deadline.check(where)
