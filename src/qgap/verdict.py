"""The verdict vocabulary shared by every exact check."""

from __future__ import annotations

from enum import Enum

__all__ = ["Verdict"]


class Verdict(str, Enum):
    """Outcome of one check.  Verdicts are strings: they compare equal to,
    print as and serialize to their bare names."""

    PASS = "PASS"
    FAIL = "FAIL"
    ZERO_CONSTANT_TERM = "ZERO_CONSTANT_TERM"
    ERROR = "ERROR"
    NOT_APPLICABLE = "NOT_APPLICABLE"
    RECORDED = "RECORDED"
    EXCEPTION = "EXCEPTION"
    EXPERIMENTAL = "EXPERIMENTAL"

    # Enum's own __str__/__format__ would print "Verdict.PASS" on 3.11+
    __str__ = str.__str__
    __format__ = str.__format__

    @property
    def fails(self) -> bool:
        """Whether this verdict makes a run fail."""
        return self in (Verdict.FAIL, Verdict.ZERO_CONSTANT_TERM, Verdict.ERROR)
