"""Pass/fail reports for law suites."""

from __future__ import annotations

from .errors import LawViolationError


class ValidationReport:
    """Collects named checks; the report passes when every check holds exactly."""

    def __init__(self, subject: str = ""):
        self.subject = subject
        self.checks: list[tuple[str, bool, str]] = []

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append((name, bool(ok), detail))
        return bool(ok)

    def merge(self, other: "ValidationReport") -> None:
        prefix = f"{other.subject}: " if other.subject else ""
        for name, ok, detail in other.checks:
            self.checks.append((prefix + name, ok, detail))

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def failures(self) -> list[tuple[str, str]]:
        return [(name, detail) for name, ok, detail in self.checks if not ok]

    def require(self, exc=LawViolationError, context: str = ""):
        """Raise `exc` when the report has failures; return self otherwise."""
        if not self.passed:
            lines = "; ".join(f"{n} ({d})" if d else n for n, d in self.failures())
            where = context or self.subject
            raise exc(f"{where}: {lines}")
        return self

    def __repr__(self):
        state = "pass" if self.passed else f"{len(self.failures())} failures"
        return f"<ValidationReport {self.subject!r}: {len(self.checks)} checks, {state}>"
