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

    def record_laws(self, laws, checks: dict, limit: int | None = None) -> "ValidationReport":
        """Record the checks of a law list, (key, place, lhs, rhs) each, in one pass.

        `checks` maps each key to (name, detail): laws with one name form one
        check, "{n}" in the name becomes their number, and detail(*place) names
        a place where lhs ≠ rhs, at most `limit` of them.  Checks are recorded in
        the order of `checks`, also those with no law.  Returns the report.
        """
        count = {name: 0 for name, _ in checks.values()}
        bad = {name: [] for name in count}
        for key, place, lhs, rhs in laws:
            name, detail = checks[key]
            count[name] += 1
            if lhs != rhs:
                bad[name].append(detail(*place))
        for name, n in count.items():
            self.record(name.replace("{n}", str(n)), not bad[name], "; ".join(bad[name][:limit]))
        return self

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


def checked(s, validate) -> ValidationReport:
    """s's kept report, or else validate(s), s's own validator, kept as `s.report` only if
    it passed: the one place a structure's mark is set.  The mark is sound because
    structures are not mutated after construction, and one rebuilt from another's data
    starts unmarked."""
    if s.report is None and (rep := validate(s)).passed:
        s.report = rep
    return rep if s.report is None else s.report
