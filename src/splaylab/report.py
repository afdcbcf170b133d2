"""Small pass/fail report type shared by all runtime checkers."""

from __future__ import annotations


class CheckReport:
    """Outcome of one checker: a count of checks and a list of violations."""

    __slots__ = ("name", "checked", "violations")

    def __init__(self, name: str, checked: int = 0, violations: list | None = None):
        self.name = name
        self.checked = checked
        self.violations = [] if violations is None else violations

    @property
    def passed(self) -> bool:
        return not self.violations

    def tick(self, count: int = 1) -> None:
        self.checked += count

    def fail(self, message: str) -> None:
        self.violations.append(message)

    def absorb(self, other: "CheckReport", label: str) -> None:
        """Add another checker's count and violations, each prefixed by `label: `."""
        self.checked += other.checked
        self.violations.extend(f"{label}: {v}" for v in other.violations)
