"""Small pass/fail report type shared by all runtime checkers."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(slots=True)
class CheckReport:
    """Outcome of one checker: a count of checks and a list of violations."""

    name: str
    checked: int = 0
    violations: list = field(default_factory=list)

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
