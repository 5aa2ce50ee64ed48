"""Alert-level state machine.

Levels are ordered by declaration; the current level may only rise, except
that a level declared soft may step down to the level immediately below it.
Re-triggering the current level is a no-op.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Level:
    name: str
    soft: bool
    ordinal: int


class LevelMachine:
    def __init__(self, levels: list[Level]):
        self.levels = levels
        self.current = 0

    @property
    def current_name(self) -> str:
        if not self.levels:
            return ""
        return self.levels[self.current].name

    def gravity(self, ordinal: int | None = None) -> float:
        n = len(self.levels)
        if n <= 1:
            return 0.0
        if ordinal is None:
            ordinal = self.current
        return ordinal / (n - 1)

    def name_of(self, ordinal: int) -> str:
        if 0 <= ordinal < len(self.levels):
            return self.levels[ordinal].name
        return ""

    def classify(self, target: int) -> str:
        """Classify a requested transition: 'invalid' (out of range),
        'noop' (same level), 'up', 'down' (legal soft step), or 'denied'."""
        if not self.levels or not 0 <= target < len(self.levels):
            return "invalid"
        cur = self.current
        if target == cur:
            return "noop"
        if target > cur:
            return "up"
        if self.levels[cur].soft and target == cur - 1:
            return "down"
        return "denied"

    def commit(self, target: int) -> None:
        self.current = target
