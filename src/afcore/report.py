"""Small pass/fail report plumbing used by the verification routines."""

from __future__ import annotations

from typing import NamedTuple


class CheckItem(NamedTuple):
    label: str
    ok: bool
    detail: str = ""


class CheckReport:
    """An ordered list of labelled checks; ``ok`` iff every item passed."""

    __slots__ = ("title", "items")

    def __init__(self, title: str) -> None:
        self.title = title
        self.items: list[CheckItem] = []

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.title, self.items) == (other.title, other.items)

    def __repr__(self) -> str:
        return f"CheckReport(title={self.title!r}, items={self.items!r})"

    @property
    def ok(self) -> bool:
        return all(item.ok for item in self.items)

    def add(self, label: str, ok: bool, detail: str = "") -> None:
        self.items.append(CheckItem(label, bool(ok), detail))

    def extend(self, other: "CheckReport", prefix: str = "") -> None:
        for item in other.items:
            label = f"{prefix}{item.label}" if prefix else item.label
            self.items.append(CheckItem(label, item.ok, item.detail))

    def failures(self) -> list[CheckItem]:
        return [item for item in self.items if not item.ok]

    def summary(self) -> str:
        n_ok = sum(1 for item in self.items if item.ok)
        status = "PASS" if self.ok else "FAIL"
        return f"{self.title}: {status} ({n_ok}/{len(self.items)} checks)"

    def render(self) -> str:
        lines = [self.summary()]
        for item in self.items:
            mark = "ok" if item.ok else "FAIL"
            suffix = f"  # {item.detail}" if item.detail else ""
            lines.append(f"  [{mark}] {item.label}{suffix}")
        return "\n".join(lines)
