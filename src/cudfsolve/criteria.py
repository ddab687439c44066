"""Optimization criteria and their command-line syntax.

A criteria sequence ranks counting measures over the outcome of an
upgrade: how many names were removed, changed, left behind their newest
version, and so on.  Sequences are stored most significant first, as
they are written; only the emitted ``criterion`` facts number positions,
counting up from the least significant.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable

from .errors import BadCriteria


class Criterion(enum.Enum):
    """The measures a criteria sequence can rank."""

    NEW = "new"
    REMOVED = "removed"
    CHANGED = "changed"
    NOT_UP_TO_DATE = "notuptodate"
    UNSAT_RECOMMENDS = "unsat_recommends"

    @property
    def fact_name(self) -> str:
        return _FACT_NAMES[self]


_FACT_NAMES = {
    Criterion.NEW: "newpackage",
    Criterion.REMOVED: "remove",
    Criterion.CHANGED: "change",
    Criterion.NOT_UP_TO_DATE: "uptodate",
    Criterion.UNSAT_RECOMMENDS: "recommend",
}

_BY_CLI_NAME = {c.value: c for c in Criterion}
_BY_FACT_NAME = {fact: c for c, fact in _FACT_NAMES.items()}


class Polarity(enum.Enum):
    """Whether a criterion's count is minimized or maximized."""

    MINUS = "-"
    PLUS = "+"


@dataclass(frozen=True)
class SignedCriterion:
    criterion: Criterion
    polarity: Polarity

    def __str__(self) -> str:
        return f"{self.polarity.value}{self.criterion.value}"


@dataclass(frozen=True)
class CriteriaSeq:
    """An ordered criteria sequence, most significant first.

    The same criterion may appear at most once regardless of sign.
    """

    items: tuple[SignedCriterion, ...]

    def __post_init__(self) -> None:
        seen: set[Criterion] = set()
        for item in self.items:
            if item.criterion in seen:
                raise BadCriteria(f"criterion repeated: {item.criterion.value}")
            seen.add(item.criterion)

    def __len__(self) -> int:
        return len(self.items)

    def polarity_of(self, criterion: Criterion) -> Polarity | None:
        for item in self.items:
            if item.criterion is criterion:
                return item.polarity
        return None

    def facts(self) -> tuple[tuple[str, int], ...]:
        """``criterion(name, position)`` facts, least significant at 1; minimized negative."""
        return tuple(
            (item.criterion.fact_name, -i if item.polarity is Polarity.MINUS else i)
            for i, item in enumerate(reversed(self.items), 1)
        )

    @classmethod
    def from_facts(cls, facts: Iterable[tuple[str, int]]) -> CriteriaSeq:
        """The sequence whose :meth:`facts` these are."""
        ordered = sorted(facts, key=lambda fact: -abs(fact[1]))
        items = (
            SignedCriterion(_BY_FACT_NAME[name], Polarity.MINUS if i < 0 else Polarity.PLUS)
            for name, i in ordered
        )
        return cls(tuple(items))

    def __str__(self) -> str:
        return ",".join(str(i) for i in self.items)


def _seq(*items: tuple[Criterion, Polarity]) -> CriteriaSeq:
    return CriteriaSeq(tuple(SignedCriterion(c, p) for c, p in items))


#: Touch as little as possible: removals outrank other changes.
PARANOID = _seq(
    (Criterion.REMOVED, Polarity.MINUS),
    (Criterion.CHANGED, Polarity.MINUS),
)

#: Chase the newest versions while still avoiding removals first.
TRENDY = _seq(
    (Criterion.REMOVED, Polarity.MINUS),
    (Criterion.NOT_UP_TO_DATE, Polarity.MINUS),
    (Criterion.UNSAT_RECOMMENDS, Polarity.MINUS),
    (Criterion.NEW, Polarity.MINUS),
)

_PRESETS = {"paranoid": PARANOID, "trendy": TRENDY}


def parse_criteria(text: str) -> CriteriaSeq:
    """Parse a criteria string.

    Accepts the preset names ``paranoid`` and ``trendy``, or a
    comma-separated list of signed criterion names ordered most
    significant first, e.g. ``-removed,-changed``.
    """
    text = text.strip()
    if text in _PRESETS:
        return _PRESETS[text]
    if not text:
        return CriteriaSeq(())
    items: list[SignedCriterion] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise BadCriteria(f"empty entry in criteria string {text!r}")
        sign, name = chunk[0], chunk[1:]
        if sign not in ("-", "+"):
            raise BadCriteria(f"criterion {chunk!r} must start with '+' or '-'")
        criterion = _BY_CLI_NAME.get(name)
        if criterion is None:
            raise BadCriteria(f"unknown criterion {name!r}")
        polarity = Polarity.MINUS if sign == "-" else Polarity.PLUS
        items.append(SignedCriterion(criterion, polarity))
    return CriteriaSeq(tuple(items))
