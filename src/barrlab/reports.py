"""Structured pass/fail reports for exhaustive law checks.

Every checker states a law at an instance as a lazy iterable of
counterexample dicts, produced in canonical enumeration order, and hands it
to `LawReport.first`: the law passes when the iterable is empty and fails
with its first item otherwise, so the counterexample recorded is the
minimal one and nothing past it is evaluated.  Two runs over the same
inputs produce identical reports.  `first` is also the one place where the
blow-up guard is tested: an instance whose enumeration would exceed it is
recorded as skipped, never silently dropped, with a reason of one form
that gives the size next to the guard.

Most laws compare two composites of structure maps held as tables of
positions (`finset`); `table_failures` is the one place where a difference
between two such tables becomes a counterexample.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import blowup_limit
from .finset import Element, FinSet, differences

PASS = "pass"
FAIL = "fail"
SKIP = "skipped"


def table_failures(head: dict, element_at: Callable[[int], Element], cod: FinSet,
                   lhs: tuple, rhs: tuple,
                   names: Sequence[str] = ("lhs", "rhs")) -> Iterator[dict]:
    """The counterexamples of a law stated as two tables of positions in
    cod, in order: at each position p where lhs and rhs differ, `head`, the
    element at p and the two values, keyed by `names`.  `element_at(p)` is
    called only there, so the set the tables run over is decoded, and
    built, only when the law fails."""
    left, right = names
    for p in differences(lhs, rhs):
        yield {**head, "element": element_at(p), left: cod.elements[lhs[p]],
               right: cod.elements[rhs[p]]}


@dataclass(frozen=True)
class LawCheck:
    law: str
    instance: str
    status: str
    detail: str = ""
    counterexample: Optional[dict] = None

    def to_json(self) -> dict:
        out = {"law": self.law, "instance": self.instance, "status": self.status}
        if self.detail:
            out["detail"] = self.detail
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


@dataclass
class LawReport:
    subject: str
    checks: list = field(default_factory=list)

    def record(self, law: str, instance: str, counterexample: Optional[dict]) -> None:
        """A pass where there is no counterexample, else a fail with it."""
        self.checks.append(LawCheck(law, instance, PASS if counterexample is None else FAIL,
                                    counterexample=counterexample))

    def first(self, law: str, instance: str, failures: Iterable[dict],
              sizes: Iterable[tuple[str, Optional[int]]] = (), unless: str = "") -> None:
        """Decide the law at one instance.  It is skipped with the reason
        `unless` when that is not empty, or where one of the labelled sizes
        (label, n) it enumerates is unknown (None) or above the guard g, with
        the reason `|label| = n > guard g` for the first such size
        (`|label| > guard g` where n is unknown or has 19 digits or more).
        Otherwise it passes if `failures` yields nothing and fails with its
        first item.  A skipped law never iterates `failures`, so a checker
        hands over a generator that has evaluated nothing yet.  `sizes` is
        read in order, up to the first size that skips the law, and not at
        all where `unless` gives a reason, so a generator of sizes computes
        a size only where those before it fit."""
        if not unless:
            limit = blowup_limit()
            unless = next((f"|{label}| {'' if n is None or n >= 10**18 else f'= {n} '}"
                           f"> guard {limit}" for label, n in sizes if n is None or n > limit),
                          "")
        if unless:
            self.skip(law, instance, unless)
            return
        self.record(law, instance, next(iter(failures), None))

    def skip(self, law: str, instance: str, reason: str) -> None:
        self.checks.append(LawCheck(law, instance, SKIP, reason))

    @property
    def passed(self) -> bool:
        return all(c.status != FAIL for c in self.checks)

    def skipped(self) -> list[LawCheck]:
        return [c for c in self.checks if c.status == SKIP]

    def first_failure(self) -> Optional[LawCheck]:
        for c in self.checks:
            if c.status == FAIL:
                return c
        return None

    def to_json(self) -> dict:
        return {
            "subject": self.subject,
            "passed": self.passed,
            "checks": [c.to_json() for c in self.checks],
        }
