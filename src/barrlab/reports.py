"""Structured pass/fail reports for exhaustive law checks.

Every checker states a law at an instance as a lazy iterable of
counterexample dicts, produced in canonical enumeration order, and hands it
to `LawReport.first`: the law passes when the iterable is empty and fails
with its first item otherwise, so the counterexample recorded is the
minimal one and nothing past it is evaluated.  Two runs over the same
inputs produce identical reports.  Instances whose enumeration would exceed
the blow-up guard are recorded as skipped rather than silently dropped.

Most laws compare two composites of structure maps held as tables of
positions (`finset`); `table_failures` is the one place where a difference
between two such tables becomes a counterexample.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, Sequence

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

    def record(self, law: str, instance: str, ok: bool,
               counterexample: Optional[dict] = None) -> None:
        status = PASS if ok else FAIL
        self.checks.append(LawCheck(law, instance, status,
                                    counterexample=None if ok else counterexample))

    def first(self, law: str, instance: str, failures: Iterable[dict]) -> None:
        """Record the law from its counterexamples: pass if there are none,
        else fail with the first one."""
        ce = next(iter(failures), None)
        self.record(law, instance, ce is None, counterexample=ce)

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
