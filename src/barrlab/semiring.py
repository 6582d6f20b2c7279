"""Semirings: coefficient domains for weighted automata and power series.

Finite semirings double as the parameter of the free-semimodule monad; the
naturals are bundled for classical power-series examples and are law-checked
by seeded sampling instead of enumeration.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, Optional

from .errors import InputError
from .finset import FinSet, guard_size
from .reports import LawReport

INF = "inf"  # saturating top element of the min-plus semiring


class Semiring:
    """A (not necessarily commutative) semiring with explicit operations."""

    def __init__(self, name, add, mul, zero, one, elements=None):
        self.name = name
        self.add: Callable = add
        self.mul: Callable = mul
        self.zero = zero
        self.one = one
        self.elements: Optional[tuple] = tuple(elements) if elements is not None else None

    @property
    def finite(self) -> bool:
        return self.elements is not None

    def as_finset(self) -> FinSet:
        if not self.finite:
            raise ValueError(f"{self.name} is not finite")
        return FinSet(self.name, self.elements)

    def sum(self, values) -> object:
        out = self.zero
        for v in values:
            out = self.add(out, v)
        return out

    def __repr__(self):
        size = len(self.elements) if self.finite else "inf"
        return f"Semiring({self.name!r}, {size} elements)"


def boolean_semiring() -> Semiring:
    return Semiring("bool", lambda a, b: a | b, lambda a, b: a & b, 0, 1,
                    elements=(0, 1))


def zmod(m: int) -> Semiring:
    if m < 2:
        raise InputError("zmod needs modulus >= 2")
    return Semiring(f"z{m}", lambda a, b: (a + b) % m, lambda a, b: (a * b) % m,
                    0, 1, elements=tuple(range(guard_size(m, f"listing z{m}"))))


def naturals() -> Semiring:
    return Semiring("nat", lambda a, b: a + b, lambda a, b: a * b, 0, 1,
                    elements=None)


def minplus(cap: int) -> Semiring:
    """Tropical semiring saturated at cap, with a genuine top element."""

    def norm(v):
        if v == INF:
            return INF
        return min(v, cap)

    def add(a, b):
        if a == INF:
            return b
        if b == INF:
            return a
        return min(a, b)

    def mul(a, b):
        if a == INF or b == INF:
            return INF
        return norm(a + b)

    guard_size(cap + 2, f"listing minplus{cap}")
    return Semiring(f"minplus{cap}", add, mul, INF, 0,
                    elements=tuple(range(cap + 1)) + (INF,))


# An infinite carrier is spot-checked on this many integer triples, drawn
# from this seed.
SAMPLES = 200
SEED = 0


def check_semiring(k: Semiring) -> LawReport:
    """Verify the semiring laws, exhaustively when the carrier is finite.

    Infinite carriers are spot-checked on seeded integer triples.
    """
    report = LawReport(f"semiring {k.name}")
    if k.finite:
        triples = itertools.product(k.elements, repeat=3)
        mode = "exhaustive"
    else:
        rng = random.Random(SEED)
        triples = [tuple(rng.randrange(0, 100) for _ in range(3)) for _ in range(SAMPLES)]
        mode = f"sampled({SAMPLES})"

    checks = [
        ("add-associative", lambda a, b, c: k.add(k.add(a, b), c) == k.add(a, k.add(b, c))),
        ("add-commutative", lambda a, b, c: k.add(a, b) == k.add(b, a)),
        ("add-unit", lambda a, b, c: k.add(a, k.zero) == a and k.add(k.zero, a) == a),
        ("mul-associative", lambda a, b, c: k.mul(k.mul(a, b), c) == k.mul(a, k.mul(b, c))),
        ("mul-unit", lambda a, b, c: k.mul(a, k.one) == a and k.mul(k.one, a) == a),
        ("left-distributive", lambda a, b, c: k.mul(a, k.add(b, c)) == k.add(k.mul(a, b), k.mul(a, c))),
        ("right-distributive", lambda a, b, c: k.mul(k.add(a, b), c) == k.add(k.mul(a, c), k.mul(b, c))),
        ("zero-annihilates", lambda a, b, c: k.mul(a, k.zero) == k.zero and k.mul(k.zero, a) == k.zero),
    ]
    triples = list(triples)
    for law, pred in checks:
        report.first(law, mode, ({"triple": [a, b, c]}
                                 for a, b, c in triples if not pred(a, b, c)))
    return report
