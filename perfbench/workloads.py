"""The benchmark's four workloads: CLI argument lists with known answers.

Each request is the argv of one `barrlab.cli.main` call (always with
`--format json`) plus a check against an answer from `oracle`.  Why each
workload and instance was chosen is recorded in README.md beside this file.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable, Optional

from oracle import (MONAD_CARD, SEMIRING_SIZE, algebra_rows, behavior_coefficients,
                    canonical, commuting_rows, distlaw_em_rows, distlaw_kl_rows,
                    element_depth, expect_law_rows, expect_result, lemma_rows, monad_rows,
                    moore_level_elements, moore_level_sizes, truncate, unfold,
                    words_below, FAIL, PASS, SKIP)

Check = Callable[[int, dict], Optional[str]]


@dataclass(frozen=True)
class Request:
    kind: str
    argv: tuple
    check: Check
    keys: Optional[tuple] = None  # result keys a construction is compared on


def _request(kind: str, argv: list, check: Check, keys=None) -> Request:
    return Request(kind, tuple(argv) + ("--format", "json"), check,
                   tuple(keys) if keys else None)


def _equal(name: str, got, want) -> Optional[str]:
    return None if got == want else f"{name}: got {got!r}, expected {want!r}"


# ---------------------------------------------------------------------------
# law-checks


# The identity functor over maybe with a constant component: the unit axiom
# fails at X1, and the minimal counterexample is the element 0 sent to
# Nothing where the unit gives Just 0.  At X0 the axiom holds vacuously; the
# multiplication axiom has no component at maybe(X) and is skipped.
BROKEN_LAW = {
    "monad": "maybe", "functor": "id", "name": "constant-nothing",
    "components": {
        "0": {json.dumps([0, "*"]): [0, "*"]},
        "1": {json.dumps([0, "*"]): [0, "*"], json.dumps([1, 0]): [0, "*"]},
    },
}
BROKEN_ROWS = [
    ("unit-axiom", "X0", PASS, None),
    ("mult-axiom", "X0", SKIP, None),
    ("unit-axiom", "X1", FAIL, {"carrier": "X1", "element": 0,
                                "lhs": [0, "*"], "rhs": [1, 0]}),
    ("mult-axiom", "X1", SKIP, None),
    ("naturality", "X0->X0", PASS, None),
    ("naturality", "X0->X1", PASS, None),
    ("naturality", "X1->X0", PASS, None),
    ("naturality", "X1->X1", PASS, None),
]

PARTNER = {"monad": "semimodule:z2",
           "partner": {"generators": {"elements": ["*"]},
                       "alphabet": {"elements": ["a"]}}}


def law_checks(seed: int) -> list[Request]:
    z2 = MONAD_CARD["semimodule:z2"]
    requests = [
        _request("check-monad maybe", ["check-monad", "maybe", "--max-size", "4"],
                 expect_law_rows(monad_rows(MONAD_CARD["maybe"], 4))),
        _request("check-monad semimodule:z2", ["check-monad", "semimodule:z2"],
                 expect_law_rows(monad_rows(z2, 3))),
        _request("check-monad powerset", ["check-monad", "powerset"],
                 expect_law_rows(monad_rows(MONAD_CARD["powerset"], 3))),
        # The free algebra on X2: its carrier z2^2 has 4 elements.
        _request("check-algebra free z2 X2",
                 ["check-algebra", json.dumps({"monad": "semimodule:z2", "free_on": "X2"})],
                 expect_law_rows(algebra_rows(z2, 4, "semimodule[z2](X2)"))),
        _request("check-distlaw kl words",
                 ["check-distlaw", "kl", "words:1letter:semimodule:z2", "--max-size", "3"],
                 expect_law_rows(distlaw_kl_rows(z2, 3))),
        # H = z2[*] x X^{a}: |H(M X_n)| = 2 * 2^n.
        _request("commute check partner",
                 ["commute", "check", json.dumps(PARTNER), "--max-size", "2"],
                 expect_law_rows(commuting_rows(z2, lambda n: 2 * 2**n, 2))),
        _request("check-distlaw broken",
                 ["check-distlaw", "em", json.dumps(BROKEN_LAW), "--max-size", "1"],
                 expect_law_rows(BROKEN_ROWS, code=1)),
    ]
    random.Random(seed).shuffle(requests)
    return requests


# ---------------------------------------------------------------------------
# level-algebras


def level_algebras(seed: int) -> list[Request]:
    """The two recomputation-bound checks of the Moore law over z2: level
    structures rebuilt from the level below, and the law's components
    re-deriving the same projections.  The distributive-law check runs here
    rather than in law-checks so that law-checks fits several passes."""
    requests = [
        _request("lemma2 moore:z2:1letter levels 4",
                 ["lemma2", "--law", "moore:z2:1letter", "--levels", "4"],
                 expect_law_rows(lemma_rows("lemma2", 4))),
        # H X = z2 x X: |H X_n| = 2n.
        _request("check-distlaw moore:z2:1letter",
                 ["check-distlaw", "moore:z2:1letter", "--max-size", "2"],
                 expect_law_rows(distlaw_em_rows(MONAD_CARD["semimodule:z2"],
                                                 lambda n: 2 * n, 2))),
    ]
    random.Random(seed).shuffle(requests)
    return requests


# ---------------------------------------------------------------------------
# sigma-search


def _product_functor(letters) -> str:
    return json.dumps({"prod": [{"const": {"elements": letters}}, "id"]})


def _sigma_search(group: int, letters: list, max_size: int) -> Request:
    """T = H = A x X over writer:z<group> with the swap law.  A bijection
    exists (the swap itself is natural), so the search ends in `found`; its
    components are bijections of size |A| * |G| * n.  The number of
    bijections tried is a count, so it is left out of the verdict."""
    law = {"monad": f"writer:z{group}",
           "family": {"name": "swap", "constant": {"elements": letters}}}

    def test(result):
        if result.get("status") != "found":
            return f"status {result.get('status')!r}, expected 'found'"
        sigma = result.get("sigma", {})
        for n in range(max_size + 1):
            table = sigma.get(f"X{n}")
            size = len(letters) * group * n
            if table is None or len(table) != size:
                return f"sigma at X{n} has {len(table or {})} entries, expected {size}"
            if len(set(canonical(table.values()))) != size:
                return f"sigma at X{n} is not injective"
        return None

    return _request(f"commute search writer:z{group} |A|={len(letters)}",
                    ["commute", "search", "--T", _product_functor(letters),
                     "--H", _product_functor(letters), "--law", json.dumps(law),
                     "--max-size", str(max_size)],
                    expect_result(test), keys=("status",))


def sigma_search(seed: int) -> list[Request]:
    requests = [_sigma_search(5, ["p", "q"], 1), _sigma_search(3, ["p", "q", "r"], 1)]
    random.Random(seed).shuffle(requests)
    return requests


# ---------------------------------------------------------------------------
# queries
#
# Each kind gets a fixed number of requests, and the choices that set a
# request's cost (alphabet size, depth, semiring, law) cycle through fixed
# lists by the request's index within its kind.  The seed draws the contents
# (automata, states, coefficients, levels) and the order, so the work in a
# pass barely depends on the seed.


def _letters(n: int) -> list:
    return ["t"] if n == 1 else list("abc")[:n]


def _automaton(rng: random.Random, letters: list, semiring: str) -> dict:
    states = [f"s{i}" for i in range(rng.randint(2, 6))]
    k = SEMIRING_SIZE[semiring]
    return {"states": states, "alphabet": letters, "semiring": semiring,
            "output": {s: rng.randrange(k) for s in states},
            "delta": {s: {a: rng.choice(states) for a in letters} for s in states}}


def _q_behavior(rng, i):
    letters, depth = ((2, 9), (2, 10), (2, 11), (3, 6), (3, 7))[i % 5]
    letters = _letters(letters)
    aut = _automaton(rng, letters, ("bool", "z2", "z3")[i % 3])
    state = rng.choice(aut["states"])
    return _request("behavior", ["behavior", "--automaton", json.dumps(aut),
                                 "--state", state, "--depth", str(depth)],
                    expect_result(lambda r: _equal(
                        "coefficients", r.get("coefficients"),
                        behavior_coefficients(aut, state, depth))),
                    keys=("coefficients",))


def _q_anamorphism(rng, i):
    # One letter at the default --depth 8: the command builds the chain to
    # max(level, depth), which two letters would push past the guard.
    aut = _automaton(rng, ["t"], ("bool", "z2")[i % 2])
    state = rng.choice(aut["states"])
    level = rng.randint(1, 8)
    return _request("anamorphism", ["anamorphism", "--automaton", json.dumps(aut),
                                    "--state", state, "--level", str(level)],
                    expect_result(lambda r: _equal("element", r.get("element"),
                                                   unfold(aut, state, level))),
                    keys=("element",))


def _q_density(rng, i):
    depth = 5 + i % 4
    n = rng.randint(1, depth - 1)
    seed = rng.randrange(10**6)

    def test(r):
        point, approx = r.get("point"), r.get("approximant")
        if element_depth(point) != depth or element_depth(approx) != depth:
            return "point or approximant is not at the chain depth"
        if truncate(point, n) != truncate(approx, n) or r.get("projection_matches") is not True:
            return f"projections to level {n} differ"
        first = next((m for m in range(depth + 1)
                      if truncate(point, m) != truncate(approx, m)), None)
        want = {"agree_depth": first} if first is not None else {"gt_probe": depth}
        return (_equal("distance", r.get("distance"), want)
                or _equal("level", r.get("level"), n)
                or _equal("bound", r.get("bound"), f"2^-{n}"))

    return _request("density", ["density", "--functor", "moore:z2:1letter", "--depth",
                                str(depth), "--n", str(n), "--seed", str(seed)],
                    expect_result(test),
                    keys=("level", "point", "approximant", "projection_matches",
                          "distance", "bound"))


# (letters, semiring, depth) of the chain inspect requests.
CHAINS = ((1, "bool", 9), (1, "z2", 10), (1, "z3", 5), (1, "bool", 10), (1, "z3", 6),
          (2, "z2", 3), (2, "bool", 3), (2, "z3", 2))


def _q_chain(rng, i):
    letters, semiring, depth = CHAINS[i % len(CHAINS)]
    k = SEMIRING_SIZE[semiring]
    level = rng.randint(0, min(depth, 5 if letters == 1 else 2))
    shorthand = f"moore:{semiring}:{letters}letter{'s' if letters > 1 else ''}"

    def test(r):
        return (_equal("level_sizes", r.get("level_sizes"), moore_level_sizes(k, letters, depth))
                or _equal("elements", canonical(r.get("elements", [])),
                          canonical(moore_level_elements(k, letters, level))))

    return _request("chain inspect", ["chain", "inspect", "--functor", shorthand,
                                      "--depth", str(depth), "--level", str(level)],
                    expect_result(test), keys=("level_sizes", "elements"))


# The limit construction needs M(0) = 1, so exception monads with more than
# one error are left out (they exit 2 with ZeroObjectViolation).
LEMMA_LAWS = ("moore:z2:1letter", "pointed:3:maybe", "pointed:4:maybe", "pointed:5:maybe")


def _q_lemma(rng, i):
    which = ("lemma1", "lemma2")[i % 2]
    law = LEMMA_LAWS[(i // 2) % len(LEMMA_LAWS)]
    levels = 2 + (i // 8) % 2
    return _request(which, [which, "--law", law, "--levels", str(levels)],
                    expect_law_rows(lemma_rows(which, levels)))


def _q_limit(rng, i):
    letters, depth = ((1, 25), (1, 30), (1, 35), (2, 5), (2, 6))[i % 5]
    letters = _letters(letters)
    words = words_below(letters, depth + 2)
    target = {w: rng.randrange(6) for w in words}
    polys = []
    for n in range(depth + 1):
        # Terms of length < n are the partial sum; longer ones are noise
        # that later terms overwrite, so only the modulus n = r + 1 reads
        # the stable coefficients of length r.
        terms = {w: c for w, c in target.items() if len(w) < n and c}
        terms.update({w: rng.randrange(1, 6) for w in words
                      if n <= len(w) <= n + 1 and rng.random() < 0.3})
        polys.append({"alphabet": letters, "semiring": "nat", "terms": terms})
    seq = {"polynomials": polys, "modulus": [r + 1 for r in range(depth)]}
    return _request("limit", ["limit", "--sequence", json.dumps(seq), "--depth", str(depth)],
                    expect_result(lambda r: _equal(
                        "coefficients", r.get("coefficients"),
                        {w: target[w] for w in words_below(letters, depth)})),
                    keys=("coefficients",))


def _q_distance(rng, i):
    letters, bound = ((2, 8), (2, 9), (2, 10), (3, 5), (3, 6))[i % 5]
    letters = _letters(letters)
    words = words_below(letters, bound)
    left = {w: rng.randrange(3) for w in words}
    right = dict(left)
    if i % 10 == 9:
        want = {"gt_probe": bound}
    else:
        first = rng.choice(words)
        for w in [first] + [w for w in words if len(w) > len(first) and rng.random() < 0.2]:
            right[w] = (right[w] + 1) % 3
        want = {"agree_depth": len(first)}

    def series(coeffs):
        return json.dumps({"alphabet": letters, "bound": bound, "coefficients": coeffs})

    return _request("distance", ["distance", "--left", series(left), "--right", series(right)],
                    expect_result(lambda r: _equal("distance", r, want)),
                    keys=tuple(want))


def _q_lift(rng, i):
    if i % 2 == 0:
        group, m = 2 + (i // 2) % 4, 2 + (i // 8) % 2
        law = f"gset-z{group}-{rng.choice(('mult', 'conj'))}"
        algebra = {"monad": f"writer:z{group}", "free_on": f"X{m}"}
        size = group * group * m           # |G x (G x X_m)|
        table = group * size                # |M(H C)| for the writer monad
    else:
        k, m = 4 + (i // 2) % 4, 4 + (i // 8) % 4
        law = f"pointed:{k}:maybe"
        algebra = {"monad": "maybe", "free_on": f"X{m}"}
        size = k * (m + 1)                  # |k x maybe(X_m)|
        table = size + 1

    def test(r):
        laws = [(c["law"], c["status"]) for c in r.get("algebra_laws", {}).get("checks", [])]
        return (_equal("size", r.get("size"), size)
                or _equal("structure entries", len(r.get("structure", {})), table)
                or _equal("algebra laws", laws,
                          [("unit-law", PASS), ("multiplication-law", PASS)]))

    return _request("lift", ["lift", law, json.dumps(algebra)],
                    expect_result(test), keys=("size", "structure", "algebra_laws"))


# Every kind gets the same number of requests in one pass of `queries`.
QUERY_KINDS = (_q_behavior, _q_anamorphism, _q_density, _q_chain, _q_lemma, _q_limit,
               _q_distance, _q_lift)
PER_KIND = 125


def queries(seed: int) -> list[Request]:
    rng = random.Random(seed)
    requests = [maker(rng, i) for maker in QUERY_KINDS for i in range(PER_KIND)]
    rng.shuffle(requests)
    return requests


WORKLOADS = {
    "law-checks": law_checks,
    "level-algebras": level_algebras,
    "sigma-search": sigma_search,
    "queries": queries,
}
