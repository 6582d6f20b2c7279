"""Known answers for the benchmark, computed without importing barrlab.

Every expectation here comes from the mathematics or from the way an input
was generated, never from the code under test:

* builtin monads, laws and liftings satisfy their laws (they are theorems), so
  every instance passes unless the blow-up guard skips it;
* which instances the guard skips follows from cardinality formulas;
* behaviour coefficients and anamorphism legs come from running the automaton;
* chain level sizes and elements come from the Moore functor's formula;
* limit coefficients are the sums the polynomial sequence was built from;
* series distances are the length of the first word the generator changed.

A check returns None when the answer is right and a short reason otherwise.
"""

from __future__ import annotations

import itertools
import json

PASS, FAIL, SKIP = "pass", "fail", "skipped"

GUARD = 10**6  # barrlab's default blow-up guard; the benchmark unsets any override

# Cardinality of each builtin monad on an n-element set.
MONAD_CARD = {
    "maybe": lambda n: n + 1,
    "powerset": lambda n: 2**n,
    "semimodule:z2": lambda n: 2**n,
}

SEMIRING_SIZE = {"bool": 2, "z2": 2, "z3": 3}


def tower_fits(card, n: int, height: int) -> bool:
    """True when |M^k X| stays within the guard for k = 1..height."""
    for _ in range(height):
        n = card(n)
        if n > GUARD:
            return False
    return True


# ---------------------------------------------------------------------------
# Verdict projection


def law_rows(doc: dict) -> list:
    """The ordered (law, instance, status, counterexample) list of a law report."""
    return [(c["law"], c["instance"], c["status"], c.get("counterexample"))
            for c in doc["checks"]]


def project(code, doc, keys=None):
    """What a verdict is compared on: the exit code, `passed`, and either the
    law rows or the named keys of a construction's result.  Timing fields and
    any added count fields are left out."""
    if doc is None:
        return (code, None)
    if "error" in doc:
        return (code, "error", doc["error"])
    result = doc.get("result")
    if isinstance(result, dict) and "checks" in result:
        body = law_rows(result)
    elif keys is not None and isinstance(result, dict):
        body = {k: law_rows(v) if isinstance(v, dict) and "checks" in v else v
                for k, v in ((k, result.get(k)) for k in keys)}
    else:
        body = result
    return (code, doc.get("passed"), json.dumps(body, sort_keys=True, default=str))


def expect_result(test, code: int = 0, passed: bool = True):
    """A check of the exit code and `passed` flag, then `test(result)`."""
    def check(got_code, doc):
        if got_code != code:
            return f"exit code {got_code}, expected {code}"
        if doc.get("passed") is not passed:
            return f"passed is {doc.get('passed')}, expected {passed}"
        return test(doc["result"])

    return check


def expect_law_rows(rows: list, code: int = 0):
    """A check that the report is exactly `rows` (a counterexample of None
    stands for none) with the matching exit code and `passed` flag."""
    rows = [tuple(r) for r in rows]

    def test(result):
        got = law_rows(result)
        if got == rows:
            return None
        diff = next((i for i, (a, b) in enumerate(zip(got, rows)) if a != b),
                    min(len(got), len(rows)))
        return (f"law rows differ at {diff}: got "
                f"{got[diff] if diff < len(got) else None}, expected "
                f"{rows[diff] if diff < len(rows) else None}")

    return expect_result(test, code, all(r[2] != FAIL for r in rows))


def _carriers(max_size: int):
    return [(n, f"X{n}") for n in range(max_size + 1)]


def monad_rows(card, max_size: int) -> list:
    """Instances of the monad-law checker, all passing unless guarded."""
    rows = []
    for n, x in _carriers(max_size):
        rows += [("map-identity", x, PASS, None), ("left-unit", x, PASS, None),
                 ("right-unit", x, PASS, None),
                 ("mult-associativity", x,
                  PASS if tower_fits(card, n, 3) else SKIP, None)]
    for n, x in _carriers(max_size):
        for _m, y in _carriers(max_size):
            rows.append(("unit-naturality", f"{x}->{y}", PASS, None))
            rows.append(("mult-naturality", f"{x}->{y}",
                         PASS if tower_fits(card, n, 2) else SKIP, None))
            for _k, z in _carriers(max_size):
                rows.append(("map-composition", f"{x}->{y}->{z}", PASS, None))
    return rows


def algebra_rows(card, carrier_size: int, carrier_label: str) -> list:
    return [("unit-law", carrier_label, PASS, None),
            ("multiplication-law", carrier_label,
             PASS if tower_fits(card, carrier_size, 2) else SKIP, None)]


def distlaw_em_rows(card, functor_card, max_size: int) -> list:
    """Instances of the EM-direction checker for a formula law (components
    exist on every carrier)."""
    rows = []
    for n, x in _carriers(max_size):
        rows.append(("unit-axiom", x, PASS, None))
        rows.append(("mult-axiom", x,
                     PASS if tower_fits(card, functor_card(n), 2) else SKIP, None))
    for n, x in _carriers(max_size):
        for _m, y in _carriers(max_size):
            rows.append(("naturality", f"{x}->{y}",
                         PASS if tower_fits(card, functor_card(n), 1) else SKIP,
                         None))
    return rows


def distlaw_kl_rows(card, max_size: int) -> list:
    rows = []
    for n, x in _carriers(max_size):
        rows.append(("unit-axiom", x, PASS, None))
        rows.append(("mult-axiom", x, PASS if tower_fits(card, n, 2) else SKIP, None))
    for _n, x in _carriers(max_size):
        for _m, y in _carriers(max_size):
            rows.append(("naturality", f"{x}->{y}", PASS, None))
    return rows


def commuting_rows(card, hm_card, max_size: int) -> list:
    """Instances of the commuting-pair checker; `hm_card(n)` is |H(M X_n)|."""
    rows = []
    for n, x in _carriers(max_size):
        rows += [("cardinality", x, PASS, None), ("bijection", x, PASS, None),
                 ("algebra-square", x,
                  PASS if tower_fits(card, hm_card(n), 1) else SKIP, None)]
    for _n, x in _carriers(max_size):
        for _m, y in _carriers(max_size):
            rows.append(("naturality", f"{x}->{y}", PASS, None))
    return rows


def lemma_rows(which: str, levels: int) -> list:
    if which == "lemma1":
        return [("cone-coincidence", f"level {n}", PASS, None) for n in range(levels + 1)]
    return [("projection-morphism", f"level {n + 1}->{n}", PASS, None)
            for n in range(levels)]


# ---------------------------------------------------------------------------
# Automata, chains and series


def words_below(letters, bound: int) -> list:
    """Words of length < bound in length-lexicographic order, as strings."""
    out = []
    for length in range(bound):
        out += ["".join(w) for w in itertools.product(letters, repeat=length)]
    return out


def run_automaton(aut: dict, state: str, word: str) -> str:
    for a in word:
        state = aut["delta"][state][a]
    return state


def behavior_coefficients(aut: dict, state: str, depth: int) -> dict:
    return {w: aut["output"][run_automaton(aut, state, w)]
            for w in words_below(aut["alphabet"], depth)}


def unfold(aut: dict, state: str, level: int):
    """The level-`level` leg of the automaton's cone on the terminal chain of
    K x X^A, encoded as barrlab encodes chain elements."""
    if level == 0:
        return "*"
    return [aut["output"][state],
            [unfold(aut, aut["delta"][state][a], level - 1) for a in aut["alphabet"]]]


def moore_level_sizes(k: int, letters: int, depth: int) -> list:
    sizes = [1]
    for _ in range(depth):
        sizes.append(k * sizes[-1] ** letters)
    return sizes


def moore_level_elements(k: int, letters: int, level: int) -> list:
    elements = ["*"]
    for _ in range(level):
        elements = [[c, list(succ)] for c in range(k)
                    for succ in itertools.product(elements, repeat=letters)]
    return elements


def truncate(el, level: int):
    """Truncate a Moore chain element to a lower level."""
    if level == 0:
        return "*"
    return [el[0], [truncate(s, level - 1) for s in el[1]]]


def element_depth(el) -> int:
    return 0 if el == "*" else 1 + element_depth(el[1][0])


def canonical(values) -> list:
    return sorted(json.dumps(v, sort_keys=True) for v in values)
