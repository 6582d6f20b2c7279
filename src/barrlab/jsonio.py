"""Loading and dumping the JSON documents the CLI consumes: sets, functions,
monoids, semirings, monads, distributive laws, algebras, automata, series,
polynomials and commuting-pair candidates.

Builtin objects have compact string shorthands ("maybe", "writer:s3",
"semimodule:z2", "gset-s3-conj", "moore:z2:1letter"); everything else comes
as explicit tables.  Errors cite the offending path and key.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import re
from typing import Optional

from .algebras import EMAlgebra, free_algebra, terminal_algebra
from .errors import InputError, NonFinitePreserving
from .finset import Element, FinFn, FinSet, carrier
from .functors import Compose, Const, Coprod, FunctorExpr, Id, Power, Prod, moore_functor
from .groups import FinGroup, FinMonoid, as_group, cyclic_group, symmetric_group
from .lifting import (DistLawEM, DistLawKl, TableDistLawEM, TableDistLawKl,
                      constant_law, gset_distlaws, identity_law, pointed_law,
                      product_swap_law, semimodule_moore_law, semimodule_stream_law)
from .monads import (ExceptionMonad, FinMonad, SemimoduleMonad, TableMonad,
                     WriterMonad, exception_monad, maybe_monad,
                     powerset_monad, semimodule_monad, writer_monad)
from .semiring import Semiring, boolean_semiring, minplus, naturals, zmod
from .series import MooreAutomaton, Polynomial, TruncatedSeries, words_below


# ---------------------------------------------------------------------------
# Element codec: nested tuples <-> nested JSON lists


def encode_element(el: Element):
    if isinstance(el, tuple):
        return [encode_element(x) for x in el]
    return el


def decode_element(doc) -> Element:
    if isinstance(doc, list):
        return tuple(decode_element(x) for x in doc)
    return doc


def _resolve_key(key: str, universe: FinSet, path: str) -> Element:
    """Map a JSON object key back to an element: parse as JSON if possible,
    fall back to the raw string label."""
    try:
        el = decode_element(json.loads(key))
    except (json.JSONDecodeError, ValueError):
        el = key
    if el in universe:
        return el
    if key in universe:
        return key
    raise InputError(f"{path}: key {key!r} is not an element of {universe.name}")


def _names_path(load):
    """Report a missing key, a wrong type or a short array anywhere in the
    document as an InputError that names the document's JSON path."""
    params = inspect.signature(load).parameters
    position, default = list(params).index("path"), params["path"].default

    @functools.wraps(load)
    def wrapper(*args, **kwargs):
        try:
            return load(*args, **kwargs)
        except (KeyError, TypeError, IndexError) as exc:
            path = kwargs.get("path", args[position] if len(args) > position else default)
            if isinstance(exc, KeyError):
                detail = f"missing key {exc}"
            elif isinstance(exc, IndexError):
                detail = f"too few entries ({exc})"
            else:
                detail = f"wrong type ({exc})"
            raise InputError(f"{path}: {detail}") from None

    return wrapper


# ---------------------------------------------------------------------------
# Sets and functions


@_names_path
def load_finset(doc, path: str = "set") -> FinSet:
    if isinstance(doc, str):
        m = re.fullmatch(r"[Xx](\d+)", doc)
        if m:
            return carrier(int(m.group(1)))
        raise InputError(f"{path}: unknown set shorthand {doc!r}")
    if isinstance(doc, list):
        return FinSet(path, [decode_element(e) for e in doc])
    if isinstance(doc, dict):
        try:
            return FinSet(doc.get("name", path),
                          [decode_element(e) for e in doc["elements"]])
        except KeyError:
            raise InputError(f"{path}: a set document needs an 'elements' array") from None
        except ValueError as exc:
            raise InputError(f"{path}: {exc}") from None
    raise InputError(f"{path}: expected a set document, got {type(doc).__name__}")


@_names_path
def load_function(doc, dom: FinSet, cod: FinSet, path: str = "function") -> FinFn:
    if not isinstance(doc, dict):
        raise InputError(f"{path}: functions are JSON objects mapping inputs to outputs")
    table = {}
    for key, val in doc.items():
        table[_resolve_key(key, dom, path)] = decode_element(val)
    try:
        return FinFn(dom, cod, table)
    except Exception as exc:
        raise InputError(f"{path}: {exc}") from None


def _load_op_table(doc, elements, path: str):
    """Nested object {a: {b: result}} -> dict[(a, b)] -> result, with an
    entry for every pair of elements and every result an element."""
    table = {}
    try:
        universe = FinSet(path, elements)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from None
    for ka, row in doc.items():
        a = _resolve_key(ka, universe, path)
        if not isinstance(row, dict):
            raise InputError(f"{path}: row {ka!r} must be an object")
        for kb, val in row.items():
            table[(a, _resolve_key(kb, universe, path))] = decode_element(val)
    for pair in itertools.product(elements, repeat=2):
        if pair not in table:
            raise InputError(f"{path}: no entry for {pair!r}")
        if table[pair] not in universe:
            raise InputError(f"{path}: {pair!r} gives {table[pair]!r}, not an element")
    return table


# ---------------------------------------------------------------------------
# Monoids, groups, semirings


@_names_path
def load_monoid(doc, path: str = "monoid") -> FinMonoid:
    if isinstance(doc, str):
        name = doc.lower()
        if name == "s3":
            return symmetric_group(3)
        m = re.fullmatch(r"s(\d+)", name)
        if m:
            return symmetric_group(int(m.group(1)))
        m = re.fullmatch(r"z(\d+)", name)
        if m:
            return cyclic_group(int(m.group(1)))
        raise InputError(f"{path}: unknown monoid shorthand {doc!r}")
    try:
        elements = [decode_element(e) for e in doc["elements"]]
        op = _load_op_table(doc["op"], elements, f"{path}.op")
        unit = decode_element(doc["unit"])
        return FinMonoid(doc.get("name", path), elements, op, unit)
    except InputError:
        raise
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from None


@_names_path
def load_group(doc, path: str = "group") -> FinGroup:
    return as_group(load_monoid(doc, path))


@_names_path
def load_semiring(doc, path: str = "semiring") -> Semiring:
    if isinstance(doc, str):
        name = doc.lower()
        if name in ("bool", "boolean", "2"):
            return boolean_semiring()
        if name == "nat":
            return naturals()
        m = re.fullmatch(r"z(\d+)", name)
        if m:
            return zmod(int(m.group(1)))
        m = re.fullmatch(r"minplus:?(\d+)", name)
        if m:
            return minplus(int(m.group(1)))
        raise InputError(f"{path}: unknown semiring shorthand {doc!r}")
    elements = [decode_element(e) for e in doc["elements"]]
    add = _load_op_table(doc["add"], elements, f"{path}.add")
    mul = _load_op_table(doc["mul"], elements, f"{path}.mul")
    zero, one = decode_element(doc["zero"]), decode_element(doc["one"])
    for key, value in (("zero", zero), ("one", one)):
        if value not in elements:
            raise InputError(f"{path}.{key}: {value!r} is not an element")
    return Semiring(doc.get("name", path),
                    lambda a, b: add[(a, b)], lambda a, b: mul[(a, b)],
                    zero, one,
                    elements=elements,
                    mul_commutative=bool(doc.get("mul_commutative", False)))


# ---------------------------------------------------------------------------
# Monads


@_names_path
def load_monad(doc, path: str = "monad") -> FinMonad:
    if isinstance(doc, str):
        name = doc.strip()
        lowered = name.lower()
        if lowered == "maybe":
            return maybe_monad()
        if lowered == "powerset":
            return powerset_monad()
        if lowered == "list":
            raise NonFinitePreserving(
                "the list monad is not finiteness-preserving and is rejected")
        m = re.fullmatch(r"exception(?::(\d+))?", lowered)
        if m:
            return exception_monad(int(m.group(1) or 2))
        m = re.fullmatch(r"writer:(.+)", name, flags=re.IGNORECASE)
        if m:
            return writer_monad(load_monoid(m.group(1), f"{path}.monoid"))
        m = re.fullmatch(r"semimodule:(.+)", name, flags=re.IGNORECASE)
        if m:
            k = load_semiring(m.group(1), f"{path}.semiring")
            if not k.finite:
                raise NonFinitePreserving(
                    f"{path}: semimodule monad needs a finite semiring")
            return semimodule_monad(k)
        raise InputError(f"{path}: unknown monad shorthand {doc!r}")
    if not isinstance(doc, dict):
        raise InputError(f"{path}: expected a monad document")
    if "builtin" in doc:
        name = doc["builtin"]
        if name == "writer":
            return writer_monad(load_monoid(doc["monoid"], f"{path}.monoid"))
        if name == "semimodule":
            return semimodule_monad(load_semiring(doc["semiring"], f"{path}.semiring"))
        if name == "exception":
            return exception_monad(int(doc.get("errors", 2)))
        return load_monad(name, path)
    if "tables" in doc:
        return _load_table_monad(doc, path)
    raise InputError(f"{path}: monad document needs 'builtin' or 'tables'")


def _load_table_monad(doc, path: str) -> TableMonad:
    tables = doc["tables"]
    sizes = {}
    for key, level in tables.items():
        try:
            n = int(key)
        except ValueError:
            raise InputError(f"{path}.tables: carrier keys are sizes, got {key!r}") from None
        elements = [decode_element(e) for e in level["elements"]]
        unit_doc = level.get("unit", [])
        if len(unit_doc) != n:
            raise InputError(f"{path}.tables.{n}: unit must list {n} values")
        unit = {i: decode_element(v) for i, v in enumerate(unit_doc)}
        mult = {}
        for k2, v in level.get("mult", {}).items():
            try:
                key2 = decode_element(json.loads(k2))
            except json.JSONDecodeError:
                raise InputError(
                    f"{path}.tables.{n}.mult: keys are JSON-encoded elements, "
                    f"got {k2!r}") from None
            mult[key2] = decode_element(v)
        sizes[n] = {"elements": elements, "unit": unit, "mult": mult}
    maps = {}
    for entry in doc.get("maps", []):
        key = (int(entry["dom"]), int(entry["cod"]), tuple(entry["values"]))
        dom_elements = sizes[int(entry["dom"])]["elements"]
        universe = FinSet("dom", dom_elements)
        table = {}
        for k2, v in entry["table"].items():
            table[_resolve_key(k2, universe, f"{path}.maps")] = decode_element(v)
        maps[key] = table
    return TableMonad(doc.get("name", "table-monad"), sizes, maps)


# ---------------------------------------------------------------------------
# Functor expressions


_MOORE_RE = re.compile(r"moore:([^:]+):(\d+)letters?", flags=re.IGNORECASE)


def standard_alphabet(n: int) -> tuple:
    """One letter is 't' (the classic formal-variable); more get a, b, c.."""
    if n == 1:
        return ("t",)
    return tuple("abcdefghijklmnopqrstuvwxyz"[:n])


@_names_path
def load_functor(doc, path: str = "functor") -> FunctorExpr:
    if isinstance(doc, str):
        name = doc.strip()
        if name.lower() in ("id", "x"):
            return Id()
        m = _MOORE_RE.fullmatch(name)
        if m:
            k = load_semiring(m.group(1), f"{path}.semiring")
            letters = standard_alphabet(int(m.group(2)))
            return moore_functor(k.as_finset(), FinSet("A", letters))
        raise InputError(f"{path}: unknown functor shorthand {doc!r}")
    if not isinstance(doc, dict):
        raise InputError(f"{path}: expected a functor document")
    if "const" in doc:
        return Const(load_finset(doc["const"], f"{path}.const"))
    if "prod" in doc:
        return Prod(tuple(load_functor(d, f"{path}.prod[{i}]")
                          for i, d in enumerate(doc["prod"])))
    if "coprod" in doc:
        return Coprod(tuple(load_functor(d, f"{path}.coprod[{i}]")
                            for i, d in enumerate(doc["coprod"])))
    if "power" in doc:
        spec = doc["power"]
        return Power(load_finset(spec["exponent"], f"{path}.power.exponent"),
                     load_functor(spec["body"], f"{path}.power.body"))
    if "compose" in doc:
        outer, inner = doc["compose"]
        return Compose(load_functor(outer, f"{path}.compose[0]"),
                       load_functor(inner, f"{path}.compose[1]"))
    raise InputError(f"{path}: unrecognised functor document keys {sorted(doc)}")


# ---------------------------------------------------------------------------
# Distributive laws


_GSET_RE = re.compile(r"gset-([a-z0-9]+)-(mult|conj)", flags=re.IGNORECASE)
_POINTED_RE = re.compile(r"pointed:(\d+):(.+)", flags=re.IGNORECASE)


@_names_path
def load_distlaw_em(doc, path: str = "law") -> DistLawEM:
    if isinstance(doc, str):
        name = doc.strip()
        m = _GSET_RE.fullmatch(name)
        if m:
            group = load_group(m.group(1), f"{path}.group")
            law_mult, law_conj = gset_distlaws(group)
            return law_mult if m.group(2).lower() == "mult" else law_conj
        m = _MOORE_RE.fullmatch(name)
        if m:
            k = load_semiring(m.group(1), f"{path}.semiring")
            letters = standard_alphabet(int(m.group(2)))
            return semimodule_moore_law(semimodule_monad(k), FinSet("A", letters))
        m = _POINTED_RE.fullmatch(name)
        if m:
            outputs = FinSet("k", range(int(m.group(1))))
            monad = load_monad(m.group(2), f"{path}.monad")
            if not isinstance(monad, ExceptionMonad):
                raise InputError(f"{path}: pointed laws need a maybe/exception monad")
            return pointed_law(monad, outputs)
        raise InputError(f"{path}: unknown law shorthand {doc!r}")
    if not isinstance(doc, dict):
        raise InputError(f"{path}: expected a law document")
    monad = load_monad(doc["monad"], f"{path}.monad")
    family = doc.get("family")
    if family is not None:
        fname = family["name"] if isinstance(family, dict) else family
        params = family if isinstance(family, dict) else {}
        if fname == "identity":
            return identity_law(monad)
        if fname == "gset":
            laws = gset_distlaws(load_group(params.get("group", "z2"), f"{path}.group"))
            return laws[0] if params.get("variant", "mult") == "mult" else laws[1]
        if fname == "moore":
            if not isinstance(monad, SemimoduleMonad):
                raise InputError(f"{path}: the moore family needs a semimodule monad")
            A = load_finset(params.get("alphabet", list(standard_alphabet(1))),
                            f"{path}.alphabet")
            out = None
            if "generators" in params:
                out = free_algebra(monad,
                                   load_finset(params["generators"], f"{path}.generators"))
            return semimodule_moore_law(monad, A, out)
        if fname == "stream":
            if not isinstance(monad, SemimoduleMonad):
                raise InputError(f"{path}: the stream family needs a semimodule monad")
            B = load_finset(params["generators"], f"{path}.generators")
            return semimodule_stream_law(monad, free_algebra(monad, B))
        if fname == "pointed":
            if not isinstance(monad, ExceptionMonad):
                raise InputError(f"{path}: the pointed family needs maybe/exception")
            outputs = load_finset(params["outputs"], f"{path}.outputs")
            alphabet = params.get("alphabet")
            A = load_finset(alphabet, f"{path}.alphabet") if alphabet else None
            return pointed_law(monad, outputs, A)
        if fname == "swap":
            if not isinstance(monad, WriterMonad):
                raise InputError(f"{path}: the swap family needs a writer monad")
            A = load_finset(params["constant"], f"{path}.constant")
            return product_swap_law(monad, A)
        if fname == "constant":
            alg = load_algebra({"monad": doc["monad"], **params["algebra"]},
                               f"{path}.algebra")
            return constant_law(monad, alg)
        raise InputError(f"{path}: unknown law family {fname!r}")
    if "components" in doc:
        from .functors import eval_functor

        H = load_functor(doc["functor"], f"{path}.functor")
        components = {}
        for key, table_doc in doc["components"].items():
            X = carrier(int(key)) if key.isdigit() \
                else load_finset(key, f"{path}.components.{key}")
            dom = monad.apply(eval_functor(H, X))
            cod = eval_functor(H, monad.apply(X))
            components[X] = load_function(table_doc, dom, cod,
                                          f"{path}.components.{key}")
        return TableDistLawEM(H, monad, components,
                              name=doc.get("name", "table-law"))
    raise InputError(f"{path}: law document needs 'family' or 'components'")


_WORDS_KL_RE = re.compile(r"words:(\d+)letters?:(.+)", flags=re.IGNORECASE)


@_names_path
def load_distlaw_kl(doc, path: str = "law") -> DistLawKl:
    from .compair import kleisli_lift_poly

    if isinstance(doc, str):
        m = _WORDS_KL_RE.fullmatch(doc.strip())
        if m:
            letters = standard_alphabet(int(m.group(1)))
            monad = load_monad(m.group(2), f"{path}.monad")
            return kleisli_lift_poly(FinSet("A", letters), monad)
        raise InputError(f"{path}: unknown kleisli law shorthand {doc!r}")
    if not isinstance(doc, dict):
        raise InputError(f"{path}: expected a law document")
    monad = load_monad(doc["monad"], f"{path}.monad")
    family = doc.get("family")
    if family is not None:
        fname = family["name"] if isinstance(family, dict) else family
        params = family if isinstance(family, dict) else {}
        if fname == "words":
            A = load_finset(params.get("alphabet", list(standard_alphabet(1))),
                            f"{path}.alphabet")
            return kleisli_lift_poly(A, monad)
        raise InputError(f"{path}: unknown kleisli family {fname!r}")
    if "components" in doc:
        T = load_functor(doc["functor"], f"{path}.functor")
        from .functors import eval_functor
        components = {}
        for key, table_doc in doc["components"].items():
            X = carrier(int(key)) if key.isdigit() else load_finset(key, path)
            dom = eval_functor(T, monad.apply(X))
            cod = monad.apply(eval_functor(T, X))
            components[X] = load_function(table_doc, dom, cod,
                                          f"{path}.components.{key}")
        return TableDistLawKl(T, monad, components, name=doc.get("name", "table-klaw"))
    raise InputError(f"{path}: law document needs 'family' or 'components'")


# ---------------------------------------------------------------------------
# Algebras


@_names_path
def load_algebra(doc, path: str = "algebra") -> EMAlgebra:
    if not isinstance(doc, dict):
        raise InputError(f"{path}: expected an algebra document")
    monad = load_monad(doc["monad"], f"{path}.monad")
    if doc.get("terminal"):
        return terminal_algebra(monad)
    if "free_on" in doc:
        return free_algebra(monad, load_finset(doc["free_on"], f"{path}.free_on"))
    carrier_set = load_finset(doc["carrier"], f"{path}.carrier")
    structure = load_function(doc["structure"], monad.apply(carrier_set), carrier_set,
                              f"{path}.structure")
    return EMAlgebra(monad, carrier_set, structure, name=doc.get("name", "algebra"))


# ---------------------------------------------------------------------------
# Automata, series, polynomials


@_names_path
def load_automaton(doc, path: str = "automaton") -> MooreAutomaton:
    if not isinstance(doc, dict):
        raise InputError(f"{path}: expected an automaton document")
    states = load_finset(doc["states"], f"{path}.states")
    alphabet = tuple(doc["alphabet"])
    if "semiring" in doc:
        k = load_semiring(doc["semiring"], f"{path}.semiring")
        if not k.finite:
            raise InputError(f"{path}: outputs need a finite carrier")
        outputs = k.as_finset()
    else:
        outputs = load_finset(doc["outputs"], f"{path}.outputs")
    output = {_resolve_key(key, states, f"{path}.output"): decode_element(v)
              for key, v in doc["output"].items()}
    step = {}
    for key, row in doc["delta"].items():
        s = _resolve_key(key, states, f"{path}.delta")
        if not isinstance(row, dict):
            raise InputError(f"{path}.delta.{key}: expected an object per letter")
        for a, target in row.items():
            if a not in alphabet:
                raise InputError(f"{path}.delta.{key}: unknown letter {a!r}")
            step[(s, a)] = _resolve_key(str(target), states, f"{path}.delta.{key}") \
                if isinstance(target, str) else decode_element(target)
    return MooreAutomaton(states, alphabet, outputs, output, step)


def word_to_str(w) -> str:
    return "".join(str(a) for a in w)


def str_to_word(s: str, alphabet) -> tuple:
    """Parse a concatenated word back into letters (backtracking match)."""
    letters = sorted((str(a) for a in alphabet), key=len, reverse=True)
    by_str = {str(a): a for a in alphabet}

    def match(rest):
        if not rest:
            return ()
        for lit in letters:
            if rest.startswith(lit):
                tail = match(rest[len(lit):])
                if tail is not None:
                    return (by_str[lit],) + tail
        return None

    out = match(s)
    if out is None:
        raise InputError(f"cannot parse word {s!r} over alphabet {alphabet}")
    return out


@_names_path
def load_series(doc, path: str = "series") -> TruncatedSeries:
    alphabet = tuple(doc["alphabet"])
    bound = int(doc["bound"])
    zero = decode_element(doc.get("zero", 0))
    coeffs = {w: zero for w in words_below(alphabet, bound)}
    for key, val in doc.get("coefficients", {}).items():
        w = str_to_word(key, alphabet)
        if len(w) >= bound:
            raise InputError(f"{path}.coefficients: word {key!r} is above the bound")
        coeffs[w] = decode_element(val)
    return TruncatedSeries(alphabet, bound, coeffs)


def dump_series(s: TruncatedSeries) -> dict:
    return {
        "alphabet": list(s.alphabet),
        "bound": s.bound,
        "coefficients": {word_to_str(w): encode_element(c) for w, c in s.items()},
    }


@_names_path
def load_polynomial(doc, k: Optional[Semiring] = None, path: str = "polynomial") -> Polynomial:
    alphabet = tuple(doc["alphabet"])
    if k is None:
        k = load_semiring(doc.get("semiring", "nat"), f"{path}.semiring")
    terms = {str_to_word(key, alphabet): decode_element(val)
             for key, val in doc.get("terms", {}).items()}
    return Polynomial(alphabet, k, terms)


# ---------------------------------------------------------------------------
# Commuting-pair candidates


@_names_path
def load_candidate(doc, path: str = "candidate"):
    from .compair import CommutingCandidate, TableSigma, partner_for_product

    if not isinstance(doc, dict):
        raise InputError(f"{path}: expected a candidate document")
    monad = load_monad(doc["monad"], f"{path}.monad")
    if "partner" in doc:
        spec = doc["partner"]
        B = load_finset(spec["generators"], f"{path}.partner.generators")
        alphabet = spec.get("alphabet")
        A = load_finset(alphabet, f"{path}.partner.alphabet") if alphabet is not None else None
        return partner_for_product(B, monad, A)
    T = load_functor(doc["T"], f"{path}.T")
    H = load_functor(doc["H"], f"{path}.H")
    law = load_distlaw_em(doc["law"], f"{path}.law") if "law" in doc else None
    from .functors import eval_functor
    components = {}
    for key, table_doc in doc.get("sigma", {}).items():
        X = carrier(int(key)) if key.isdigit() else load_finset(key, path)
        dom = eval_functor(H, monad.apply(X))
        cod = monad.apply(eval_functor(T, X))
        components[X] = load_function(table_doc, dom, cod, f"{path}.sigma.{key}")
    sigma = TableSigma(T, H, monad, components)
    return CommutingCandidate(T, H, monad, sigma, law=law)
