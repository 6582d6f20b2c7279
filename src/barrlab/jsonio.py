"""Loading and dumping the JSON documents the CLI consumes: sets, functions,
monoids, semirings, monads, distributive laws, algebras, automata, series,
polynomials and commuting-pair candidates.

Builtin objects have compact string shorthands ("maybe", "writer:s3",
"semimodule:z2", "gset-s3-conj", "moore:z2:1letter"); each is rewritten to
the document it stands for and parsed as that document.  Everything else
comes as explicit tables.  Errors cite the offending path and key.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import re
from collections import Counter
from typing import Callable, Optional

from .algebras import EMAlgebra, free_algebra, terminal_algebra
from .compair import CommutingCandidate, kleisli_lift_poly, partner_for_product
from .errors import InputError, NonFinitePreserving
from .finset import Element, FinFn, FinSet, carrier, guard_size, tabulate
from .functors import Compose, Const, Coprod, FunctorExpr, Id, Power, Prod
from .groups import FinGroup, FinMonoid, as_group, cyclic_group, symmetric_group
from .lifting import (ComponentFamily, Composite, DistLawEM, DistLawKl, SemimoduleFunctorLaw,
                      constant_law, gset_distlaws, identity_law, pointed_law,
                      product_swap_law, semiring_algebra)
from .monads import (ExceptionMonad, FinMonad, PowersetMonad, SemimoduleMonad,
                     TableMonad, WriterMonad, exception_monad, maybe_monad)
from .semiring import Semiring, boolean_semiring, minplus, naturals, zmod
from .series import MooreAutomaton, Polynomial, TruncatedSeries, word_strings


# ---------------------------------------------------------------------------
# Element codec: json writes a nested tuple as nested lists, read back here


def decode_element(doc) -> Element:
    if isinstance(doc, list):
        return tuple(decode_element(x) for x in doc)
    return doc


def resolve_key(key: str, universe: FinSet, path: str) -> Element:
    """Map a JSON object key back to an element: parse as JSON if possible,
    fall back to the raw string label."""
    try:
        el = decode_element(json.loads(key))
        if el in universe:
            return el
    except (ValueError, TypeError):  # TypeError: a JSON object, which is unhashable
        pass
    if key in universe:
        return key
    raise InputError(f"{path}: key {key!r} is not an element of {universe.name}")


def load_int(doc, path: str) -> int:
    """An integer field, read as int() reads it; a value int() rejects is
    an InputError naming the field's path."""
    try:
        return int(doc)
    except (TypeError, ValueError):
        raise InputError(f"{path}: expected an integer, got {doc!r}") from None


def load_object(doc, path: str) -> dict:
    """An object field; any other value is an InputError naming the field's
    path."""
    if not isinstance(doc, dict):
        raise InputError(f"{path}: expected an object, got {type(doc).__name__}")
    return doc


def distinct_entries(doc, path: str, what: str = "element") -> tuple:
    """The entries of a JSON array as a tuple; an entry given twice is an
    InputError naming the array's path."""
    entries, seen = tuple(doc), set()
    for entry in entries:
        if entry in seen:
            raise InputError(f"{path}: {what} {entry!r} is given twice")
        seen.add(entry)
    return entries


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
            return carrier(guard_size(int(m.group(1)), f"listing {path}: {doc}"))
        raise InputError(f"{path}: unknown set shorthand {doc!r}")
    if isinstance(doc, list):
        return FinSet(path, distinct_entries(map(decode_element, doc), path))
    if isinstance(doc, dict):
        if "elements" not in doc:
            raise InputError(f"{path}: a set document needs an 'elements' array")
        return FinSet(doc.get("name", path),
                      distinct_entries(map(decode_element, doc["elements"]), path))
    raise InputError(f"{path}: expected a set document, got {type(doc).__name__}")


@_names_path
def load_function(doc, dom: FinSet, cod: FinSet, path: str = "function") -> FinFn:
    table = {}
    for key, val in load_object(doc, path).items():
        table[resolve_key(key, dom, path)] = decode_element(val)
    try:
        return tabulate(dom, cod, table)
    except Exception as exc:
        raise InputError(f"{path}: {exc}") from None


def _load_op_table(doc, elements, path: str):
    """Nested object {a: {b: result}} -> dict[(a, b)] -> result, with an
    entry for every pair of elements and every result an element."""
    table, universe = {}, FinSet(path, distinct_entries(elements, path))
    for ka, row in load_object(doc, path).items():
        a = resolve_key(ka, universe, path)
        for kb, val in load_object(row, f"{path}.{ka}").items():
            table[(a, resolve_key(kb, universe, path))] = decode_element(val)
    for pair in itertools.product(elements, repeat=2):
        if pair not in table:
            raise InputError(f"{path}: no entry for {pair!r}")
        if table[pair] not in universe:
            raise InputError(f"{path}: {pair!r} gives {table[pair]!r}, not an element")
    return table


# ---------------------------------------------------------------------------
# Monoids, groups, semirings


@_names_path
def load_monoid(doc, path: str = "monoid", kind: str = "monoid") -> FinMonoid:
    """A monoid document, or a shorthand sN or zN; `kind` names what an
    unknown shorthand was taken for."""
    if isinstance(doc, str):
        name = doc.lower()
        m = re.fullmatch(r"s(\d+)", name)
        if m:
            return symmetric_group(int(m.group(1)))
        m = re.fullmatch(r"z(\d+)", name)
        if m:
            if int(m.group(1)) < 1:
                raise InputError(f"{path}: cyclic group needs m >= 1")
            return cyclic_group(int(m.group(1)))
        raise InputError(f"{path}: unknown {kind} shorthand {doc!r}")
    elements = [decode_element(e) for e in doc["elements"]]
    op = _load_op_table(doc["op"], elements, f"{path}.op")
    try:
        return FinMonoid(doc.get("name", path), elements, op, decode_element(doc["unit"]))
    except ValueError as exc:
        # The monoid's message starts with its name: the path, unless the
        # document names the monoid.
        raise InputError(f"{path}: {exc}" if "name" in doc else str(exc)) from None


@_names_path
def load_group(doc, path: str = "group") -> FinGroup:
    return as_group(load_monoid(doc, path, "group"))


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
            if int(m.group(1)) < 2:
                raise InputError(f"{path}: zmod needs modulus >= 2")
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
                    zero, one, elements=elements)


# ---------------------------------------------------------------------------
# Shorthands: each stands for a document, and is parsed as that document


def _document(text: str, shorthands: tuple, kind: str, path: str):
    """The document the shorthand `text` stands for: `shorthands` pairs a
    pattern with the function of its groups that writes the document."""
    for pattern, document in shorthands:
        m = re.fullmatch(pattern, text.strip(), flags=re.IGNORECASE)
        if m:
            return document(*m.groups())
    raise InputError(f"{path}: unknown {kind} shorthand {text!r}")


def standard_alphabet(n: int) -> tuple:
    """One letter is 't' (the classic formal-variable); more get a, b, c..,
    up to z."""
    if n > 26:
        raise InputError(f"{n} letters: the standard alphabet has at most 26 (a to z)")
    if n == 1:
        return ("t",)
    return tuple("abcdefghijklmnopqrstuvwxyz"[:n])


def _alphabet(n) -> dict:
    """The set document of the standard n-letter alphabet, named A."""
    return {"name": "A", "elements": list(standard_alphabet(int(n)))}


_MOORE = r"moore:([^:]+):(\d+)letters?"

_MONAD_SHORTHANDS = (
    (r"(maybe|powerset|list)", lambda name: {"builtin": name.lower()}),
    (r"exception(?::(\d+))?", lambda n: {"builtin": "exception", "errors": int(n or 2)}),
    (r"writer:(.+)", lambda monoid: {"builtin": "writer", "monoid": monoid}),
    (r"semimodule:(.+)", lambda k: {"builtin": "semimodule", "semiring": k}),
)

_LAW_SHORTHANDS = (
    (r"gset-([a-z0-9]+)-(mult|conj)", lambda group, variant: {
        "monad": f"writer:{group}", "family": {"name": "gset", "variant": variant.lower()}}),
    (_MOORE, lambda k, n: {
        "monad": f"semimodule:{k}", "family": {"name": "moore", "alphabet": _alphabet(n)}}),
    (r"pointed:(\d+):(.+)", lambda n, monad: {
        "monad": monad, "family": {"name": "pointed", "outputs": {
            "name": "k",
            "elements": list(range(guard_size(int(n), "listing pointed:N outputs")))}}}),
)

_KLEISLI_SHORTHANDS = (
    (r"words:(\d+)letters?:(.+)", lambda n, monad: {
        "monad": monad, "family": {"name": "words", "alphabet": _alphabet(n)}}),
)


def _moore_functor(path: str, k: str, n: str) -> dict:
    """The document of the functor k x X^A for the shorthand moore:k:nletter:
    the constant is k's carrier under k's name, so k is read here."""
    semiring = load_semiring(k, f"{path}.semiring")
    if not semiring.finite:
        raise InputError(f"{path}.semiring: the outputs need a finite semiring, "
                         f"got {semiring.name}")
    outputs = {"name": semiring.name, "elements": list(semiring.elements)}
    return {"prod": [{"const": outputs}, {"power": {"exponent": _alphabet(n), "body": "id"}}]}


# ---------------------------------------------------------------------------
# Monads


@_names_path
def load_monad(doc, path: str = "monad") -> FinMonad:
    if isinstance(doc, str):
        doc = _document(doc, _MONAD_SHORTHANDS, "monad", path)
    if not isinstance(doc, dict):
        raise InputError(f"{path}: expected a monad document")
    if "builtin" in doc:
        name = doc["builtin"]
        if name == "maybe":
            return maybe_monad()
        if name == "powerset":
            return PowersetMonad()
        if name == "list":
            raise NonFinitePreserving(
                "the list monad is not finiteness-preserving and is rejected")
        if name == "exception":
            errors = load_int(doc.get("errors", 2), f"{path}.errors")
            if errors < 0:
                raise InputError(f"{path}.errors: must be >= 0, got {errors}")
            return exception_monad(errors)
        if name == "writer":
            return WriterMonad(load_monoid(doc["monoid"], f"{path}.monoid"))
        if name == "semimodule":
            return SemimoduleMonad(load_semiring(doc["semiring"], f"{path}.semiring"))
        raise InputError(f"{path}.builtin: unknown builtin monad {name!r}")
    if "tables" in doc:
        return _load_table_monad(doc, path)
    raise InputError(f"{path}: monad document needs 'builtin' or 'tables'")


def _load_table_monad(doc, path: str) -> TableMonad:
    sizes = {}
    for key, level in load_object(doc["tables"], f"{path}.tables").items():
        try:
            n = int(key)
        except ValueError:
            raise InputError(f"{path}.tables: carrier keys are sizes, got {key!r}") from None
        level = load_object(level, f"{path}.tables.{n}")
        elements = distinct_entries(map(decode_element, level["elements"]),
                                    f"{path}.tables.{n}.elements")
        unit_doc = level.get("unit", [])
        if len(unit_doc) != n:
            raise InputError(f"{path}.tables.{n}: unit must list {n} values")
        unit = {i: decode_element(v) for i, v in enumerate(unit_doc)}
        mult = {}
        for k2, v in load_object(level.get("mult", {}), f"{path}.tables.{n}.mult").items():
            try:
                mult[decode_element(json.loads(k2))] = decode_element(v)
            except (json.JSONDecodeError, TypeError):  # TypeError: a JSON object
                raise InputError(
                    f"{path}.tables.{n}.mult: keys are JSON-encoded elements, "
                    f"got {k2!r}") from None
        sizes[n] = {"elements": elements, "unit": unit, "mult": mult}
    for n, level in sizes.items():
        # unit_n: X_n -> M X_n and mult_n: M(M X_n) -> M X_n land in level n;
        # mult_n covers M(M X_n) wherever that level is given.
        where, elements = f"{path}.tables.{n}", set(level["elements"])
        outer = sizes.get(len(level["elements"]))
        for el in outer["elements"] if outer else ():
            if el not in level["mult"]:
                raise InputError(f"{where}.mult: no value for {el!r}")
        for part in ("unit", "mult"):
            for key, value in level[part].items():
                if value not in elements:
                    raise InputError(f"{where}.{part}: value {value!r} of {key!r} is "
                                     f"not an element of {where}")
    maps = {}
    for i, entry in enumerate(doc.get("maps", [])):
        where = f"{path}.maps[{i}].table"
        dom = load_int(entry["dom"], f"{path}.maps[{i}].dom")
        cod = load_int(entry["cod"], f"{path}.maps[{i}].cod")
        universe = FinSet("dom", sizes[dom]["elements"])
        targets = FinSet("cod", sizes[cod]["elements"])
        table = {resolve_key(k2, universe, where): decode_element(v)
                 for k2, v in load_object(entry["table"], where).items()}
        for el in universe:
            if el not in table:
                raise InputError(f"{where}: no value for {el!r}")
            if table[el] not in targets:
                raise InputError(f"{where}: value {table[el]!r} of {el!r} is not an "
                                 f"element of {path}.tables.{cod}")
        maps[dom, cod, tuple(entry["values"])] = table
    return TableMonad(doc.get("name", "table-monad"), sizes, maps)


# ---------------------------------------------------------------------------
# Functor expressions


@_names_path
def load_functor(doc, path: str = "functor") -> FunctorExpr:
    if isinstance(doc, str):
        if doc.strip().lower() in ("id", "x"):
            return Id()
        doc = _document(doc, ((_MOORE, functools.partial(_moore_functor, path)),),
                        "functor", path)
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
        parts = doc["compose"]
        if not isinstance(parts, list) or len(parts) != 2:
            raise InputError(f"{path}.compose: expected [outer, inner], got {parts!r}")
        outer, inner = parts
        return Compose(load_functor(outer, f"{path}.compose[0]"),
                       load_functor(inner, f"{path}.compose[1]"))
    raise InputError(f"{path}: unrecognised functor document keys {sorted(doc)}")


# ---------------------------------------------------------------------------
# Distributive laws


def _load_components(doc, source: Composite, target: Composite, path: str) -> dict:
    """Component tables source(X) -> target(X), keyed by a carrier size or
    a set document."""
    components = {}
    for key, table_doc in load_object(doc, path).items():
        X = load_finset(f"X{key}" if key.isdigit() else key, f"{path}.{key}")
        components[X] = load_function(table_doc, source.at(X), target.at(X), f"{path}.{key}")
    return components


def _em_family(name, params: dict, monad: FinMonad, doc: dict, path: str) -> DistLawEM:
    if name == "identity":
        return identity_law(monad)
    if name == "gset":
        if not (isinstance(monad, WriterMonad) and monad.monoid.is_group()):
            raise InputError(f"{path}.monad: the gset family needs a writer monad "
                             f"over a group, got {monad.name}")
        group = monad.monoid
        if "group" in params:
            given = load_group(params["group"], f"{path}.group")
            if (given.elements, given.table) != (group.elements, group.table):
                raise InputError(f"{path}.group: {given.name} is not the group "
                                 f"of {monad.name}")
        variant = params.get("variant", "mult")
        if variant not in ("mult", "conj"):
            raise InputError(f"{path}.variant: expected 'mult' or 'conj', got {variant!r}")
        return gset_distlaws(group)[variant == "conj"]
    if name in ("moore", "stream"):
        if not isinstance(monad, SemimoduleMonad):
            raise InputError(f"{path}: the {name} family needs a semimodule monad")
        A = (load_finset(params.get("alphabet", _alphabet(1)), f"{path}.alphabet")
             if name == "moore" else None)
        out = (free_algebra(monad, load_finset(params["generators"], f"{path}.generators"))
               if name == "stream" or "generators" in params else semiring_algebra(monad))
        return SemimoduleFunctorLaw(monad, out, A)
    if name == "pointed":
        if not isinstance(monad, ExceptionMonad):
            raise InputError(f"{path}: the pointed family needs maybe/exception")
        outputs = load_finset(params["outputs"], f"{path}.outputs")
        if not outputs:
            # An error value outputs the first of the outputs.
            raise InputError(f"{path}.outputs: the pointed family needs at least one output")
        alphabet = params.get("alphabet")
        A = load_finset(alphabet, f"{path}.alphabet") if alphabet else None
        return pointed_law(monad, outputs, A)
    if name == "swap":
        if not isinstance(monad, WriterMonad):
            raise InputError(f"{path}: the swap family needs a writer monad")
        A = load_finset(params["constant"], f"{path}.constant")
        return product_swap_law(monad, A)
    if name == "constant":
        alg = load_algebra({"monad": doc["monad"], **params["algebra"]}, f"{path}.algebra")
        return constant_law(monad, alg)
    raise InputError(f"{path}: unknown law family {name!r}")


def _kleisli_family(name, params: dict, monad: FinMonad, doc: dict, path: str) -> DistLawKl:
    if name == "words":
        A = load_finset(params.get("alphabet", _alphabet(1)), f"{path}.alphabet")
        return kleisli_lift_poly(A, monad)
    raise InputError(f"{path}: unknown kleisli family {name!r}")


# Per direction: the shorthand kind and table, the family loader, and the
# default name of a law given by components.
_LAW_KINDS = {
    DistLawEM: ("law", _LAW_SHORTHANDS, _em_family, "table-law"),
    DistLawKl: ("kleisli law", _KLEISLI_SHORTHANDS, _kleisli_family, "table-klaw"),
}


def _load_law(doc, path: str, law_type):
    """A law of either direction: a shorthand is read as its document, and
    a document names a family or gives component tables."""
    kind, shorthands, load_family, default_name = _LAW_KINDS[law_type]
    if isinstance(doc, str):
        doc = _document(doc, shorthands, kind, path)
    if not isinstance(doc, dict):
        raise InputError(f"{path}: expected a law document")
    monad = load_monad(doc["monad"], f"{path}.monad")
    family = doc.get("family")
    if family is not None:
        name, params = (family["name"], family) if isinstance(family, dict) else (family, {})
        return load_family(name, params, monad, doc, path)
    if "components" in doc:
        F = load_functor(doc["functor"], f"{path}.functor")
        # An EM law maps M(F X) to F(M X); a Kleisli law the other way.
        source, target = Composite(monad, F), Composite(F, monad)
        if law_type is DistLawKl:
            source, target = target, source
        components = _load_components(doc["components"], source, target, f"{path}.components")
        return law_type(F, monad, components=components, name=doc.get("name", default_name))
    raise InputError(f"{path}: law document needs 'family' or 'components'")


@_names_path
def load_distlaw_em(doc, path: str = "law") -> DistLawEM:
    return _load_law(doc, path, DistLawEM)


@_names_path
def load_distlaw_kl(doc, path: str = "law") -> DistLawKl:
    return _load_law(doc, path, DistLawKl)


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
    alphabet = distinct_entries(doc["alphabet"], f"{path}.alphabet", "letter")
    if "semiring" in doc:
        k = load_semiring(doc["semiring"], f"{path}.semiring")
        if not k.finite:
            raise InputError(f"{path}: outputs need a finite carrier")
        outputs = k.as_finset()
    else:
        outputs = load_finset(doc["outputs"], f"{path}.outputs")
    output = {resolve_key(key, states, f"{path}.output"): decode_element(v)
              for key, v in load_object(doc["output"], f"{path}.output").items()}
    step = {}
    for key, row in load_object(doc["delta"], f"{path}.delta").items():
        s = resolve_key(key, states, f"{path}.delta")
        for a, target in load_object(row, f"{path}.delta.{key}").items():
            if a not in alphabet:
                raise InputError(f"{path}.delta.{key}: unknown letter {a!r}")
            step[(s, a)] = resolve_key(str(target), states, f"{path}.delta.{key}") \
                if isinstance(target, str) else decode_element(target)
    return MooreAutomaton(states, alphabet, outputs, output, step)


def _refuse_colliding_keys(keys: list, by_key: dict, alphabet, path: str) -> None:
    """Raise an InputError naming the first key that two words below the
    bound write, as ("a", "a") and ("aa",) do over the alphabet ["a", "aa"]:
    a series document cannot hold both coefficients.  `keys` is the
    `word_strings` listing and `by_key` a dict the caller built from it,
    which is shorter exactly when two words write one key."""
    if len(by_key) < len(keys):
        key = next(k for k, n in Counter(keys).items() if n > 1)
        raise InputError(f"{path}: more than one word over the alphabet "
                         f"{list(alphabet)} serializes to the key {key!r}")


def word_parser(alphabet) -> Callable[[str], tuple]:
    """The parser of concatenated words over alphabet back into letters.
    At each position it takes the longest letter (the first such in the
    alphabet) whose remainder still parses.  The letter order and the
    letter map are built here, once per alphabet."""
    by_str = {str(a): a for a in alphabet}
    # An empty letter is left out: it leaves the position where it was, so
    # it never completes a split the other letters cannot.
    letters = sorted((lit for lit in by_str if lit), key=len, reverse=True)

    def parse(s: str) -> tuple:
        # Right to left: taken[pos] is the first letter that matches at pos
        # and whose remainder has a split, or None when s[pos:] has none.
        n = len(s)
        taken = [None] * n + [""]
        for pos in range(n - 1, -1, -1):
            for lit in letters:
                if s.startswith(lit, pos) and taken[pos + len(lit)] is not None:
                    taken[pos] = lit
                    break
        if taken[0] is None:
            raise InputError(f"cannot parse word {s!r} over alphabet {alphabet}")
        # Left to right: read the split off.
        out, pos = [], 0
        while pos < n:
            lit = taken[pos]
            out.append(by_str[lit])
            pos += len(lit)
        return tuple(out)

    return parse


def _split(parse: Callable[[str], tuple], key: str, path: str) -> tuple:
    """parse(key); a key with no split is an InputError naming path."""
    try:
        return parse(key)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


@_names_path
def load_series(doc, path: str = "series") -> TruncatedSeries:
    alphabet = distinct_entries(doc["alphabet"], f"{path}.alphabet", "letter")
    bound = load_int(doc["bound"], f"{path}.bound")
    if bound < 0:
        raise InputError(f"{path}.bound: must be >= 0, got {bound}")
    zero = decode_element(doc.get("zero", 0))
    keys = word_strings(alphabet, bound)
    rank = {key: i for i, key in enumerate(keys)}
    coeffs = [zero] * len(keys)
    for key, val in load_object(doc.get("coefficients", {}), f"{path}.coefficients").items():
        i = rank.get(key)
        if i is None:
            # No word below the bound writes the key: the parser says whether
            # a longer word does.
            _split(word_parser(alphabet), key, f"{path}.coefficients")
            raise InputError(f"{path}.coefficients: word {key!r} is above the bound")
        coeffs[i] = decode_element(val)
    _refuse_colliding_keys(keys, rank, alphabet, path)
    return TruncatedSeries(alphabet, bound, coeffs)


def dump_series(s: TruncatedSeries) -> dict:
    """The series document of s; where two words write the same key, an
    input error names the key (`_refuse_colliding_keys`)."""
    keys = word_strings(s.alphabet, s.bound)
    coefficients = dict(zip(keys, s.coeffs))
    _refuse_colliding_keys(keys, coefficients, s.alphabet, "series")
    return {"alphabet": list(s.alphabet), "bound": s.bound, "coefficients": coefficients}


def _shared_parser(alphabet, parsers: dict) -> Callable[[str], tuple]:
    """The parser of words over alphabet held in `parsers`, built on first
    use, which remembers each key it splits; a key it cannot split raises
    again on every call.  The letters are keyed with their types and
    reprs, so 1 and true, or 0.0 and -0.0, never share a parser."""
    letters = tuple((type(a), repr(a)) for a in alphabet)
    shared = parsers.get(letters)
    if shared is None:
        parse, splits = word_parser(alphabet), {}

        def shared(key: str) -> tuple:
            word = splits.get(key)
            if word is None:
                word = splits[key] = parse(key)
            return word

        parsers[letters] = shared
    return shared


@_names_path
def load_polynomial(doc, path: str = "polynomial", parsers: Optional[dict] = None) -> Polynomial:
    """The polynomial of doc.  A caller loading several polynomials passes
    one `parsers` dict to all of them, so each key is split once per
    alphabet (`_shared_parser`)."""
    alphabet = distinct_entries(doc["alphabet"], f"{path}.alphabet", "letter")
    k = load_semiring(doc.get("semiring", "nat"), f"{path}.semiring")
    parse = _shared_parser(alphabet, {} if parsers is None else parsers)
    where = f"{path}.terms"
    terms = {_split(parse, key, where): _coefficient(decode_element(val), k, f"{where}.{key}")
             for key, val in load_object(doc.get("terms", {}), where).items()}
    return Polynomial(alphabet, k, terms)


def _coefficient(c, k: Semiring, path: str):
    """c as a coefficient over k: one of k's elements when k is finite, a
    non-negative integer over nat; anything else is an InputError.  Types
    are compared too, so neither true nor 1.0 stands for 1."""
    if k.finite:
        if not any(type(c) is type(e) and c == e for e in k.elements):
            raise InputError(f"{path}: coefficient {c!r} is not an element of {k.name}")
    elif type(c) is not int or c < 0:
        raise InputError(f"{path}: expected a non-negative integer over {k.name}, got {c!r}")
    return c


def load_sequence(doc, depth: int) -> tuple[list, Optional[list]]:
    """The polynomials of a sequence, and its modulus if the document gives
    one: an integer for each word length below `depth`."""
    if not isinstance(doc, dict) or "polynomials" not in doc:
        raise InputError("sequence document needs a 'polynomials' array")
    polynomials = doc["polynomials"]
    if not isinstance(polynomials, list):
        raise InputError(f"polynomials: expected an array, got {type(polynomials).__name__}")
    parsers = {}
    polys = [load_polynomial(p, path=f"polynomials[{i}]", parsers=parsers)
             for i, p in enumerate(polynomials)]
    modulus = doc.get("modulus")
    if modulus is not None:
        if not isinstance(modulus, list) or len(modulus) < depth:
            raise InputError(f"modulus: expected an array with an entry for each "
                             f"word length below --depth {depth}")
        modulus = [load_int(m, f"modulus[{i}]") for i, m in enumerate(modulus)]
    return polys, modulus


# ---------------------------------------------------------------------------
# Commuting-pair candidates


@_names_path
def load_candidate(doc, path: str = "candidate") -> CommutingCandidate:
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
    source, target = Composite(H, monad), Composite(monad, T)
    components = _load_components(doc.get("sigma", {}), source, target, f"{path}.sigma")
    sigma = ComponentFamily(source, target, components=components, name="sigma")
    return CommutingCandidate(sigma, law=law)
