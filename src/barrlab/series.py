"""Semiring-weighted Moore automata and truncated formal power series on
finite words, with the order-of-first-difference ultrametric and Cauchy
limits: the concrete playground where the chain machinery becomes power
series truncated by degree.

Truncation convention: a series of bound n carries coefficients on exactly
the words of length strictly below n, so bound 1 holds only the empty-word
coefficient.  Under the canonical encoding this matches chain level n.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence, Union

from .chains import DyadicDist
from .errors import (BlowUpGuard, BoundMismatch, DomainMismatch, InputError, NotCauchy,
                     blowup_limit)
from .finset import Element, FinFn, FinSet, tabulate
from .functors import moore_functor
from .monads import SemimoduleMonad
from .semiring import Semiring

Word = tuple


def _guard_words(alphabet: Sequence, bound: int) -> None:
    """Trip the blow-up guard if the listing of the words of length < bound
    is too large: by its number of words, sum_{k < bound} |A|^k, or by its
    number of letters, sum_{k < bound} k |A|^k, both in closed form."""
    a, n, limit = len(alphabet), max(bound, 0), blowup_limit()
    what = f"of length < {bound} over an alphabet of size {a}"
    if a > 1 and n > limit.bit_length() + 1:
        # 2^(n-1) words already exceed the guard; the exact count would be
        # a number of about n * log2(a) bits.
        raise BlowUpGuard(f"over 2^{n - 1}", f"listing the words {what}")
    words = n if a == 1 else (a ** n - 1) // (a - 1)
    if words > limit:
        raise BlowUpGuard(words, f"listing the words {what}")
    letters = (n * (n - 1) // 2 if a == 1
               else (a - n * a ** n + (n - 1) * a ** (n + 1)) // (a - 1) ** 2)
    if letters > limit:
        raise BlowUpGuard(letters, f"listing the letters of the words {what}")


def words_below(alphabet: Sequence, bound: int) -> list[Word]:
    """All words of length < bound, in length-lexicographic order."""
    _guard_words(alphabet, bound)
    out: list[Word] = []
    for length in range(bound if alphabet else min(bound, 1)):
        out.extend(itertools.product(tuple(alphabet), repeat=length))
    return out


class TruncatedSeries:
    """Coefficients on all words of length < bound over a fixed alphabet."""

    __slots__ = ("alphabet", "bound", "_coeffs")

    def __init__(self, alphabet: Sequence, bound: int, coeffs: Mapping):
        self.alphabet = tuple(alphabet)
        self.bound = bound
        table = dict(coeffs)
        expected = words_below(self.alphabet, bound)
        if set(table) != set(expected):
            raise DomainMismatch(
                f"series of bound {bound} must assign exactly the words of "
                f"length < {bound}")
        self._coeffs = table

    @classmethod
    def from_fn(cls, alphabet: Sequence, bound: int, fn: Callable[[Word], object]):
        return cls(alphabet, bound, {w: fn(w) for w in words_below(alphabet, bound)})

    @classmethod
    def constant(cls, alphabet: Sequence, bound: int, value):
        return cls.from_fn(alphabet, bound, lambda _w: value)

    def coefficient(self, w: Word):
        try:
            return self._coeffs[tuple(w)]
        except KeyError:
            raise DomainMismatch(f"word {w!r} not below bound {self.bound}") from None

    def items(self):
        """(word, coefficient) pairs in length-lexicographic order."""
        for w in words_below(self.alphabet, self.bound):
            yield w, self._coeffs[w]

    def truncate(self, m: int) -> "TruncatedSeries":
        if m > self.bound:
            raise BoundMismatch(f"cannot extend bound {self.bound} to {m}")
        return TruncatedSeries(self.alphabet, m,
                               {w: self._coeffs[w] for w in words_below(self.alphabet, m)})

    def derivative(self, letter) -> "TruncatedSeries":
        """The series of coefficients after a leading letter; bound drops by one."""
        if letter not in self.alphabet:
            raise DomainMismatch(f"{letter!r} is not in the alphabet")
        return TruncatedSeries.from_fn(self.alphabet, self.bound - 1,
                                       lambda w: self._coeffs[(letter,) + w])

    def __eq__(self, other):
        return (isinstance(other, TruncatedSeries)
                and self.alphabet == other.alphabet
                and self.bound == other.bound
                and self._coeffs == other._coeffs)

    def __hash__(self):
        return hash((self.alphabet, self.bound,
                     tuple(self._coeffs[w] for w in words_below(self.alphabet, self.bound))))

    def __repr__(self):
        inside = ", ".join(f"{''.join(map(str, w)) or 'e'}:{c}" for w, c in self.items())
        return f"TruncatedSeries<{self.bound}>({inside})"


# ---------------------------------------------------------------------------
# Moore automata


class MooreAutomaton:
    """Finite deterministic automaton with outputs in a coefficient set."""

    def __init__(self, states: FinSet, alphabet: Sequence, outputs: FinSet,
                 output: Mapping, step: Mapping):
        self.states = states
        self.alphabet = tuple(alphabet)
        self.outputs = outputs
        self.output = dict(output)
        self.step = dict(step)
        for s in states:
            if s not in self.output:
                raise DomainMismatch(f"no output for state {s!r}")
            if self.output[s] not in outputs:
                raise DomainMismatch(f"output {self.output[s]!r} of {s!r} not in {outputs.name}")
            for a in self.alphabet:
                if (s, a) not in self.step:
                    raise DomainMismatch(f"no transition for ({s!r}, {a!r})")
                if self.step[(s, a)] not in states:
                    raise DomainMismatch(f"transition from {s!r} leaves the state set")
        # Built once, so its kept images serve every caller.
        self.H = moore_functor(outputs, FinSet("A", self.alphabet))

    def run(self, s: Element, w: Word) -> Element:
        """Follow a whole word letter by letter (the word-simulation oracle)."""
        for a in w:
            s = self.step[(s, a)]
        return s

    def as_coalgebra(self) -> tuple[FinSet, FinFn]:
        """The automaton as a coalgebra: state maps to (output, successors)."""
        HC = self.H(self.states)

        def unfold(s):
            return (self.output[s], tuple(self.step[(s, a)] for a in self.alphabet))

        return self.states, tabulate(self.states, HC, unfold, name="automaton")

    def __repr__(self):
        return f"MooreAutomaton({len(self.states)} states, |A|={len(self.alphabet)})"


def behavior(aut: MooreAutomaton, s: Element, n: int) -> TruncatedSeries:
    """Unfold the automaton n steps from a state: the coefficient of a word
    is the output reached after reading it.  Computed breadth-first over
    truncation levels, not by re-running each word."""
    if s not in aut.states:
        raise DomainMismatch(f"{s!r} is not a state")
    _guard_words(aut.alphabet, n)
    coeffs: dict[Word, object] = {}
    frontier: dict[Word, Element] = {(): s}
    for _length in range(n):
        next_frontier: dict[Word, Element] = {}
        for w, st in frontier.items():
            coeffs[w] = aut.output[st]
            for a in aut.alphabet:
                next_frontier[w + (a,)] = aut.step[(st, a)]
        frontier = next_frontier
    return TruncatedSeries(aut.alphabet, n, coeffs)


# ---------------------------------------------------------------------------
# The order ultrametric


def series_distance(f: TruncatedSeries, g: TruncatedSeries) -> DyadicDist:
    """2^-(length of the shortest word with differing coefficient); when the
    truncations agree everywhere the distance is only bounded by the common
    bound, never reported as zero."""
    if f.alphabet != g.alphabet or f.bound != g.bound:
        raise BoundMismatch("series must share alphabet and bound")
    for w in words_below(f.alphabet, f.bound):
        if f.coefficient(w) != g.coefficient(w):
            return DyadicDist(len(w), f.bound, len(w))
    return DyadicDist(None, f.bound, f.bound)


# ---------------------------------------------------------------------------
# Encoding series as chain-level elements (the canonical identification of
# chain level n with series of bound n for the output x successors functor)


def encode_series(s: TruncatedSeries) -> Element:
    if s.bound == 0:
        return "*"
    return (s.coefficient(()),
            tuple(encode_series(s.derivative(a)) for a in s.alphabet))


def decode_series(el: Element, alphabet: Sequence, bound: int) -> TruncatedSeries:
    alphabet = tuple(alphabet)
    coeffs: dict[Word, object] = {}

    def walk(node, prefix: Word, remaining: int):
        if remaining == 0:
            return
        head, succ = node
        coeffs[prefix] = head
        for a, sub in zip(alphabet, succ):
            walk(sub, prefix + (a,), remaining - 1)

    walk(el, (), bound)
    return TruncatedSeries(alphabet, bound, coeffs)


# ---------------------------------------------------------------------------
# Polynomials: finite-support series


class Polynomial:
    """A finite-support coefficient map on words; zero coefficients are not
    stored."""

    def __init__(self, alphabet: Sequence, k: Semiring, terms: Mapping):
        self.alphabet = tuple(alphabet)
        self.k = k
        self.terms = {tuple(w): c for w, c in dict(terms).items() if c != k.zero}
        for w in self.terms:
            for a in w:
                if a not in self.alphabet:
                    raise DomainMismatch(f"letter {a!r} not in the alphabet")

    def coefficient(self, w: Word):
        return self.terms.get(tuple(w), self.k.zero)

    def support(self) -> list[Word]:
        index = {a: i for i, a in enumerate(self.alphabet)}
        return sorted(self.terms, key=lambda w: (len(w), tuple(index[a] for a in w)))

    def degree(self) -> int:
        """Length of the longest supported word; -1 for the zero polynomial."""
        return max((len(w) for w in self.terms), default=-1)

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.alphabet == other.alphabet
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.alphabet, tuple(sorted(self.terms.items(),
                                                 key=lambda kv: (len(kv[0]), kv[0])))))

    def __repr__(self):
        parts = [f"{''.join(map(str, w)) or 'e'}:{c}" for w, c in
                 ((w, self.terms[w]) for w in self.support())]
        return f"Polynomial({', '.join(parts) or '0'})"


@dataclass(frozen=True)
class EmbedResult:
    series: TruncatedSeries
    discarded: tuple


def polynomial_embed(p: Polynomial, bound: int) -> EmbedResult:
    """Truncate a polynomial to a series of the given bound; support at or
    above the bound is reported, not silently dropped."""
    series = TruncatedSeries.from_fn(p.alphabet, bound, p.coefficient)
    discarded = tuple(w for w in p.support() if len(w) >= bound)
    return EmbedResult(series, discarded)


def first_difference_length(p: Polynomial, q: Polynomial) -> Optional[int]:
    """Length of the shortest word where two polynomials differ, or None."""
    diffs = [len(w) for w in set(p.terms) | set(q.terms)
             if p.coefficient(w) != q.coefficient(w)]
    return min(diffs, default=None)


def cauchy_limit_series(seq: Sequence[Polynomial], depth: int,
                        modulus: Union[None, Sequence[int], Callable[[int], int]] = None
                        ) -> TruncatedSeries:
    """Stabilised limit of a Cauchy sequence of polynomials: for every word
    length r < depth the declared modulus names an index after which the
    coefficients up to length r never change; the limit reads them there.

    The default modulus is r -> r.  Violations raise NotCauchy with the
    witnessing word length and indices.
    """
    if not seq:
        raise InputError("empty polynomial sequence")
    if modulus is None:
        mod = lambda r: r
    elif callable(modulus):
        mod = modulus
    else:
        mod = lambda r, _m=tuple(modulus): _m[r]
    stable_at = []
    for r in range(depth):
        n_r = mod(r)
        if not 0 <= n_r < len(seq):
            raise InputError(
                f"modulus at word length {r} is {n_r}, outside the sequence "
                f"of length {len(seq)}")
        stable_at.append(n_r)
        for n in range(n_r, len(seq)):
            d = first_difference_length(seq[n], seq[n_r])
            if d is not None and d <= r:
                raise NotCauchy({"word_length": r, "base_index": n_r,
                                 "index": n, "difference_at": d},
                                f"coefficients of length <= {r} change between "
                                f"terms {n_r} and {n}")
    alphabet = seq[0].alphabet
    return TruncatedSeries.from_fn(
        alphabet, depth, lambda w: seq[stable_at[len(w)]].coefficient(w))


# ---------------------------------------------------------------------------
# The semimodule structure on truncated series


class SeriesModule:
    """Truncated series of a fixed bound as a module over the coefficient
    semiring: linear combinations are taken coefficientwise."""

    def __init__(self, M: SemimoduleMonad, alphabet: Sequence, bound: int):
        self.k = M.k
        self.alphabet = tuple(alphabet)
        self.bound = bound

    def zero(self) -> TruncatedSeries:
        return TruncatedSeries.constant(self.alphabet, self.bound, self.k.zero)

    def combine(self, terms: Sequence[tuple]) -> TruncatedSeries:
        """Pointwise linear combination of (coefficient, series) pairs."""
        k = self.k
        for _c, s in terms:
            if s.alphabet != self.alphabet or s.bound != self.bound:
                raise BoundMismatch("series must share this module's alphabet and bound")
        return TruncatedSeries.from_fn(
            self.alphabet, self.bound,
            lambda w: k.sum(k.mul(c, s.coefficient(w)) for c, s in terms))
