"""Semiring-weighted Moore automata, truncated formal power series and
finite-support polynomials on finite words, with the order-of-first-difference
ultrametric and Cauchy limits of polynomials: the concrete playground where
the chain machinery becomes power series truncated by degree.

Truncation convention: a series of bound n carries coefficients on exactly
the words of length strictly below n, so bound 1 holds only the empty-word
coefficient.  Under the canonical encoding this matches chain level n.

A truncated series is its coefficient tuple: one entry per word of length
< bound, in length-lexicographic order (`words_below`), so no word is
stored.  The word w sits at (number of shorter words) + (w read as a
base-|A| numeral in the alphabet's order), a truncation is a prefix of the
tuple, the words of one length are one slice, and the successors of the
word of rank r among its length have ranks r |A| + i in the next length.
`behavior`, `series_distance` and the chain encoding work on these
positions; only `items`, `from_fn` and the document loader and dump list
words.
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
from .semiring import Semiring

Word = tuple


def _word_count(letters: int, bound: int) -> int:
    """The number of words of length < bound over `letters` letters,
    sum_{k < bound} letters^k, in closed form."""
    n = max(bound, 0)
    return n if letters == 1 else (letters ** n - 1) // (letters - 1)


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
    words = _word_count(a, n)
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
    """Coefficients on all words of length < bound over a fixed alphabet,
    held as one tuple in the order of `words_below`: the word w sits at
    (number of shorter words) + (w read as a base-|A| numeral)."""

    __slots__ = ("alphabet", "bound", "coeffs")

    def __init__(self, alphabet: Sequence, bound: int, coeffs: Sequence):
        self.alphabet = tuple(alphabet)
        self.bound = bound
        _guard_words(self.alphabet, bound)
        if isinstance(coeffs, Mapping):
            # tuple() of a mapping would read its words as coefficients.
            raise TypeError("series coefficients are a sequence in words_below order")
        self.coeffs = tuple(coeffs)
        if len(self.coeffs) != _word_count(len(self.alphabet), bound):
            raise DomainMismatch(
                f"series of bound {bound} must assign exactly the words of "
                f"length < {bound}")

    @classmethod
    def from_fn(cls, alphabet: Sequence, bound: int, fn: Callable[[Word], object]):
        return cls(alphabet, bound, map(fn, words_below(alphabet, bound)))

    @classmethod
    def constant(cls, alphabet: Sequence, bound: int, value):
        return cls.from_fn(alphabet, bound, lambda _w: value)

    def coefficient(self, w: Word):
        w, a = tuple(w), len(self.alphabet)
        if len(w) >= self.bound or any(letter not in self.alphabet for letter in w):
            raise DomainMismatch(f"word {w!r} not below bound {self.bound}")
        rank = 0
        for letter in w:
            rank = rank * a + self.alphabet.index(letter)
        return self.coeffs[_word_count(a, len(w)) + rank]

    def items(self):
        """(word, coefficient) pairs in length-lexicographic order."""
        return zip(words_below(self.alphabet, self.bound), self.coeffs)

    def truncate(self, m: int) -> "TruncatedSeries":
        if m > self.bound:
            raise BoundMismatch(f"cannot extend bound {self.bound} to {m}")
        return TruncatedSeries(self.alphabet, m,
                               self.coeffs[:_word_count(len(self.alphabet), m)])

    def __eq__(self, other):
        return (isinstance(other, TruncatedSeries)
                and self.alphabet == other.alphabet
                and self.bound == other.bound
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.alphabet, self.bound, self.coeffs))

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
    is the output reached after reading it.  Computed breadth-first, one
    layer of states per word length below n and one transition per word
    after the empty one, not by re-running each word."""
    if s not in aut.states:
        raise DomainMismatch(f"{s!r} is not a state")
    _guard_words(aut.alphabet, n)
    layers = [[s]]
    for _length in range(1, n):
        layers.append([aut.step[(st, a)] for st in layers[-1] for a in aut.alphabet])
    return TruncatedSeries(aut.alphabet, n,
                           [aut.output[st] for layer in layers[:n] for st in layer])


# ---------------------------------------------------------------------------
# The order ultrametric


def series_distance(f: TruncatedSeries, g: TruncatedSeries) -> DyadicDist:
    """2^-(length of the shortest word with differing coefficient); when the
    truncations agree everywhere the distance is only bounded by the common
    bound, never reported as zero."""
    if f.alphabet != g.alphabet or f.bound != g.bound:
        raise BoundMismatch("series must share alphabet and bound")
    a = len(f.alphabet)
    for length in range(f.bound):
        words = slice(_word_count(a, length), _word_count(a, length + 1))
        if f.coeffs[words] != g.coeffs[words]:
            return DyadicDist(length, f.bound, length)
    return DyadicDist(None, f.bound, f.bound)


# ---------------------------------------------------------------------------
# Encoding series as chain-level elements (the canonical identification of
# chain level n with series of bound n for the output x successors functor)


def encode_series(s: TruncatedSeries) -> Element:
    """The series as a chain-level element: the empty word's coefficient
    and, for each letter, the encoding of the series after that letter.
    The node of the word of rank r among the words of its length reads
    the coefficient after the shorter words; its successors have ranks
    r |A| + i."""
    a = len(s.alphabet)

    def node(length: int, rank: int) -> Element:
        if length == s.bound:
            return "*"
        return (s.coeffs[_word_count(a, length) + rank],
                tuple(node(length + 1, rank * a + i) for i in range(a)))

    return node(0, 0)


def decode_series(el: Element, alphabet: Sequence, bound: int) -> TruncatedSeries:
    """The series a chain-level element encodes, read layer by layer: the
    successors of the nodes of one word length, in order, are the nodes of
    the next, in length-lexicographic order."""
    layers = [[el]]
    for _length in range(1, bound):
        layers.append([sub for _head, succ in layers[-1] for sub in succ])
    return TruncatedSeries(alphabet, bound,
                           [head for layer in layers[:bound] for head, _succ in layer])


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
    # Length r is stable from n_r on exactly when no neighbouring pair from
    # n_r on differs at length <= r; the first pair that does differs from
    # term n_r where it differs from its predecessor.
    gaps = [first_difference_length(seq[n], seq[n + 1]) for n in range(len(seq) - 1)]
    stable_at = []
    for r in range(depth):
        n_r = mod(r)
        if not 0 <= n_r < len(seq):
            raise InputError(
                f"modulus at word length {r} is {n_r}, outside the sequence "
                f"of length {len(seq)}")
        stable_at.append(n_r)
        for n in range(n_r + 1, len(seq)):
            d = gaps[n - 1]
            if d is not None and d <= r:
                raise NotCauchy({"word_length": r, "base_index": n_r,
                                 "index": n, "difference_at": d},
                                f"coefficients of length <= {r} change between "
                                f"terms {n_r} and {n}")
    alphabet = seq[0].alphabet
    return TruncatedSeries.from_fn(
        alphabet, depth, lambda w: seq[stable_at[len(w)]].coefficient(w))
