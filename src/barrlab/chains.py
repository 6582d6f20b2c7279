"""Terminal and initial sequences of a polynomial functor, the dyadic
ultrametric on the limit, the level algebras as tables of positions, and the
finite-depth machinery connecting the colimit of the initial sequence to the
limit of the terminal one: sections, density maps, Cauchy limits and the two
lemma checks.

The limit itself is never materialised (it is typically uncountable); a
point of the limit at finite depth is its representative at the top level,
from which the connecting maps give the ones below.  A chain knows its
levels' sizes from the start and builds a level on its first read; its
connecting maps and the initial chain's forward maps are computed from
the positions of the map one level down (`functors.arrow_table`).  Each
level algebra is `lift_algebra` of the one below, kept as it returns it,
and holds its structure as one table of positions.  The two lemma checks
state each law as two such tables, composed and compared in `finset`:
`lemma1` over M C, and `lemma2` over M(level n+1) for each level n+1->n,
reading the tables over M C only where a level fails.
`reports.table_failures` decodes the first position where two tables over
M C differ.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .algebras import EMAlgebra, terminal_algebra
from .errors import (BlowUpGuard, DepthExceeded, DomainMismatch, InputError, NotCauchy,
                     ZeroObjectViolation, blowup_limit)
from .finset import (EMPTY, TERMINAL, Element, FinFn, FinSet, LazyTable, compose, from_empty,
                     tabulate, to_terminal)
from .functors import FunctorExpr, arrow, arrow_table, cardinality
from .lifting import DistLawEM, lift_algebra, lift_coalgebra
from .monads import TableMonad
from .reports import LawReport, table_failures


class TerminalChain:
    """Levels 1, H1, H^2 1, ... with the connecting maps pointing down.
    The levels' sizes are known from the start; each level is built on its
    first read (`levels`)."""

    def __init__(self, H: FunctorExpr, sizes: list[int]):
        self.H = H
        self.levels = ChainLevels(H, sizes)

    @functools.cached_property
    def connect(self) -> list[FinFn]:
        """connect[n]: levels[n+1] -> levels[n], all built on the first
        read: t_0 is the map to the terminal level and t_n = H(t_{n-1}),
        computed from t_{n-1}'s positions and named by its level."""
        levels, sizes = self.levels, self.levels.sizes
        connect = [to_terminal(levels[1])] if self.depth else []
        for n in range(1, self.depth):
            connect.append(FinFn(levels[n + 1], levels[n], arrow_table(
                self.H, connect[-1].positions, sizes[n], sizes[n - 1]), name=f"t{n}"))
        return connect

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    def level(self, n: int) -> FinSet:
        if not 0 <= n <= self.depth:
            raise DepthExceeded(f"level {n} of a depth-{self.depth} chain")
        return self.levels[n]

    def truncation(self, frm: int, to: int) -> FinFn:
        """The composite connecting map levels[frm] -> levels[to], composed
        from the connecting maps' positions."""
        src, dst = self.level(frm), self.level(to)
        if to > frm:
            raise DepthExceeded(f"truncation goes down, got {frm} -> {to}")
        positions = range(len(src))
        for i in range(frm - 1, to - 1, -1):
            positions = compose(self.connect[i].positions, positions)
        return FinFn(src, dst, positions, name=f"trunc[{frm}->{to}]")

    def __repr__(self):
        return f"TerminalChain({self.H}, depth {self.depth})"


class ChainLevels(Sequence):
    """The levels 0..depth of a terminal chain, read as a list: level n+1
    is H(level n), built on the first read of a level at or above it, in
    a loop from the highest level built so far.  `sizes` are the levels'
    sizes, known without building any."""

    def __init__(self, H: FunctorExpr, sizes: list[int]):
        self.sizes = sizes
        self._H = H
        self._built = [TERMINAL]

    def __len__(self) -> int:
        return len(self.sizes)

    def __getitem__(self, n):
        if isinstance(n, slice):
            return [self[i] for i in range(*n.indices(len(self)))]
        n = range(len(self))[n]
        built = self._built
        while len(built) <= n:
            # build_terminal_chain held this level's size to the guard.
            built.append(self._H.image(built[-1]))
        return built[n]


def build_terminal_chain(H: FunctorExpr, depth: int) -> TerminalChain:
    """The chain to `depth`, with every level's size held to the blow-up
    guard up front and no level built yet."""
    if depth < 0:
        raise InputError("depth must be >= 0")
    limit = blowup_limit()
    sizes = [1]
    for n in range(depth):
        size = cardinality(H, sizes[-1])
        if size > limit:
            # The message eval_functor gives on level n, named as H names it.
            name = "1"
            for _ in range(n):
                name = f"{H}({name})"
            raise BlowUpGuard(size, f"evaluating {H} on {name}")
        sizes.append(size)
    return TerminalChain(H, sizes)


def anamorphism(C: FinSet, xi: FinFn, n: int, chain: TerminalChain) -> list[FinFn]:
    """Legs 0..n of the cone a coalgebra casts on the chain: leg k unfolds
    the coalgebra k steps."""
    if not 0 <= n <= chain.depth:
        raise DepthExceeded(f"level {n} of a depth-{chain.depth} chain")
    if xi.dom != C or xi.cod != chain.H(C):
        raise DomainMismatch(f"coalgebra structure must be {C.name} -> H({C.name})")
    legs = [to_terminal(C)]
    for k in range(1, n + 1):
        # Leg k is xi followed by H(leg k-1), evaluated on C alone:
        # H(leg k-1) is never tabulated over all of H C.
        h_prev = arrow(chain.H, legs[-1])
        legs.append(tabulate(C, chain.levels[k], lambda c: h_prev(xi(c))))
    return legs


class LimitPoint:
    """A point of the limit at finite depth, held as its representative
    `el` at level `top`; the representative at level n <= top is the
    truncation of `el`.

    A compatible family is fixed by its top element, and the families the
    constructors below build are compatible: the forward maps are sections
    of the connecting maps, t_n . f_n = H^n(t_0 . f_0) = id.  Every read
    goes through `reps`, so a point calls each connecting map at most
    once."""

    def __init__(self, chain: TerminalChain, top: int, el: Element, label: str = ""):
        self.chain = chain
        self.top = top
        self.el = el
        self.label = label

    def rep(self, n: int) -> Element:
        if not 0 <= n <= self.top:
            raise DepthExceeded(f"representative at {n}; point is valid to depth {self.top}")
        return self.reps[n]

    @functools.cached_property
    def reps(self) -> tuple:
        """The representatives at levels 0..top, from one walk down the
        chain on the first read: one connecting-map call per level."""
        reps = [self.el]
        for i in range(self.top - 1, -1, -1):
            reps.append(self.chain.connect[i](reps[-1]))
        return tuple(reversed(reps))

    def __repr__(self):
        return f"LimitPoint({self.label or hex(id(self))}, valid to {self.top})"


# ---------------------------------------------------------------------------
# The dyadic ultrametric


@dataclass(frozen=True)
class DyadicDist:
    """An exact dyadic distance 2^-agree_depth, or a certified upper bound
    2^-bound_exp when no disagreement was found within the probe.

    Never stored as floating point; `value` is an exact fraction.
    """

    agree_depth: Optional[int]  # first level (or word length) that differs
    probe: int
    bound_exp: int

    @property
    def resolved(self) -> bool:
        return self.agree_depth is not None

    def value(self) -> Optional[Fraction]:
        if self.agree_depth is None:
            return None
        return Fraction(1, 2 ** self.agree_depth)

    def exponent_lower_bound(self) -> int:
        """A certified n with distance <= 2^-n."""
        return self.agree_depth if self.resolved else self.bound_exp

    def leq_pow(self, n: int) -> bool:
        """True when the distance is certifiably <= 2^-n."""
        return self.exponent_lower_bound() >= n

    def to_json(self) -> dict:
        if self.resolved:
            return {"agree_depth": self.agree_depth}
        return {"gt_probe": self.probe}

    def __str__(self):
        if self.resolved:
            return f"2^-{self.agree_depth}"
        return f"<= 2^-{self.bound_exp} (no difference up to probe {self.probe})"


def distance(x: LimitPoint, y: LimitPoint, probe_depth: int) -> DyadicDist:
    """First level where the representatives differ, as a dyadic distance.

    Distances finer than the probe are reported as a bound, never rounded
    to zero: equality in the limit is only semi-decidable at finite depth.
    """
    if x.chain is not y.chain and list(x.chain.levels) != list(y.chain.levels):
        raise DomainMismatch("points live on different chains")
    for n in range(probe_depth + 1):
        if x.rep(n) != y.rep(n):
            return DyadicDist(n, probe_depth, n)
    return DyadicDist(None, probe_depth, probe_depth + 1)


# ---------------------------------------------------------------------------
# Per-level algebra structures


class LevelAlgebras:
    """The algebras the chain levels carry under a distributive law: the
    terminal sequence of the lifting of H to algebras.  Level 0 is the
    terminal algebra, and level n is `lift_algebra` of level n-1, kept as
    it returns it: the lifting applied n times to the terminal algebra,
    with structure H(alpha_{n-1}) . lambda, on a carrier equal to level n.

    Each level keeps its algebra's one table of positions over M(level n),
    built once on first use and reading H(alpha_{n-1}) off level n-1's
    table, so lambda is not evaluated again at the levels below.  For a law
    with a positional table of lambda it is H(alpha_{n-1}), tabulated on
    H(M(level n-1)), after the law's table of lambda at level n-1, and
    M(level n) itself is not built (M(level n-1) is, to read alpha_{n-1}).
    A level whose M(level n) exceeds the blow-up guard has no table.
    Nothing is evaluated on construction.
    """

    def __init__(self, law: DistLawEM, chain: TerminalChain):
        if law.H != chain.H:
            raise DomainMismatch("law and chain are for different functors")
        self.law = law
        self.chain = chain
        self._algebras = [terminal_algebra(law.M)] + [None] * chain.depth

    def _algebra(self, n: int) -> EMAlgebra:
        level = self.chain.level(n)
        algebra = self._algebras[n]
        if algebra is None:
            # Above the guard this raises before any level below is built.
            self.law.M.guard(level)
            algebra = self._algebras[n] = lift_algebra(self.law, self._algebra(n - 1))
        return algebra

    def table(self, n: int) -> tuple:
        """Level n's structure as positions: entry p is the position in
        level n of the structure at the element at position p of M(level
        n).  Where M(level n) exceeds the guard this raises BlowUpGuard."""
        return self._algebra(n).table()


def level_algebras(law: DistLawEM, chain: TerminalChain) -> LevelAlgebras:
    """`LevelAlgebras(law, chain)`.  Not exported: the benchmark's tracer
    (`perfbench/tracer.py`) spans this name and expects it to exist."""
    return LevelAlgebras(law, chain)


# ---------------------------------------------------------------------------
# Initial sequence, sections, density


class InitialChain:
    """Forward maps of the initial sequence, identified with sections of the
    terminal one; only valid when the free algebra on the empty set is a
    singleton."""

    def __init__(self, chain: TerminalChain, forward: list[FinFn]):
        self.chain = chain
        self.forward = forward  # forward[n]: levels[n] -> levels[n+1]

    def __repr__(self):
        return f"InitialChain(depth {len(self.forward)})"


def _zero_object(M) -> Element:
    """The one element of the free algebra on the empty set; any other
    size raises ZeroObjectViolation."""
    M0 = M.apply(EMPTY)
    if len(M0) != 1:
        raise ZeroObjectViolation(len(M0))
    return M0.elements[0]


def build_initial_chain(law: DistLawEM, chain: TerminalChain) -> InitialChain:
    """Build the forward maps; the base map is the unique algebra morphism
    out of the free algebra on the empty set, which must be a singleton."""
    if law.H != chain.H:
        raise DomainMismatch("law and chain are for different functors")
    M = law.M
    zero = _zero_object(M)
    lvl0, lvl1 = chain.level(0), chain.level(1)
    seed = M.map_element_fn(from_empty(lvl1), EMPTY, lvl1, zero)
    # Level 1's structure at the seed, evaluated pointwise: M(level 1) is
    # not built.
    value = lift_algebra(law, terminal_algebra(M)).structure_at(seed)
    bang = tabulate(lvl0, lvl1, lambda _x: value, name="!")
    forward, sizes = [bang], chain.levels.sizes
    for n in range(1, chain.depth):
        # f_n = H(f_{n-1}), computed and named as the connecting maps are.
        forward.append(FinFn(chain.levels[n], chain.levels[n + 1], arrow_table(
            chain.H, forward[-1].positions, sizes[n - 1], sizes[n]), name=f"f{n}"))
    return InitialChain(chain, forward)


def colim_to_lim(ic: InitialChain, x: Element, n: int) -> LimitPoint:
    """The limit point a finite stage maps to: x pushed forward to the
    chain's top.  Its representatives are the forward images of x above n
    and, since t_m . f_m = id, the truncations of x below; so it retracts
    onto x under the projection."""
    chain = ic.chain
    if x not in chain.level(n):
        raise DomainMismatch(f"{x!r} is not in level {n}")
    for f in ic.forward[n:]:
        x = f(x)
    return LimitPoint(chain, chain.depth, x, label=f"sect({n})")


def density_map(ic: InitialChain, x: LimitPoint, n: int) -> LimitPoint:
    """Project a point to level n, push one step forward, and include back:
    the result agrees with x up to level n, so it is 2^-n-close."""
    chain = ic.chain
    if n + 1 > chain.depth:
        raise DepthExceeded(f"density at {n} needs chain depth {n + 1}")
    return colim_to_lim(ic, ic.forward[n](x.rep(n)), n + 1)


def cauchy_limit_point(points: Sequence[LimitPoint], depth: int) -> LimitPoint:
    """Diagonal of a sequence with modulus d(points[i], points[j]) < 2^-min(i, j),
    i.e. representatives agree at every level up to min(i, j).

    The diagonal is the point whose top representative is points[depth]'s
    at level depth: a point's representatives truncate to each other, since
    t_n . f_n = id, and the modulus makes points[depth] agree with
    points[n] at level n."""
    for j in range(depth + 1):
        for i in range(j):
            for m in range(i + 1):
                if points[i].rep(m) != points[j].rep(m):
                    raise NotCauchy(
                        {"i": i, "j": j, "level": m},
                        f"terms {i} and {j} differ at level {m} <= min(i, j)")
    return LimitPoint(points[0].chain, depth, points[depth].rep(depth), label="cauchy-limit")


# ---------------------------------------------------------------------------
# Finite-depth checks of the two structural facts behind the limit's
# algebra structure (CLI subcommands lemma1 / lemma2)


def _standin(law: DistLawEM, chain: TerminalChain, depth: int):
    """Depth-bounded stand-in for the limit: the level-`depth` set and the
    level algebras.  The set carries a coalgebra structure via the forward
    map (the split section), which needs the free algebra on the empty set
    to be a singleton; only lemma1 reads it, so lemma1 builds that map."""
    if depth + 1 > chain.depth:
        raise DepthExceeded(f"stand-in at depth {depth} needs chain depth {depth + 1}")
    levels = LevelAlgebras(law, chain)
    _zero_object(law.M)
    return levels, chain.level(depth)


def _projected(levels: LevelAlgebras, depth: int, n: int) -> tuple:
    """alpha_n . M(trunc_{depth->n}) as positions over M(level depth): the
    stand-in's points projected to level n, then level n's structure."""
    chain = levels.chain
    return compose(levels.table(n), levels.law.M.arrow_table(
        chain.truncation(depth, n).positions, chain.level(depth), chain.level(n)))


def check_cone_coincidence(law: DistLawEM, chain: TerminalChain, depth: int) -> LawReport:
    """The cone obtained by unfolding the induced coalgebra on M(points)
    must coincide, level by level, with projecting first and applying the
    level algebras: both are compared as tables of positions over M C."""
    M = law.M
    levels, C = _standin(law, chain, depth)
    zeta = lift_coalgebra(law, C, build_initial_chain(law, chain).forward[depth])
    MC = M.apply(C)
    report = LawReport(f"cone coincidence for {law.name}")
    for n, alpha_n in enumerate(anamorphism(MC, zeta, depth, chain)):
        report.first("cone-coincidence", f"level {n}", table_failures(
            {"level": n}, MC.elements.__getitem__, chain.level(n), alpha_n.positions,
            _projected(levels, depth, n), ("unfolded", "projected")))
    return report


def check_projection_morphisms(law: DistLawEM, chain: TerminalChain, depth: int) -> LawReport:
    """The levelwise evaluations of the limit's algebra structure must form
    a compatible family, i.e. every projection is an algebra morphism.

    Level n+1->n is decided over M(level n+1): it passes when the
    connecting map t_n is an algebra morphism, t_n . alpha_{n+1} = alpha_n
    . M t_n.  The law states the two sides over M C, each after
    M(trunc_{depth->n+1}), and the verdicts agree on two premises: M
    preserves composition, so M t_n . M(trunc_{depth->n+1}) is
    M(trunc_{depth->n}), and M(trunc_{depth->n+1}) is onto, because the
    truncation has a section.  The tables over M C are built only for a
    level that fails, whose counterexample is the first element of M C
    where the two sides differ, and for a `TableMonad`, whose arrow tables
    are not known to compose: it is decided over M C at every level."""
    M = law.M
    levels, C = _standin(law, chain, depth)
    # M C is built only to decode the first position where two tables differ.
    M.guard(C)
    projected = LazyTable(lambda n: _projected(levels, depth, n))
    over_mc = isinstance(M, TableMonad)
    if over_mc:
        # Every table is built before any is compared, so that a missing
        # arrow table raises at the lowest level that lacks one, at depth 0
        # too.
        projected.update((n, _projected(levels, depth, n)) for n in range(depth + 1))
    report = LawReport(f"projection morphisms for {law.name}")
    for n in range(depth):
        t_n, failures = chain.connect[n], ()
        if over_mc or compose(t_n.positions, levels.table(n + 1)) != compose(
                levels.table(n), M.arrow_table(t_n.positions, t_n.dom, t_n.cod)):
            failures = table_failures(
                {"level": n}, lambda p: M.apply(C).elements[p], chain.level(n),
                compose(t_n.positions, projected[n + 1]), projected[n], ("connected", "direct"))
        report.first("projection-morphism", f"level {n + 1}->{n}", failures)
    return report
