"""Terminal and initial sequences of a polynomial functor, the dyadic
ultrametric on the limit, per-level algebra structures, and the finite-depth
machinery connecting the colimit of the initial sequence to the limit of the
terminal one: sections, density maps and Cauchy limits.

The limit itself is never materialised (it is typically uncountable); points
of the limit are lazy depth-indexed families with memoised representatives,
validated for compatibility as they are queried.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Optional, Sequence, Union

from .algebras import EMAlgebra
from .errors import (DepthExceeded, DomainMismatch, InputError, NotCauchy,
                     ZeroObjectViolation)
from .finset import EMPTY, TERMINAL, Element, FinFn, FinSet, from_empty, to_terminal
from .functors import FunctorExpr, arrow, eval_functor
from .lifting import DistLawEM, lift_coalgebra
from .reports import LawReport


class TerminalChain:
    """Levels 1, H1, H^2 1, ... with the connecting maps pointing down."""

    def __init__(self, H: FunctorExpr, levels: list[FinSet], connect: list[FinFn]):
        self.H = H
        self.levels = levels
        self.connect = connect  # connect[n]: levels[n+1] -> levels[n]

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    def level(self, n: int) -> FinSet:
        if not 0 <= n <= self.depth:
            raise DepthExceeded(f"level {n} of a depth-{self.depth} chain")
        return self.levels[n]

    def truncate_element(self, el: Element, frm: int, to: int) -> Element:
        if to > frm:
            raise DepthExceeded(f"truncation goes down, got {frm} -> {to}")
        for i in range(frm - 1, to - 1, -1):
            el = self.connect[i](el)
        return el

    def truncation(self, frm: int, to: int) -> FinFn:
        """The composite connecting map levels[frm] -> levels[to]."""
        src = self.level(frm)
        return FinFn(src, self.level(to),
                     {el: self.truncate_element(el, frm, to) for el in src},
                     name=f"trunc[{frm}->{to}]")

    def __repr__(self):
        return f"TerminalChain({self.H}, depth {self.depth})"


def build_terminal_chain(H: FunctorExpr, depth: int) -> TerminalChain:
    """Materialise the first `depth` levels under the blow-up guard."""
    if depth < 0:
        raise InputError("depth must be >= 0")
    levels = [TERMINAL]
    connect: list[FinFn] = []
    for n in range(depth):
        levels.append(eval_functor(H, levels[n]))
        if n == 0:
            connect.append(to_terminal(levels[1]))
        else:
            connect.append(_h_map(H, connect[n - 1], levels[n + 1], levels[n]))
    return TerminalChain(H, levels, connect)


def _h_map(H: FunctorExpr, f: FinFn, dom: FinSet, cod: FinSet) -> FinFn:
    """H f tabulated on dom = H(f.dom), landing in cod = H(f.cod): both are
    levels the chain already holds, so H is not evaluated again."""
    h_f = arrow(H, f)
    return FinFn(dom, cod, {el: h_f(el) for el in dom}, name=f"{H}({f.name})")


def anamorphism(C: FinSet, xi: FinFn, n: int, chain: TerminalChain) -> list[FinFn]:
    """Legs 0..n of the cone a coalgebra casts on the chain: leg k unfolds
    the coalgebra k steps."""
    if not 0 <= n <= chain.depth:
        raise DepthExceeded(f"level {n} of a depth-{chain.depth} chain")
    if xi.dom != C or xi.cod != eval_functor(chain.H, C):
        raise DomainMismatch(f"coalgebra structure must be {C.name} -> H({C.name})")
    legs = [to_terminal(C)]
    for k in range(1, n + 1):
        # Leg k is xi followed by H(leg k-1), evaluated on C alone:
        # H(leg k-1) is never tabulated over all of H C.
        h_prev = arrow(chain.H, legs[-1])
        legs.append(FinFn(C, chain.levels[k], {c: h_prev(xi(c)) for c in C}))
    return legs


class LimitPoint:
    """A point of the limit, given by a lazy depth-indexed representative
    family; compatibility with the connecting maps is checked as neighbours
    get evaluated."""

    def __init__(self, chain: TerminalChain, provider: Callable[[int], Element],
                 valid_to: Optional[int] = None, label: str = ""):
        self.chain = chain
        self.provider = provider
        self.valid_to = chain.depth if valid_to is None else min(valid_to, chain.depth)
        self.label = label
        # Not a LazyTable: a new entry is validated against its neighbours.
        self._memo: dict[int, Element] = {}

    def rep(self, n: int) -> Element:
        if n < 0 or n > self.valid_to:
            raise DepthExceeded(
                f"representative at {n}; point is valid to depth {self.valid_to}")
        el = self._memo.get(n)
        if el is None:
            el = self.provider(n)
            if el not in self.chain.level(n):
                raise DomainMismatch(f"representative {el!r} not in level {n}")
            below = self._memo.get(n - 1)
            if below is not None and self.chain.connect[n - 1](el) != below:
                raise ValueError(f"incompatible family at levels {n}->{n - 1}")
            above = self._memo.get(n + 1)
            if above is not None and self.chain.connect[n](above) != el:
                raise ValueError(f"incompatible family at levels {n + 1}->{n}")
            self._memo[n] = el
        return el

    def __repr__(self):
        return f"LimitPoint({self.label or hex(id(self))}, valid to {self.valid_to})"


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
    if x.chain is not y.chain and x.chain.levels != y.chain.levels:
        raise DomainMismatch("points live on different chains")
    for n in range(probe_depth + 1):
        if x.rep(n) != y.rep(n):
            return DyadicDist(n, probe_depth, n)
    return DyadicDist(None, probe_depth, probe_depth + 1)


# ---------------------------------------------------------------------------
# Per-level algebra structures


class LevelAlgebras:
    """The algebra structure each chain level inherits from a distributive
    law: level 0 is the terminal algebra, and level n takes the structure
    H(alpha_{n-1}) . lambda_{level n-1}, distributing and then applying the
    functor to the structure one level down.

    The structure maps are a bottom-up dynamic programme.  While M(level n)
    fits under the blow-up guard, level n keeps a table indexed by position
    in M(level n) that holds the result as a position in level n; an entry
    is filled on first use from the level n-1 table.  Lookups by position
    (`structure_pos`, `positions_after`) read these tables without building
    elements.  Above the guard the level is evaluated pointwise on every
    call.  Every level up to the chain's depth is covered, and nothing is
    evaluated on construction: only the entries a caller asks for, and the
    entries below them they need, are filled.
    """

    def __init__(self, law: DistLawEM, chain: TerminalChain):
        if law.H != chain.H:
            raise DomainMismatch("law and chain are for different functors")
        self.law = law
        self.chain = chain
        top = chain.depth
        # Per level: None until first use, then (M(level), positions) or
        # False when M(level) exceeds the guard.  Not LazyTables: these are
        # lists of small ints, where a dict would keep every fresh tuple the
        # arrows build as a key and raise peak memory.
        self._tables: list = [None] * (top + 1)
        # Per level n >= 1: H applied to the structure of level n-1.
        self._h_structures = [None] + [arrow(law.H, partial(self.structure_at, n - 1))
                                       for n in range(1, top + 1)]
        self._algebras = [self._make(n) for n in range(top + 1)]

    def _make(self, n: int) -> EMAlgebra:
        return EMAlgebra(self.law.M, self.chain.level(n),
                         lambda u: self.structure_at(n, u), name=f"level{n}")

    def algebra(self, n: int) -> EMAlgebra:
        if not 0 <= n <= self.chain.depth:
            raise DepthExceeded(f"level algebra {n}; built to {self.chain.depth}")
        return self._algebras[n]

    def _table(self, n: int):
        """Level n's (M(level n), positions), allocated on first use, or
        False above the guard.  Level 0 is the terminal algebra: every
        position is 0."""
        if not 0 <= n <= self.chain.depth:
            raise DepthExceeded(f"level algebra {n}; built to {self.chain.depth}")
        table = self._tables[n]
        if table is None:
            M, level = self.law.M, self.chain.levels[n]
            if M.tower_fits(len(level), 1):
                domain = M.apply(level)
                table = (domain, [0 if n == 0 else -1] * len(domain))
            else:
                table = False
            self._tables[n] = table
        return table

    def structure_at(self, n: int, u: Element) -> Element:
        if n == 0:
            return "*"
        table = self._table(n)
        if table is False:
            return self._distribute(n, u)
        domain, positions = table
        i = domain.index(u)
        j = positions[i]
        return self.chain.levels[n].elements[j if j >= 0 else self.structure_pos(n, i)]

    def structure_pos(self, n: int, i: int) -> int:
        """The position in level n of the structure at the element at
        position i of M(level n); level n must fit under the guard."""
        domain, positions = self._table(n)
        j = positions[i]
        if j < 0:
            j = positions[i] = self.chain.levels[n].index(
                self._distribute(n, domain.elements[i]))
        return j

    def positions_after(self, n: int, fn: Callable, dom: FinSet) -> Callable[[int], int]:
        """p -> the position in level n of the structure at M fn(u), u the
        element at position p of M dom, for fn: dom -> level n.  M fn is
        read as positions (`arrow_table`) while level n fits under the
        guard, and evaluated pointwise above it."""
        M, level, table = self.law.M, self.chain.levels[n], self._table(n)
        if table is False:
            m_fn, elements = M.arrow(fn, dom, level), M.apply(dom).elements
            return lambda p: level.index(self.structure_at(n, m_fn(elements[p])))
        positions, m_fn, structure_pos = table[1], M.arrow_table(fn, dom, level), self.structure_pos

        def position(p):
            j = positions[m_fn[p]]
            return j if j >= 0 else structure_pos(n, m_fn[p])

        return position

    def _distribute(self, n: int, u: Element) -> Element:
        """Level n's structure at u, from the structure of level n-1."""
        return self._h_structures[n](self.law.component_at(self.chain.levels[n - 1], u))


def level_algebras(law: DistLawEM, chain: TerminalChain) -> LevelAlgebras:
    """`LevelAlgebras(law, chain)`.  Not exported: the benchmark's tracer
    (`perfbench/tracer.py`) spans this name and expects it to exist."""
    return LevelAlgebras(law, chain)


def check_connect_morphisms(levels: LevelAlgebras, upto: Optional[int] = None) -> LawReport:
    """Each connecting map must be an algebra morphism between consecutive
    level algebras."""
    law, chain = levels.law, levels.chain
    M = law.M
    top = levels.chain.depth if upto is None else upto
    report = LawReport(f"connect maps of {law.name}")
    for n in range(top):
        upper = chain.level(n + 1)
        t_n = chain.connect[n]
        if not M.tower_fits(len(upper), 1):
            report.skip("connect-is-morphism", f"level {n + 1}->{n}",
                        f"|M(level {n + 1})| exceeds guard")
            continue
        lower = chain.level(n)
        down = _positions(t_n, upper, lower)
        rhs_at = levels.positions_after(n, t_n, upper)
        report.first("connect-is-morphism", f"level {n + 1}->{n}", (
            {"level": n + 1, "element": u,
             "lhs": lower.elements[lhs], "rhs": lower.elements[rhs]}
            for p, u in enumerate(M.apply(upper))
            if (lhs := down[levels.structure_pos(n + 1, p)]) != (rhs := rhs_at(p))))
    return report


def _positions(fn: FinFn, dom: FinSet, cod: FinSet) -> list[int]:
    """fn as positions: entry i is the position in cod of fn's value at the
    i-th element of dom."""
    return [cod.index(fn(x)) for x in dom]


# ---------------------------------------------------------------------------
# The algebra structure of the limit, evaluated levelwise


@dataclass
class MElement:
    """A monad element over finitely many limit points: the points list the
    support, `shape` is an element of M applied to their index set."""

    points: tuple
    shape: Element

    def __post_init__(self):
        self.points = tuple(self.points)

    def index_set(self) -> FinSet:
        return FinSet(f"I{len(self.points)}", range(len(self.points)))


def m_singleton(M, point: LimitPoint) -> MElement:
    """The unit of the monad applied to one point."""
    idx = FinSet("I1", range(1))
    return MElement((point,), M.unit_element(idx, 0))


def limit_algebra_level(law: DistLawEM, chain: TerminalChain, levels: LevelAlgebras,
                u: MElement, n: int) -> Element:
    """Evaluate, at level n, the algebra structure the limit inherits: push
    the support down to level n and apply that level's structure map."""
    idx = u.index_set()
    lvl = chain.level(n)
    proj = FinFn(idx, lvl, {i: u.points[i].rep(n) for i in idx}, name=f"proj{n}")
    pushed = law.M.map_element_fn(proj, idx, lvl, u.shape)
    return levels.structure_at(n, pushed)


def limit_algebra_point(law: DistLawEM, chain: TerminalChain, levels: LevelAlgebras,
                u: MElement) -> LimitPoint:
    """Assemble the levelwise evaluations into a limit point; compatibility
    across levels is validated lazily by the point itself."""
    valid_to = min((p.valid_to for p in u.points), default=chain.depth)
    valid_to = min(valid_to, levels.chain.depth)
    return LimitPoint(chain, lambda n: limit_algebra_level(law, chain, levels, u, n),
                      valid_to=valid_to, label="limit-action")


# ---------------------------------------------------------------------------
# Initial sequence, sections, density


class InitialChain:
    """Forward maps of the initial sequence, identified with sections of the
    terminal one; only valid when the free algebra on the empty set is a
    singleton."""

    def __init__(self, chain: TerminalChain, forward: list[FinFn]):
        self.chain = chain
        self.forward = forward  # forward[n]: levels[n] -> levels[n+1]

    def forward_element(self, el: Element, frm: int, to: int) -> Element:
        if to < frm:
            raise DepthExceeded(f"forward maps go up, got {frm} -> {to}")
        for i in range(frm, to):
            el = self.forward[i](el)
        return el

    def __repr__(self):
        return f"InitialChain(depth {len(self.forward)})"


def build_initial_chain(law: DistLawEM, chain: TerminalChain,
                        levels: Optional[LevelAlgebras] = None) -> InitialChain:
    """Build the forward maps; the base map is the unique algebra morphism
    out of the free algebra on the empty set, which must be a singleton."""
    M = law.M
    M0 = M.apply(EMPTY)
    if len(M0) != 1:
        raise ZeroObjectViolation(len(M0))
    if levels is None:
        levels = LevelAlgebras(law, chain)
    zero = M0.elements[0]
    lvl1 = chain.level(1)
    seed = M.map_element_fn(from_empty(lvl1), EMPTY, lvl1, zero)
    bang = FinFn(chain.level(0), lvl1, {"*": levels.structure_at(1, seed)}, name="!")
    forward = [bang]
    for n in range(1, chain.depth):
        forward.append(_h_map(chain.H, forward[n - 1], chain.levels[n], chain.levels[n + 1]))
    return InitialChain(chain, forward)


def colim_to_lim(ic: InitialChain, x: Element, n: int) -> LimitPoint:
    """The limit point a finite stage maps to: x at level n, truncations
    below, forward images above.  Retracts onto x under the projection."""
    chain = ic.chain
    if x not in chain.level(n):
        raise DomainMismatch(f"{x!r} is not in level {n}")

    def provider(m):
        if m == n:
            return x
        if m < n:
            return chain.truncate_element(x, n, m)
        return ic.forward_element(x, n, m)

    return LimitPoint(chain, provider, label=f"sect({n})")


def density_map(ic: InitialChain, x: LimitPoint, n: int) -> LimitPoint:
    """Project a point to level n, push one step forward, and include back:
    the result agrees with x up to level n, so it is 2^-n-close."""
    chain = ic.chain
    if n + 1 > chain.depth:
        raise DepthExceeded(f"density at {n} needs chain depth {n + 1}")
    return colim_to_lim(ic, ic.forward[n](x.rep(n)), n + 1)


def cauchy_limit_point(seq: Union[Sequence[LimitPoint], Callable[[int], LimitPoint]],
                       depth: int) -> LimitPoint:
    """Diagonal of a sequence with modulus d(seq(i), seq(j)) < 2^-min(i,j),
    i.e. representatives agree at every level up to min(i, j)."""
    points = [seq(i) if callable(seq) else seq[i] for i in range(depth + 1)]
    chain = points[0].chain
    for j in range(depth + 1):
        for i in range(j):
            for m in range(i + 1):
                if points[i].rep(m) != points[j].rep(m):
                    raise NotCauchy(
                        {"i": i, "j": j, "level": m},
                        f"terms {i} and {j} differ at level {m} <= min(i, j)")
    return LimitPoint(chain, lambda n: points[n].rep(n), valid_to=depth,
                      label="cauchy-limit")


# ---------------------------------------------------------------------------
# Finite-depth checks of the two structural facts behind the levelwise
# algebra evaluation (CLI subcommands lemma1 / lemma2)


def _standin(law: DistLawEM, chain: TerminalChain, depth: int):
    """Depth-bounded stand-in for the limit: the level-`depth` set carries a
    coalgebra structure via the forward map (the split section), and its
    monad image carries the induced coalgebra."""
    if depth + 1 > chain.depth:
        raise DepthExceeded(f"stand-in at depth {depth} needs chain depth {depth + 1}")
    levels = LevelAlgebras(law, chain)
    ic = build_initial_chain(law, chain, levels)
    C = chain.level(depth)
    xi = ic.forward[depth]
    return levels, C, xi


def check_cone_coincidence(law: DistLawEM, chain: TerminalChain, depth: int) -> LawReport:
    """The cone obtained by unfolding the induced coalgebra on M(points)
    must coincide, level by level, with projecting first and applying the
    level algebras."""
    M = law.M
    levels, C, xi = _standin(law, chain, depth)
    zeta = lift_coalgebra(law, C, xi)
    MC = M.apply(C)
    report = LawReport(f"cone coincidence for {law.name}")
    for n, alpha_n in enumerate(anamorphism(MC, zeta, depth, chain)):
        level = chain.level(n)
        projected_at = levels.positions_after(n, chain.truncation(depth, n), C)
        report.first("cone-coincidence", f"level {n}", (
            {"level": n, "element": u, "unfolded": unfolded, "projected": projected}
            for p, u in enumerate(MC)
            if (unfolded := alpha_n(u)) != (projected := level.elements[projected_at(p)])))
    return report


def check_projection_morphisms(law: DistLawEM, chain: TerminalChain, depth: int) -> LawReport:
    """The levelwise evaluations of the limit's algebra structure must form
    a compatible family, i.e. every projection is an algebra morphism."""
    M = law.M
    levels, C, _xi = _standin(law, chain, depth)
    MC = M.apply(C)
    report = LawReport(f"projection morphisms for {law.name}")
    for n in range(depth):
        upper, lower = chain.level(n + 1), chain.level(n)
        down = _positions(chain.connect[n], upper, lower)
        hi = levels.positions_after(n + 1, chain.truncation(depth, n + 1), C)
        lo = levels.positions_after(n, chain.truncation(depth, n), C)
        report.first("projection-morphism", f"level {n + 1}->{n}", (
            {"level": n, "element": MC.elements[p],
             "connected": lower.elements[connected], "direct": lower.elements[direct]}
            for p in range(len(MC)) if (connected := down[hi(p)]) != (direct := lo(p))))
    return report
