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
from typing import Callable, Optional, Sequence, Union

from .algebras import EMAlgebra
from .errors import (DepthExceeded, DomainMismatch, InputError, NotCauchy,
                     ZeroObjectViolation)
from .finset import EMPTY, TERMINAL, Element, FinFn, FinSet, from_empty, to_terminal
from .functors import FunctorExpr, eval_functor, eval_functor_map, map_element
from .lifting import DistLawEM, lift_coalgebra
from .reports import LawReport


class TerminalChain:
    """Levels 1, H1, H^2 1, ... with the connecting maps pointing down."""

    def __init__(self, H: FunctorExpr, levels: list[FinSet], connect: list[FinFn]):
        self.H = H
        self.levels = levels
        self.connect = connect  # connect[n]: levels[n+1] -> levels[n]
        self._ana_cache: dict = {}

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
            connect.append(eval_functor_map(H, connect[n - 1]))
    return TerminalChain(H, levels, connect)


def anamorphism(C: FinSet, xi: FinFn, n: int, chain: TerminalChain) -> FinFn:
    """The level-n leg of the cone a coalgebra casts on the chain: unfold the
    coalgebra n steps."""
    if n > chain.depth:
        raise DepthExceeded(f"level {n} of a depth-{chain.depth} chain")
    HC = eval_functor(chain.H, C)
    if xi.dom != C or xi.cod != HC:
        raise DomainMismatch(f"coalgebra structure must be {C.name} -> H({C.name})")
    key = (C, xi)
    legs = chain._ana_cache.setdefault(key, [to_terminal(C)])
    while len(legs) <= n:
        m = len(legs)
        legs.append(xi.then(eval_functor_map(chain.H, legs[m - 1])))
    return legs[n]


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


def point_from_coalgebra(chain: TerminalChain, C: FinSet, xi: FinFn,
                         state: Element) -> LimitPoint:
    """The limit point a coalgebra state unfolds to."""
    if state not in C:
        raise DomainMismatch(f"{state!r} is not a state of {C.name}")
    return LimitPoint(chain, lambda n: anamorphism(C, xi, n, chain)(state),
                      label=f"beh({state!r})")


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

    def upper_bound(self) -> Fraction:
        exp = self.agree_depth if self.resolved else self.bound_exp
        return Fraction(1, 2 ** exp)

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
    is filled on first use from the level n-1 table.  Above the guard the
    level is evaluated pointwise on every call.
    """

    def __init__(self, law: DistLawEM, chain: TerminalChain, top: int):
        if law.H != chain.H:
            raise DomainMismatch("law and chain are for different functors")
        self.law = law
        self.chain = chain
        self.top = top
        # Per level: None until first use, then (M(level), positions) or
        # False when M(level) exceeds the guard.
        self._tables: list = [None] * (top + 1)
        self._algebras = [self._make(n) for n in range(top + 1)]

    def _make(self, n: int) -> EMAlgebra:
        return EMAlgebra(self.law.M, self.chain.level(n),
                         lambda u: self.structure_at(n, u), name=f"level{n}")

    def algebra(self, n: int) -> EMAlgebra:
        if not 0 <= n <= self.top:
            raise DepthExceeded(f"level algebra {n}; built to {self.top}")
        return self._algebras[n]

    def structure_at(self, n: int, u: Element) -> Element:
        if not 0 <= n <= self.top:
            raise DepthExceeded(f"level algebra {n}; built to {self.top}")
        if n == 0:
            return "*"
        table = self._tables[n]
        level = self.chain.levels[n]
        if table is None:
            M = self.law.M
            if M.tower_fits(len(level), 1):
                domain = M.apply(level)
                table = (domain, [-1] * len(domain))
            else:
                table = False
            self._tables[n] = table
        if table is False:
            return self._distribute(n, u)
        domain, positions = table
        i = domain.index(u)
        j = positions[i]
        if j < 0:
            j = positions[i] = level.index(self._distribute(n, u))
        return level.elements[j]

    def _distribute(self, n: int, u: Element) -> Element:
        """Level n's structure at u, from the structure of level n-1."""
        law = self.law
        return map_element(law.H, lambda v: self.structure_at(n - 1, v),
                           law.component_at(self.chain.levels[n - 1], u))


def level_algebras(law: DistLawEM, chain: TerminalChain,
                   top: Optional[int] = None) -> LevelAlgebras:
    """Equip levels 0..top (default: the whole chain) with their inherited
    algebra structures.  Nothing is evaluated here: each level's table is
    allocated on its first structure lookup, and only the entries a caller
    asks for (and the entries below them they need) are filled."""
    return LevelAlgebras(law, chain, chain.depth if top is None else top)


def check_connect_morphisms(levels: LevelAlgebras, upto: Optional[int] = None) -> LawReport:
    """Each connecting map must be an algebra morphism between consecutive
    level algebras."""
    law, chain = levels.law, levels.chain
    M = law.M
    top = levels.top if upto is None else upto
    report = LawReport(f"connect maps of {law.name}")
    for n in range(top):
        upper = chain.level(n + 1)
        t_n = chain.connect[n]
        if not M.tower_fits(len(upper), 1):
            report.skip("connect-is-morphism", f"level {n + 1}->{n}",
                        f"|M(level {n + 1})| exceeds guard")
            continue
        MU = M.apply(upper)
        m_t_n = M.arrow(t_n, upper, chain.level(n))
        ce = None
        for u in MU:
            lhs = t_n(levels.structure_at(n + 1, u))
            rhs = levels.structure_at(n, m_t_n(u))
            if lhs != rhs:
                ce = {"level": n + 1, "element": u, "lhs": lhs, "rhs": rhs}
                break
        report.record("connect-is-morphism", f"level {n + 1}->{n}", ce is None,
                      counterexample=ce)
    return report


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
    valid_to = min(valid_to, levels.top)
    return LimitPoint(chain, lambda n: limit_algebra_level(law, chain, levels, u, n),
                      valid_to=valid_to, label="limit-action")


# ---------------------------------------------------------------------------
# Initial sequence, sections, density


class InitialChain:
    """Forward maps of the initial sequence, identified with sections of the
    terminal one; only valid when the free algebra on the empty set is a
    singleton."""

    def __init__(self, chain: TerminalChain, forward: list[FinFn], levels: LevelAlgebras):
        self.chain = chain
        self.forward = forward  # forward[n]: levels[n] -> levels[n+1]
        self.level_algebras = levels

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
        levels = level_algebras(law, chain)
    zero = M0.elements[0]
    lvl1 = chain.level(1)
    seed = M.map_element_fn(from_empty(lvl1), EMPTY, lvl1, zero)
    bang = FinFn(chain.level(0), lvl1, {"*": levels.structure_at(1, seed)}, name="!")
    forward = [bang]
    for n in range(1, chain.depth):
        forward.append(eval_functor_map(chain.H, forward[n - 1]))
    return InitialChain(chain, forward, levels)


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
    levels = level_algebras(law, chain)
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
    for n in range(depth + 1):
        alpha_n = anamorphism(MC, zeta, n, chain)
        m_trunc = M.arrow(chain.truncation(depth, n), C, chain.level(n))
        ce = None
        for u in MC:
            lhs = alpha_n(u)
            rhs = levels.structure_at(n, m_trunc(u))
            if lhs != rhs:
                ce = {"level": n, "element": u, "unfolded": lhs, "projected": rhs}
                break
        report.record("cone-coincidence", f"level {n}", ce is None, counterexample=ce)
    return report


def check_projection_morphisms(law: DistLawEM, chain: TerminalChain, depth: int) -> LawReport:
    """The levelwise evaluations of the limit's algebra structure must form
    a compatible family, i.e. every projection is an algebra morphism."""
    M = law.M
    levels, C, _xi = _standin(law, chain, depth)
    MC = M.apply(C)
    report = LawReport(f"projection morphisms for {law.name}")
    for n in range(depth):
        m_trunc_hi = M.arrow(chain.truncation(depth, n + 1), C, chain.level(n + 1))
        m_trunc_lo = M.arrow(chain.truncation(depth, n), C, chain.level(n))
        t_n = chain.connect[n]
        ce = None
        for u in MC:
            hi = levels.structure_at(n + 1, m_trunc_hi(u))
            lo = levels.structure_at(n, m_trunc_lo(u))
            if t_n(hi) != lo:
                ce = {"level": n, "element": u, "connected": t_n(hi), "direct": lo}
                break
        report.record("projection-morphism", f"level {n + 1}->{n}", ce is None,
                      counterexample=ce)
    return report
