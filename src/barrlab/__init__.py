"""barrlab: exhaustive desk-scale checking of monads on finite sets,
distributive laws and their liftings, terminal/initial sequences with their
dyadic ultrametric, semiring-weighted Moore automata and truncated power
series, and commuting pairs of endofunctors."""

__version__ = "0.1.0"

from .algebras import EMAlgebra, check_em_algebra, free_algebra, terminal_algebra
from .chains import (DyadicDist, InitialChain, LevelAlgebras, LimitPoint,
                     TerminalChain, anamorphism, build_initial_chain,
                     build_terminal_chain, cauchy_limit_point,
                     check_cone_coincidence, check_projection_morphisms,
                     colim_to_lim, density_map, distance)
from .compair import (CommutingCandidate, check_commuting, kleisli_lift_poly,
                      partner_for_product, search_commuting_sigma, words_functor)
from .errors import (BarrlabError, BlowUpGuard, BoundMismatch, DepthExceeded,
                     DomainMismatch, InputError, MissingComponent,
                     NonFinitePreserving, NotAGroup, NotBiproductCompatible,
                     NotCauchy, SearchCapReached, ZeroObjectViolation,
                     blowup_limit)
from .finset import EMPTY, TERMINAL, FinFn, FinSet, all_functions, carrier, tabulate
from .functors import (Compose, Const, Coprod, FunctorExpr, Id, Power, Prod,
                       eval_functor, moore_functor)
from .groups import FinGroup, FinMonoid, cyclic_group, symmetric_group
from .lifting import (ComponentFamily, Composite, DistLawEM, DistLawKl,
                      check_distlaw_em, check_distlaw_kl, constant_law,
                      gset_distlaws, identity_law, lift_algebra, lift_coalgebra,
                      naturality_failures, pointed_law, product_swap_law,
                      semimodule_moore_law, semimodule_stream_law,
                      semiring_algebra)
from .monads import (ExceptionMonad, FinMonad, PowersetMonad, SemimoduleMonad,
                     WriterMonad, check_monad_laws, exception_monad, maybe_monad)
from .reports import LawCheck, LawReport
from .semiring import (Semiring, boolean_semiring, check_semiring, minplus,
                       naturals, zmod)
from .series import (MooreAutomaton, Polynomial, TruncatedSeries, behavior,
                     cauchy_limit_series, decode_series, encode_series,
                     polynomial_embed, series_distance, words_below)
