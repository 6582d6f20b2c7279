"""Power series as the completion of polynomials, at finite depth.

The functor k x X^A unfolds states to formal power series on the words A*.
Building its chain of truncation levels gives: every level embeds back into
the limit with zero padding (a split section), every point is 2^-n-close to
the embedding of its degree-<n truncation (density of polynomials), and
Cauchy sequences of polynomials converge coefficientwise (completeness).
"""

import random

from barrlab import (FinSet, Polynomial, SemimoduleMonad, TruncatedSeries,
                     build_initial_chain, build_terminal_chain, cauchy_limit_point,
                     cauchy_limit_series, colim_to_lim, density_map, distance, naturals,
                     polynomial_embed, semimodule_moore_law, series_distance, words_below,
                     zmod)
from barrlab.series import decode_series, encode_series

M = SemimoduleMonad(zmod(2))
law = semimodule_moore_law(M, FinSet("A", ("t",)))
chain = build_terminal_chain(law.H, 9)
ic = build_initial_chain(law, chain)

print("chain levels for Z/2 x X^{t}:",
      [len(chain.level(n)) for n in range(6)], "...")

rng = random.Random(1)
series = TruncatedSeries.from_fn(("t",), 8, lambda w: rng.randrange(2))
point = colim_to_lim(ic, encode_series(series), 8)
print("a random depth-8 series:", series)

print()
print("=== density: degree-<n truncations approximate it ===")
for n in (1, 3, 5, 8):
    approx = density_map(ic, point, n)
    d = distance(point, approx, 8)
    shown = decode_series(approx.rep(8), ("t",), 8)
    print(f"  n={n}: approximant {shown}")
    print(f"        distance {d} (bound 2^-{n})")

print()
print("=== completeness: the approximants converge back ===")
limit = cauchy_limit_point([density_map(ic, point, n) for n in range(9)], 8)
print("  diagonal limit equals the point:",
      all(limit.rep(n) == point.rep(n) for n in range(9)))

print()
print("=== the classical one-variable picture over the naturals ===")
nat = naturals()
seq = [Polynomial(("t",), nat, {("t",) * j: 1 for j in range(n)})
       for n in range(10)]
print("  partial sums 0, 1, 1+t, 1+t+t^2, ...")
lim = cauchy_limit_series(seq, 8, modulus=range(1, 9))
print("  limit coefficients:", [lim.coefficient(w) for w in words_below(("t",), 8)])

p = Polynomial(("t",), zmod(2), {(): 1, ("t",): 1, ("t",) * 9: 1})
embedded = polynomial_embed(p, 8)
print(f"  embedding 1+t+t^9 at bound 8 discards {embedded.discarded}")
print("  distance between the full series and 1+t:",
      series_distance(TruncatedSeries.from_fn(("t",), 8, lambda w: 1 if len(w) < 2 else 0),
                      embedded.series))
