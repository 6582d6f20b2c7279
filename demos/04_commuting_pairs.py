"""Commuting pairs: two functors exchanged by a monad.

For the words functor T X = 1 + A x X and a free-semimodule monad, the
carrier of M(T X) is a product of coefficient blocks, so it is also H(M X)
for H X = M1 x X^A: the pair (T, H) commutes, the mediating bijection is
block concatenation, and it respects the algebra structures on both sides.
The behaviours of H-machines are then free-module combinations of the words
that T generates.
"""

from barrlab import (FinSet, SemimoduleMonad, TERMINAL, carrier, check_commuting,
                     check_distlaw_kl, eval_functor, initial_words, kleisli_lift_poly,
                     partner_for_product, search_commuting_sigma, zmod)

M = SemimoduleMonad(zmod(2))
A = FinSet("A", ("a",))

print("=== the words functor has a canonical Kleisli-direction law ===")
kl = kleisli_lift_poly(A, M)
print("  axioms:", "PASS" if check_distlaw_kl(kl, 2).passed else "FAIL")
X = carrier(1)
print("  its component at a one-element carrier:")
for el, out in kl.component(X).pairs():
    print(f"    {el} -> {out}")

print()
print("=== the biproduct partner and its mediating isomorphism ===")
cand = partner_for_product(TERMINAL, M, A)
print(f"  T = {cand.T}")
print(f"  H = {cand.H}")
report = check_commuting(cand, max_size=2)
print("  bijectivity, naturality, algebra square:",
      "PASS" if report.passed else "FAIL")
for n in range(4):
    X = carrier(n)
    hm = len(eval_functor(cand.H, M.apply(X)))
    mt = len(M.apply(eval_functor(cand.T, X)))
    print(f"  |H(M X{n})| = {hm} = |M(T X{n})| = {mt}")

print()
print("=== searching for the isomorphism from scratch ===")
status, found, tried = search_commuting_sigma(cand.T, cand.H, M, cand.law, 2)
print(f"  status: {status} (closed form recognised, {tried} bijections tried)")

print()
print("=== the word stages T generates ===")
for depth in (1, 2, 3):
    ws = initial_words(FinSet("A", ("a", "b")), depth)
    print(f"  words below length {depth}: {[''.join(w) or 'e' for w in ws]}")
