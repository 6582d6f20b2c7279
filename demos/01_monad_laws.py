"""Exhaustive monad-law checking on finite carriers.

Every bundled monad is finiteness-preserving, so each law instance is a
finite table comparison.  Instances whose iterated application would explode
(powerset towers, free modules over free modules) are skipped under the
blow-up guard and reported as such, never silently dropped.
"""

from barrlab import (PowersetMonad, SemimoduleMonad, WriterMonad, carrier,
                     check_em_algebra, check_monad_laws, exception_monad, free_algebra,
                     maybe_monad, symmetric_group, terminal_algebra, zmod)
from barrlab.monads import ExceptionMonad
from barrlab.finset import FinSet

monads = {
    "maybe": maybe_monad(),
    "exception (2 errors)": exception_monad(2),
    "writer over S3": WriterMonad(symmetric_group(3)),
    "finite powerset": PowersetMonad(),
    "Z/2 semimodule": SemimoduleMonad(zmod(2)),
    "Z/4 semimodule": SemimoduleMonad(zmod(4)),
}

print("=== monad laws, exhaustively on carriers of size <= 3 ===")
for name, M in monads.items():
    report = check_monad_laws(M, 3)
    skips = len(report.skipped())
    print(f"  {name:<22} {'PASS' if report.passed else 'FAIL'}"
          f"{f'  ({skips} oversized instances skipped)' if skips else ''}")

print()
print("=== algebra laws for free and terminal algebras ===")
for name, M in monads.items():
    verdicts = []
    for n in range(3):
        verdicts.append(check_em_algebra(M, free_algebra(M, carrier(n))).passed)
    verdicts.append(check_em_algebra(M, terminal_algebra(M)).passed)
    print(f"  {name:<22} {'PASS' if all(verdicts) else 'FAIL'}")

print()
print("=== a deliberately broken monad is caught ===")


class Broken(ExceptionMonad):
    def __init__(self):
        super().__init__(FinSet("E", ("*",)), name="broken-maybe")

    def mult_element(self, X, el2):
        if el2 == (1, (1, 0)):
            return (0, "*")       # flattening forgets a value
        return super().mult_element(X, el2)


report = check_monad_laws(Broken(), 2)
first = report.first_failure()
print(f"  verdict: {'PASS' if report.passed else 'FAIL'}")
print(f"  first violated law: {first.law} at {first.instance}")
print(f"  counterexample: {first.counterexample}")
