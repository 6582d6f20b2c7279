import pytest

from barrlab import (FinSet, PowersetMonad, SemimoduleMonad, WriterMonad, exception_monad,
                     maybe_monad, symmetric_group, zmod)


@pytest.fixture(scope="session")
def s3():
    return symmetric_group(3)


@pytest.fixture(scope="session")
def maybe():
    return maybe_monad()


@pytest.fixture(scope="session")
def z2_monad():
    return SemimoduleMonad(zmod(2))


@pytest.fixture(scope="session")
def z4_monad():
    return SemimoduleMonad(zmod(4))


@pytest.fixture(scope="session")
def bundled_monads(s3):
    return {
        "maybe": maybe_monad(),
        "exception2": exception_monad(2),
        "writer-s3": WriterMonad(s3),
        "powerset": PowersetMonad(),
        "z2-semimodule": SemimoduleMonad(zmod(2)),
        "z4-semimodule": SemimoduleMonad(zmod(4)),
    }


@pytest.fixture(scope="session")
def one_letter():
    return FinSet("A", ("t",))


@pytest.fixture(scope="session")
def two_outputs():
    return FinSet("2", (0, 1))
