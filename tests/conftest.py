import numpy as np
import pytest

from quidem import (
    FiniteQuantumGroup,
    Functional,
    cyclic,
    dihedral,
    function_algebra,
    group_algebra,
    kac_paljutkin,
    symmetric,
)


def random_element(algebra, rng):
    """An element whose blocks have standard normal real and imaginary parts,
    drawn block by block, real part first."""
    return algebra.element(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for n in algebra.block_dims)


def random_functional(algebra, rng):
    """The functional whose density is random_element(algebra, rng)."""
    return Functional(algebra, random_element(algebra, rng))


@pytest.fixture(scope="session")
def cz2():
    return function_algebra(cyclic(2))


@pytest.fixture(scope="session")
def cz4():
    return function_algebra(cyclic(4))


@pytest.fixture(scope="session")
def cz6():
    return function_algebra(cyclic(6))


@pytest.fixture(scope="session")
def cs3():
    return function_algebra(symmetric(3))


@pytest.fixture(scope="session")
def gz4():
    return group_algebra(cyclic(4))


@pytest.fixture(scope="session")
def gs3():
    return group_algebra(symmetric(3))


@pytest.fixture(scope="session")
def gd4():
    return group_algebra(dihedral(4))


@pytest.fixture(scope="session")
def kp():
    return kac_paljutkin()


@pytest.fixture(scope="session")
def cm(cz2):
    """C(M) of the monoid M = {1, 0} (element 1 at index 0, the absorbing 0 at
    index 1): Δf(s, t) = f(st), ε = δ₁ and the invariant state δ₀.  M has no
    inverses, so C(M) has no antipode; S = id stands in for one."""
    comult = np.zeros((4, 2))
    comult[cz2.ts.positions, [0, 1, 1, 1]] = 1.0
    return FiniteQuantumGroup(
        algebra=cz2.algebra,
        comult=comult,
        counit=Functional.from_covector(cz2.algebra, np.array([1.0, 0.0])),
        antipode=np.eye(2),
        haar=Functional.from_covector(cz2.algebra, np.array([0.0, 1.0])),
    )


@pytest.fixture(scope="session")
def mu0(cz4):
    """(δ0 − δ2)/2 on C(Z4): the standard non-positive contractive idempotent."""
    return Functional.from_covector(cz4.algebra, np.array([0.5, 0.0, -0.5, 0.0]))
