import pytest

from supertrace.invtensor import build_adjoint
from supertrace.rootdata import build_root_system
from supertrace.suites import Roster, build_roster
from supertrace.suites import _rand_combination as rand_combination  # noqa: F401
from supertrace.suites import _random_homogeneous_map as rand_map  # noqa: F401


@pytest.fixture(scope="session")
def rs21():
    return build_root_system("sl", 2, 1)


@pytest.fixture(scope="session")
def rs31():
    return build_root_system("sl", 3, 1)


@pytest.fixture(scope="session")
def roster() -> Roster:
    return build_roster()


@pytest.fixture(scope="session")
def adj(roster):
    return build_adjoint(roster.rs)
