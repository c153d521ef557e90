import warnings

import numpy as np
import pytest

from gaeq.algebra import get_algebra
from gaeq.solver import RankAmbiguityWarning, verify_conjecture

ALGEBRA_NAMES = ["ega", "pga", "cga"]


@pytest.fixture(scope="session", params=ALGEBRA_NAMES)
def any_algebra(request):
    return get_algebra(request.param)


@pytest.fixture(scope="session")
def ega():
    return get_algebra("ega")


@pytest.fixture(scope="session")
def pga():
    return get_algebra("pga")


@pytest.fixture(scope="session")
def cga():
    return get_algebra("cga")


@pytest.fixture(scope="session")
def verify_l2_reports():
    """verify_conjecture(l_max=2), computed once for the session, with
    RankAmbiguityWarning as an error.  Tests only read the reports."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RankAmbiguityWarning)
        return verify_conjecture(l_max=2)


@pytest.fixture(scope="session")
def verify_l3_long_reports():
    """verify_conjecture(l_max=3, long=True), computed once for the
    session, with RankAmbiguityWarning as an error.  Tests only read the
    reports."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RankAmbiguityWarning)
        return verify_conjecture(l_max=3, long=True)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
