import pytest
from hypothesis import Phase, settings

from schubert import GrassmannRing

settings.register_profile("suite", max_examples=60, deadline=None, derandomize=True)
# A deeper run of the same derandomized examples: pytest --hypothesis-profile=deep
settings.register_profile("deep", max_examples=500, deadline=None, derandomize=True)
# The suite's examples without shrinking: a failing check stops at the first
# example that fails, in seconds, unshrunk: pytest -x --hypothesis-profile=gate
settings.register_profile(
    "gate", settings.get_profile("suite"), phases=[phase for phase in Phase if phase is not Phase.shrink]
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def g14():
    return GrassmannRing(1, 4)


@pytest.fixture(scope="session")
def g13():
    return GrassmannRing(1, 3)


@pytest.fixture(scope="session")
def p3():
    return GrassmannRing(0, 3)
