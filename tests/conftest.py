import pytest

from levybarrier.cases import MODELS


@pytest.fixture(scope="session")
def kou():
    return MODELS["kou"]


@pytest.fixture(scope="session")
def nig():
    return MODELS["nig"]


@pytest.fixture(scope="session")
def vg():
    return MODELS["vg"]


@pytest.fixture(scope="session")
def gaussian():
    return MODELS["gaussian"]


@pytest.fixture(scope="session")
def all_models():
    return MODELS
