import pytest

from pvmk.ifs import build_tower, dyadic_ifs, triadic_ifs


@pytest.fixture(scope="session")
def dyadic_tower():
    return build_tower(dyadic_ifs(), 3)


@pytest.fixture(scope="session")
def dyadic_ct():
    return build_tower(dyadic_ifs(), 3)


@pytest.fixture(scope="session")
def dyadic_ct2():
    return build_tower(dyadic_ifs(), 2)


@pytest.fixture(scope="session")
def triadic_ct():
    return build_tower(triadic_ifs(), 2)
