import pytest

from griglab import core, enumeration


@pytest.fixture(scope="session")
def grig():
    return core.load_preset("grigorchuk")


@pytest.fixture(scope="session")
def ball6(grig):
    return enumeration.ball(grig, 6)


@pytest.fixture(scope="session")
def ball8(grig):
    return enumeration.ball(grig, 8)


@pytest.fixture(scope="session")
def ball12(grig):
    return enumeration.ball(grig, 12)


@pytest.fixture(scope="session")
def dihedral_22_specs():
    """r the 11-cycle and s the reflection i -> -i, all sections trivial.

    The group is dihedral of order 22, on a tree of arity 11.
    """
    return [
        {"label": "r", "involution": False, "perm": [(i + 1) % 11 for i in range(11)],
         "sections": ["1"] * 11},
        {"label": "s", "involution": True, "perm": [-i % 11 for i in range(11)],
         "sections": ["1"] * 11},
    ]
