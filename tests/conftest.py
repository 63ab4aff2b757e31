import sys

import pytest
from hypothesis import settings

from ksum3 import field
from ksum3.curve import CurveParams
from ksum3.field import Field, get_field

settings.register_profile("ksum3", deadline=None, max_examples=60)
settings.load_profile("ksum3")


@pytest.fixture(scope="session")
def f2():
    return get_field(2)


@pytest.fixture(scope="session")
def f3():
    return get_field(3)


@pytest.fixture(scope="session")
def f4():
    return get_field(4)


@pytest.fixture(scope="session")
def f5():
    return get_field(5)


@pytest.fixture(scope="session")
def params31(f5):
    """The worked-example curve: F_{3^5} with phi = x^5+x^4+x^2+1, a = alpha^31."""
    return CurveParams.make(f5, f5.alpha ** 31)


@pytest.fixture(scope="session")
def tableless():
    """Build a table-less copy of a field: the same modulus, constructed
    with field.TABLE_CAP at 0, so it carries no exp/log/Zech tables and
    every op takes the packed path of the fields past the cap."""
    def build(f):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(field, "TABLE_CAP", 0)
            return Field(f.m, f.modulus)
    return build


def pytest_terminal_summary(terminalreporter):
    """Print the acceptance-battery verdict lines past output capture."""
    mod = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    lines = getattr(mod, "ACCEPTANCE_LINES", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
