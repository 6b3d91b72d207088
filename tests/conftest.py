import pytest

from zeroone.graver import square_free_graver
from zeroone.models import build_complete_independence
from zeroone.movegen import degree8_moves_4x4


def pytest_addoption(parser):
    parser.addoption(
        "--run-long",
        action="store_true",
        default=False,
        help="run long optional checks (extra table rows, large sweeps)",
    )


def pytest_configure(config):
    config.addinivalue_line("markers", "long: long optional check")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-long"):
        return
    skip = pytest.mark.skip(reason="needs --run-long")
    for item in items:
        if "long" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def b0_333():
    """Square-free Graver set of 3x3x3 complete independence (shared: expensive).

    Computed one degree past the top populated degree so completeness is
    checked, not assumed.
    """
    return square_free_graver(build_complete_independence((3, 3, 3)), 6)



@pytest.fixture(scope="session")
def deg8_444():
    """Degree-8 transposition orbit of 4x4x4 (shared by the tests that need it)."""
    return degree8_moves_4x4()
