import itertools

import pytest
from hypothesis import strategies as st

from zeroone.cells import CellSpace
from zeroone.graver import MoveSet, square_free_graver
from zeroone.models import Configuration, build_complete_independence
from zeroone.movegen import degree8_moves_4x4


@pytest.fixture(scope="session")
def b0_333():
    """Square-free Graver set of 3x3x3 complete independence (shared: expensive).

    Computed one degree past the top populated degree so completeness is
    checked, not assumed.
    """
    return square_free_graver(build_complete_independence((3, 3, 3)), 6)



@pytest.fixture
def builds(monkeypatch):
    """A function giving the number of :meth:`MoveSet.build` calls made so far."""
    calls = []
    build = MoveSet.build

    def counted(cls, *args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(MoveSet, "build", classmethod(counted))
    return lambda: len(calls)


@pytest.fixture(scope="session")
def deg8_444():
    """Degree-8 transposition orbit of 4x4x4 (shared by the tests that need it)."""
    return degree8_moves_4x4()


@st.composite
def box_models(draw):
    """``(cfg, margins)``: a hierarchical model on a box of 1-3 axes of 2-3
    levels, its rows the indicators of the levels of each margin (a set of
    axes), plus with ``margins`` None a drawn set of structural zeros and a
    drawn signed row, which break most symmetries.  Homogeneous: the rows
    of one margin sum to the all-ones row."""
    dims = tuple(draw(st.lists(st.integers(2, 3), min_size=1, max_size=3)))
    axes = range(len(dims))
    margins = draw(st.sets(st.frozensets(st.sampled_from(axes)), min_size=1, max_size=3))
    box = list(itertools.product(*map(range, dims)))
    plain = draw(st.booleans())
    zeros = frozenset() if plain else frozenset(
        draw(st.lists(st.sampled_from(box), max_size=len(box) - 1)))
    space = CellSpace(dims, zeros)
    rows = [
        tuple(int(all(c[a] == v for a, v in zip(sorted(m), lv))) for c in space.cells)
        for m in sorted(margins, key=sorted)
        for lv in itertools.product(*(range(dims[a]) for a in sorted(m)))
    ]
    if not plain:
        rows.append(tuple(draw(st.lists(st.integers(-1, 1), min_size=space.cell_count,
                                        max_size=space.cell_count))))
    return Configuration(space, tuple(rows)), (margins if plain else None)
