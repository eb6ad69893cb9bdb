"""Poset indices are cell-key order, and a cell's star is one mask.

A transversal poset takes its elements in the order of its subdivision's
cells, which are sorted by key, so index order is cell-key order
(:class:`nefsphere.sphere.TransversalPoset`).  The primary loops and the
chart graph's neighbour lists read that order from the indices and sort
nothing, so these tests pin it on every ``tests/data`` input, on the run
and on its role-swapped run.  :meth:`ConedSubdivision.star` is checked
against the subset scan it replaced, on every cell of both weights'
subdivisions and of each part subdivision.
"""

import glob
import os

import pytest

from nefsphere import Pipeline
from nefsphere.cli import load_input
from test_cli import DATA, path

NAMES = sorted(os.path.basename(f)[:-len(".json")]
               for f in glob.glob(os.path.join(DATA, "*.json"))
               if not f.endswith("malformed.json"))


@pytest.fixture(scope="module", params=NAMES)
def runs(request):
    """The run on tests/data/NAME.json and its role-swapped run."""
    nef, omega, nu = load_input(path(f"{request.param}.json"))
    pipe = Pipeline(nef, omega_spec=omega, nu_spec=nu)
    return pipe, pipe.dual_pipeline()


def _increasing(keys):
    return all(a < b for a, b in zip(keys, keys[1:]))


def star_by_subset_scan(sub, cell):
    """The mask of the maximal cells whose vertices hold the cell's."""
    vertices = set(cell.vertices)
    return sum(1 << k for k, d in enumerate(sub.maximal_cells)
               if vertices <= set(d.vertices))


def test_poset_elements_are_in_cell_key_order(runs):
    for pipe in runs:
        for poset in (pipe.p_poset(), pipe.q_poset()):
            assert _increasing([e.cell.key() for e in poset.elements])


def test_subdivision_cells_are_sorted_by_key(runs):
    for pipe in runs:
        for boundary in (pipe.s_boundary(), pipe.t_boundary()):
            assert _increasing([c.key() for c in boundary.cells])
        for coned in (pipe.s_coned(), pipe.t_coned()):
            assert _increasing([c.key() for c in coned.cells()])


def test_chart_graph_neighbours_ascend_in_index_and_cell_key(runs):
    for pipe in runs:
        graph = pipe.graph()
        posets = {"P": pipe.p_poset(), "Q": pipe.q_poset()}
        for node in graph.nodes():
            near = graph.neighbors(node)
            assert near == sorted(near)
            assert _increasing([posets[side].elements[k].cell.key()
                                for side, k in near])


def test_star_is_the_subset_scan(runs):
    seen = set()
    for pipe in runs:
        for sub in [pipe.s_coned(), pipe.t_coned()] + \
                pipe.part_subdivisions():
            if id(sub) in seen:
                continue
            seen.add(id(sub))
            for cell in sub.cells():
                assert sub.star(cell) == star_by_subset_scan(sub, cell)
