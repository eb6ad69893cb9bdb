"""Poset indices are cell-key order, and a cell's star is one mask.

A transversal poset takes its elements in the order of its subdivision's
cells, which are sorted by key, so index order is cell-key order
(:class:`nefsphere.sphere.TransversalPoset`).  The primary loops and the
chart graph's neighbour lists read that order from the indices and sort
nothing, so these tests pin it on every ``tests/data`` input, on the run
and on its role-swapped run.  :meth:`ConedSubdivision.star` is checked
against the subset scan it replaced, on every cell of both weights'
subdivisions and of each part subdivision.

Each poset's inclusion order is computed once, over its own elements.  It
is checked against the route it replaced, the inclusion masks over every
cell of the subdivision restricted to the transversal cells, and a spy
checks that it is computed once per poset.
"""

import glob
import os

import pytest

from nefsphere import Pipeline, sphere
from nefsphere.cli import load_input
from nefsphere.polytope import bits
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


def inclusion_over_all_cells(boundary, poset):
    """The poset's (above, below) masks read from the inclusion masks over
    every cell of the subdivision, restricted to the poset's elements."""
    above, below = sphere._inclusion_masks(boundary.vertex_masks,
                                           boundary.vertex_masks)
    index = {c: k for k, c in enumerate(boundary.cells)}
    ks = [index[e.cell] for e in poset.elements]
    position = {k: t for t, k in enumerate(ks)}
    kept = sum(1 << k for k in ks)

    def restrict(masks):
        return [sum(1 << position[j] for j in bits(masks[k] & kept))
                for k in ks]

    return restrict(above), restrict(below)


def test_poset_order_is_inclusion_over_all_cells_restricted(runs):
    for pipe in runs:
        for boundary, poset in ((pipe.s_boundary(), pipe.p_poset()),
                                (pipe.t_boundary(), pipe.q_poset())):
            assert (poset._above, poset._below) == \
                inclusion_over_all_cells(boundary, poset)


@pytest.mark.parametrize("name", ["pentagon_pair", "cube_split_r3",
                                  "prism_pair_5d_kinked"])
def test_each_poset_order_is_computed_once_over_its_elements(name,
                                                            monkeypatch):
    real = sphere._inclusion_masks
    sizes = []

    def spy(masks, holding):
        sizes.append(len(masks))
        return real(masks, holding)

    monkeypatch.setattr(sphere, "_inclusion_masks", spy)
    nef, omega, nu = load_input(path(f"{name}.json"))
    pipe = Pipeline(nef, omega_spec=omega, nu_spec=nu)
    for boundary, stage in ((pipe.s_boundary(), pipe.p_poset),
                            (pipe.t_boundary(), pipe.q_poset)):
        sizes.clear()
        poset = stage()
        assert sizes == [len(poset)] != [len(boundary.cells)]
