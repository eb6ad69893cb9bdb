"""Print an input file with generic weight tables in place of its weights.

    PYTHONPATH=src python tests/generic_input.py tests/data/simplex_p4_5.json

omega is ``generic_weight(parts_hull.lattice_points(), seed=1)`` and nu is
``generic_weight(sum_polar.lattice_points(), seed=1001)`` (tests/conftest.py),
each a table of [point, value] rows in ``lattice_points()`` order, with the
values written as ``str(Fraction)``.  The output is meant for a pipe, not for
tests/data: every input there joins the tests over all data inputs, and the
generic quintic's run there would cost more than a minute of tier-1 time.
"""

import json
import sys

from conftest import generic_weight
from nefsphere import NefPartition


def generic_tables(data):
    """(omega, nu): the generic weight tables of the input `data`."""
    nef = NefPartition.from_vertex_lists(
        [[tuple(v) for v in part] for part in data["parts"]])
    return (generic_weight(nef.parts_hull.lattice_points(), seed=1),
            generic_weight(nef.sum_polar.lattice_points(), seed=1001))


def with_generic_weights(data):
    """The input `data` with its weights replaced by the generic tables."""
    omega, nu = generic_tables(data)
    return {**data, "omega": {"table": _rows(omega)},
            "nu": {"table": _rows(nu)}}


def _rows(pairs):
    return [[list(m), str(value)] for m, value in pairs]


if __name__ == "__main__":
    with open(sys.argv[1]) as fh:
        data = json.load(fh)
    sys.stdout.write(json.dumps(with_generic_weights(data)) + "\n")
