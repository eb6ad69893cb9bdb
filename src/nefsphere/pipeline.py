"""End-to-end orchestration of the primal (and role-swapped dual) runs.

A Pipeline owns one nef-partition plus the two weight functions and lazily
computes every derived object: dual partition, boundary subdivisions,
transversal posets, the sphere complex, tropical complexes, discriminant and
monodromy data, and the machine-readable run report.
"""

from fractions import Fraction

from . import monodromy as mono
from . import sphere, tropical
from .errors import FalsificationError
from .nef import (
    NefPartitionError,
    dual_nef_partition,
    interior_vectors,
    is_irreducible,
    validate_nef_partition,
)
from .polytope import GeometryError, pair as role_pair
from .subdivision import (
    WeightFunction,
    boundary_subdivision,
    lower_hull_subdivision,
)


def _cached(fn):
    """A stage computed once per Pipeline.  An exception escaping it is
    tagged ``stage`` with the stage's name, unless an inner stage tagged it
    first, so the CLI can name the stage that raised."""
    name = "_" + fn.__name__

    def wrapper(self):
        if name not in self._cache:
            try:
                self._cache[name] = fn(self)
            except Exception as exc:
                if not hasattr(exc, "stage"):
                    exc.stage = fn.__name__
                raise
        return self._cache[name]

    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


class Pipeline:
    def __init__(self, nef, omega_spec="all_ones", nu_spec="all_ones"):
        self.nef = nef
        self.omega_spec = omega_spec
        self.nu_spec = nu_spec
        self._cache = {}

    # -- structural layer ----------------------------------------------------

    @_cached
    def validation(self):
        return validate_nef_partition(self.nef, lambda nef: self.dual())

    @_cached
    def dual(self):
        return dual_nef_partition(self.nef)

    @_cached
    def double_dual(self):
        """The dual of the dual partition (the primal, by the involution);
        its ``primal`` is the nef-partition of the role-swapped run."""
        return dual_nef_partition(self.dual().as_nef_partition())

    @_cached
    def irreducibility(self):
        return is_irreducible(self.nef)

    @_cached
    def interior_vectors(self):
        return interior_vectors(self.nef, self.dual())

    @_cached
    def omega(self):
        return _weight(self.nef.parts_hull, self.omega_spec)

    @_cached
    def nu(self):
        return _weight(self.nef.sum_polar, self.nu_spec)

    # -- subdivisions ----------------------------------------------------------

    @_cached
    def s_coned(self):
        return lower_hull_subdivision(self.nef.parts_hull, self.omega())

    @_cached
    def t_coned(self):
        return lower_hull_subdivision(self.nef.sum_polar, self.nu())

    @_cached
    def s_boundary(self):
        return boundary_subdivision(self.s_coned())

    @_cached
    def t_boundary(self):
        return boundary_subdivision(self.t_coned())

    # -- transversal layer ------------------------------------------------------

    @_cached
    def p_poset(self):
        return sphere.transversal_poset(self.s_boundary(),
                                        list(self.nef.parts),
                                        list(self.dual().parts),
                                        self.nef.sum_polytope)

    @_cached
    def q_poset(self):
        return sphere.transversal_poset(self.t_boundary(),
                                        list(self.dual().parts),
                                        list(self.nef.parts),
                                        self.dual().sum_polytope)

    @_cached
    def p_minkowski_complex(self):
        return sphere.minkowski_complex(self.p_poset(), self.nef.sum_polytope,
                                        self.nef.r, self.nef.parts_hull)

    @_cached
    def q_minkowski_complex(self):
        return sphere.minkowski_complex(self.q_poset(),
                                        self.dual().sum_polytope, self.nef.r,
                                        self.nef.sum_polar)

    @_cached
    def sigma(self):
        pairs = sphere.adjoint_pairs(self.p_poset(), self.q_poset())
        return sphere.SigmaComplex(self.p_poset(), self.q_poset(), pairs,
                                   self.nef.r)

    @_cached
    def sigma_homology(self):
        return self.sigma().homology()

    # -- tropical layer -----------------------------------------------------------

    @_cached
    def part_subdivisions(self):
        return [tropical.part_subdivision(p, self.omega())
                for p in self.nef.parts]

    @_cached
    def tropical_cells(self):
        return tropical.TropicalCells()

    @_cached
    def amoeba(self):
        return tropical.amoeba(self.s_coned(), self.tropical_cells())

    @_cached
    def tropical_complex(self):
        return tropical.bounded_tropical_complex(self.p_poset(),
                                                 self.s_boundary(),
                                                 self.nef.ambient,
                                                 self.tropical_cells())

    @_cached
    def zero_cell(self):
        return tropical.tropical_zero_cell(self.nef.parts_hull, self.omega())

    # -- monodromy layer -----------------------------------------------------------

    @_cached
    def atlas(self):
        return mono.ChartAtlas(self.sigma())

    @_cached
    def graph(self):
        return mono.ChartGraph(self.sigma())

    @_cached
    def discriminant(self):
        return mono.discriminant(self.sigma())

    @_cached
    def loops(self):
        return mono.primary_loops(self.sigma(), self.s_boundary(),
                                  self.t_boundary())

    @_cached
    def transitions(self):
        return mono.transition_memo(self.p_poset(), self.q_poset(),
                                    self.omega())

    @_cached
    def base_charts(self):
        return mono.base_chart_memo(self.p_poset(), self.omega())

    @_cached
    def monodromies(self):
        return [mono.monodromy(loop, self.transitions(), self.base_charts())
                for loop in self.loops()]

    @_cached
    def global_report(self):
        return mono.global_group(self.sigma(), self.graph(), self.loops(),
                                 self.transitions(), self.base_charts(),
                                 self.discriminant())

    @_cached
    def complement_homology(self):
        return mono.complement_homology(self.sigma(),
                                        self.discriminant().smooth_mask())

    @_cached
    def dual_pipeline(self):
        """The role-swapped run: dual parts with the weights interchanged.

        By Batyrev-Borisov duality it is this run with the roles of Delta
        and nabla swapped.  The duality equalities are checked by key, and
        the dual run's subdivisions and posets are then this run's, swapped.
        The duality suite reads the dual holonomy from those posets; it
        builds no dual Sigma.
        """
        back = self.double_dual()
        dual_nef = back.primal
        pipe = Pipeline(dual_nef,
                        omega_spec=_weight_as_spec(self.nu()),
                        nu_spec=_weight_as_spec(self.omega()))
        pipe._cache["_dual"] = back
        _require_duality(
            dual_nef.parts_hull.key() == self.nef.sum_polar.key(),
            "the dual parts hull is not the polar of the sum")
        _require_duality(
            dual_nef.sum_polar.key() == self.nef.parts_hull.key(),
            "the polar of the dual sum is not the parts hull")
        _require_duality(pipe.omega().values == self.nu().values,
                         "the dual omega table is not the nu table")
        _require_duality(pipe.nu().values == self.omega().values,
                         "the dual nu table is not the omega table")
        _require_duality(
            self._involution_holds()
            and back.sum_polytope.key() == self.nef.sum_polytope.key(),
            "the double-dual parts are not the parts")
        for dual_stage, stage in (("s_coned", "t_coned"),
                                  ("t_coned", "s_coned"),
                                  ("s_boundary", "t_boundary"),
                                  ("t_boundary", "s_boundary"),
                                  ("p_poset", "q_poset"),
                                  ("q_poset", "p_poset")):
            pipe._cache["_" + dual_stage] = getattr(self, stage)()
        return pipe

    # -- verification suites ---------------------------------------------------------

    def lemma_suite(self):
        failures = sphere.minimal_cells_unimodular(self.p_poset())
        failures += sphere.minimal_cells_unimodular(self.q_poset())
        return failures

    def tropical_suite(self):
        report = {}
        report["order_complex"] = tropical.order_complex_check(
            self.tropical_complex())
        report["bounded_amoeba_is_zero_cell_boundary"] = \
            tropical.bounded_amoeba_matches_zero_cell(self.amoeba(),
                                                      self.zero_cell())
        report["bounded_cells"] = tropical.bounded_cells_check(
            self.part_subdivisions(), self.s_boundary(), self.p_poset(),
            self.tropical_complex(), self.tropical_cells())
        report["mixed_subdivision"] = tropical.mixed_subdivision_check(
            self.s_boundary(), self.p_poset(), self.nef.sum_polytope)
        return report

    def triviality_suite(self):
        smooth = self.discriminant().smooth_mask()
        return [mono.triviality_equivalence_check(self.sigma(), loop, m, smooth)
                for loop, m in zip(self.loops(), self.monodromies())]

    def local_group_suite(self):
        return {k: mono.local_group(self.sigma(), k, self.transitions(),
                                    self.base_charts())
                for k in self.discriminant().vertex_ids}

    def duality_suite(self):
        dual_pipe = self.dual_pipeline()
        return [mono.duality_check(loop, m, dual_pipe.transitions(),
                                   dual_pipe.base_charts())
                for loop, m in zip(self.loops(), self.monodromies())]

    # -- reporting --------------------------------------------------------------------

    def report(self, verify="fast", include_dual=False):
        rep = {"input": self._input_description(), "stages": {}}
        stages = rep["stages"]
        stages["validation"] = self.validation().as_dict()
        irr, witness = self.irreducibility()
        stages["irreducible"] = {"irreducible": irr,
                                 "witness": list(witness) if witness else None}
        dual = self.dual()
        stages["dual_partition"] = {
            "parts": [sphere._cell_key(p) for p in dual.parts],
            "involution": self._involution_holds(),
        }
        iv = self.interior_vectors()
        stages["interior_vectors"] = {
            "v": [sphere._point_key(vec) for vec in iv.v],
            "w": [sphere._point_key(vec) for vec in iv.w],
            "sign_pattern": _sign_pattern_holds(iv) if irr else None,
        }
        stages["subdivisions"] = {
            "S": _boundary_stats(self.s_boundary()),
            "T": _boundary_stats(self.t_boundary()),
        }
        stages["transversal"] = {
            "P": len(self.p_poset()), "Q": len(self.q_poset()),
            "P_minimal": len(self.p_poset().minimal),
            "Q_minimal": len(self.q_poset().minimal),
        }
        stages["minkowski_complexes"] = {
            "P_side": self.p_minkowski_complex().report,
            "Q_side": self.q_minkowski_complex().report,
        }
        sigma = self.sigma()
        d, r = self.nef.ambient, self.nef.r
        cells_by_dim = {}
        for dim in sigma.dims:
            cells_by_dim[dim] = cells_by_dim.get(dim, 0) + 1
        stages["sigma"] = {
            "cells": len(sigma),
            "cells_by_dim": {str(k): v for k, v in sorted(cells_by_dim.items())},
            "dim": sigma.dim(),
            "euler": sigma.euler_characteristic(),
            "expected_euler": 1 + (-1) ** (d - r) if irr else None,
            "pseudomanifold": sigma.is_closed_pseudomanifold(),
            "homology": _homology_json(self.sigma_homology()),
            "projections": sphere.projection_images(sigma),
            "sphericity_certificate":
                "integral homology plus closed-pseudomanifold check; "
                "homeomorphism type itself is not certified",
        }
        disc = self.discriminant()
        stages["discriminant"] = {
            "vertices": len(disc.vertex_ids),
            "components": len(disc.components),
            "component_homology": [_homology_json(h)
                                   for h in disc.component_homology],
            "component_parts": _component_parts(self.sigma(), disc),
        }
        loops = self.loops()
        stages["monodromy"] = {
            "graph_nodes": len(self.graph().nodes()),
            "graph_edges": len(self.graph().edges),
            "primary_loops": len(loops),
            "degenerate_loops": sum(1 for l in loops if l.degenerate),
            "global": self.global_report(),
            "atlas": self.atlas().covering_report(),
        }
        if verify == "full":
            stages["lemma_suite_failures"] = self.lemma_suite()
            stages["tropical"] = self.tropical_suite()
            stages["triviality"] = _summarize_triviality(self.triviality_suite())
            stages["local_groups"] = {
                str(k): v for k, v in sorted(self.local_group_suite().items())}
            stages["complement_homology"] = _homology_json(
                self.complement_homology())
        if include_dual:
            stages["duality_monodromy"] = _summarize_duality(
                self.duality_suite())
        rep["passed"] = _report_passed(rep)
        return rep

    def _involution_holds(self):
        """The double dual's parts are the parts; False when the double dual
        cannot be formed (an invalid partition), any other error raises."""
        try:
            back = self.double_dual()
        except (NefPartitionError, GeometryError):
            return False
        return [p.vertices for p in back.parts] == \
            [p.vertices for p in self.nef.parts]

    def _input_description(self):
        return {
            "dim": self.nef.ambient,
            "r": self.nef.r,
            "parts": [sphere._cell_key(p) for p in self.nef.parts],
            "omega": _weight_description(self.omega_spec),
            "nu": _weight_description(self.nu_spec),
        }


def _require_duality(holds, claim):
    if not holds:
        raise FalsificationError(f"dual_pipeline: {claim}",
                                 {"stage": "dual_pipeline"})


def _weight(support, spec):
    if isinstance(spec, WeightFunction):
        if spec.support != support:
            raise GeometryError("weight function bound to a different support")
        return spec
    if spec == "all_ones":
        return WeightFunction.all_ones(support)
    return WeightFunction.from_pairs(support, spec)


def _weight_as_spec(weight):
    return [(pt, val) for pt, val in weight.as_sorted_items()]


def _weight_description(spec):
    if isinstance(spec, str):
        return spec
    if isinstance(spec, WeightFunction):
        return spec.preset or "table"
    return [[list(pt), str(Fraction(v))] for pt, v in spec]


def _sign_pattern_holds(iv):
    r = len(iv.v)
    for i in range(r):
        for j in range(r):
            value = role_pair(iv.v[i], iv.w[j])
            if i == j and value <= 0:
                return False
            if i != j and value >= 0:
                return False
    return True


def _boundary_stats(boundary):
    return {
        "side": boundary.side,
        "cells_by_dim": {str(k): v
                         for k, v in enumerate(boundary.f_vector()) if v},
        "maximal": len(boundary.maximal_cells),
    }


def _homology_json(hom):
    return [[betti, list(torsion)] for betti, torsion in hom]


def _component_parts(sigma, disc):
    """Which partition indices each discriminant component is pinched in."""
    out = []
    for comp in disc.components:
        hit = set()
        for k in comp:
            hit.update(mono.pinched_parts(sigma, k))
        out.append(sorted(hit))
    return out


def _summarize_triviality(results):
    # A degenerate loop passes when its monodromy is the identity, as global
    # transport assumes without pushing a frame.
    checked = [r for r in results if not r.get("degenerate")]
    return {
        "non_degenerate_checked": len(checked),
        "all_equivalent": all(r["passed"] for r in results),
        "trivial_count": sum(1 for r in results if r.get("trivial")),
    }


def _summarize_duality(results):
    return {
        "loops_checked": len(results),
        "all_preserve_pairing": all(r["passed"] for r in results),
    }


def _sphere_homology(n):
    """The report's homology of S^n: b_0 = b_n = 1 (b_0 = 2 for n = 0),
    no torsion, and nothing for n = -1 (Sigma is empty when r = d + 1)."""
    betti = [0] * (n + 1)
    if betti:
        betti[0] += 1
        betti[n] += 1
    return [[b, []] for b in betti]


def _report_passed(rep):
    stages = rep["stages"]
    flags = [stages["validation"]["passed"],
             stages["dual_partition"]["involution"],
             stages["sigma"]["pseudomanifold"],
             stages["sigma"]["projections"]["passed"],
             stages["minkowski_complexes"]["P_side"]["passed"],
             stages["minkowski_complexes"]["Q_side"]["passed"],
             stages["monodromy"]["atlas"]["passed"]]
    if stages["irreducible"]["irreducible"]:
        flags.append(stages["sigma"]["euler"] ==
                     stages["sigma"]["expected_euler"])
        flags.append(stages["sigma"]["homology"] == _sphere_homology(
            rep["input"]["dim"] - rep["input"]["r"]))
    if "lemma_suite_failures" in stages:
        flags.append(not stages["lemma_suite_failures"])
    if "tropical" in stages:
        flags.extend(v["passed"] for v in stages["tropical"].values())
    if "triviality" in stages:
        flags.append(stages["triviality"]["all_equivalent"])
    if "local_groups" in stages:
        flags.extend(v["passed"] for v in stages["local_groups"].values())
    if "duality_monodromy" in stages:
        flags.append(stages["duality_monodromy"]["all_preserve_pairing"])
    return all(flags)
