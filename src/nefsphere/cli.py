"""Command-line interface: validate, dualize, and certify the pipeline.

Exit codes: 0 all checks pass; 2 invalid input; 3 an exactly-checkable claim
failed (certificate embedded in the JSON output); 4 internal error.  All
output is canonical JSON (sorted keys), so reruns are byte-identical.
"""

import argparse
import json
import os
import sys
from fractions import Fraction
from math import isfinite

from .errors import FalsificationError
from .nef import NefPartition, NefPartitionError
from .pipeline import Pipeline
from .polytope import GeometryError
from .tropical import scene_export


def canonical_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ": "),
                      indent=1) + "\n"


def _is_int(x):
    """Whether a JSON value is an integer; JSON's true and false are not."""
    return type(x) is int


def _parse_rational(x, name):
    """A weight value as a Fraction; every refusal names the weight.  A
    string whose numerator or denominator would pass the int-to-string
    digit limit is refused before it is built, which could take seconds;
    the report could not print it."""
    if _is_int(x):
        return Fraction(x)
    if not isinstance(x, str):
        raise ValueError(f"bad {name} value {json.dumps(x)}: not an exact "
                         "rational")
    bad = f"bad {name} value {x[:24]!r}"
    limit = sys.get_int_max_str_digits()
    if 0 < limit < _literal_digits(x):
        raise ValueError(f"{bad}: its numerator or denominator would exceed "
                         f"{limit} digits")
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise ValueError(f"{bad}: zero denominator") from None
    except ValueError:
        raise ValueError(f"{bad}: not a rational literal") from None


def _literal_digits(text):
    """The length, as written, of the longer of the numerator and the
    denominator that Fraction builds from `text` before reducing them:
    d.f with exponent e is (d f) 10^e / 10^len(f), and a/b is a / b."""
    mantissa, _, exp = text.strip().lstrip("+-").lower().partition("e")
    whole, _, frac = mantissa.partition(".")
    num, _, den = whole.partition("/")
    try:
        exp = int(exp or 0)
    except ValueError:  # no literal, or an exponent too long for int()
        return len(exp)
    return max(len(num + frac) + max(exp, 0),
               len(den) or (1 + len(frac) + max(-exp, 0)))


def load_input(path, omega_override=None, nu_override=None):
    with open(path) as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError("the input nests too deeply to read") from None
    if not isinstance(data, dict):
        raise ValueError("input is not a JSON object: need the fields dim "
                         "and parts")
    for field in ("dim", "parts"):
        if field not in data:
            raise ValueError(f"missing field {field!r}")
    dim = data["dim"]
    if not _is_int(dim) or dim < 1:
        raise ValueError(f"bad dim {json.dumps(dim)}: need a positive integer")
    if not isinstance(data["parts"], list):
        raise ValueError(
            f"bad parts {json.dumps(data['parts'])}: need a list of parts")
    if not data["parts"]:
        raise ValueError("no parts: need at least one part")
    parts = []
    for k, plist in enumerate(data["parts"]):
        if not isinstance(plist, list):
            raise ValueError(
                f"part {k} is not a list of vertices: {json.dumps(plist)}")
        if not plist:
            raise ValueError(f"part {k} has no vertices")
        part = []
        for pt in plist:
            if (not isinstance(pt, list) or len(pt) != dim
                    or not all(_is_int(c) for c in pt)):
                raise ValueError(
                    f"bad vertex {json.dumps(pt)}: need {dim} integers")
            part.append(tuple(pt))
        parts.append(part)
    nef = NefPartition.from_vertex_lists(parts)

    def weight_spec(name, value, override):
        source = override if override is not None else value
        if source in (None, "all_ones", "all-ones"):
            return "all_ones"
        if isinstance(source, str):
            try:
                with open(source) as fh:
                    source = json.load(fh)
            except OSError as exc:
                raise ValueError(f"bad {name} {json.dumps(source)}: cannot "
                                 f"read the weight file ({exc.strerror})"
                                 ) from None
            except ValueError as exc:
                raise ValueError(f"bad {name} {json.dumps(source)}: the "
                                 f"weight file is not JSON ({exc})") from None
            except RecursionError:
                raise ValueError(f"bad {name} {json.dumps(source)}: the "
                                 "weight file nests too deeply to read"
                                 ) from None
        table = source.get("table") if isinstance(source, dict) else source
        if not isinstance(table, list):
            raise ValueError(f"bad {name} {json.dumps(source)}: need all_ones, "
                             "a weight file or a table of [point, value] pairs")
        for entry in table:
            if not isinstance(entry, list) or len(entry) != 2:
                raise ValueError(f"bad {name} table entry {json.dumps(entry)}: "
                                 "need a [point, value] pair")
            pt = entry[0]
            if not isinstance(pt, list) or not all(
                    _is_int(c) or type(c) is float and isfinite(c) for c in pt):
                raise ValueError(f"bad weight table point {json.dumps(pt)}")
            if len(pt) != dim:
                raise ValueError(f"bad weight table point {json.dumps(pt)}: "
                                 f"need {dim} coordinates")
        return [(tuple(pt), _parse_rational(v, name)) for pt, v in table]

    omega = weight_spec("omega", data.get("omega"), omega_override)
    nu = weight_spec("nu", data.get("nu"), nu_override)
    return nef, omega, nu


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nefsphere",
        description="Dual integral affine spheres from nef-partitions: "
                    "construction and exact certification.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_ in [
            ("validate", "check the nef-partition axioms"),
            ("dualize", "compute the dual nef-partition"),
            ("complex", "build the sphere complex and its homology"),
            ("tropical", "build the tropical complexes"),
            ("discriminant", "compute the discriminant locus"),
            ("monodromy", "loops, holonomy, and the global group"),
            ("report", "full pipeline report")]:
        p = sub.add_parser(name, help=help_)
        p.add_argument("input", help="JSON input file")
        p.add_argument("--omega", default=None,
                       help="weight file or 'all-ones' (default: from input)")
        p.add_argument("--nu", default=None,
                       help="weight file or 'all-ones' (default: from input)")
        if name == "validate":
            p.add_argument("--require-irreducible", action="store_true")
        if name == "tropical":
            p.add_argument("--project", default=None,
                           help="comma-separated coordinate indices")
        if name == "report":
            p.add_argument("--dual", action="store_true",
                           help="also run the role-swapped pipeline")
            p.add_argument("--verify", choices=["fast", "full"],
                           default="fast")
            p.add_argument("--emit-complexes", default=None, metavar="DIR")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        nef, omega, nu = load_input(args.input, args.omega, args.nu)
    except (OSError, ValueError, KeyError, TypeError, IndexError,
            json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    try:
        _check_options(args, nef.ambient)
    except ValueError as exc:
        print(f"option error: {exc}", file=sys.stderr)
        return 2
    try:
        pipe = Pipeline(nef, omega_spec=omega, nu_spec=nu)
        out, code = _dispatch(args, pipe)
    except FalsificationError as exc:
        sys.stdout.write(canonical_json({"falsified": exc.as_dict()}))
        return 3
    except (GeometryError, NefPartitionError) as exc:
        print(f"input rejected: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        stage = getattr(exc, "stage", args.command)
        print(f"internal error in stage {stage}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 4
    sys.stdout.write(canonical_json(out))
    return code


def _check_options(args, dim):
    """Refuse a bad option value before any stage runs (exit 2): parse
    ``--project`` into indices in 0..dim-1, and make sure the
    ``--emit-complexes`` directory exists (creating it) and is writable."""
    project = getattr(args, "project", None)
    if project is not None:
        args.project = _project_indices(project, dim)
    directory = getattr(args, "emit_complexes", None)
    if directory is not None:
        try:
            os.makedirs(directory, exist_ok=True)
        except OSError as exc:
            raise ValueError(f"bad --emit-complexes {directory!r}: "
                             f"{exc.strerror}") from None
        if not os.access(directory, os.W_OK | os.X_OK):
            raise ValueError(f"bad --emit-complexes {directory!r}: "
                             "directory is not writable")


def _project_indices(text, dim):
    """The comma-separated coordinate indices of ``--project``, each an
    integer in 0..dim-1."""
    indices = []
    for item in text.split(","):
        try:
            k = int(item)
        except ValueError:
            raise ValueError(f"bad --project {text!r}: {item!r} is not a "
                             "coordinate index") from None
        if not 0 <= k < dim:
            raise ValueError(f"bad --project {text!r}: index {k} is not in "
                             f"0..{dim - 1}")
        indices.append(k)
    return indices


def _dispatch(args, pipe):
    cmd = args.command
    if cmd in ("complex", "tropical", "discriminant", "monodromy"):
        # An invalid partition has no dual: reject it (exit 2) before the
        # weights' subdivisions scan its lattice points.
        pipe.dual()
    if cmd == "validate":
        report = pipe.validation().as_dict()
        report.update(pipe.irreducible_section())
        if not report["passed"]:
            # The weights' subdivisions need a valid partition's support.
            report["central"] = report["coned_over_boundary"] = None
            return report, 3
        report["central"] = {
            "omega": pipe.s_coned().is_central(),
            "nu": pipe.t_coned().is_central(),
        }
        report["coned_over_boundary"] = {}
        for name, getter in (("omega", pipe.s_boundary),
                             ("nu", pipe.t_boundary)):
            try:
                getter()
                report["coned_over_boundary"][name] = True
            except GeometryError:
                report["coned_over_boundary"][name] = False
        ok = (all(report["central"].values())
              and all(report["coned_over_boundary"].values()))
        if args.require_irreducible and not report["irreducible"]:
            ok = False
        return report, 0 if ok else 3
    if cmd == "dualize":
        out = {
            "parts": pipe.dual_parts(),
            "validation": pipe.validation().as_dict(),
        }
        return out, 0 if out["validation"]["passed"] else 3
    if cmd == "complex":
        return pipe.complex_section(), 0
    if cmd == "tropical":
        cells = pipe.tropical_complex()
        out = {
            "bounded_cells": len(cells),
            "scene": scene_export(cells, project=args.project),
            "amoeba_cells": len(pipe.amoeba()),
        }
        return out, 0
    if cmd == "discriminant":
        return pipe.discriminant_section(), 0
    if cmd == "monodromy":
        out = {
            "loops": len(pipe.loops()),
            "degenerate": sum(1 for l in pipe.loops() if l.degenerate),
            "global": pipe.global_report(),
            "triviality": [r for r in pipe.triviality_suite()],
        }
        ok = all(r["passed"] for r in out["triviality"])
        return out, 0 if ok else 3
    if cmd == "report":
        rep = pipe.report(verify=args.verify, include_dual=args.dual)
        if args.emit_complexes:
            _emit_complexes(pipe, args.emit_complexes)
        return rep, 0 if rep["passed"] else 3
    raise ValueError(f"unknown command {cmd}")


def _emit_complexes(pipe, directory):
    points = {}

    def point_id(pt):
        key = tuple(str(x) for x in pt)
        if key not in points:
            points[key] = len(points)
        return points[key]

    sigma = pipe.sigma()
    cells = []
    for k, (i, j) in enumerate(sigma.pairs):
        mk = sigma.p_poset.elements[i].minkowski
        tn = sigma.q_poset.elements[j].minkowski
        cells.append({
            "dim": sigma.dims[k],
            "first_factor": sorted(point_id(v) for v in mk.vertices),
            "second_factor": sorted(point_id(v) for v in tn.vertices),
        })
    disc = pipe.discriminant()
    tropical_cells = []
    for t in pipe.tropical_complex():
        tropical_cells.append({
            "dim": t.dim(),
            "vertices": sorted(point_id(v) for v in t.poly.vertices),
            "generator": sorted(point_id(v) for v in t.generator.vertices),
        })
    table = [None] * len(points)
    for key, idx in points.items():
        table[idx] = list(key)
    payload = {
        "points": table,
        "sphere_cells": cells,
        "tropical_cells": tropical_cells,
        "discriminant": {
            "vertices": list(disc.vertex_ids),
            "components": [list(c) for c in disc.components],
        },
    }
    with open(os.path.join(directory, "complexes.json"), "w") as fh:
        fh.write(canonical_json(payload))


if __name__ == "__main__":
    sys.exit(main())
