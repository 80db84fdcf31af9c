"""Batch front end: parse inputs, run a pipeline, emit a report.

Commands: poset, building, blowup, toric-betti, model-betti, admissible,
verify.  Inputs are two JSON files:

arrangement: {"ambient_rank": n,
              "subtori": [{"label": str, "chars": [[int]], "phase": ["p/q"]}]}
fan:         {"ambient_rank": n, "rays": [[int]], "max_cones": [[int]]}

Phases must be exact fractions ("1/3", "0"); decimals are rejected.  Every
other number must be a JSON integer; a float, string or boolean is an
input error, and so is anything but a list where a list is shown.  Rays
are normalized to primitive vectors with a warning.
Exit codes: 0 ok, 1 verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from fractions import Fraction

from . import admissible
from .arrangement import Layer, ToricArrangement, name_layers, poset_of_layers
from .fan import Fan, _primitive, check_fan, make_fan
from .poset import (
    blowup_building,
    is_building_set,
    iterated_blowup,
    linear_refinements,
    make_building_set,
    select_building,
)
from .presentation import ModelPresentation


class InputError(Exception):
    pass


def _int(value, where: str) -> int:
    """``value`` if it is a JSON integer (not a float, string or boolean)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{where} must be an integer, not {value!r}")
    return value


def _list(value, where: str) -> list:
    """``value`` if it is a JSON array."""
    if not isinstance(value, list):
        raise InputError(f"{where} must be a list, not {value!r}")
    return value


def _parse_phase(value) -> Fraction:
    if not isinstance(value, str):
        raise InputError(f"phase {value!r} must be a string like '1/3'")
    if "." in value or "e" in value.lower():
        raise InputError(
            f"phase {value!r} is not an exact fraction; decimals are "
            "disallowed (only torsion phases 'p/q' are supported)")
    try:
        return Fraction(value)
    except ValueError as exc:
        raise InputError(f"cannot parse phase {value!r}: {exc}") from None
    except ZeroDivisionError:
        raise InputError(f"phase {value!r} has a zero denominator") from None


def parse_arrangement(path: str, warnings: list[str]) -> ToricArrangement:
    data = _load_json(path)
    for key in ("ambient_rank", "subtori"):
        if key not in data:
            raise InputError(f"arrangement file is missing the key {key!r}")
    n = _int(data["ambient_rank"], "ambient_rank")
    layers, names = [], []
    for i, entry in enumerate(_list(data["subtori"], "subtori")):
        if not isinstance(entry, dict):
            raise InputError(f"subtorus #{i} must be an object, not {entry!r}")
        for key in ("chars", "phase"):
            if key not in entry:
                raise InputError(f"subtorus #{i} is missing the key {key!r}")
        label = str(entry.get("label", f"S{i}"))
        rows = _list(entry["chars"], f"chars of subtorus {label!r}")
        chars = [[_int(x, f"a character of subtorus {label!r}")
                  for x in _list(row, f"character row #{k} of subtorus {label!r}")]
                 for k, row in enumerate(rows)]
        phases = [_parse_phase(v)
                  for v in _list(entry["phase"], f"phase of subtorus {label!r}")]
        if len(phases) != len(chars):
            raise InputError(f"subtorus {label!r}: one phase per character row")
        try:
            layer = Layer.make(n, chars, phases)
        except ValueError as exc:
            raise InputError(f"subtorus {label!r}: {exc}") from None
        reduced = [p % 1 for p in phases]
        if any(p != q for p, q in zip(reduced, phases)):
            warnings.append(f"phases of {label!r} reduced modulo 1")
        layers.append(layer)
        names.append(label)
    try:
        return ToricArrangement(n, tuple(layers), tuple(names))
    except ValueError as exc:
        raise InputError(str(exc)) from None


def parse_fan(path: str, warnings: list[str]) -> Fan:
    data = _load_json(path)
    for key in ("ambient_rank", "rays", "max_cones"):
        if key not in data:
            raise InputError(f"fan file is missing the key {key!r}")
    n = _int(data["ambient_rank"], "ambient_rank")
    rays = []
    for k, row in enumerate(_list(data["rays"], "rays")):
        vec = tuple(_int(x, f"ray {row}") for x in _list(row, f"ray #{k}"))
        try:
            rays.append(_primitive(vec))
        except ValueError:
            raise InputError("fan contains a zero ray") from None
        if rays[-1] != vec:
            warnings.append(f"ray {row} normalized to a primitive vector")
    cones = [[_int(i, f"max_cones entry {c}") for i in _list(c, f"max_cones entry #{k}")]
             for k, c in enumerate(_list(data["max_cones"], "max_cones"))]
    try:
        return make_fan(n, rays, cones)
    except ValueError as exc:
        raise InputError(str(exc)) from None


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise InputError(f"no such file: {path}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise InputError(f"{path} must hold a JSON object, not {data!r}")
    return data


def _read_building(poset, selector: str, names: dict) -> set:
    """``select_building``'s members; a selector other than min, max or
    minwc is a file {"labels": [...]} of layer names."""
    if selector not in ("min", "max", "minwc"):
        data = _load_json(selector)
        if "labels" not in data:
            raise InputError("explicit building-set file must have a 'labels' key")
        by_name = {v: k for k, v in names.items()}
        labels = _list(data["labels"], "labels")
        unknown = [lab for lab in labels
                   if not isinstance(lab, str) or lab not in by_name]
        if unknown:
            raise InputError(f"unknown layer label {unknown[0]!r}")
        selector = {by_name[lab] for lab in labels}
    try:
        return select_building(poset, selector)
    except ValueError as exc:
        raise InputError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="wondertoric",
        description="Integer cohomology of toric wonderful models")
    p.add_argument("command", choices=[
        "poset", "building", "blowup", "toric-betti", "model-betti",
        "admissible", "verify"])
    p.add_argument("--arrangement", required=True, metavar="PATH")
    p.add_argument("--fan", metavar="PATH")
    p.add_argument("--building", default="min", metavar="SEL",
                   help="min | max | minwc | FILE with {'labels': [...]}")
    p.add_argument("--cap", type=int, default=None,
                   help="degree cap override for Groebner runs")
    p.add_argument("--deterministic", action="store_true",
                   help="suppress the timestamp for byte-stable reports")
    p.add_argument("--out", metavar="PATH")
    p.add_argument("--format", choices=["json", "table"], default="json")
    return p


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    warnings: list[str] = []
    try:
        report = _dispatch(args, warnings)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    report["warnings"] = warnings
    if not args.deterministic:
        report["generated_at"] = datetime.now(timezone.utc).isoformat()
    ok = report.pop("_ok", True)
    text = (json.dumps(report, indent=2, sort_keys=True) + "\n"
            if args.format == "json" else _tabulate(args.command, report))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if ok else 1


def _dispatch(args, warnings) -> dict:
    if args.cap is not None and args.cap < 0:
        raise InputError(f"--cap must be nonnegative, got {args.cap}")
    arrangement = parse_arrangement(args.arrangement, warnings)
    poset = poset_of_layers(arrangement)
    names = name_layers(arrangement, poset)

    if args.command == "poset":
        return {
            "command": "poset",
            "layers": [
                {"name": names[x], "rank": poset.rank(x),
                 "lattice": [list(r) for r in x.lattice.basis],
                 "phase": [str(v) for v in x.phase]}
                for x in poset.labels
            ],
            "covers": sorted([names[a], names[b]] for a, b in poset.covers()),
        }

    if args.command == "building":
        members = _read_building(poset, args.building, names)
        return {
            "command": "building",
            "selector": args.building,
            "members": sorted(names[x] for x in members),
            "count": len(members),
            "is_building_set": is_building_set(poset, members),
            "is_geometric": is_building_set(poset, members, geometric=True),
        }

    members = _read_building(poset, args.building, names)
    building = make_building_set(poset, members)

    if args.command == "blowup":
        bl = blowup_building(poset, building)
        face = {lab: [sorted(names[m] for m in ns.members), names[ns.x]]
                for lab, ns in bl.nested_by_key.items()}
        return {
            "command": "blowup",
            "elements": [{"members": s, "projection": x, "rank": bl.poset.rank(lab)}
                         for lab, (s, x) in face.items()],
            "covers": sorted([face[a], face[b]] for a, b in bl.covers),
            "locally_boolean": bl.is_locally_boolean(),
        }

    if args.fan is None:
        raise InputError("this command requires --fan")
    fan = parse_fan(args.fan, warnings)
    if arrangement.ambient_rank != fan.ambient_rank:
        raise InputError(
            f"ambient rank mismatch: arrangement has {arrangement.ambient_rank}, "
            f"fan has {fan.ambient_rank}")
    try:
        check_fan(fan)
    except ValueError as exc:
        raise InputError(str(exc)) from None

    if args.command == "toric-betti":
        empty = make_building_set(poset, frozenset(), ())
        pres = ModelPresentation(poset, empty, fan, names, args.cap)
        rep = pres.betti()
        out = rep.as_dict()
        out["command"] = "toric-betti"
        out["routes_used"] = ["escalier", "oracle"]
        return out

    pres = ModelPresentation(poset, building, fan, names, args.cap)

    if args.command == "model-betti":
        rep = pres.betti()
        out = rep.as_dict()
        out["command"] = "model-betti"
        out["routes_used"] = ["escalier", "oracle", "admissible"]
        return out

    if args.command == "admissible":
        items = admissible.enumerate_am(pres)
        basis = admissible.enumerate_b(pres)
        return {
            "command": "admissible",
            "admissible_monomials": [
                {"chain": [sorted(names[m] for m in pres.bl.nested(c).members)
                           for c in it.chain],
                 "exponents": list(it.exps), "degree": it.degree}
                for it in items
            ],
            "am_generating_function": admissible.generating_function(
                it.degree for it in items),
            "b_generating_function": admissible.generating_function(
                d for _, d in basis),
            "basis": [pres.table.mono_name(m) for m, _ in basis],
        }

    # verify
    if not building.members:
        raise InputError("the building set is empty, so verify has no last "
                         "member to delete and contract")
    groebner_ok = pres.verify_alpha()
    rec = {w: admissible.check_recursion(pres, w) for w in ("AM", "B")}
    refinements = linear_refinements(poset, building.members, 3)
    bl = pres.bl
    face = {(bl.nested(lab).members, bl.nested(lab).x) for lab in bl.poset.labels}
    order_ok = True
    for order in refinements:
        q, decode = iterated_blowup(poset, order)
        if {(s, x) for s, x in decode.values()} != face or len(q) != len(face):
            order_ok = False
    restriction = pres.restriction_map_check()
    findings = pres.leading_monomial_findings()
    ok = (groebner_ok and order_ok and restriction.ok
          and all(r.ok for r in rec.values()))
    report = {
        "command": "verify",
        "groebner_verified": groebner_ok,
        "recursions": {
            w: {"last": r.last_name, "codim": r.codim, "lhs": r.lhs,
                "rhs": r.rhs, "deleted": r.deleted,
                "contracted": r.contracted,
                "correction_is_zero": r.codim == 1, "equal": r.ok}
            for w, r in rec.items()
        },
        "order_invariance": {"refinements_checked": len(refinements),
                             "isomorphic": order_ok},
        "restriction_map": {"generators_checked": restriction.generators_checked,
                            "failures": restriction.failures},
        "leading_monomial_findings": findings,
        "_ok": ok,
    }
    if not groebner_ok:
        report["groebner_witness"] = str(pres.alpha_witness())
    return report


def _tabulate(command: str, report: dict) -> str:
    lines = [f"== wondertoric {command} =="]
    if command in ("toric-betti", "model-betti"):
        lines.append("degree  " + "  ".join(
            f"H^{2 * d}" for d in range(len(report["betti"]))))
        lines.append("rank    " + "  ".join(
            str(r) for r in report["betti"]))
        lines.append(f"(halved indexing: rk H^i for i = 0..{len(report['betti']) - 1})")
        lines.append(f"torsion: {report['torsion'] or 'none'}")
        lines.append(f"groebner verified: {report['groebner_verified']}")
    else:
        def emit(prefix, value):
            if isinstance(value, dict):
                for k in sorted(value):
                    emit(f"{prefix}{k}.", value[k])
            elif isinstance(value, list) and value and isinstance(value[0], (dict, list)):
                lines.append(f"{prefix[:-1]}: {json.dumps(value)}")
            else:
                lines.append(f"{prefix[:-1]}: {value}")

        for key in sorted(report):
            if key == "command":
                continue
            emit(f"{key}.", report[key])
    return "\n".join(lines) + "\n"


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
