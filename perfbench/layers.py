"""Per-layer metrics of a traced run: span hooks and the metric table.

Span names are ``<module>.<function>`` or ``<module>.<Class>.<method>``.
Times are inclusive (a function's own span, nested calls of the same name
counted once); ``<module>.self_s`` is the time inside the module's spans
minus the time of their child spans.
"""

from __future__ import annotations

from spans import MODULES


def _arg(args, kwargs, pos: int, name: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _escalier(args, kwargs, result):
    basis, d = args[0], _arg(args, kwargs, 1, "d")
    positions = _arg(args, kwargs, 2, "positions")
    return {"scanned": len(basis.table.monomials_of_degree(d, positions)),
            "standard": len(result)}


def _oracle(args, kwargs, result):
    table, gens, d = (_arg(args, kwargs, 0, "table"),
                      _arg(args, kwargs, 1, "gens"), _arg(args, kwargs, 2, "d"))
    rows = 0
    for g in gens:
        if g and table.degree(g) <= d:
            rows += len(table.monomials_of_degree(d - table.degree(g)))
    return {"rows": rows, "cols": len(table.monomials_of_degree(d))}


def _snf(args, kwargs, result):
    mat, cols = args[0], _arg(args, kwargs, 2, "cols")
    if cols is None:
        cols = len(mat[0]) if len(mat) else 0
    return {"cells": len(mat) * cols}


def _size(args, kwargs, result):
    return {"size": len(result)}


def _members(args, kwargs, result):
    return {"size": len(result.members)}


HOOKS = {
    "polyring.GroebnerBasis.standard_monomials": _escalier,
    "polyring.graded_rank_oracle": _oracle,
    "intlinalg.snf": _snf,
    "arrangement.poset_of_layers": _size,
    "poset.make_building_set": _members,
    "poset.nested_sets": _size,
    "admissible.enumerate_am": _size,
    "admissible.enumerate_b": _size,
}

BETTI = "presentation.ModelPresentation.betti"
ESCALIER = "polyring.GroebnerBasis.standard_monomials"
ORACLE = "polyring.graded_rank_oracle"


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(tracer, counters: dict, untraced_s: float,
                  traced_s: float, scale: float = 1.0) -> dict:
    """Every per-layer metric as name -> (value, unit).

    ``counters`` holds the counts computed from outside the package
    (pair classification, model sizes); absent ones read 0 on workloads
    that build no polynomial model.  Span times are multiplied by
    ``scale``; the two pass times come scaled.
    """
    t = tracer
    scanned = t.count(ESCALIER, "scanned", parent=BETTI)
    standard = t.count(ESCALIER, "standard", parent=BETTI)
    c = counters.get
    out = {
        "polyring.is_groebner_s": (t.inclusive("polyring.is_groebner"), "s"),
        "polyring.reduce_calls": (t.calls("polyring.GroebnerBasis.reduce"), "count"),
        "polyring.reduce_s": (t.inclusive("polyring.GroebnerBasis.reduce"), "s"),
        "polyring.pairs": (c("pairs", 0), "count"),
        "polyring.pairs_over_cap": (c("pairs_over_cap", 0), "count"),
        "polyring.pairs_monomial": (c("pairs_monomial", 0), "count"),
        "polyring.pairs_coprime": (c("pairs_coprime", 0), "count"),
        "polyring.pairs_reduced": (c("pairs_reduced", 0), "count"),
        "polyring.pairs_genuine": (c("pairs_genuine", 0), "count"),
        "polyring.pair_waste": (c("pair_waste", 0.0), "ratio"),
        "polyring.escalier_s": (t.inclusive(ESCALIER, parent=BETTI), "s"),
        "polyring.escalier_scanned": (scanned, "count"),
        "polyring.escalier_standard": (standard, "count"),
        "polyring.escalier_yield": (_ratio(standard, scanned), "ratio"),
        "polyring.oracle_s": (t.inclusive(ORACLE), "s"),
        "polyring.oracle_rows": (t.count(ORACLE, "rows"), "count"),
        "polyring.oracle_cols": (t.count(ORACLE, "cols"), "count"),
        "polyring.oracle_residual_cells": (
            t.count("intlinalg.snf", "cells", parent=ORACLE), "count"),
        "polyring.buchberger_calls": (t.calls("polyring.buchberger"), "count"),
        "polyring.buchberger_s": (t.inclusive("polyring.buchberger"), "s"),
        "fan.restrict_fan_calls": (t.calls("fan.restrict_fan"), "count"),
        "fan.restrict_fan_s": (t.inclusive("fan.restrict_fan"), "s"),
        "admissible.am_s": (t.inclusive("admissible.enumerate_am"), "s"),
        "admissible.am_count": (t.count("admissible.enumerate_am", "size"), "count"),
        "admissible.basis_s": (t.inclusive("admissible.enumerate_b"), "s"),
        "admissible.basis_size": (t.count("admissible.enumerate_b", "size"), "count"),
        "admissible.recursion_s": (t.inclusive("admissible.check_recursion"), "s"),
        "presentation.restriction_check_s": (
            t.inclusive("presentation.ModelPresentation.restriction_map_check"), "s"),
        "arrangement.poset_of_layers_s": (
            t.inclusive("arrangement.poset_of_layers"), "s"),
        "arrangement.intersect_calls": (t.calls("arrangement.intersect_layers"), "count"),
        "arrangement.layers": (t.count("arrangement.poset_of_layers", "size"), "count"),
        "intlinalg.snf_calls": (t.calls("intlinalg.snf"), "count"),
        "intlinalg.snf_s": (t.inclusive("intlinalg.snf"), "s"),
        "intlinalg.snf_max_cells": (
            t.count("intlinalg.snf", "cells", combine=max), "count"),
        "intlinalg.hnf_calls": (t.calls("intlinalg.hnf"), "count"),
        "intlinalg.hnf_s": (t.inclusive("intlinalg.hnf"), "s"),
        "poset.building_s": (t.inclusive("poset.minimal_building_set",
                                         "poset.minimal_well_connected",
                                         "poset.make_building_set"), "s"),
        "poset.building_members": (t.count("poset.make_building_set", "size"), "count"),
        "poset.blowup_s": (t.inclusive("poset.blowup_building"), "s"),
        "poset.nested_sets": (t.count("poset.nested_sets", "size"), "count"),
        "poset.iterated_blowup_s": (t.inclusive("poset.iterated_blowup"), "s"),
        "cli.parse_s": (t.inclusive("cli.parse_arrangement", "cli.parse_fan"), "s"),
        "presentation.relations_s": (
            t.inclusive("presentation.ModelPresentation.relations"), "s"),
        "presentation.relations": (c("relations", 0), "count"),
        "presentation.alpha_s": (t.inclusive("presentation.ModelPresentation.alpha"), "s"),
        "presentation.alpha_size": (c("alpha_size", 0), "count"),
        "presentation.variables": (c("variables", 0), "count"),
    }
    self_times = t.self_times()
    for module in MODULES:
        out[f"{module}.self_s"] = (self_times.get(module, 0.0), "s")
    for name, (value, unit) in out.items():
        if unit == "s":
            out[name] = (value * scale, unit)
    out["trace.untraced_solve_s"] = (untraced_s, "s")
    out["trace.overhead_s"] = (traced_s - untraced_s, "s")
    out["trace.spans"] = (len(t.spans), "count")
    return out
