#!/usr/bin/env python3
"""The full cohomology computation with its three cross-checks.

The model's graded ranks are computed from the escalier of the
distinguished generating set (verified to be a strong Groebner basis
over Z by an exhaustive pair sweep), from an exact Smith-normal-form
rank oracle run on the raw relations, and from the admissible-monomial
basis count.  All three must agree; for the reference model they give
1, 15, 15, 1 with no torsion, against 1, 11, 11, 1 for the ambient
toric variety.
"""

import time

from wondertoric import ModelPresentation, make_building_set, presentation_from_arrangement
from wondertoric.fixtures import running_arrangement, running_fan, running_named_layers

named = running_named_layers()
rev = {v: k for k, v in named.items()}
order = tuple(named[s] for s in ("P1", "P2", "P3", "a", "b", "c"))

pres = presentation_from_arrangement(
    running_arrangement(), running_fan(), selector="min", order=order, layer_names=rev)

counts = pres.relations().counts()
print(f"relations: {counts['i']} monomial, {counts['ii']} cover, "
      f"{counts['iii']} incomparable-pair; alpha has {len(pres.alpha())} elements")

start = time.perf_counter()
print("pair sweep at degree cap", pres.degree_cap, "...")
print("alpha is a strong Groebner basis:", pres.verify_alpha(),
      f"({time.perf_counter() - start:.1f}s)")

empty = make_building_set(pres.poset, frozenset(), ())
toric = ModelPresentation(pres.poset, empty, pres.fan)
print("\ntoric ranks:", toric.betti().ranks)

report = pres.betti()
print("model ranks:", report.ranks, "torsion:", report.torsion)
print("routes:", report.routes)
print("\nstandard monomials by degree:")
for d, monos in enumerate(report.escalier_by_degree):
    print(f"  degree {d}: {', '.join(monos)}")
