#!/usr/bin/env python3
"""Building sets, well-connectedness, and the nested-set blowup poset.

The minimal building set of the reference arrangement has six layers,
but it is not well-connected: a and b admit a three-element join.  Its
well-connected closure is forced all the way up to the maximal building
set, which is the original motivation for working with arbitrary
building sets.  The A(n,c) family makes the growth quantitative: the
closure has ((c+1)^n - 1)/c elements while the minimal building set
keeps cardinality n.
"""

from wondertoric import (
    blowup_building,
    is_well_connected,
    make_building_set,
    minimal_building_set,
    minimal_well_connected,
    poset_of_layers,
)
from wondertoric.fixtures import a_n_c, running_named_layers, running_poset

poset = running_poset()
named = running_named_layers()
rev = {v: k for k, v in named.items()}

minimal = minimal_building_set(poset)
print("minimal building set:", sorted(rev[x] for x in minimal))
print("well-connected?", is_well_connected(poset, minimal))
closure = minimal_well_connected(poset, minimal)
print(f"well-connected closure has {len(closure)} members (the maximal one)")

for n, c in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)]:
    p = poset_of_layers(a_n_c(n, c))
    wc = minimal_well_connected(p, minimal_building_set(p))
    print(f"A({n},{c}): minimal {n}, closure {len(wc)} = ((c+1)^n-1)/c "
          f"= {((c + 1) ** n - 1) // c}")

order = tuple(named[s] for s in ("P1", "P2", "P3", "a", "b", "c"))
building = make_building_set(poset, order, order)
bl = blowup_building(poset, building)
print(f"\nblowup poset: {len(bl.poset)} elements, locally boolean:",
      bl.is_locally_boolean())
print("nested sets of size two with projection P1:")
for label in bl.poset.labels:
    ns = bl.nested(label)
    if len(ns.members) == 2 and rev[ns.x] == "P1":
        print("  {" + ", ".join(sorted(rev[m] for m in ns.members)) + "}")
