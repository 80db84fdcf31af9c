#!/usr/bin/env python3
"""The smooth 14-ray fan, the exact fan check and annihilator restrictions.

The fan is complete and smooth, as ``check_fan`` decides, and restricting it to the annihilator of
a layer's character lattice produces the fan of that layer's closure,
which passes ``check_fan`` too: a projective line for the curve c, a
product of two projective lines for the hypertorus a, and the trivial
fan for the three points.
"""

from wondertoric import check_fan, equal_sign, interior_condition, restrict_fan
from wondertoric.fixtures import running_fan, running_named_layers

fan = running_fan()
named = running_named_layers()

print(f"rays: {fan.nrays}, maximal cones: {len(fan.max_cones)}")
check_fan(fan)
print("smooth and complete: check_fan passes")

for name in ("a", "b", "c", "L1", "P1"):
    layer = named[name]
    sub = restrict_fan(fan, layer.lattice)
    check_fan(sub)
    print(f"restriction to {name}: {sub.nrays} rays, "
          f"{len(sub.max_cones)} maximal cones, smooth and complete")

print("\ninterior condition (cone interiors meet the annihilator only when "
      "contained):")
for name in ("a", "b", "c", "P1"):
    print(f"  {name}:", interior_condition(fan, named[name].lattice))

print("\nequal sign (on every maximal cone, a basis of the layer's "
      "characters single-signed on its rays):")
for name in ("a", "b", "c", "L1", "P1"):
    print(f"  {name}:", all(equal_sign(named[name].lattice, [fan.rays[i] for i in cone])
                            for cone in fan.max_cones))
