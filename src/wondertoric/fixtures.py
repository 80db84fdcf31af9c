"""Bundled example data: arrangements, fans and small posets.

The three-torus arrangement with subtori a: x=1, b: x=y^3 and
c: {x=z, x^2=y^3} is the package's reference example; its good fan has
fourteen rays whose two-dimensional structure lives in the plane x=z.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .arrangement import Layer, ToricArrangement, poset_of_layers
from .fan import Fan, make_fan
from .poset import RankedPoset

RUNNING_CHARS = {
    "a": [[1, 0, 0]],
    "b": [[1, -3, 0]],
    "c": [[1, 0, -1], [2, -3, 0]],
}

RUNNING_RAYS = [
    (3, 1, 3), (-3, -1, -3),
    (3, 2, 3), (-3, -2, -3),
    (0, 1, 0), (0, -1, 0),
    (0, 0, 1), (0, 0, -1),
    (1, 1, 1), (2, 1, 2),
    (1, 0, 1), (-1, -1, -1),
    (-2, -1, -2), (-1, 0, -1),
]


def running_arrangement() -> ToricArrangement:
    subtori = tuple(
        Layer.make(3, rows, [Fraction(0)] * len(rows))
        for rows in RUNNING_CHARS.values()
    )
    return ToricArrangement(3, subtori, tuple(RUNNING_CHARS))


def _angular_cycle(vectors):
    """Indices of 2-d integer vectors sorted counterclockwise from (1, 0)."""

    def half(v):
        x, y = v
        return 0 if (y > 0 or (y == 0 and x > 0)) else 1

    def cmp(i, j):
        vi, vj = vectors[i], vectors[j]
        hi, hj = half(vi), half(vj)
        if hi != hj:
            return -1 if hi < hj else 1
        cross = vi[0] * vj[1] - vi[1] * vj[0]
        if cross == 0:
            raise ValueError("parallel rays in the plane")
        return -1 if cross > 0 else 1

    return sorted(range(len(vectors)), key=functools.cmp_to_key(cmp))


def running_fan() -> Fan:
    """The smooth 14-ray fan: angular fan in the plane x=z, coned over +/-z."""
    plane = [i for i, r in enumerate(RUNNING_RAYS) if r[0] == r[2]]
    plane = [i for i in plane if i not in (6, 7)]
    projected = {i: (RUNNING_RAYS[i][0], RUNNING_RAYS[i][1]) for i in plane}
    cycle = [plane[k] for k in _angular_cycle([projected[i] for i in plane])]
    cones = []
    for k, i in enumerate(cycle):
        j = cycle[(k + 1) % len(cycle)]
        cones.append(frozenset({i, j, 6}))
        cones.append(frozenset({i, j, 7}))
    return make_fan(3, RUNNING_RAYS, cones)


def a_n_c(n: int, c: int) -> ToricArrangement:
    """Hypertori t_1 = 1 and t_1 t_i^c = 1 for i = 2..n."""
    chars = [[1] + [0] * (n - 1)]
    for i in range(1, n):
        row = [1] + [0] * (n - 1)
        row[i] = c
        chars.append(row)
    subtori = tuple(Layer.make(n, [row], [Fraction(0)]) for row in chars)
    names = tuple(f"H{i + 1}" for i in range(n))
    return ToricArrangement(n, subtori, names)


A22_RAYS = [
    (0, 1), (0, -1), (2, -1), (-2, 1),
    (-1, 1), (1, -1), (-1, 0), (1, 0),
]

A22_CONES = [
    frozenset({0, 4}), frozenset({4, 3}), frozenset({3, 6}), frozenset({6, 1}),
    frozenset({1, 5}), frozenset({5, 2}), frozenset({2, 7}), frozenset({7, 0}),
]


def a22_fan() -> Fan:
    """A smooth complete equal-sign fan for the A(2,2) arrangement.

    The chamber fan of the lines x = 0 and x + 2y = 0 has four singular
    cones; inserting (-1,1), (1,-1), (-1,0) and (1,0) resolves them.
    """
    return make_fan(2, A22_RAYS, A22_CONES)


def fig5_poset() -> RankedPoset:
    """Divisor/curve/point poset of two quadrics and a plane after blowup.

    A local geometric lattice that is not a geometric poset.
    """
    labels = ["0", "H", "Q1", "Q2", "l0", "l1", "l2", "C", "p"]
    ranks = {"0": 0, "H": 1, "Q1": 1, "Q2": 1,
             "l0": 2, "l1": 2, "l2": 2, "C": 2, "p": 3}
    covers = [
        ("0", "H"), ("0", "Q1"), ("0", "Q2"),
        ("H", "l0"), ("Q1", "l0"), ("Q2", "l0"),
        ("H", "l1"), ("Q1", "l1"),
        ("H", "l2"), ("Q2", "l2"),
        ("Q1", "C"), ("Q2", "C"),
        ("l1", "p"), ("l2", "p"), ("C", "p"),
    ]
    return RankedPoset(labels, ranks, covers)


def boolean_poset(atoms: int) -> RankedPoset:
    labels = []
    for mask in range(1 << atoms):
        labels.append(frozenset(i for i in range(atoms) if (mask >> i) & 1))
    ranks = {s: len(s) for s in labels}
    pairs = [(s, t) for s in labels for t in labels if s <= t]
    return RankedPoset(labels, ranks, pairs)


def three_atoms_two_tops() -> RankedPoset:
    """Not a local lattice: below the top, three atoms have two joins."""
    labels = ["0", "x", "y", "z", "t1", "t2", "top"]
    ranks = {"0": 0, "x": 1, "y": 1, "z": 1, "t1": 2, "t2": 2, "top": 3}
    covers = [("0", "x"), ("0", "y"), ("0", "z"), ("t1", "top"), ("t2", "top")]
    covers += [(a, t) for a in ("x", "y", "z") for t in ("t1", "t2")]
    return RankedPoset(labels, ranks, covers)


def running_poset() -> RankedPoset:
    return poset_of_layers(running_arrangement())


def running_named_layers() -> dict[str, Layer]:
    """The ten layers of the running arrangement under their usual names.

    L_i are the components of the intersection of a and b with phase
    (i-1)/3 on the second coordinate; P_i is the point above L_i and c.
    """
    out = {"0": Layer.whole_torus(3)}
    for name, rows in RUNNING_CHARS.items():
        out[name] = Layer.make(3, rows, [Fraction(0)] * len(rows))
    for i in (1, 2, 3):
        ph = Fraction(i - 1, 3)
        out[f"L{i}"] = Layer.make(3, [[1, 0, 0], [0, 1, 0]], [Fraction(0), ph])
        out[f"P{i}"] = Layer.make(
            3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [Fraction(0), ph, Fraction(0)]
        )
    return out
