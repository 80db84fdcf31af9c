"""Toric arrangements and their posets of layers.

A layer is cut out of the torus by a saturated character lattice together
with a phase, i.e. a homomorphism from the lattice to roots of unity.
Phases are stored as rationals modulo one on the canonical (Hermite)
basis of the lattice, which makes layer equality decidable and
hash-stable.  Only torsion phases are supported: component counting and
phase extension then reduce to exact Smith-normal-form arithmetic.  The
data model could be widened to phases in an arbitrary finitely generated
abelian group, but no such input format is implemented.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul

from .intlinalg import Sublattice, hnf, is_saturated, snf
from .poset import RankedPoset


def _numerators(values) -> tuple[int, list[int]]:
    """The common denominator of ``values`` and their numerators over it."""
    den = lcm(*(w.denominator for w in values))
    return den, [w.numerator * (den // w.denominator) for w in values]


def _phase_sums(matrix, values) -> tuple[Fraction, ...]:
    """``sum(c * w for c, w in zip(row, values))`` modulo 1, for each row.

    The integer numerators are summed over the common denominator of
    ``values``, so a row costs one ``Fraction`` rather than one per term.
    """
    den, nums = _numerators(values)
    return tuple(Fraction(sum(map(mul, row, nums)) % den, den) for row in matrix)


@dataclass(frozen=True)
class Layer:
    """A connected subvariety of the torus: saturated lattice plus phase.

    ``phase`` holds one rational modulo 1 per basis row of ``lattice``;
    rank equals the complex codimension of the layer.
    """

    lattice: Sublattice
    phase: tuple[Fraction, ...]

    def __post_init__(self):
        # layers key every poset lookup; hash the compared fields once
        object.__setattr__(self, "_hash", hash((self.lattice, self.phase)))

    def __hash__(self):
        return self._hash

    @staticmethod
    def make(ambient_rank: int, rows, phase_values) -> "Layer":
        """Canonicalize arbitrary (independent) rows and their phases."""
        rows = [tuple(map(int, r)) for r in rows]
        values = [Fraction(v) for v in phase_values]
        if len(rows) != len(values):
            raise ValueError("one phase value per character row is required")
        if not is_saturated(Sublattice.from_rows(ambient_rank, rows)):
            raise ValueError(
                "character lattice is not saturated; the subvariety it cuts "
                "out is disconnected (split it into layers first)"
            )
        lattice, coeffs = _hnf_frame(ambient_rank, rows)
        return Layer(lattice, _phase_sums(coeffs, values))

    @staticmethod
    def whole_torus(ambient_rank: int) -> "Layer":
        return Layer(Sublattice.zero(ambient_rank), ())

    @property
    def ambient_rank(self) -> int:
        return self.lattice.ambient_rank

    @property
    def rank(self) -> int:
        return self.lattice.rank

    def phase_of(self, character) -> Fraction | None:
        """Value of the phase on a character of the lattice (None if outside)."""
        coeffs = self.lattice.solve(character)
        if coeffs is None:
            return None
        return _phase_sums([coeffs], self.phase)[0]

    def sort_key(self):
        return (self.rank, self.lattice.basis,
                tuple((v.numerator, v.denominator) for v in self.phase))

    @property
    def name(self) -> str:
        rows = ";".join(",".join(str(x) for x in r) for r in self.lattice.basis)
        phases = ",".join(str(v) for v in self.phase)
        return f"K[{rows}|{phases}]"

    def __repr__(self):
        return self.name


def _hnf_frame(ambient_rank: int, rows) -> tuple[Sublattice, list]:
    """The lattice of independent ``rows`` on its HNF basis, and the rows
    of the HNF transform, which carry phases on ``rows`` to that basis."""
    h, u = hnf(rows, cols=ambient_rank)
    keep = [i for i, hrow in enumerate(h) if any(hrow)]
    return (Sublattice(ambient_rank, tuple(h[i] for i in keep)),
            [u[i] for i in keep])


def _coordinates(inner: Sublattice, outer: Sublattice) -> list | None:
    """Coordinates of the basis of ``inner`` in that of ``outer``, or None
    when ``inner`` is not contained in ``outer``."""
    coords = [outer.solve(row) for row in inner.basis]
    return None if None in coords else coords


def layer_leq(k1: Layer, k2: Layer) -> bool:
    """Poset order: k1 <= k2 iff the k2 subvariety sits inside k1's.

    Equivalently the lattice of k1 is contained in that of k2 and the
    phases agree on it.
    """
    if k1.ambient_rank != k2.ambient_rank:
        raise ValueError("ambient rank mismatch")
    coords = _coordinates(k1.lattice, k2.lattice)
    return coords is not None and _phase_sums(coords, k2.phase) == k1.phase


def _meet_lattices(l1: Sublattice, l2: Sublattice) -> tuple:
    """What intersecting a layer on ``l1`` with one on ``l2`` needs of the
    lattices alone, from the Smith form ``U M V = D`` of the stacked bases.

    The first rank rows of ``V^-1`` span the saturation of the combined
    lattice; the phase on saturation row i solves ``d_i * x = (U w)_i``,
    ``w`` the stacked phase values.
    The rows of ``U`` beyond the rank span the relations among the
    stacked characters.
    """
    res = snf(l1.basis + l2.basis, transforms=True)
    r = res.rank
    lattice, coeffs = _hnf_frame(l1.ambient_rank, res.right_inv[:r])
    return res.left[:r], res.invariant_factors, res.left[r:], lattice, coeffs


def intersect_layers(k1: Layer, k2: Layer, meets: dict | None = None) -> list[Layer]:
    """Connected components of the intersection of two layers.

    Empty when the phases are inconsistent on the common lattice;
    otherwise one layer per extension of the combined phase to the
    saturation of the combined lattice, in canonical order.  The lattice
    work depends on the ordered pair of lattices only: a caller that
    intersects many layers passes one dict as ``meets`` to keep it.
    """
    if k1.ambient_rank != k2.ambient_rank:
        raise ValueError("ambient rank mismatch")
    if k1.lattice == k2.lattice:
        # translates of one subtorus are equal or disjoint
        return [k1] if k1.phase == k2.phase else []
    if meets is None:
        meets = {}
    key = (k1.lattice, k2.lattice)
    if key not in meets:
        meets[key] = _meet_lattices(*key)
    lifts, factors, relations, lattice, coeffs = meets[key]
    den, nums = _numerators(k1.phase + k2.phase)
    # the phase is a well-defined homomorphism iff it kills the relations
    if any(sum(map(mul, row, nums)) % den for row in relations):
        return []
    choices = []
    for row, d in zip(lifts, factors):
        w = sum(map(mul, row, nums)) % den
        choices.append([Fraction(w + t * den, den * d) for t in range(d)])
    out = [Layer(lattice, _phase_sums(coeffs, values))
           for values in itertools.product(*choices)]
    out.sort(key=Layer.sort_key)
    return out


@dataclass(frozen=True)
class ToricArrangement:
    """A finite collection of named subtori (layers of positive rank)."""

    ambient_rank: int
    subtori: tuple[Layer, ...]
    names: tuple[str, ...] = ()

    def __post_init__(self):
        for k in self.subtori:
            if k.ambient_rank != self.ambient_rank:
                raise ValueError("subtorus ambient rank mismatch")
            if k.rank < 1:
                raise ValueError("subtori must have rank at least one")
        if self.names and len(self.names) != len(self.subtori):
            raise ValueError("one name per subtorus")

    def alias_map(self) -> dict[str, Layer]:
        return dict(zip(self.names, self.subtori))


def poset_of_layers(arr: ToricArrangement) -> RankedPoset:
    """Closure of the subtori under pairwise intersection, by reverse inclusion.

    Elements of the returned poset are the :class:`Layer` values
    themselves (the whole torus is the minimum), ranked by codimension.
    """
    zero = Layer.whole_torus(arr.ambient_rank)
    layers = {zero, *arr.subtori}
    # each unordered pair of layers other than the torus meets once: a
    # frontier layer is intersected with the older layers and with the
    # frontier layers before it
    older: list[Layer] = []
    frontier = sorted(layers - {zero}, key=Layer.sort_key)
    meets: dict = {}
    while frontier:
        new = set()
        for j, b in enumerate(frontier):
            for a in itertools.chain(older, frontier[:j]):
                for c in intersect_layers(a, b, meets):
                    if c not in layers:
                        new.add(c)
        older += frontier
        layers |= new
        frontier = sorted(new, key=Layer.sort_key)
    ordered = sorted(layers, key=Layer.sort_key)
    # a <= b iff a's lattice lies in b's and b's phase restricts to a's:
    # per pair of lattices, each translate b of the larger one is looked
    # up among the translates of the smaller one by its restricted phase
    translates: dict[Sublattice, dict] = {}
    for i, x in enumerate(ordered):
        translates.setdefault(x.lattice, {})[x.phase] = i
    up = [0] * len(ordered)
    for low, below in translates.items():
        for high, above in translates.items():
            coords = _coordinates(low, high) if high.rank > low.rank else None
            if coords is None:
                continue
            for phase, j in above.items():
                i = below.get(_phase_sums(coords, phase))
                if i is not None:
                    up[i] |= 1 << j
    return RankedPoset._from_masks(ordered, [x.rank for x in ordered], up)


def name_layers(arr: ToricArrangement, poset: RankedPoset, given=None) -> dict:
    """Names of the layers of ``arr``: those in ``given``, then the label a
    subtorus is first listed under, "1" for the torus and W<rank>.<k>,
    counted per rank in poset order, for the rest."""
    names = {poset.zero: "1", **(given or {})}
    for name, layer in arr.alias_map().items():
        names.setdefault(layer, name)
    counters: dict[int, int] = {}
    for layer in poset.labels:
        if layer not in names:
            counters[layer.rank] = counters.get(layer.rank, 0) + 1
            names[layer] = f"W{layer.rank}.{counters[layer.rank]}"
    return names
