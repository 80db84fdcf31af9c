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


def _phase_sums(matrix, values) -> list[Fraction]:
    """``sum(c * w for c, w in zip(row, values))`` modulo 1, for each row.

    The integer numerators are summed over the common denominator of
    ``values``, so a row costs one ``Fraction`` rather than one per term.
    """
    den = lcm(*(w.denominator for w in values))
    nums = [w.numerator * (den // w.denominator) for w in values]
    return [Fraction(sum(map(mul, row, nums)) % den, den) for row in matrix]


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
        return _with_phases(ambient_rank, rows, [values])[0]

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


def _with_phases(ambient_rank: int, rows, phase_lists) -> list[Layer]:
    """One layer on the lattice of ``rows`` per list of phase values on them.

    ``rows`` must be independent and span a saturated lattice.  The phases
    are carried to the HNF basis, whose rows are integer combinations of
    ``rows`` with coefficients from the HNF transform.
    """
    h, u = hnf(rows, cols=ambient_rank)
    keep = [i for i, hrow in enumerate(h) if any(hrow)]
    lat = Sublattice(ambient_rank, tuple(h[i] for i in keep))
    coeffs = [u[i] for i in keep]
    return [Layer(lat, tuple(_phase_sums(coeffs, values))) for values in phase_lists]


def layer_leq(k1: Layer, k2: Layer) -> bool:
    """Poset order: k1 <= k2 iff the k2 subvariety sits inside k1's.

    Equivalently the lattice of k1 is contained in that of k2 and the
    phases agree on it.
    """
    if k1.ambient_rank != k2.ambient_rank:
        raise ValueError("ambient rank mismatch")
    for row, value in zip(k1.lattice.basis, k1.phase):
        v2 = k2.phase_of(row)
        if v2 is None or v2 != value:
            return False
    return True


def intersect_layers(k1: Layer, k2: Layer) -> list[Layer]:
    """Connected components of the intersection of two layers.

    Empty when the phases are inconsistent on the common lattice;
    otherwise one layer per extension of the combined phase to the
    saturation of the combined lattice, in canonical order.
    """
    if k1.ambient_rank != k2.ambient_rank:
        raise ValueError("ambient rank mismatch")
    n = k1.ambient_rank
    rows = list(k1.lattice.basis) + list(k2.lattice.basis)
    values = list(k1.phase) + list(k2.phase)
    if not rows:
        return [Layer.whole_torus(n)]
    res = snf(rows, transforms=True)
    r = res.rank
    uw = _phase_sums(res.left, values)
    # rows of U beyond the rank span the relations among the characters;
    # the phase is a well-defined homomorphism iff it kills them.
    if any(uw[r:]):
        return []
    # the first r rows of V^-1 span the saturation; on row i the phase is
    # any solution of d_i * x = uw_i modulo 1
    sat_rows = res.right_inv[:r]
    choices = []
    for w, d in zip(uw, res.invariant_factors):
        num, den = w.numerator, w.denominator
        choices.append([Fraction((num + t * den) % (den * d), den * d)
                        for t in range(d)])
    out = _with_phases(n, sat_rows, itertools.product(*choices))
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
    while frontier:
        new = set()
        for j, b in enumerate(frontier):
            for a in itertools.chain(older, frontier[:j]):
                for c in intersect_layers(a, b):
                    if c not in layers:
                        new.add(c)
        older += frontier
        layers |= new
        frontier = sorted(new, key=Layer.sort_key)
    ordered = sorted(layers, key=Layer.sort_key)
    # a < b needs rank a < rank b, and the order sorts by rank first
    rank_list = [a.rank for a in ordered]
    up = []
    for i, a in enumerate(ordered):
        mask = 1 << i
        for j in range(i + 1, len(ordered)):
            if rank_list[j] > rank_list[i] and layer_leq(a, ordered[j]):
                mask |= 1 << j
        up.append(mask)
    return RankedPoset._from_masks(ordered, rank_list, up)


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
