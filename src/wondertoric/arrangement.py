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
from math import gcd, lcm
from operator import mul

from .intlinalg import Sublattice, hnf, is_saturated, snf
from .poset import RankedPoset


def _numerators(values) -> tuple[int, tuple[int, ...]]:
    """The common denominator of ``values`` and their numerators over it."""
    den = lcm(*(w.denominator for w in values))
    return den, tuple(w.numerator * (den // w.denominator) for w in values)


def _phase_sums(matrix, den: int, nums) -> tuple[Fraction, ...]:
    """``sum(c * w for c, w in zip(row, values))`` modulo 1, for each row,
    where ``values`` are the integer numerators ``nums`` over ``den``: a
    row costs one ``Fraction`` rather than one per term."""
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
        # layers key every poset lookup; hash the compared fields once, and
        # keep the phase as numerators over one denominator for intersecting
        object.__setattr__(self, "_hash", hash((self.lattice, self.phase)))
        object.__setattr__(self, "_nums", _numerators(self.phase))

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
        return Layer(lattice, _phase_sums(coeffs, *_numerators(values)))

    @staticmethod
    def whole_torus(ambient_rank: int) -> "Layer":
        return Layer(Sublattice.zero(ambient_rank), ())

    @property
    def ambient_rank(self) -> int:
        return self.lattice.ambient_rank

    @property
    def rank(self) -> int:
        return self.lattice.rank

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


def layer_leq(k1: Layer, k2: Layer) -> bool:
    """Poset order: k1 <= k2 iff the k2 subvariety sits inside k1's.

    Equivalently the lattice of k1 is contained in that of k2 and the
    phases agree on it.
    """
    if k1.ambient_rank != k2.ambient_rank:
        raise ValueError("ambient rank mismatch")
    coords = [k2.lattice.solve(row) for row in k1.lattice.basis]
    return None not in coords and _phase_sums(coords, *k2._nums) == k1.phase


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


def _components(k1: Layer, k2: Layer, meets: dict) -> list:
    """The components of the intersection of two layers, in no order:
    ``k1`` or ``k2`` itself when it lies in the other, else keys
    ``(lattice, den, numerators)`` of phases reduced modulo one and to
    lowest terms, i.e. ``(layer.lattice, *layer._nums)`` of the layer named.
    ``meets`` keeps the Smith form of each unordered pair of lattices."""
    if k1.lattice == k2.lattice:
        # translates of one subtorus are equal or disjoint
        return [k1] if k1.phase == k2.phase else []
    if k2.lattice.basis < k1.lattice.basis:
        k1, k2 = k2, k1
    key = (k1.lattice, k2.lattice)
    if key not in meets:
        meets[key] = _meet_lattices(*key)
    lifts, factors, relations, lattice, coeffs = meets[key]
    (d1, nums1), (d2, nums2) = k1._nums, k2._nums
    den = lcm(d1, d2)
    nums = [w * (den // d1) for w in nums1] + [w * (den // d2) for w in nums2]
    # the phase is a well-defined homomorphism iff it kills the relations
    if any(sum(map(mul, row, nums)) % den for row in relations):
        return []
    # one lattice holds the other and the phases agree: the layer on the
    # larger lattice lies in the other one
    if lattice == k1.lattice:
        return [k1]
    if lattice == k2.lattice:
        return [k2]
    # extension t on saturation row i is (w_i + t den) / (den d_i); each
    # d_i divides the last one, so all are numerators over den * d_last
    top = factors[-1]
    choices = [[(sum(map(mul, row, nums)) % den + t * den) * (top // d)
                for t in range(d)] for row, d in zip(lifts, factors)]
    den *= top
    out = []
    for values in itertools.product(*choices):
        phase = [sum(map(mul, row, values)) % den for row in coeffs]
        g = gcd(den, *phase)
        out.append((lattice, den // g, tuple(w // g for w in phase)))
    return out


def _layer(lattice: Sublattice, den: int, nums) -> Layer:
    """The layer a key of :func:`_components` names."""
    return Layer(lattice, tuple(Fraction(w, den) for w in nums))


def intersect_layers(k1: Layer, k2: Layer, meets: dict | None = None) -> list[Layer]:
    """Connected components of the intersection of two layers.

    Empty when the phases are inconsistent on the common lattice;
    otherwise one layer per extension of the combined phase to the
    saturation of the combined lattice, in canonical order.  The lattice
    work depends on the unordered pair of lattices only, so it takes one
    Smith form per pair: a caller that intersects many layers passes one
    dict as ``meets`` to keep it.  The layers are built from the keys of
    :func:`_components`, which ``poset_of_layers`` uses directly.
    """
    if k1.ambient_rank != k2.ambient_rank:
        raise ValueError("ambient rank mismatch")
    out = [c if isinstance(c, Layer) else _layer(*c)
           for c in _components(k1, k2, {} if meets is None else meets)]
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
        repeated = [n for i, n in enumerate(self.names) if n in self.names[:i]]
        if repeated:
            raise ValueError(f"subtorus label {repeated[0]!r} is repeated")
        if "1" in self.names:
            raise ValueError("subtorus label '1' is the name of the torus")

    def alias_map(self) -> dict[str, Layer]:
        return dict(zip(self.names, self.subtori))


def poset_of_layers(arr: ToricArrangement) -> RankedPoset:
    """Closure of the subtori under intersection, by reverse inclusion.

    Elements of the returned poset are the :class:`Layer` values
    themselves (the whole torus is the minimum), ranked by codimension.

    Each layer meets each distinct subtorus at most once.  That finds every
    layer: a component L of the intersection of a set S of subtori is a
    component of C ∩ h, for h in S and C the component of the intersection
    of S - h that contains L.  The meets also give the order: when L < M,
    some subtorus h containing M does not contain L, so M lies in a
    component C != L of L ∩ h, and L < C <= M.  The pairs (L, C) generate
    the order.

    A meet L ∩ h with h containing L is L itself and gives no pair, so it
    is skipped whenever the walk already knows that h contains L: each
    subtorus contains itself, and a component C of L ∩ h lies in h and in
    every subtorus known to contain L.  A layer is built once, the first
    time its key comes out of a meet.
    """
    zero = Layer.whole_torus(arr.ambient_rank)
    subtori = sorted(set(arr.subtori), key=Layer.sort_key)
    made = {(h.lattice, *h._nums): h for h in subtori}
    # inside[c]: bit i set when subtori[i] is known to contain c
    inside = {h: 1 << i for i, h in enumerate(subtori)}
    pairs = [(zero, h) for h in subtori]
    frontier, meets = subtori, {}
    while frontier:
        new = []
        for a in frontier:
            for i, h in enumerate(subtori):
                if inside[a] >> i & 1:
                    continue
                for c in _components(a, h, meets):
                    if not isinstance(c, Layer):
                        if c not in made:
                            made[c] = _layer(*c)
                            new.append(made[c])
                        c = made[c]
                    if c.rank > a.rank:  # c lies in a, so c != a
                        pairs.append((a, c))
                        inside[c] = inside.get(c, 0) | inside[a] | 1 << i
        frontier = sorted(new, key=Layer.sort_key)
    ordered = sorted([zero, *made.values()], key=Layer.sort_key)
    return RankedPoset(ordered, {x: x.rank for x in ordered}, pairs)


def name_layers(arr: ToricArrangement, poset: RankedPoset, given=None) -> dict:
    """Names of the layers of ``arr``: those in ``given``, then the label a
    subtorus is first listed under, "1" for the torus and W<rank>.<k>,
    counted per rank in poset order and skipping names already taken, for
    the rest."""
    names = {poset.zero: "1", **(given or {})}
    for name, layer in arr.alias_map().items():
        names.setdefault(layer, name)
    taken = set(names.values())
    # per rank, the generated names W<rank>.1, W<rank>.2, ... not yet used
    fresh: dict = {}
    for layer in poset.labels:
        if layer not in names:
            r = layer.rank
            left = fresh.setdefault(r, (f"W{r}.{k}" for k in itertools.count(1)))
            names[layer] = next(name for name in left if name not in taken)
    return names
