"""Ranked posets, building sets, nested sets and combinatorial blowups.

Posets here are finite, come with a minimum and a rank rising strictly
along the order, and joins/meets are *sets* of minimal upper (maximal
lower) bounds, since least upper bounds need not exist.  A poset is a
local lattice when every lower interval is a lattice; that is the class
all the heavier machinery (building sets, nested sets, blowups) operates
on.

Elements are arbitrary hashable labels.  The order is stored as one
bitmask per element, so an interval query is a few big-integer operations;
posets of layers have tens of elements, blowup posets up to tens of
thousands (12,242 faces for A(5,2) under the maximal building set).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass


def _bits(mask: int):
    """The positions of the set bits of ``mask``, in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class RankedPoset:
    """Finite poset with minimum and a rank rising strictly along the order."""

    __slots__ = ("labels", "index", "rank_list", "_up", "_down", "n", "zero")

    def __init__(self, labels, ranks, leq_pairs):
        """Build from order pairs; the reflexive-transitive closure is implied.

        ``leq_pairs`` is an iterable of (x, y) with x <= y, so the cover
        relations alone suffice.  The rank must rise strictly along the
        order: x < y in ``leq_pairs`` with rank(x) >= rank(y) is an error.
        """
        labels = tuple(labels)
        index = {x: i for i, x in enumerate(labels)}
        up = [1 << i for i in range(len(labels))]
        for x, y in leq_pairs:
            up[index[x]] |= 1 << index[y]
        self._build(labels, index, [ranks[x] for x in labels], up)

    @classmethod
    def _from_masks(cls, labels, rank_list, up) -> "RankedPoset":
        """Build from one up-mask per label: bit j of ``up[i]`` means
        labels[i] <= labels[j].  Closure and checks are those of
        ``__init__``."""
        self = cls.__new__(cls)
        labels = tuple(labels)
        self._build(labels, {x: i for i, x in enumerate(labels)}, rank_list,
                    [m | 1 << i for i, m in enumerate(up)])
        return self

    def _build(self, labels: tuple, index: dict, rank_list, up: list) -> None:
        self.labels = labels
        self.n = n = len(labels)
        self.index = index
        if len(index) != n:
            raise ValueError("duplicate labels")
        self.rank_list = rank_list = tuple(int(r) for r in rank_list)
        # everything above i has a larger rank, so in descending rank its
        # up-set is closed before i's: one pass closes the order, and no
        # cycle can pass the rank check
        for i in sorted(range(n), key=rank_list.__getitem__, reverse=True):
            acc = up[i]
            for j in _bits(up[i] & ~(1 << i)):
                if rank_list[j] <= rank_list[i]:
                    raise ValueError("rank function is not strictly monotone: "
                                     f"{labels[i]} < {labels[j]}")
                acc |= up[j]
            up[i] = acc
        self._up = up
        down = [0] * n
        for i in range(n):
            for j in _bits(up[i]):
                down[j] |= 1 << i
        self._down = down
        minima = [i for i in range(n) if down[i] == 1 << i]
        if len(minima) != 1:
            raise ValueError("poset must have a unique minimum")
        self.zero = labels[minima[0]]
        if rank_list[minima[0]] != 0:
            raise ValueError("minimum must have rank 0")

    # -- basic queries -------------------------------------------------

    def rank(self, x) -> int:
        return self.rank_list[self.index[x]]

    def leq(self, x, y) -> bool:
        return (self._up[self.index[x]] >> self.index[y]) & 1 == 1

    def lt(self, x, y) -> bool:
        i, j = self.index[x], self.index[y]
        return i != j and (self._up[i] >> j) & 1 == 1

    def _members(self, mask) -> list:
        return [self.labels[j] for j in _bits(mask)]

    def upset(self, x) -> list:
        return self._members(self._up[self.index[x]])

    def downset(self, x) -> list:
        return self._members(self._down[self.index[x]])

    def covers(self) -> list[tuple]:
        """All cover pairs (x, y) with x covered by y."""
        return [(x, y) for x in self.labels for y in self.covers_above(x)]

    def covers_above(self, x) -> list:
        i = self.index[x]
        strict = self._up[i] & ~(1 << i)
        return [self.labels[j] for j in _bits(strict)
                if not strict & self._down[j] & ~(1 << j)]

    def _minimal(self, mask) -> list:
        out = []
        m = mask
        while m:
            j = (m & -m).bit_length() - 1
            m &= m - 1
            if mask & self._down[j] == 1 << j:
                out.append(self.labels[j])
        return out

    def _maximal(self, mask) -> list:
        out = []
        m = mask
        while m:
            j = (m & -m).bit_length() - 1
            m &= m - 1
            if mask & self._up[j] == 1 << j:
                out.append(self.labels[j])
        return out

    # -- joins and meets ----------------------------------------------

    def joins(self, x, y) -> list:
        """All minimal upper bounds of x and y (possibly empty)."""
        return self._minimal(self._up[self.index[x]] & self._up[self.index[y]])

    def meets(self, x, y) -> list:
        """All maximal lower bounds of x and y (nonempty: there is a minimum)."""
        return self._maximal(self._down[self.index[x]] & self._down[self.index[y]])

    def join_set(self, elems, within=None) -> list:
        """Minimal upper bounds of a set, optionally inside a lower interval.

        ``within`` is an element z; bounds are then searched in [0, z].
        """
        mask = (1 << self.n) - 1 if within is None else self._down[self.index[within]]
        for e in elems:
            mask &= self._up[self.index[e]]
        return self._minimal(mask)

    def join_in_interval(self, elems, top):
        """The join of ``elems`` inside the lattice [0, top]; None if absent."""
        ub = self.join_set(elems, within=top)
        return ub[0] if len(ub) == 1 else None

    def restrict(self, keep, rank_offset: int = 0) -> "RankedPoset":
        keep = list(keep)
        keep_set = set(keep)
        ranks = {x: self.rank(x) - rank_offset for x in keep}
        pairs = [
            (x, y) for x in keep for y in keep_set if self.leq(x, y)
        ]
        return RankedPoset(keep, ranks, pairs)

    def __len__(self):
        return self.n

    def __repr__(self):
        return f"RankedPoset({self.n} elements, zero={self.zero!r})"


def is_local_lattice(p: RankedPoset) -> bool:
    """True iff every lower interval has unique pairwise joins and meets."""
    for z in range(p.n):
        elems = p._members(p._down[z])
        for x, y in itertools.combinations(elems, 2):
            ub = p._up[p.index[x]] & p._up[p.index[y]] & p._down[z]
            if len(p._minimal(ub)) != 1:
                return False
            lb = p._down[p.index[x]] & p._down[p.index[y]]
            if len(p._maximal(lb)) != 1:
                return False
    return True


# -- building sets --------------------------------------------------------


@dataclass(frozen=True)
class BuildingSet:
    """A building set together with a fixed linear order.

    ``order`` lists the members so that earlier elements are never smaller
    in the poset (a linear refinement of the opposite partial order); the
    last element is therefore minimal among the members.
    """

    members: frozenset
    order: tuple

    def __post_init__(self):
        if frozenset(self.order) != self.members or len(self.order) != len(self.members):
            raise ValueError("order must enumerate the members exactly once")

    def __len__(self):
        return len(self.order)

    @property
    def last(self):
        return self.order[-1]


def default_order(p: RankedPoset, members) -> tuple:
    """Deterministic linear refinement of the opposite partial order:
    decreasing rank, then decreasing label key (ranks rise strictly along
    the order, so whatever lies above a member comes before it)."""
    out = sorted(members, key=_label_sort_key, reverse=True)
    out.sort(key=lambda x: -p.rank(x))
    return tuple(out)


def _label_sort_key(x):
    key = getattr(x, "sort_key", None)
    if key is not None:
        return (0, key() if callable(key) else key)
    return (1, repr(x))


def make_building_set(p: RankedPoset, members, order=None) -> BuildingSet:
    members = frozenset(members)
    if order is None:
        order = default_order(p, members)
    order = tuple(order)
    for i, x in enumerate(order):
        for y in order[i + 1:]:
            if p.lt(x, y):
                raise ValueError("order does not refine the opposite partial order")
    return BuildingSet(members, order)


def g_factors(p: RankedPoset, members, x) -> set:
    """Maximal building-set members below-or-equal x."""
    if x == p.zero:
        raise ValueError("factors are defined for elements above the minimum")
    below = [g for g in members if p.leq(g, x)]
    return {
        g for g in below if not any(p.lt(g, h) for h in below)
    }


def _interval_product_iso(p: RankedPoset, factors, x) -> bool:
    """Check that joining gives an isomorphism prod [0, f] -> [0, x] for
    factors f <= x.

    It does exactly when the sizes agree and every y <= x has a unique meet
    with each f and is the join in [0, x] of those meets: y -> (y meet f)_f
    is then injective, so a bijection, joining is its inverse, and both
    maps are monotone.
    """
    down, up = p._down, p._up
    fs, top = [p.index[f] for f in factors], p._down[p.index[x]]
    if math.prod(down[f].bit_count() for f in fs) != top.bit_count():
        return False
    for y in _bits(top):
        bound = top  # the upper bounds in [0, x] of the meets of y
        for f in fs:
            meet = p._maximal(down[y] & down[f])
            if len(meet) != 1:
                return False
            bound &= up[p.index[meet[0]]]
        if bound & ~up[y]:  # y is not their least upper bound
            return False
    return True


def is_building_set(p: RankedPoset, members, geometric: bool = False) -> bool:
    """Check the interval-factorization property for every element.

    With ``geometric=True`` additionally requires factor ranks to add up.
    """
    members = set(members)
    if p.zero in members:
        return False
    for x in p.labels:
        if x == p.zero:
            continue
        factors = g_factors(p, members, x)
        if not factors:
            return False
        if not _interval_product_iso(p, factors, x):
            return False
        if geometric and sum(p.rank(f) for f in factors) != p.rank(x):
            return False
    return True


def _walk(items, step, state, chosen=()):
    """``(chosen, state)`` for () and each subset of ``items``, in list order,
    that ``step(chosen, state, item)`` grows into a state other than None;
    if the sets it accepts are closed under subsets, these are all of them."""
    yield chosen, state
    for k, item in enumerate(items):
        grown = step(chosen, state, item)
        if grown is not None:
            yield from _walk(items[k + 1:], step, grown, chosen + (item,))


def _antichains(p: RankedPoset, items, bound: int, most=None):
    """Walk the antichains of the indices ``items`` with an upper bound in
    the mask ``bound`` and, given ``most``, lower intervals whose sizes
    multiply to at most it; a state is (comparables, those bounds, product)."""
    def step(chosen, state, i):
        near, mask, product = state
        mask, product = mask & p._up[i], product * p._down[i].bit_count()
        if near >> i & 1 or not mask or (most and product > most):
            return None
        return near | p._up[i] | p._down[i], mask, product

    return _walk(items, step, (0, bound, 1))


def minimal_building_set(p: RankedPoset) -> set:
    """Elements whose lower interval admits no proper product decomposition;
    a factor antichain in (0, x) is cut once its size product passes |[0, x]|."""
    out, z = set(), p.index[p.zero]
    for xi, x in enumerate(p.labels):
        size = p._down[xi].bit_count()
        inside = [i for i in range(p.n) if p._down[xi] >> i & 1 and i not in (xi, z)]
        if xi != z and not any(
                len(c) > 1 and product == size
                and _interval_product_iso(p, [p.labels[i] for i in c], x)
                for c, (_, _, product) in _antichains(p, inside, p._down[xi], size)):
            out.add(x)
    return out


def select_building(p: RankedPoset, selector) -> set:
    """Members of the building set "min", "max" (every element above the
    minimum) or "minwc" (the minimal one closed under joins); any other
    ``selector`` is a collection of elements that must form one."""
    if isinstance(selector, str):
        if selector == "min":
            return minimal_building_set(p)
        if selector == "max":
            return set(p.labels) - {p.zero}
        if selector == "minwc":
            return minimal_well_connected(p, minimal_building_set(p))
        raise ValueError(f"unknown building-set selector {selector!r}")
    members = set(selector)
    if not is_building_set(p, members):
        raise ValueError("the given members are not a building set")
    return members


def _new_joins(p: RankedPoset, members, fresh) -> set:
    """The elements outside ``members`` of every join with two or more
    elements of an antichain of members that contains one of ``fresh``.

    An antichain is walked from its first fresh member g, through the
    members after g that are incomparable to it; a g with nothing outside
    ``members`` above it has no new join element and is skipped."""
    out, inside = set(), set(members)
    outside = sum(1 << i for i, x in enumerate(p.labels) if x not in inside)
    first = [p.index[g] for g in fresh]
    items = first + [p.index[g] for g in inside.difference(fresh)]
    for k, g in enumerate(first):
        if not p._up[g] & outside:
            continue
        near = p._up[g] | p._down[g]
        others = [h for h in items[k + 1:] if not near >> h & 1]
        for c, (_, mask, _) in _antichains(p, others, p._up[g]):
            if c and len(join := p._minimal(mask)) > 1:
                out.update(x for x in join if x not in inside)
    return out


def is_well_connected(p: RankedPoset, members) -> bool:
    """Multi-element joins of members must stay inside the set."""
    return not _new_joins(p, members, members)


def minimal_well_connected(p: RankedPoset, members) -> set:
    """Closure of ``members`` under multi-valued joins (a building set, checked).

    A round walks only the antichains through a member the last round
    added: those of older members were walked before."""
    current = added = set(members)
    while added := _new_joins(p, current, added):
        current |= added
    if not is_building_set(p, current):
        raise ValueError("well-connected closure is not a building set")
    return current


# -- nested sets and blowups ----------------------------------------------


@dataclass(frozen=True)
class NestedSet:
    """A nested pair (S, x): members of the building set with x in join(S)."""

    members: frozenset
    x: object

    def key(self, member_pos) -> tuple:
        return (tuple(sorted(member_pos[m] for m in self.members)), self.x)

    def __len__(self):
        return len(self.members)

    def gaps(self, p: RankedPoset) -> dict:
        """Member g -> rank of g minus that of the join, in [0, g], of the
        members below g: an admissible value on g stays below it."""
        gaps = {}
        for g in self.members:
            m = p.join_in_interval([h for h in self.members if p.lt(h, g)], g)
            if m is None:
                raise AssertionError("join of smaller members missing below a member")
            gaps[g] = p.rank(g) - p.rank(m)
        return gaps


def nested_sets(p: RankedPoset, building: BuildingSet) -> list[NestedSet]:
    """All nonempty nested pairs (S, x), canonically ordered.

    (S, x) is nested when x is a minimal upper bound of S and each
    antichain of two or more members of S joins in the lattice [0, x]
    outside the building set.  On a local lattice the nested sets form a
    simplicial complex (Feichtner-Kozlov 2004; Feichtner-Yuzvinsky 2004):
    with (S, x), each nonempty T in S is nested at its join in [0, x].  So
    S grows in building order, a prefix nested at no x is cut without loss,
    and a new member g is tested only on the antichains through it: the
    others passed at the prefix's join in [0, x], below which they join.
    """

    def step(chosen, state, g):
        bound, xs = state  # upper bounds of chosen; the x it is nested at
        prefix = [p.labels[h] for h in chosen]
        others = [h for h in chosen if not (p._up[g] | p._down[g]) >> h & 1]
        grown = set()
        for x in p._minimal(bound & p._up[g]):
            through_g = _antichains(p, others, p._up[g] & p._down[p.index[x]])
            joins = (p._minimal(mask) for c, (_, mask, _) in through_g if c)
            if p.join_in_interval(prefix, x) in xs and all(
                    len(j) == 1 and j[0] not in building.members for j in joins):
                grown.add(x)
        return (bound & p._up[g], grown) if grown else None

    member_pos = {g: i for i, g in enumerate(building.order)}
    out = [NestedSet(frozenset(p.labels[i] for i in s), x)
           for s, (_, xs) in _walk([p.index[g] for g in building.order], step,
                                   ((1 << p.n) - 1, {p.zero})) if s for x in xs]
    out.sort(key=lambda ns: (len(ns.members), ns.key(member_pos)[0],
                             _label_sort_key(ns.x)))
    return out


class BlowupPoset:
    """Face poset of the nested-set complex of (L, G).

    Elements are :class:`NestedSet` values plus the empty set as minimum;
    rank is the cardinality of S and ``pi`` projects to the base poset.
    """

    def __init__(self, base: RankedPoset, building: BuildingSet):
        self.base = base
        self.building = building
        member_pos = {g: i for i, g in enumerate(building.order)}
        self.member_pos = member_pos
        self.nested_by_key = {ns.key(member_pos): ns for ns in [
            NestedSet(frozenset(), base.zero), *nested_sets(base, building)]}
        self.pi = {key: ns.x for key, ns in self.nested_by_key.items()}
        # the complex is simplicial, so (S, x) covers exactly the |S| faces
        # (S - g, join of S - g in [0, x]), and these covers generate the order
        facets = []
        for key, ns in self.nested_by_key.items():
            for g in ns.members:
                rest = ns.members - {g}
                face = NestedSet(rest, base.join_in_interval(list(rest), ns.x))
                face_key = face.key(member_pos)
                if face_key not in self.nested_by_key:
                    raise AssertionError(
                        f"face {face_key!r} of the nested set {key!r} is not nested")
                facets.append((face_key, key))
        self.poset = RankedPoset(
            self.nested_by_key,
            {key: len(ns) for key, ns in self.nested_by_key.items()}, facets)

    @property
    def covers(self) -> list:
        """The cover pairs in the order ``poset.covers()`` gives: the facet
        relations raise the rank by one and generate the order, so a face is
        covered by the faces one rank up in its up-set."""
        p, rank = self.poset, self.poset.rank_list
        return [(a, p.labels[j]) for i, a in enumerate(p.labels)
                for j in _bits(p._up[i]) if rank[j] == rank[i] + 1]

    def nested(self, label) -> NestedSet:
        return self.nested_by_key[label]

    def is_locally_boolean(self) -> bool:
        """Does every (S, x) have 2^|S| faces below it, with distinct member
        sets?  A label is (sorted member positions, x), so member sets are
        bitsets over the positions, and only the faces in ``shared``, whose
        member set another face has too, can repeat one in a down-set."""
        p = self.poset
        members = [sum(1 << q for q in label[0]) for label in p.labels]
        first, shared = {}, 0
        for i, m in enumerate(members):
            j = first.setdefault(m, i)
            if j != i:
                shared |= 1 << i | 1 << j
        for i, down in enumerate(p._down):
            if down.bit_count() != 1 << members[i].bit_count():
                return False
            common = down & shared
            if (common & (common - 1) and len({members[j] for j in _bits(common)})
                    != common.bit_count()):
                return False
        return True


def blowup_building(p: RankedPoset, building: BuildingSet) -> BlowupPoset:
    return BlowupPoset(p, building)


# -- elementary blowups ----------------------------------------------------

_BLOWN = "~bl"


def _blow_up(p: RankedPoset, centers) -> tuple[RankedPoset, list, list]:
    """Blow up ``p`` along ``centers`` on one index space that only grows.

    An element keeps its position for the whole call: position i < len(p)
    is p's element i, and each blowup appends its new elements (x, y), of
    up-mask x_above[x] & y_above[y].  A blowup at c clears the positions
    above c from ``live`` and from the up-masks of the kept elements.
    Labels, ranks, accumulated centers and projections to p are lists by
    position, hashed only when the live positions are compacted, in order,
    into one poset; returns it with the centers and projections of its
    elements.
    """
    labels, rank, up = list(p.labels), list(p.rank_list), list(p._up)
    made, base = [frozenset()] * p.n, list(p.labels)
    zero, live = p.index[p.zero], (1 << p.n) - 1
    for c in centers:
        ci = p.index.get(c)
        if ci is None:  # a label made by an earlier step
            ci = next((k for k in range(p.n, len(labels)) if labels[k] == c), None)
        if ci is None or not live >> ci & 1:
            raise ValueError(f"center {c!r} was removed by an earlier blowup")
        if ci == zero:
            raise ValueError("center must be an element above the minimum")
        above, centered = up[ci], frozenset((c,))
        live &= ~above
        pairs, by_x, by_y = [], {}, {}
        for i in _bits(live):
            common = up[i] & above
            if not common:
                continue
            up[i] ^= common
            # the minimal elements of common, the joins of c and i
            nonmin, grown = 0, made[i] | centered
            for j in _bits(common):
                nonmin |= up[j] ^ 1 << j
            for j in _bits(common & ~nonmin):
                k = 1 << len(labels)
                by_x[i] = by_x.get(i, 0) | k
                by_y[j] = by_y.get(j, 0) | k
                pairs.append((i, j))
                labels.append((_BLOWN, c, labels[i], labels[j]))
                rank.append(rank[i] + 1)
                made.append(grown)
                base.append(base[j])
        # x_above[w] (y_above[w]): the new elements whose x (y) lies above w,
        # a union of disjoint groups, so a sum; a kept element below some x
        # has a nonempty common, so is an x itself
        x_heads, y_heads = sum(1 << i for i in by_x), sum(1 << j for j in by_y)
        x_above = {w: sum(by_x[i] for i in _bits(up[w] & x_heads)) for w in by_x}
        y_above = {w: sum(by_y[j] for j in _bits(up[w] & y_heads)) for w in by_y}
        for i, acc in x_above.items():
            up[i] |= acc
        up += [x_above[i] & y_above[j] for i, j in pairs]
        live |= sum(by_x.values())
    keep = list(_bits(live))
    bit = {i: 1 << k for k, i in enumerate(keep)}
    q = RankedPoset._from_masks([labels[i] for i in keep], [rank[i] for i in keep],
                                [sum(bit[w] for w in _bits(up[i])) for i in keep])
    return q, [made[i] for i in keep], [base[i] for i in keep]


def blowup_at(p: RankedPoset, center) -> tuple[RankedPoset, dict]:
    """Blow up a poset at one element: the one-step ``iterated_blowup``.

    Elements not above the center survive; each pair (x, y) with x not
    above the center and y a minimal upper bound of {center, x} becomes a
    new element labelled ``(_BLOWN, center, x, y)`` of rank rank(x) + 1.
    Returns the new poset and the projection onto the old one.
    """
    if center == p.zero or center not in p.index:
        raise ValueError("center must be an element above the minimum")
    q, _, base = _blow_up(p, [center])
    return q, dict(zip(q.labels, base))


def iterated_blowup(p: RankedPoset, centers) -> tuple[RankedPoset, dict]:
    """Blow up along ``centers`` in the given order.

    The elementary blowups run on one index space that only grows (see
    ``_blow_up``), and the final poset is built once.  Returns it together
    with a decoding of every element as a pair (set of centers accumulated,
    projection to the original poset); for orders refining the opposite
    partial order on a building set this decoding identifies the result
    with the nested-set face poset.  A center may be an element of ``p`` or
    a label made by an earlier step.
    """
    q, made, base = _blow_up(p, centers)
    return q, dict(zip(q.labels, zip(made, base)))


# -- deletion and contraction ----------------------------------------------


def deletion(p: RankedPoset, building: BuildingSet,
             member=None) -> tuple[RankedPoset, BuildingSet]:
    """Remove a member (the last one by default): keep elements it does not factor."""
    if member is None:
        member = building.last
    if member not in building.members:
        raise ValueError("can only delete a member of the building set")
    keep = [x for x in p.labels
            if x == p.zero or member not in g_factors(p, building.members, x)]
    sub = p.restrict(keep)
    new = BuildingSet(building.members - {member},
                      tuple(g for g in building.order if g != member))
    return sub, new


def contraction(p: RankedPoset, building: BuildingSet, x) -> tuple[RankedPoset, BuildingSet]:
    """Restrict to the upset of x, with ranks shifted down by rank(x).

    The induced building set consists of the joins with x of members not
    below x.
    """
    if x not in p.index or x == p.zero:
        raise ValueError("contraction requires an element above the minimum")
    upper = p.restrict(p.upset(x), rank_offset=p.rank(x))
    new_members = set()
    for g in building.members:
        if not p.leq(g, x):
            new_members |= set(p.joins(g, x))
    order = default_order(upper, new_members)
    return upper, BuildingSet(frozenset(new_members), order)


def contraction_iso(p: RankedPoset, building: BuildingSet, bl: BlowupPoset,
                    s_nested: NestedSet,
                    bl_contracted: BlowupPoset) -> dict:
    """Explicit bijection Bl(L) above (S, X)  ->  Bl(L at X) for maximal (S, X).

    Maps (T, Y) to (T', Y) where T' collects, for each member t of T not
    below X, the unique element of join(t, X) under Y.  The returned dict
    sends labels of ``bl`` at or above (S, X) to labels of
    ``bl_contracted``; inverse consistency and order preservation are
    checked.
    """
    x = s_nested.x
    s_key = s_nested.key(bl.member_pos)
    fwd = {}
    for label in bl.poset.upset(s_key):
        t = bl.nested(label)
        image_members = set()
        for m in t.members:
            if p.leq(m, x):
                continue
            cands = [z for z in p.joins(m, x) if p.leq(z, t.x)]
            if len(cands) != 1:
                raise AssertionError("join with the center is not unique under Y")
            image_members.add(cands[0])
        img = NestedSet(frozenset(image_members), t.x)
        fwd[label] = img.key(bl_contracted.member_pos)
    if set(fwd.values()) != set(bl_contracted.poset.labels):
        raise AssertionError("contraction map is not onto the contracted blowup")
    if len(set(fwd.values())) != len(fwd):
        raise AssertionError("contraction map is not injective")
    for a in fwd:
        for b in fwd:
            if bl.poset.leq(a, b) != bl_contracted.poset.leq(fwd[a], fwd[b]):
                raise AssertionError("contraction map is not an order isomorphism")
    return fwd


def linear_refinements(p: RankedPoset, members, count: int) -> list[tuple]:
    """Up to ``count`` distinct linear refinements of the opposite order."""
    members = sorted(members, key=_label_sort_key)
    out = []

    def backtrack(remaining, acc):
        if len(out) >= count:
            return
        if not remaining:
            out.append(tuple(acc))
            return
        for i, x in enumerate(remaining):
            if not any(p.lt(x, y) for y in remaining if y is not x):
                backtrack(remaining[:i] + remaining[i + 1:], acc + [x])
                if len(out) >= count:
                    return

    backtrack(members, [])
    return out
