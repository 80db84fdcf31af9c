"""Differential tests of the layer and blowup core against reference oracles.

The oracles below are the straightforward versions of ``poset_of_layers``
and ``blowup_at``: the poset of layers intersects every ordered pair of
layers (the whole torus included), computes phases one ``Fraction``
product at a time and lists every order pair by label; the blowup builds
its order as a list of label pairs.  The library meets each layer with
the subtori only, skips those known to contain it, and reads the order
from those meets; its versions work on cached hashes, integer indices
and bitmasks, and must give the same labels, in the same order, with the
same ranks and the same order.
The iterated-blowup oracle runs ``ref_blowup_at`` one center at a time
and decodes each new label by its center, x and y; the library blows up
on one index space that only grows and builds one poset at the end.

The building-set and nested-set oracles enumerate every subset and then
filter it; the library grows sets depth-first and cuts a branch as soon
as it fails, and must give the same sets, nested sets in the same order.
The blowup-poset oracle compares every pair of faces; the library orders
the faces by their facets alone.  The locally-boolean oracle lists each
down-set by label and hashes its member sets; the library counts the
bits of each down-mask and compares member sets as bitsets.

The order oracles close relations by iterating to a fixpoint, sort the
members of a building set by a greedy topological sort, and test an
interval product by listing the product and comparing every pair of its
tuples.  The library closes the order in one pass down the ranks, sorts
by rank alone and tests a product by meets.
"""

import itertools
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from wondertoric import arrangement
from wondertoric import poset as poset_module
from wondertoric.arrangement import (
    Layer,
    ToricArrangement,
    intersect_layers,
    layer_leq,
    poset_of_layers,
)
from wondertoric.fixtures import (
    a_n_c,
    boolean_poset,
    fig5_poset,
    running_poset,
    three_atoms_two_tops,
)
from wondertoric.intlinalg import Sublattice, hnf, is_saturated, snf
from wondertoric.poset import (
    _BLOWN,
    BlowupPoset,
    NestedSet,
    RankedPoset,
    _interval_product_iso,
    _label_sort_key,
    blowup_at,
    default_order,
    g_factors,
    is_building_set,
    is_well_connected,
    iterated_blowup,
    linear_refinements,
    make_building_set,
    minimal_building_set,
    minimal_well_connected,
    nested_sets,
    select_building,
)

# -- reference oracles -----------------------------------------------------


def _mod1(x):
    return x - (x.numerator // x.denominator)


def _dot(coeffs, values):
    return sum((Fraction(c) * w for c, w in zip(coeffs, values)), Fraction(0))


def ref_make(n, rows, values):
    rows = [tuple(map(int, r)) for r in rows]
    lat = Sublattice.from_rows(n, rows)
    assert is_saturated(lat)
    h, u = hnf(rows, cols=n)
    phases = tuple(_mod1(_dot(u[i], values)) for i, hrow in enumerate(h) if any(hrow))
    return Layer(lat, phases)


def ref_phase_of(k, character):
    coeffs = k.lattice.solve(character)
    return None if coeffs is None else _mod1(_dot(coeffs, k.phase))


def ref_leq(k1, k2):
    return all(ref_phase_of(k2, row) == value
               for row, value in zip(k1.lattice.basis, k1.phase))


def ref_intersect(k1, k2):
    n = k1.ambient_rank
    rows = list(k1.lattice.basis) + list(k2.lattice.basis)
    values = list(k1.phase) + list(k2.phase)
    if not rows:
        return [Layer.whole_torus(n)]
    res = snf(rows, transforms=True)
    r = res.rank
    uw = [_dot(urow, values) for urow in res.left]
    if any(_mod1(uw[i]) != 0 for i in range(r, len(rows))):
        return []
    sat_rows = [res.right_inv[i] for i in range(r)]
    d = res.invariant_factors
    choices = [[_mod1(uw[i] / d[i] + Fraction(t, d[i])) for t in range(d[i])]
               for i in range(r)]
    out = [ref_make(n, sat_rows, combo) for combo in itertools.product(*choices)]
    return sorted(out, key=Layer.sort_key)


def ref_poset_of_layers(arr):
    zero = Layer.whole_torus(arr.ambient_rank)
    layers = {zero}
    frontier = set()
    for k in arr.subtori:
        if k not in layers:
            layers.add(k)
            frontier.add(k)
    while frontier:
        new = set()
        for a in sorted(layers, key=Layer.sort_key):
            for b in sorted(frontier, key=Layer.sort_key):
                if a is not b:
                    new.update(c for c in ref_intersect(a, b) if c not in layers)
        layers |= new
        frontier = new
    ordered = sorted(layers, key=Layer.sort_key)
    pairs = [(a, b) for a in ordered for b in ordered if ref_leq(a, b)]
    return RankedPoset(ordered, {a: a.rank for a in ordered}, pairs)


def ref_blowup_at(p, center):
    if center == p.zero or center not in p.index:
        raise ValueError("center must be an element above the minimum")
    keep = [x for x in p.labels if not p.leq(center, x)]
    new = [(_BLOWN, center, x, y) for x in keep for y in p.joins(center, x)]
    ranks = {x: p.rank(x) for x in keep}
    for t in new:
        ranks[t] = p.rank(t[2]) + 1
    pairs = [(x, y) for x in keep for y in keep if p.leq(x, y)]
    for t in new:
        pairs += [(x, t) for x in keep if p.leq(x, t[2])]
        pairs += [(s, t) for s in new if p.leq(s[2], t[2]) and p.leq(s[3], t[3])]
    proj = {x: x for x in keep}
    proj.update((t, t[3]) for t in new)
    return RankedPoset(keep + new, ranks, pairs), proj


def ref_iterated_blowup(p, centers):
    """``ref_blowup_at`` one center at a time, each new label decoded by its
    center and the decodings of its x and y."""
    current = p
    decode = {x: (frozenset(), x) for x in p.labels}
    for c in centers:
        if c not in current.index:
            raise ValueError(f"center {c!r} was removed by an earlier blowup")
        current, _ = ref_blowup_at(current, c)
        new_decode = {}
        for lab in current.labels:
            if isinstance(lab, tuple) and len(lab) == 4 and lab[0] == _BLOWN and lab[1] == c:
                _, _, x, y = lab
                new_decode[lab] = (decode[x][0] | {c}, decode[y][1])
            else:
                new_decode[lab] = decode[lab]
        decode = new_decode
    return current, decode


def is_antichain(p, combo):
    return not any(p.lt(a, b) or p.lt(b, a)
                   for a, b in itertools.combinations(combo, 2))


def ref_closed_masks(up):
    """The up-masks closed by OR-ing into each the up-masks of the elements
    in it until nothing changes, and the down-masks read off them."""
    up = list(up)
    changed = True
    while changed:
        changed = False
        for i in range(len(up)):
            acc = up[i]
            for j in range(len(up)):
                if acc >> j & 1:
                    acc |= up[j]
            if acc != up[i]:
                up[i] = acc
                changed = True
    down = [sum(1 << i for i in range(len(up)) if up[i] >> j & 1)
            for j in range(len(up))]
    return up, down


def ref_default_order(p, members):
    """Greedy topological sort: at each step the first maximal remaining
    member under (decreasing rank, decreasing label key)."""
    pending = sorted(members, key=_label_sort_key, reverse=True)
    pending.sort(key=lambda x: -p.rank(x))
    out = []
    while pending:
        for i, x in enumerate(pending):
            if not any(p.lt(x, y) for y in pending if y is not x):
                out.append(pending.pop(i))
                break
        else:
            raise RuntimeError("cyclic order")
    return tuple(out)


def ref_interval_product_iso(p, factors, x):
    """Joining is an isomorphism prod [0, f] -> [0, x]: the join of every
    tuple exists in [0, x], the joins are distinct, and every pair of tuples
    compares componentwise as their joins compare."""
    factors = list(factors)
    intervals = [p.downset(f) for f in factors]
    size = 1
    for iv in intervals:
        size *= len(iv)
    target = p.downset(x)
    if size != len(target):
        return False
    image = {}
    for combo in itertools.product(*intervals):
        nonzero = [c for c in combo if c != p.zero]
        j = p.join_in_interval(nonzero, x)
        if j is None:
            return False
        image[combo] = j
    if len(set(image.values())) != size:
        return False
    combos = list(image)
    for a in combos:
        for b in combos:
            comp = all(p.leq(u, v) for u, v in zip(a, b))
            if comp != p.leq(image[a], image[b]):
                return False
    return True


def ref_minimal_building_set(p):
    out = set()
    for x in p.labels:
        if x == p.zero:
            continue
        proper = [y for y in p.downset(x) if y != p.zero and y != x]
        decomposable = False
        for k in range(2, len(proper) + 1):
            for combo in itertools.combinations(proper, k):
                if not is_antichain(p, combo):
                    continue
                size = 1
                for c in combo:
                    size *= len(p.downset(c))
                if size != len(p.downset(x)):
                    continue
                if ref_interval_product_iso(p, combo, x):
                    decomposable = True
                    break
            if decomposable:
                break
        if not decomposable:
            out.add(x)
    return out


def ref_is_well_connected(p, members):
    members = list(members)
    mset = set(members)
    for k in range(2, len(members) + 1):
        for combo in itertools.combinations(members, k):
            if not is_antichain(p, combo):
                continue  # joins of non-antichains reduce to antichain joins
            join = p.join_set(combo)
            if len(join) >= 2 and not set(join) <= mset:
                return False
    return True


def ref_minimal_well_connected(p, members):
    current = set(members)
    while True:
        added = set()
        elems = sorted(current, key=_label_sort_key)
        for k in range(2, len(elems) + 1):
            for combo in itertools.combinations(elems, k):
                if not is_antichain(p, combo):
                    continue
                join = p.join_set(combo)
                if len(join) >= 2:
                    added |= set(join) - current
        if not added:
            break
        current |= added
    assert is_building_set(p, current)
    return current


def ref_is_nested(p, members_set, s, x):
    s = list(s)
    for k in range(2, len(s) + 1):
        for combo in itertools.combinations(s, k):
            if not is_antichain(p, combo):
                continue
            j = p.join_in_interval(combo, x)
            if j is None or j in members_set:
                return False
    return True


def ref_nested_sets(p, building):
    member_pos = {g: i for i, g in enumerate(building.order)}
    out = []
    members = list(building.order)
    for k in range(1, len(members) + 1):
        for s in itertools.combinations(members, k):
            sset = frozenset(s)
            for x in p.join_set(s):
                if ref_is_nested(p, building.members, s, x):
                    out.append(NestedSet(sset, x))
    out.sort(key=lambda ns: (len(ns.members), ns.key(member_pos)[0],
                             _label_sort_key(ns.x)))
    return out


def ref_blowup_poset(p, building):
    """The face poset of the nested sets and its projection, comparing
    every pair of faces: (T, y) <= (S, x) iff T is in S and y is the join
    of T in [0, x]."""
    member_pos = {g: i for i, g in enumerate(building.order)}
    faces = [NestedSet(frozenset(), p.zero), *nested_sets(p, building)]
    pairs = [(a.key(member_pos), b.key(member_pos))
             for a in faces for b in faces
             if a.members <= b.members
             and p.join_in_interval(list(a.members), b.x) == a.x]
    labels = [ns.key(member_pos) for ns in faces]
    ranks = {ns.key(member_pos): len(ns) for ns in faces}
    return RankedPoset(labels, ranks, pairs), {ns.key(member_pos): ns.x for ns in faces}


def ref_is_locally_boolean(bl):
    """Every face has 2^|S| faces below it, with distinct member sets, by
    the labels of each down-set and a set of their member sets."""
    for label in bl.poset.labels:
        down = bl.poset.downset(label)
        if len(down) != 1 << len(bl.nested_by_key[label].members):
            return False
        if len({bl.nested_by_key[d].members for d in down}) != len(down):
            return False
    return True


# -- comparisons -------------------------------------------------------------


def assert_same_poset(got, want):
    assert got.labels == want.labels
    assert [got.rank(x) for x in got.labels] == [want.rank(x) for x in want.labels]
    for x in want.labels:
        for y in want.labels:
            assert got.leq(x, y) == want.leq(x, y), (x, y)


def assert_blowups_agree(p):
    for center in p.labels:
        if center == p.zero:
            continue
        q, proj = blowup_at(p, center)
        ref_q, ref_proj = ref_blowup_at(p, center)
        assert_same_poset(q, ref_q)
        assert proj == ref_proj


BASE_POSETS = {
    "running": running_poset,
    "fig5": fig5_poset,
    "A(2,2)": lambda: poset_of_layers(a_n_c(2, 2)),
    "A(3,2)": lambda: poset_of_layers(a_n_c(3, 2)),
}


@pytest.mark.parametrize("name", BASE_POSETS)
def test_blowup_at_matches_reference_at_every_center(name):
    assert_blowups_agree(BASE_POSETS[name]())


@pytest.mark.parametrize("n, c", [(1, 3), (2, 2), (2, 5), (3, 2)])
def test_poset_of_layers_matches_reference_anc(n, c):
    arr = a_n_c(n, c)
    assert_same_poset(poset_of_layers(arr), ref_poset_of_layers(arr))


def blowup_outcome(blow_up, p, centers):
    """The poset's labels, ranks and up-masks with the decoding's items, in
    order, or the message of the error raised."""
    try:
        q, decode = blow_up(p, centers)
    except ValueError as exc:
        return str(exc)
    return q.labels, q.rank_list, q._up, list(decode.items())


def assert_iterated_blowups_agree(p, selector):
    building = make_building_set(p, select_building(p, selector))
    for order in linear_refinements(p, building.members, 2):
        got = blowup_outcome(iterated_blowup, p, order)
        assert not isinstance(got, str), got
        assert got == blowup_outcome(ref_iterated_blowup, p, order)


ITERATED_SELECTORS = {"running": ("min", "minwc", "max"), "A(2,2)": ("min", "max"),
                      "A(3,2)": ("min", "max"), "A(3,3)": ("max",), "A(4,2)": ("min",)}


@pytest.mark.parametrize("name", ITERATED_SELECTORS)
def test_iterated_blowup_matches_reference(name):
    n_c = {"A(3,3)": (3, 3), "A(4,2)": (4, 2)}.get(name)
    p = poset_of_layers(a_n_c(*n_c)) if n_c else BASE_POSETS[name]()
    for selector in ITERATED_SELECTORS[name]:
        assert_iterated_blowups_agree(p, selector)


def test_iterated_blowup_errors_match_reference():
    p = running_poset()
    x = next(x for x in p.labels if x != p.zero and len(p.upset(x)) > 1)
    above = next(y for y in p.upset(x) if y != x)
    for centers, message in [
            ([p.zero], "center must be an element above the minimum"),
            ([x, p.zero], "center must be an element above the minimum"),
            (["nowhere"], "center 'nowhere' was removed by an earlier blowup"),
            ([x, above], f"center {above!r} was removed by an earlier blowup")]:
        assert blowup_outcome(iterated_blowup, p, centers) == message
        assert blowup_outcome(ref_iterated_blowup, p, centers) == message
    for center in (p.zero, "nowhere"):
        with pytest.raises(ValueError, match="center must be an element above the minimum"):
            blowup_at(p, center)


def test_iterated_blowup_accepts_a_center_made_by_an_earlier_step():
    p = running_poset()
    x = next(x for x in p.labels if x != p.zero and len(p.upset(x)) > 1)
    made = [lab for lab in blowup_at(p, x)[0].labels if lab not in p.index]
    other = next(y for y in p.labels if y != p.zero and not p.leq(x, y))
    for centers in ([x, made[0]], [x, made[-1], other], [x, other, made[0]]):
        got = blowup_outcome(iterated_blowup, p, centers)
        assert got == blowup_outcome(ref_iterated_blowup, p, centers)
    assert not isinstance(blowup_outcome(iterated_blowup, p, [x, made[0]]), str)


def _layer_or_none(rank, rows, nums, q):
    try:
        return Layer.make(rank, rows, [Fraction(a, q) for a in nums])
    except ValueError:  # dependent rows or a disconnected subtorus
        return None


def subtori(rank, q, most=None):
    """Connected subtori of codimension 1 to ``most`` (rank - 1 if None)
    with phases a/q."""
    entries = st.integers(-2, 2)
    return st.integers(1, most or rank - 1).flatmap(lambda codim: st.builds(
        _layer_or_none, st.just(rank),
        st.lists(st.lists(entries, min_size=rank, max_size=rank),
                 min_size=codim, max_size=codim),
        st.lists(st.integers(0, q - 1), min_size=codim, max_size=codim),
        st.just(q))).filter(lambda k: k is not None)


@st.composite
def torsion_arrangements(draw):
    """Rank-2 and rank-3 arrangements with phases p/q, q <= 3."""
    rank = draw(st.sampled_from((2, 3)))
    q = draw(st.integers(1, 3))
    layers = draw(st.lists(subtori(rank, q), min_size=2,
                           max_size=4 if rank == 2 else 3))
    return ToricArrangement(rank, tuple(layers))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(torsion_arrangements())
def test_poset_of_layers_matches_reference_random(arr):
    p = poset_of_layers(arr)
    assert_same_poset(p, ref_poset_of_layers(arr))
    assert_blowups_agree(p)


@st.composite
def nesting_arrangements(draw):
    """Hypersurfaces in rank 2 or 3 with phases p/q, q <= 3, plus some
    components of their pairwise meets, all listed in shuffled order: many
    subtori lie in others, which is where the walk skips meets."""
    rank = draw(st.sampled_from((2, 3)))
    q = draw(st.integers(1, 3))
    surfaces = draw(st.lists(subtori(rank, q, 1), min_size=2,
                             max_size=4 if rank == 2 else 3))
    meets = sorted({c for a, b in itertools.combinations(surfaces, 2)
                    for c in ref_intersect(a, b)}, key=Layer.sort_key)
    extra = draw(st.lists(st.sampled_from(meets), max_size=3)) if meets else []
    return ToricArrangement(rank, tuple(draw(st.permutations(surfaces + extra))))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(nesting_arrangements())
def test_poset_of_layers_matches_reference_nesting(arr):
    p, met = recorded_meets(arr)
    assert_same_poset(p, ref_poset_of_layers(arr))
    assert_meets_follow_masks(arr, p, met)
    meets = {}
    for a, b in itertools.product(p.labels, repeat=2):
        assert intersect_layers(a, b, meets) == ref_intersect(a, b), (a, b)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(torsion_arrangements(), st.sampled_from(("min", "minwc", "max")), st.data())
def test_iterated_blowup_matches_reference_random(arr, selector, data):
    """Along building orders, and along any centers of p, removed ones and
    the minimum included, which must fail with the same message."""
    p = poset_of_layers(arr)
    assume(len(p) - 1 <= 16)
    assert_iterated_blowups_agree(p, selector)
    centers = data.draw(st.lists(st.sampled_from(p.labels), max_size=4))
    assert (blowup_outcome(iterated_blowup, p, centers)
            == blowup_outcome(ref_iterated_blowup, p, centers))


def assert_building_and_nested_sets_agree(p):
    minimal = minimal_building_set(p)
    assert minimal == ref_minimal_building_set(p)
    assert is_well_connected(p, minimal) == ref_is_well_connected(p, minimal)
    closure = minimal_well_connected(p, minimal)
    assert closure == ref_minimal_well_connected(p, minimal)
    everything = set(p.labels) - {p.zero}
    # the oracle's closure stops only once it is well-connected, and every
    # join lies in the maximal building set: the oracle says True on both
    assert is_well_connected(p, closure) and is_well_connected(p, everything)
    # min, minwc and max, each once: the closure is often all of max
    for members in dict.fromkeys(map(frozenset, (minimal, closure, everything))):
        building = make_building_set(p, members)
        assert nested_sets(p, building) == ref_nested_sets(p, building)


ANC_POSETS = {f"A({n},{c})": (lambda n=n, c=c: poset_of_layers(a_n_c(n, c)))
              for n, c in [(1, 3), (2, 3), (2, 5), (2, 8)]}


@pytest.mark.parametrize("name", [*BASE_POSETS, *ANC_POSETS])
def test_building_and_nested_sets_match_reference(name):
    assert_building_and_nested_sets_agree({**BASE_POSETS, **ANC_POSETS}[name]())


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(torsion_arrangements())
def test_building_and_nested_sets_match_reference_random(arr):
    p = poset_of_layers(arr)
    assume(len(p) - 1 <= 16)  # the oracles enumerate every subset of the members
    assert_building_and_nested_sets_agree(p)


@pytest.mark.parametrize("name", BASE_POSETS)
def test_nested_sets_match_reference_between_min_and_max(name):
    """Building sets with up to two elements beyond the minimal one: there
    a prefix can be nested at one join of its members and not at another."""
    p = BASE_POSETS[name]()
    minimal = minimal_building_set(p)
    rest = [x for x in p.labels if x != p.zero and x not in minimal]
    for k in range(3):
        for extra in itertools.combinations(rest, k):
            if is_building_set(p, minimal | set(extra)):
                building = make_building_set(p, minimal | set(extra))
                assert nested_sets(p, building) == ref_nested_sets(p, building)


@pytest.mark.parametrize("name, selector", [
    *((name, sel) for name in BASE_POSETS for sel in ("min", "max")),
    ("A(3,3)", "max")])
def test_nested_sets_closed_under_subsets(name, selector):
    """The fact the pruned search rests on: with (S, x) nested, each
    nonempty T in S is nested at its join in [0, x]."""
    p = poset_of_layers(a_n_c(3, 3)) if name == "A(3,3)" else BASE_POSETS[name]()
    members = minimal_building_set(p) if selector == "min" else set(p.labels) - {p.zero}
    for ns in nested_sets(p, make_building_set(p, members)):
        for k in range(1, len(ns.members)):
            for t in itertools.combinations(ns.members, k):
                y = p.join_in_interval(t, ns.x)
                assert y in p.join_set(t) and ref_is_nested(p, members, t, y), (ns, t)


def translates(rank, rows, q):
    """Every layer on the lattice of ``rows`` with phases a/q."""
    return [Layer.make(rank, rows, [Fraction(a, q) for a in nums])
            for nums in itertools.product(range(q), repeat=len(rows))]


@st.composite
def translate_arrangements(draw):
    """Two or three characters in rank 2 or 3, with entries in [-1, 1],
    each with every phase a/q, q in {2, 3}: many pairs of layers share a
    lattice.  Larger entries or codimension make the oracle take seconds."""
    rank = draw(st.sampled_from((2, 3)))
    q = draw(st.sampled_from((2, 3)))
    row = st.lists(st.integers(-1, 1), min_size=rank, max_size=rank)
    lattices = {Sublattice.from_rows(rank, [r]) for r in draw(
        st.lists(row.filter(any), min_size=2, max_size=3))}
    assume(len(lattices) >= 2)
    return ToricArrangement(rank, tuple(
        k for lat in sorted(lattices, key=lambda l: l.basis)
        for k in translates(rank, lat.basis, q)))


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(translate_arrangements())
def test_translates_match_reference(arr):
    # one dict across all pairs, as in poset_of_layers
    meets = {}
    layers = [Layer.whole_torus(arr.ambient_rank), *arr.subtori]
    for a in layers:
        for b in layers:
            assert arrangement.intersect_layers(a, b, meets) == ref_intersect(a, b)
    assert_same_poset(poset_of_layers(arr), ref_poset_of_layers(arr))


def recorded_meets(arr):
    """``poset_of_layers(arr)`` and its ``_components`` calls, in order, as
    (a, h, components) with every component a layer."""
    original = arrangement._components
    met = []

    def recording(a, h, *args):
        out = original(a, h, *args)
        met.append((a, h, [c if isinstance(c, Layer) else arrangement._layer(*c)
                           for c in out]))
        return out

    with mock.patch.object(arrangement, "_components", recording):
        return poset_of_layers(arr), met


def assert_meets_follow_masks(arr, p, met):
    """Each layer meets each subtorus at most once, and leaves out exactly
    the subtori the walk knows to contain it: a subtorus contains itself,
    and a component c of a ∩ h lies in h and in what contains a."""
    done = [(a, h) for a, h, _ in met]
    everything = {(a, h) for a in p.labels if a != p.zero for h in set(arr.subtori)}
    assert len(done) == len(set(done)) and set(done) <= everything
    assert all(layer_leq(h, a) for a, h in everything - set(done))
    known = {h: {h} for h in arr.subtori}
    for a, h, out in met:
        assert h not in known[a], (a, h)
        for c in out:
            if c.rank > a.rank:
                known[c] = known.get(c, set()) | known[a] | {h}
    assert all(h in known[a] for a, h in everything - set(done))


def test_each_layer_meets_each_subtorus_once(monkeypatch):
    original_meet, original_snf = arrangement._meet_lattices, arrangement.snf

    def counting_meet(l1, l2):
        smith.append(frozenset((l1, l2)))
        return original_meet(l1, l2)

    def counting_snf(*args, **kwargs):
        snf_calls.append(args)
        return original_snf(*args, **kwargs)

    monkeypatch.setattr(arrangement, "_meet_lattices", counting_meet)
    monkeypatch.setattr(arrangement, "snf", counting_snf)
    translate_heavy = ToricArrangement(3, tuple(
        translates(3, [[1, 0, 0]], 3) + translates(3, [[0, 1, 0]], 2)
        + translates(3, [[1, 1, 1]], 3) + translates(3, [[0, 1, 0], [0, 0, 1]], 2)))
    # (layer, subtorus) pairs, and the meets the masks leave of them
    for arr, pairs, made in ((a_n_c(3, 2), 39, 12), (translate_heavy, 756, 602)):
        smith, snf_calls = [], []
        p, met = recorded_meets(arr)
        assert_meets_follow_masks(arr, p, met)
        assert (len(p) - 1) * len(set(arr.subtori)) == pairs and len(met) == made
        # the Smith form runs at most once per unordered pair of distinct lattices
        assert len(snf_calls) == len(smith) == len(set(smith))
        assert set(smith) <= {frozenset((a.lattice, h.lattice))
                              for a, h, _ in met if a.lattice != h.lattice}


def _hypersurface(rank, row, phase=0):
    return Layer.make(rank, [row], [Fraction(phase)])


# a codimension-2 subtorus inside the first hypersurface, and one more
_INSIDE = (_hypersurface(3, [1, 1, 0], Fraction(1, 3)),
           Layer.make(3, [[1, 1, 0], [0, 1, -1]], [Fraction(1, 3), Fraction(1, 2)]),
           _hypersurface(3, [0, 0, 1]))

EDGE_ARRANGEMENTS = {
    "duplicated": ToricArrangement(3, (
        _hypersurface(3, [1, 0, 0]), _hypersurface(3, [0, 1, 0], Fraction(1, 2)),
        _hypersurface(3, [1, 0, 0]), _hypersurface(3, [1, 1, 1]))),
    "codim-2-inside-listed-after": ToricArrangement(3, _INSIDE),
    "codim-2-inside-listed-before": ToricArrangement(3, _INSIDE[::-1]),
    # translates of two subtori, one lattice inside the other: every
    # meet is a listed layer
    "parallel-translates": ToricArrangement(3, tuple(
        translates(3, [[1, -1, 0]], 3) + translates(3, [[1, -1, 0], [0, 1, 2]], 2))),
    "rank-1": ToricArrangement(1, (
        _hypersurface(1, [1], Fraction(1, 2)), _hypersurface(1, [1]),
        _hypersurface(1, [1], Fraction(1, 2)))),
}


@pytest.mark.parametrize("name", EDGE_ARRANGEMENTS)
def test_poset_of_layers_matches_reference_edge_cases(name):
    arr = EDGE_ARRANGEMENTS[name]
    p = poset_of_layers(arr)
    assert_same_poset(p, ref_poset_of_layers(arr))
    if name in ("parallel-translates", "rank-1"):
        assert set(p.labels) == {p.zero, *arr.subtori}


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(torsion_arrangements())
def test_intersection_is_symmetric(arr):
    meets = {}
    for a, b in itertools.combinations(poset_of_layers(arr).labels, 2):
        ab = arrangement.intersect_layers(a, b, meets)
        assert ab == arrangement.intersect_layers(b, a)
        assert ab == arrangement.intersect_layers(b, a, meets)


def assert_blowup_poset_agrees(p, selector):
    building = make_building_set(p, select_building(p, selector))
    bl = BlowupPoset(p, building)
    ref, ref_pi = ref_blowup_poset(p, building)
    assert_same_poset(bl.poset, ref)
    assert bl.poset.covers() == ref.covers()
    assert bl.covers == ref.covers()
    assert bl.pi == ref_pi
    assert bl.is_locally_boolean() == ref_is_locally_boolean(bl)


@pytest.mark.parametrize("name, selector", [
    *((name, sel) for name in BASE_POSETS for sel in ("min", "minwc", "max")),
    ("A(3,3)", "max"), ("A(4,2)", "min"), ("A(4,2)", "minwc"), ("A(4,2)", "max")])
def test_blowup_poset_matches_reference(name, selector):
    n_c = {"A(3,3)": (3, 3), "A(4,2)": (4, 2)}.get(name)
    p = poset_of_layers(a_n_c(*n_c)) if n_c else BASE_POSETS[name]()
    assert_blowup_poset_agrees(p, selector)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(torsion_arrangements(), st.sampled_from(("min", "minwc", "max")))
def test_blowup_poset_matches_reference_random(arr, selector):
    p = poset_of_layers(arr)
    assume(len(p) - 1 <= 16)
    assert_blowup_poset_agrees(p, selector)


def labelled_blowup(faces, relations):
    """A ``BlowupPoset`` over the faces (member positions, x), whose members
    are their positions, ordered by ``relations``."""
    bl = BlowupPoset.__new__(BlowupPoset)
    bl.nested_by_key = {face: NestedSet(frozenset(face[0]), face[1]) for face in faces}
    bl.poset = RankedPoset(faces, {face: len(face[0]) for face in faces}, relations)
    return bl


def test_locally_boolean_fails_on_a_missing_or_repeated_face():
    zero, a, b, a2, top = ((), "0"), ((0,), "a"), ((1,), "b"), ((0,), "a2"), ((0, 1), "t")
    square = [zero, a, b, top]
    below = [(zero, a), (zero, b), (a, top)]
    cases = [
        (labelled_blowup(square, below + [(b, top)]), True),
        # {1} is not below {0, 1}: three faces below it, not four
        (labelled_blowup(square, below), False),
        # four faces below {0, 1}, two of them with the member set {0}
        (labelled_blowup([zero, a, a2, top], [(zero, a), (zero, a2), (a, top), (a2, top)]),
         False),
    ]
    for bl, boolean in cases:
        assert bl.is_locally_boolean() == ref_is_locally_boolean(bl) == boolean


def test_missing_face_is_an_error(monkeypatch):
    """A face of a nested set that ``nested_sets`` did not list is raised,
    naming both faces, not skipped."""
    p = running_poset()
    building = make_building_set(p, minimal_building_set(p))
    faces = nested_sets(p, building)
    top = faces[-1]
    g = next(iter(top.members))
    rest = top.members - {g}
    dropped = NestedSet(rest, p.join_in_interval(list(rest), top.x))
    assert dropped in faces
    monkeypatch.setattr(poset_module, "nested_sets",
                        lambda *args: [ns for ns in faces if ns != dropped])
    member_pos = {h: i for i, h in enumerate(building.order)}
    with pytest.raises(AssertionError) as err:
        BlowupPoset(p, building)
    assert str(err.value) == (f"face {dropped.key(member_pos)!r} of the nested set "
                              f"{top.key(member_pos)!r} is not nested")


@st.composite
def strictly_ranked_relations(draw):
    """Labels, ranks and relation pairs (i, j) with rank(i) < rank(j): v0 of
    rank 0 and up to nine more elements of rank 1 to 4.  v0 is given below
    only the elements with nothing given below them, so the closure has to
    carry it under the rest."""
    n = draw(st.integers(1, 10))
    ranks = [0] + draw(st.lists(st.integers(1, 4), min_size=n - 1, max_size=n - 1))
    rising = [(i, j) for i in range(1, n) for j in range(1, n) if ranks[i] < ranks[j]]
    pairs = draw(st.lists(st.sampled_from(rising), unique=True)) if rising else []
    pairs += [(0, j) for j in range(1, n) if all(b != j for _, b in pairs)]
    return [f"v{i}" for i in range(n)], ranks, pairs


@settings(max_examples=200, deadline=None)
@given(strictly_ranked_relations(), st.data())
def test_one_pass_closure_matches_fixpoint(relations, data):
    labels, ranks, pairs = relations
    masks = [0] * len(labels)
    for i, j in pairs:
        masks[i] |= 1 << j
    want_up, want_down = ref_closed_masks([m | 1 << i for i, m in enumerate(masks)])
    members = data.draw(st.sets(st.sampled_from(labels)))
    for p in (RankedPoset(labels, dict(zip(labels, ranks)),
                          [(labels[i], labels[j]) for i, j in pairs]),
              RankedPoset._from_masks(labels, ranks, masks)):
        assert p._up == want_up and p._down == want_down
        assert default_order(p, members) == ref_default_order(p, members)


def antichains_below(p, x, most):
    """The antichains of (0, x) whose lower intervals' sizes multiply to at
    most ``most``."""
    inside = [y for y in p.downset(x) if y not in (p.zero, x)]

    def grow(start, chosen, product):
        yield chosen
        for k in range(start, len(inside)):
            y = inside[k]
            grown = product * len(p.downset(y))
            if grown <= most and not any(p.leq(y, c) or p.leq(c, y) for c in chosen):
                yield from grow(k + 1, chosen + (y,), grown)

    return grow(0, (), 1)


def assert_product_tests_agree(p):
    """The meet test against the oracle on the antichains of each (0, x)
    whose product is at most twice |[0, x]|, and on the factors of x in the
    min, minwc and max members.  A product larger than [0, x] can still
    give back every element as the join of its meets ({a, b} and {b, c} in
    the boolean lattice on a, b, c): only the size check rejects it."""
    members = [minimal_building_set(p), set(p.labels) - {p.zero}]
    members.append(minimal_well_connected(p, members[0]))
    for x in p.labels:
        if x == p.zero:
            continue
        cases = {frozenset(c) for c in antichains_below(p, x, 2 * len(p.downset(x)))}
        cases |= {frozenset(g_factors(p, m, x)) for m in members}
        for factors in cases:
            assert (_interval_product_iso(p, factors, x)
                    == ref_interval_product_iso(p, factors, x)), (x, factors)


def product_and_one_more_relation(labels):
    """[0, f] = {0, a, b, f} times [0, g] = {0, g}, and ag < bg besides: not
    a local lattice, and joining maps the product onto [0, x] but not
    isomorphically.  bg meets f in both a and b; with b taken for its meet
    every element is the join of its meets, so only the uniqueness of meets
    rejects {f, g}.  ``labels`` fixes which of a and b is listed first."""
    ranks = {"0": 0, "a": 1, "b": 2, "f": 3, "g": 1, "ag": 2, "bg": 3, "x": 4}
    covers = [("0", "a"), ("0", "b"), ("0", "g"), ("a", "f"), ("b", "f"),
              ("a", "ag"), ("g", "ag"), ("b", "bg"), ("ag", "bg"),
              ("f", "x"), ("bg", "x")]
    return RankedPoset(labels, ranks, covers)


PRODUCT_POSETS = {**BASE_POSETS, "three atoms, two tops": three_atoms_two_tops,
                  "boolean(3)": lambda: boolean_poset(3),
                  "A(3,3)": lambda: poset_of_layers(a_n_c(3, 3)),
                  "A(4,2)": lambda: poset_of_layers(a_n_c(4, 2)),
                  **{f"product and ag < bg, {a} first":
                     lambda a=a, b=b: product_and_one_more_relation(
                         ["0", a, b, "f", "g", "ag", "bg", "x"])
                     for a, b in ("ab", "ba")}}


@pytest.mark.parametrize("name", PRODUCT_POSETS)
def test_interval_product_matches_reference(name):
    assert_product_tests_agree(PRODUCT_POSETS[name]())


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(torsion_arrangements())
def test_interval_product_matches_reference_random(arr):
    p = poset_of_layers(arr)
    assume(len(p) - 1 <= 16)
    assert_product_tests_agree(p)
