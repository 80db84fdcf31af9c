"""Differential tests of the layer and blowup core against reference oracles.

The oracles below are the straightforward versions of ``poset_of_layers``
and ``blowup_at``: the poset of layers intersects every ordered pair of
layers (the whole torus included), computes phases one ``Fraction``
product at a time and lists every order pair by label; the blowup builds
its order as a list of label pairs.  The library's versions work on
cached hashes, integer indices and bitmasks, and must give the same
labels, in the same order, with the same ranks and the same order.

The building-set and nested-set oracles enumerate every subset and then
filter it; the library grows sets depth-first and cuts a branch as soon
as it fails, and must give the same sets, nested sets in the same order.
The blowup-poset oracle compares every pair of faces; the library orders
the faces by their facets alone.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from wondertoric import arrangement
from wondertoric import poset as poset_module
from wondertoric.arrangement import Layer, ToricArrangement, poset_of_layers
from wondertoric.fixtures import a_n_c, fig5_poset, running_poset
from wondertoric.intlinalg import Sublattice, hnf, is_saturated, snf
from wondertoric.poset import (
    _BLOWN,
    BlowupPoset,
    NestedSet,
    RankedPoset,
    _interval_product_iso,
    _label_sort_key,
    blowup_at,
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


def is_antichain(p, combo):
    return not any(p.lt(a, b) or p.lt(b, a)
                   for a, b in itertools.combinations(combo, 2))


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
                if _interval_product_iso(p, combo, x):
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


@pytest.mark.parametrize("name", ["running", "A(3,2)"])
def test_iterated_blowup_matches_reference(name, monkeypatch):
    p = BASE_POSETS[name]()
    building = make_building_set(p, minimal_building_set(p))
    for order in linear_refinements(p, building.members, 2):
        q, decode = iterated_blowup(p, order)
        monkeypatch.setattr(poset_module, "blowup_at", ref_blowup_at)
        ref_q, ref_decode = iterated_blowup(p, order)
        monkeypatch.undo()
        assert_same_poset(q, ref_q)
        assert decode == ref_decode


def _layer_or_none(rank, rows, nums, q):
    try:
        return Layer.make(rank, rows, [Fraction(a, q) for a in nums])
    except ValueError:  # dependent rows or a disconnected subtorus
        return None


def subtori(rank, q):
    """Connected subtori of codimension 1 to rank - 1 with phases a/q."""
    entries = st.integers(-2, 2)
    return st.integers(1, rank - 1).flatmap(lambda codim: st.builds(
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


def test_each_unordered_pair_intersected_once(monkeypatch):
    original_intersect, original_snf = arrangement.intersect_layers, arrangement.snf

    def counting(a, b, *args):
        met.append(frozenset((a, b)))
        if a.lattice != b.lattice:
            lattice_pairs.add((a.lattice, b.lattice))
        return original_intersect(a, b, *args)

    def counting_snf(rows, *args, **kwargs):
        smith.append(tuple(rows))
        return original_snf(rows, *args, **kwargs)

    monkeypatch.setattr(arrangement, "intersect_layers", counting)
    monkeypatch.setattr(arrangement, "snf", counting_snf)
    translate_heavy = ToricArrangement(3, tuple(
        translates(3, [[1, 0, 0]], 3) + translates(3, [[0, 1, 0]], 2)
        + translates(3, [[1, 1, 1]], 3) + translates(3, [[0, 1, 0], [0, 0, 1]], 2)))
    for arr in (a_n_c(3, 2), translate_heavy):
        met, lattice_pairs, smith = [], set(), []
        p = poset_of_layers(arr)
        layers = [x for x in p.labels if x != p.zero]
        assert len(met) == len(set(met))
        assert set(met) == {frozenset(pair) for pair in itertools.combinations(layers, 2)}
        # the Smith form runs at most once per ordered pair of distinct lattices
        assert len(smith) == len(set(smith)) <= len(lattice_pairs)


def assert_blowup_poset_agrees(p, selector):
    building = make_building_set(p, select_building(p, selector))
    bl = BlowupPoset(p, building)
    ref, ref_pi = ref_blowup_poset(p, building)
    assert_same_poset(bl.poset, ref)
    assert bl.poset.covers() == ref.covers()
    assert bl.pi == ref_pi


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
