import pytest

from wondertoric.fixtures import (
    boolean_poset,
    fig5_poset,
    running_named_layers,
    running_poset,
    three_atoms_two_tops,
)
from wondertoric.poset import (
    BuildingSet,
    RankedPoset,
    blowup_at,
    blowup_building,
    contraction,
    contraction_iso,
    default_order,
    deletion,
    g_factors,
    is_building_set,
    is_local_lattice,
    is_well_connected,
    iterated_blowup,
    linear_refinements,
    make_building_set,
    minimal_building_set,
    minimal_well_connected,
    nested_sets,
)


@pytest.fixture(scope="module")
def running():
    p = running_poset()
    named = running_named_layers()
    rev = {v: k for k, v in named.items()}
    order = tuple(named[n] for n in ("P1", "P2", "P3", "a", "b", "c"))
    g = make_building_set(p, order, order)
    return p, named, rev, g


def names_of(rev, xs):
    return sorted(rev[x] for x in xs)


def test_joins_meets(running):
    p, named, rev, _ = running
    assert names_of(rev, p.joins(named["a"], named["b"])) == ["L1", "L2", "L3"]
    assert p.joins(named["a"], named["L1"]) == [named["L1"]]
    assert names_of(rev, p.meets(named["L1"], named["L2"])) == ["a", "b"]
    # a and c join into the same three points as b and c
    assert set(p.joins(named["a"], named["c"])) == set(p.joins(named["b"], named["c"]))
    assert names_of(rev, p.joins(named["a"], named["c"])) == ["P1", "P2", "P3"]


def test_is_local_lattice():
    assert is_local_lattice(running_poset())
    assert is_local_lattice(fig5_poset())
    assert not is_local_lattice(three_atoms_two_tops())


def test_g_factors(running):
    p, named, rev, g = running
    assert names_of(rev, g_factors(p, g.members, named["L1"])) == ["a", "b"]
    assert names_of(rev, g_factors(p, g.members, named["P1"])) == ["P1"]
    assert names_of(rev, g_factors(p, g.members, named["c"])) == ["c"]


def test_is_building_set(running):
    p, named, rev, g = running
    assert is_building_set(p, g.members)
    assert is_building_set(p, g.members, geometric=True)
    assert not is_building_set(p, {named["a"]})
    everything = set(p.labels) - {p.zero}
    assert is_building_set(p, everything)


def test_minimal_building_set(running):
    p, named, rev, _ = running
    assert names_of(rev, minimal_building_set(p)) == ["P1", "P2", "P3", "a", "b", "c"]
    b2 = boolean_poset(2)
    atoms = {x for x in b2.labels if b2.rank(x) == 1}
    assert minimal_building_set(b2) == atoms


def test_well_connected(running):
    p, named, rev, g = running
    assert not is_well_connected(p, g.members)
    closure = minimal_well_connected(p, g.members)
    assert closure == set(p.labels) - {p.zero}
    assert len(closure) == 9


def test_nested_sets_match_face_labels(running):
    p, named, rev, g = running
    ns = nested_sets(p, g)
    assert len(ns) == 21
    got = {(frozenset(rev[m] for m in n.members), rev[n.x]) for n in ns}
    expected = set()
    for x in ("a", "b", "c", "P1", "P2", "P3"):
        expected.add((frozenset({x}), x))
    for i in "123":
        for y in ("a", "b", "c"):
            expected.add((frozenset({y, f"P{i}"}), f"P{i}"))
        expected.add((frozenset({"a", "b"}), f"L{i}"))
        expected.add((frozenset({"a", "b", f"P{i}"}), f"P{i}"))
    assert got == expected


def test_not_nested_pair(running):
    p, named, rev, g = running
    ns = nested_sets(p, g)
    members = {frozenset(rev[m] for m in n.members) for n in ns}
    assert frozenset({"a", "c"}) not in members


def test_blowup_poset_structure(running):
    p, named, rev, g = running
    bl = blowup_building(p, g)
    assert len(bl.poset) == 22
    assert bl.is_locally_boolean()
    atoms = [x for x in bl.poset.labels if bl.poset.rank(x) == 1]
    assert len(atoms) == 6
    # covers add exactly one member
    for x, y in bl.poset.covers():
        sx, sy = bl.nested(x).members, bl.nested(y).members
        assert sx < sy and len(sy - sx) == 1
    # projection is order preserving with rank |S|
    for lab in bl.poset.labels:
        assert bl.poset.rank(lab) == len(bl.nested(lab).members)


def test_blowup_empty_building(running):
    p, _, _, _ = running
    g0 = make_building_set(p, frozenset(), ())
    bl = blowup_building(p, g0)
    assert len(bl.poset) == 1


def test_blowup_at_b2():
    b2 = boolean_poset(2)
    top = frozenset({0, 1})
    q, proj = blowup_at(b2, top)
    assert len(q) == 6
    assert sum(1 for x in q.labels if isinstance(x, tuple) and len(x) == 4) == 3
    assert is_local_lattice(q)


def test_blowup_at_running_p1(running):
    p, named, rev, _ = running
    q, proj = blowup_at(p, named["P1"])
    new = [x for x in q.labels if isinstance(x, tuple) and len(x) == 4]
    # z ranges over elements not above P1 with P1 a minimal upper bound
    zs = names_of(rev, (t[2] for t in new))
    assert zs == ["0", "L1", "a", "b", "c"]
    assert is_local_lattice(q)


def test_blowup_at_preserves_local_lattice_everywhere():
    for p in (running_poset(), fig5_poset()):
        for x in p.labels:
            if x == p.zero:
                continue
            q, _ = blowup_at(p, x)
            assert is_local_lattice(q)


def test_blowup_at_rejects_zero():
    p = running_poset()
    with pytest.raises(ValueError):
        blowup_at(p, p.zero)


def test_iterated_blowup_order_invariance(running):
    p, named, rev, g = running
    bl = blowup_building(p, g)
    face = {(n.members, n.x) for n in nested_sets(p, g)}
    face.add((frozenset(), p.zero))
    refinements = linear_refinements(p, g.members, 3)
    assert len(refinements) == 3
    for order in refinements:
        q, decode = iterated_blowup(p, order)
        assert len(q) == len(face)
        decoded = {(s, x) for s, x in decode.values()}
        assert decoded == face
        # decoding is an order isomorphism onto the face poset
        for u in q.labels:
            for v in q.labels:
                su, xu = decode[u]
                sv, xv = decode[v]
                ku = (tuple(sorted(bl.member_pos[m] for m in su)), xu)
                kv = (tuple(sorted(bl.member_pos[m] for m in sv)), xv)
                assert q.leq(u, v) == bl.poset.leq(ku, kv)


def test_contraction(running):
    p, named, rev, g = running
    q, gc = contraction(p, g, named["c"])
    assert len(q) == 4
    assert names_of(rev, gc.members) == ["P1", "P2", "P3"]
    assert q.rank(named["P1"]) == 1
    assert is_building_set(q, gc.members)
    # maximal element contracts to a point
    qq, gq = contraction(p, g, named["P1"])
    assert len(qq) == 1 and not gq.members
    qa, ga = contraction(p, g, named["a"])
    assert names_of(rev, qa.labels) == ["L1", "L2", "L3", "P1", "P2", "P3", "a"]
    assert names_of(rev, ga.members) == ["L1", "L2", "L3", "P1", "P2", "P3"]


def test_contraction_iso(running):
    p, named, rev, g = running
    bl = blowup_building(p, g)
    q, gc = contraction(p, g, named["c"])
    blc = blowup_building(q, gc)
    s_nested = bl.nested_by_key[((5,), named["c"])]
    assert s_nested.members == frozenset({named["c"]})
    fwd = contraction_iso(p, g, bl, s_nested, blc)
    assert len(fwd) == 4 == len(blc.poset)


def test_deletion(running):
    p, named, rev, g = running
    q, gd = deletion(p, g)
    assert g.last == named["c"]
    assert names_of(rev, q.labels) == ["0", "L1", "L2", "L3", "P1", "P2", "P3", "a", "b"]
    assert names_of(rev, gd.members) == ["P1", "P2", "P3", "a", "b"]
    assert is_building_set(q, gd.members)


def test_deletion_of_p3(running):
    # P3 is a factor only of itself, so deleting it removes just P3
    p, named, rev, g = running
    q, gd = deletion(p, g, member=named["P3"])
    assert names_of(rev, q.labels) == ["0", "L1", "L2", "L3", "P1", "P2", "a", "b", "c"]
    assert is_building_set(q, gd.members)


def test_deletion_single_divisor():
    labels = ["0", "H"]
    p = RankedPoset(labels, {"0": 0, "H": 1}, [("0", "H")])
    g = make_building_set(p, {"H"})
    q, gd = deletion(p, g)
    assert list(q.labels) == ["0"]
    assert not gd.members


def test_default_order_refines_opposite(running):
    p, named, rev, g = running
    order = default_order(p, g.members)
    for i, x in enumerate(order):
        for y in order[i + 1:]:
            assert not p.lt(x, y)
    assert order[-1] in (named["a"], named["b"])


def test_building_set_order_validation(running):
    p, named, _, _ = running
    bad = (named["a"], named["P1"])  # a < P1 cannot come first
    with pytest.raises(ValueError):
        make_building_set(p, set(bad), bad)


def test_a1c_already_well_connected():
    from wondertoric.arrangement import poset_of_layers
    from wondertoric.fixtures import a_n_c

    p = poset_of_layers(a_n_c(1, 3))
    minimal = minimal_building_set(p)
    assert len(minimal) == 1
    assert is_well_connected(p, minimal)
    assert minimal_well_connected(p, minimal) == minimal


@pytest.mark.parametrize("labels, ranks, pairs, error", [
    (["0", "x", "y"], {"0": 0, "x": 1, "y": 1},
     [("0", "x"), ("x", "y"), ("y", "x")], "not strictly monotone"),
    (["0", "1", "x"], {"0": 0, "1": 0, "x": 1}, [("0", "x"), ("1", "x")],
     "unique minimum"),
    (["0", "x"], {"0": 1, "x": 2}, [("0", "x")], "minimum must have rank 0"),
    (["0", "x", "y"], {"0": 0, "x": 2, "y": 1}, [("0", "x"), ("x", "y")],
     "not strictly monotone: x < y"),
    (["0", "x", "x"], {"0": 0, "x": 1}, [("0", "x")], "duplicate labels"),
    # x <= y <= z <= x is a cycle only after the transitive closure
    (["0", "x", "y", "z"], {"0": 0, "x": 1, "y": 1, "z": 1},
     [("0", "x"), ("x", "y"), ("y", "z"), ("z", "x")], "not strictly monotone"),
    # a partial order, but its rank does not rise from x to y
    (["0", "x", "y"], {"0": 0, "x": 1, "y": 1}, [("0", "x"), ("x", "y")],
     "not strictly monotone: x < y"),
], ids=["2-cycle", "two-minima", "minimum-rank", "non-monotone", "duplicates",
        "3-cycle", "equal-ranks"])
def test_ranked_poset_rejects(labels, ranks, pairs, error):
    with pytest.raises(ValueError, match=error):
        RankedPoset(labels, ranks, pairs)
