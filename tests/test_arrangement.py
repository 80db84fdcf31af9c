from fractions import Fraction

import pytest

from wondertoric.arrangement import (
    Layer,
    ToricArrangement,
    intersect_layers,
    layer_leq,
    poset_of_layers,
)
from wondertoric.fixtures import a_n_c, running_arrangement, running_named_layers
from wondertoric.intlinalg import saturate
from wondertoric.poset import is_local_lattice

from test_reference import ref_phase_of


def test_layer_canonical_form():
    k1 = Layer.make(3, [[1, 1, 0], [0, 1, 0]], [Fraction(1, 2), Fraction(1, 3)])
    k2 = Layer.make(3, [[0, 1, 0], [1, 0, 0]], [Fraction(1, 3), Fraction(1, 6)])
    assert k1 == k2
    assert k1.lattice.basis == ((1, 0, 0), (0, 1, 0))
    assert k1.phase == (Fraction(1, 6), Fraction(1, 3))


def test_layer_rejects_unsaturated():
    with pytest.raises(ValueError):
        Layer.make(2, [[2, 0]], [0])


def test_every_layer_lattice_saturated():
    named = running_named_layers()
    for k in named.values():
        assert saturate(k.lattice) == k.lattice


def test_intersect_a_b():
    named = running_named_layers()
    comps = intersect_layers(named["a"], named["b"])
    assert len(comps) == 3
    assert {c.lattice.basis for c in comps} == {((1, 0, 0), (0, 1, 0))}
    phases = sorted(c.phase[1] for c in comps)
    assert phases == [Fraction(0), Fraction(1, 3), Fraction(2, 3)]
    assert set(comps) == {named["L1"], named["L2"], named["L3"]}


def test_intersect_idempotent():
    named = running_named_layers()
    assert intersect_layers(named["a"], named["a"]) == [named["a"]]


def test_intersect_inconsistent_phases():
    k1 = Layer.make(1, [[1]], [Fraction(0)])
    k2 = Layer.make(1, [[1]], [Fraction(1, 2)])
    assert intersect_layers(k1, k2) == []


def test_intersect_symmetric():
    named = running_named_layers()
    ab = intersect_layers(named["a"], named["b"])
    ba = intersect_layers(named["b"], named["a"])
    assert ab == ba


def test_intersect_a_c_equals_b_c():
    named = running_named_layers()
    ac = intersect_layers(named["a"], named["c"])
    bc = intersect_layers(named["b"], named["c"])
    assert set(ac) == set(bc) == {named["P1"], named["P2"], named["P3"]}


def test_poset_of_layers_running():
    p = poset_of_layers(running_arrangement())
    assert len(p) == 10
    ranks = sorted(p.rank(x) for x in p.labels if x != p.zero)
    assert ranks == [1, 1, 2, 2, 2, 2, 3, 3, 3]
    assert is_local_lattice(p)


def test_poset_of_layers_covers_running():
    p = poset_of_layers(running_arrangement())
    named = running_named_layers()
    rev = {v: k for k, v in named.items()}
    got = {(rev[x], rev[y]) for x, y in p.covers()}
    expected = {("0", "a"), ("0", "b"), ("0", "c")}
    for i in "123":
        expected |= {("a", f"L{i}"), ("b", f"L{i}"),
                     (f"L{i}", f"P{i}"), ("c", f"P{i}")}
    assert got == expected


def test_poset_of_layers_a22():
    p = poset_of_layers(a_n_c(2, 2))
    assert len(p) == 5
    assert sorted(p.rank(x) for x in p.labels) == [0, 1, 1, 2, 2]


def test_poset_single_subtorus():
    k = Layer.make(2, [[1, 0]], [0])
    p = poset_of_layers(ToricArrangement(2, (k,), ("H",)))
    assert len(p) == 2


def test_layer_leq():
    named = running_named_layers()
    assert layer_leq(named["a"], named["L1"])
    assert layer_leq(named["L2"], named["P2"])
    assert not layer_leq(named["L1"], named["P2"])
    assert not layer_leq(named["c"], named["L1"])


def test_ambient_rank_mismatch_raises():
    line = Layer.make(2, [[1, 0]], [0])
    # equal but for the padding column
    plane = Layer.make(3, [[1, 0, 0]], [0])
    for a, b in [(Layer.whole_torus(2), Layer.whole_torus(3)), (line, plane),
                 (line, Layer.whole_torus(3)), (Layer.whole_torus(2), plane)]:
        for k1, k2 in [(a, b), (b, a)]:
            with pytest.raises(ValueError, match="ambient rank"):
                intersect_layers(k1, k2)
            with pytest.raises(ValueError, match="ambient rank"):
                layer_leq(k1, k2)


def test_phase_of():
    named = running_named_layers()
    assert ref_phase_of(named["L2"], [0, 1, 0]) == Fraction(1, 3)
    assert ref_phase_of(named["L2"], [0, 3, 0]) == 0
    assert ref_phase_of(named["a"], [0, 1, 0]) is None


def test_layer_hash_ignores_generating_rows():
    r1, r2 = [1, 2, 0], [0, 1, 1]
    a, b = Fraction(1, 2), Fraction(1, 3)
    k1 = Layer.make(3, [r1, r2], [a, b])
    k2 = Layer.make(3, [r1, [x + y for x, y in zip(r1, r2)]], [a, a + b])
    assert k1 == k2 and k1 is not k2
    assert hash(k1) == hash(k2)
    assert len({k1, k2}) == 1


def test_layer_hash_survives_pickle_and_deepcopy():
    import copy
    import pickle

    k = running_named_layers()["L2"]
    for twin in (pickle.loads(pickle.dumps(k)), copy.deepcopy(k)):
        assert twin == k and hash(twin) == hash(k)
        assert {k: "L2"}[twin] == "L2"


def test_layer_surface_unchanged():
    import dataclasses

    k = running_named_layers()["L2"]
    assert [f.name for f in dataclasses.fields(Layer)] == ["lattice", "phase"]
    assert repr(k) == "K[1,0,0;0,1,0|0,1/3]"
    assert k.sort_key() == (2, ((1, 0, 0), (0, 1, 0)), ((0, 1), (1, 3)))
