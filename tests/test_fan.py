import itertools

import pytest

from wondertoric.arrangement import poset_of_layers
from wondertoric.fan import (
    check_pseudomanifold,
    coverage_probe,
    equal_sign_search,
    interior_condition,
    is_smooth,
    make_fan,
    restrict_fan,
)
from wondertoric.fixtures import a22_fan, a_n_c, running_fan, running_named_layers
from wondertoric.intlinalg import Sublattice


@pytest.fixture(scope="module")
def fan():
    return running_fan()


@pytest.fixture(scope="module")
def named():
    return running_named_layers()


def test_running_fan_smooth(fan):
    assert fan.nrays == 14
    assert len(fan.max_cones) == 24
    assert is_smooth(fan)


def test_a22_fan_smooth():
    f = a22_fan()
    assert is_smooth(f)
    assert coverage_probe(f, samples=100)


def test_non_smooth_cone():
    # rays (3,2,3) and (0,1,0) span a cone that is not part of any basis
    f = make_fan(3, [(3, 2, 3), (0, 1, 0)], [frozenset({0, 1})])
    assert not is_smooth(f)


def test_single_ray_fan_smooth():
    assert is_smooth(make_fan(2, [(1, 0)], [frozenset({0})]))


def test_restrict_to_c(fan, named):
    sub = restrict_fan(fan, named["c"].lattice)
    assert set(sub.rays) == {(3, 2, 3), (-3, -2, -3)}
    assert all(len(c) == 1 for c in sub.max_cones)
    assert len(sub.max_cones) == 2
    assert is_smooth(sub)


def test_restrict_to_point_is_trivial(fan, named):
    sub = restrict_fan(fan, named["P1"].lattice)
    assert sub.nrays == 0
    assert not sub.max_cones


def test_restrict_to_a(fan, named):
    sub = restrict_fan(fan, named["a"].lattice)
    assert set(sub.rays) == {(0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)}
    assert len(sub.max_cones) == 4
    assert is_smooth(sub)
    # idempotent under repeated restriction
    again = restrict_fan(sub, named["a"].lattice)
    assert set(again.rays) == set(sub.rays)
    assert len(again.max_cones) == len(sub.max_cones)


def test_restrict_smooth_for_all_layers(fan, named):
    for name, layer in named.items():
        if name == "0":
            continue
        assert is_smooth(restrict_fan(fan, layer.lattice)), name


def test_minimal_nonfaces_running(fan):
    nf = fan.minimal_nonfaces()
    assert all(len(s) == 2 for s in nf)
    assert len(nf) == 14 * 13 // 2 - 36


def enumerated_nonfaces(fan):
    """Every ray set of 2 up to one more than the largest cone's size, kept
    when it is no face and holds none of those kept before it."""
    faces = fan.cones()
    found = []
    for k in range(2, max((len(c) for c in fan.max_cones), default=1) + 2):
        for combo in itertools.combinations(range(fan.nrays), k):
            s = frozenset(combo)
            if s not in faces and not any(nf <= s for nf in found):
                found.append(s)
    found.sort(key=lambda s: (len(s), sorted(s)))
    return found


def restricted_fans():
    for fan, arr in ((running_fan(), None), (a22_fan(), a_n_c(2, 2))):
        layers = (running_named_layers().values() if arr is None
                  else poset_of_layers(arr).labels)
        for layer in layers:
            yield restrict_fan(fan, layer.lattice)


def test_minimal_nonfaces_match_enumeration():
    # an empty triangle: the nonface {0, 1, 2} has every pair as a face
    hollow = make_fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
                      [{0, 1}, {1, 2}, {0, 2}, {0, 3}])
    # a ray in no cone: every pair holding it is a nonface, beside {0, 1, 2}
    unused = make_fan(2, [(1, 0), (0, 1), (-1, -1), (1, 1)],
                      [{0, 1}, {1, 2}, {0, 2}])
    fans = [running_fan(), a22_fan(), hollow, unused, *restricted_fans()]
    for fan in fans:
        assert fan.minimal_nonfaces() == enumerated_nonfaces(fan)
    assert frozenset({0, 1, 2}) in hollow.minimal_nonfaces()
    assert len(unused.minimal_nonfaces()) == 4


def test_complete_fans_are_pseudomanifolds():
    for fan in (running_fan(), a22_fan(), *restricted_fans()):
        check_pseudomanifold(fan)


def test_fan_with_a_cone_removed_is_no_pseudomanifold():
    for fan in (running_fan(), a22_fan()):
        holed = make_fan(fan.ambient_rank, fan.rays, fan.max_cones[1:])
        with pytest.raises(ValueError, match=r"facet \[.*\] should lie in 2 "
                           "maximal cones, but lies in 1"):
            check_pseudomanifold(holed)


def test_fan_with_an_overlapping_or_short_cone_or_a_stray_ray_is_no_pseudomanifold():
    fan = a22_fan()
    rays = fan.rays + ((1, 1),)
    # (1, 1) lies inside the cone of (0, 1) and (1, 0), rays 0 and 7
    overlap = make_fan(2, rays, [*fan.max_cones, {0, 8}, {7, 8}])
    with pytest.raises(ValueError, match=r"facet \[0\] should lie in 2 "
                       "maximal cones, but lies in 3"):
        check_pseudomanifold(overlap)
    short = make_fan(2, fan.rays, [*fan.max_cones, {0}])
    with pytest.raises(ValueError, match=r"maximal cone \[0\] has 1 rays, not 2"):
        check_pseudomanifold(short)
    with pytest.raises(ValueError, match="no maximal cones"):
        check_pseudomanifold(make_fan(2, fan.rays, []))
    # once read as a fan with one more ray: Betti [1, 7, 1], verified
    with pytest.raises(ValueError, match=r"ray 8 \[1, 1\] lies in no maximal cone"):
        check_pseudomanifold(make_fan(2, rays, fan.max_cones))


def test_interior_condition_running(fan, named):
    for name, layer in named.items():
        if name == "0":
            continue
        assert interior_condition(fan, layer.lattice), name


def test_interior_condition_violation():
    f = make_fan(2, [(1, 1), (1, -1)], [frozenset({0, 1})])
    gamma = Sublattice.from_rows(2, [[0, 1]])
    # the open cone contains (1, 0) which annihilates gamma, rays do not
    assert not interior_condition(f, gamma)


def test_interior_condition_full_lattice(fan):
    assert interior_condition(fan, Sublattice.full(3))


def test_equal_sign_examples(named):
    res = equal_sign_search(named["a"].lattice, [(1, 1, 1), (2, 1, 2)])
    assert res.found and res.basis == ((1, 0, 0),)
    res0 = equal_sign_search(Sublattice.zero(3), [(1, 1, 1)])
    assert res0.found and res0.basis == ()
    resb = equal_sign_search(named["b"].lattice, [(3, 1, 3), (0, 1, 0)])
    assert resb.found and resb.basis == ((1, -3, 0),)


def test_equal_sign_refuted_rank_one():
    gamma = Sublattice.from_rows(2, [[1, 0]])
    res = equal_sign_search(gamma, [(1, 1), (-1, 1)])
    assert res.status == "refuted"


def test_equal_sign_every_layer_every_cone(fan, named):
    # equal-sign success implies the interior condition; check no fixture
    # cone ever refutes it outright
    for name, layer in named.items():
        if name == "0":
            continue
        for cone in fan.max_cones:
            rays = [fan.rays[i] for i in cone]
            res = equal_sign_search(layer.lattice, rays, bound=1)
            assert res.status != "refuted", (name, sorted(cone))


def test_make_fan_validation():
    with pytest.raises(ValueError):
        make_fan(2, [(2, 0)], [frozenset({0})])  # not primitive
    with pytest.raises(ValueError):
        make_fan(2, [(1, 0), (-1, 0)], [frozenset({0, 1})])  # dependent cone
    with pytest.raises(ValueError):
        make_fan(2, [(1, 0)], [frozenset({1})])  # missing ray index


def test_make_fan_rejects_a_repeated_ray_index():
    # [0, 0] is not the one-ray cone {0}
    with pytest.raises(ValueError, match=r"maximal cone \[0, 0\] repeats a ray index"):
        make_fan(2, [(1, 0), (0, 1)], [[0, 0], [0, 1]])


def test_running_fan_coverage_probe(fan):
    # debug-only completeness probe; non-authoritative but should hold here
    from wondertoric.fan import coverage_probe

    assert coverage_probe(fan, samples=60, seed=1)
