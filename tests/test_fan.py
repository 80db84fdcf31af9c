import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wondertoric.arrangement import poset_of_layers
from wondertoric.fan import (
    check_fan,
    check_pseudomanifold,
    equal_sign,
    interior_condition,
    make_fan,
    restrict_fan,
)
from wondertoric.fixtures import (
    a22_fan,
    a_n_c,
    running_arrangement,
    running_fan,
    running_named_layers,
)
from wondertoric.intlinalg import Sublattice


@pytest.fixture(scope="module")
def fan():
    return running_fan()


@pytest.fixture(scope="module")
def named():
    return running_named_layers()


def test_running_fan_smooth(fan):
    # check_fan runs in test_complete_fans_are_pseudomanifolds
    assert fan.nrays == 14
    assert len(fan.max_cones) == 24


def test_non_smooth_cone():
    # the fan of the weighted projective space P(1, 1, 2, 1): complete,
    # since e1 + e2 + 2*e3 + (-1, -1, -2) = 0, but the cone of e1, e2 and
    # (-1, -1, -2) has determinant 2
    f = make_fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -2)],
                 [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])
    check_pseudomanifold(f)
    with pytest.raises(ValueError, match=r"maximal cone \[0, 1, 3\] is not smooth"):
        check_fan(f)


def test_single_ray_fan_smooth():
    # the fan of the projective line: two opposite rays, each a maximal cone
    check_fan(make_fan(1, [(1,), (-1,)], [frozenset({0}), frozenset({1})]))


def test_restrict_to_c(fan, named):
    sub = restrict_fan(fan, named["c"].lattice)
    assert set(sub.rays) == {(3, 2, 3), (-3, -2, -3)}
    assert all(len(c) == 1 for c in sub.max_cones)
    assert len(sub.max_cones) == 2
    check_fan(sub)


def test_restrict_to_point_is_trivial(fan, named):
    sub = restrict_fan(fan, named["P1"].lattice)
    assert sub.nrays == 0
    assert not sub.max_cones


def test_restrict_to_a(fan, named):
    sub = restrict_fan(fan, named["a"].lattice)
    assert set(sub.rays) == {(0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)}
    assert len(sub.max_cones) == 4
    check_fan(sub)
    # idempotent under repeated restriction
    again = restrict_fan(sub, named["a"].lattice)
    assert set(again.rays) == set(sub.rays)
    assert len(again.max_cones) == len(sub.max_cones)


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
    fans = [running_fan(), a22_fan(), *restricted_fans()]
    assert any(fan.lattice.rank == 0 for fan in fans)
    for fan in fans:
        check_pseudomanifold(fan)
        check_fan(fan)


# the cones of {+-e1, +-e2} and those of {+-(2, 1), +-(1, 1)}: smooth, and
# each facet lies between two cones on its two sides, but the plane is
# covered twice
WINDING_TWO = ([(1, 0), (0, 1), (-1, 0), (0, -1), (2, 1), (1, 1), (-2, -1), (-1, -1)],
               [[0, 1], [1, 2], [2, 3], [3, 0], [4, 5], [5, 6], [6, 7], [7, 4]])


def test_check_fan_rejects_a_fold():
    # smooth and a pseudomanifold, but (1, 1) folds back over the cone of
    # (1, 0) and (0, 1): its two cones on facet [1] lie on one side of it
    fold = make_fan(2, [(1, 0), (0, 1), (1, 1)], [[0, 1], [1, 2], [2, 0]])
    check_pseudomanifold(fold)
    with pytest.raises(ValueError, match=r"the maximal cones on facet \[1\] "
                       "lie on one side of it"):
        check_fan(fold)


def test_check_fan_rejects_a_fan_that_winds_twice():
    winding = make_fan(2, *WINDING_TWO)
    check_pseudomanifold(winding)
    with pytest.raises(ValueError, match=r"the point \[1, 2\] lies in 2 maximal "
                       r"cones \[\[0, 1\], \[5, 6\]\]: the fan is not complete"):
        check_fan(winding)


def test_check_fan_names_a_cone_that_is_not_smooth():
    # complete, with one cone of determinant 2
    fan = make_fan(2, [(1, 0), (1, 2), (0, 1), (-1, 0), (0, -1)],
                   [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]])
    check_pseudomanifold(fan)
    with pytest.raises(ValueError, match=r"maximal cone \[0, 1\] is not smooth"):
        check_fan(fan)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["running", "a22"]), st.randoms(use_true_random=False))
def test_check_fan_ignores_the_ray_order(which, rng):
    fan = running_fan() if which == "running" else a22_fan()
    perm = list(range(fan.nrays))
    rng.shuffle(perm)
    rays = [None] * fan.nrays
    for old, new in enumerate(perm):
        rays[new] = fan.rays[old]
    cones = [{perm[i] for i in c} for c in fan.max_cones]
    rng.shuffle(cones)
    check_fan(make_fan(fan.ambient_rank, rays, cones))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["running", "a22"]), st.data())
def test_check_fan_rejects_a_fan_missing_a_cone(which, data):
    fan = running_fan() if which == "running" else a22_fan()
    k = data.draw(st.integers(0, len(fan.max_cones) - 1))
    cones = fan.max_cones[:k] + fan.max_cones[k + 1:]
    with pytest.raises(ValueError):
        check_fan(make_fan(fan.ambient_rank, fan.rays, cones))


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
    assert equal_sign(named["a"].lattice, [(1, 1, 1), (2, 1, 2)])
    assert equal_sign(Sublattice.zero(3), [(1, 1, 1)])
    assert equal_sign(named["b"].lattice, [(3, 1, 3), (0, 1, 0)])


def test_equal_sign_refuted_rank_one():
    gamma = Sublattice.from_rows(2, [[1, 0]])
    assert not equal_sign(gamma, [(1, 1), (-1, 1)])


def test_equal_sign_every_layer_every_cone():
    for fan, arr in ((running_fan(), running_arrangement()), (a22_fan(), a_n_c(2, 2))):
        for layer in poset_of_layers(arr).labels:
            for cone in fan.max_cones:
                rays = [fan.rays[i] for i in cone]
                assert equal_sign(layer.lattice, rays), (layer, sorted(cone))


def _single_signed(chi, rays) -> bool:
    vals = [sum(x * y for x, y in zip(chi, r)) for r in rays]
    return all(v >= 0 for v in vals) or all(v <= 0 for v in vals)


vectors3 = st.lists(st.integers(-3, 3), min_size=3, max_size=3)


@settings(max_examples=200, deadline=None)
@given(vectors3.filter(any), st.lists(vectors3, min_size=1, max_size=4))
def test_equal_sign_in_rank_one_is_single_signedness(chi, rays):
    gamma = Sublattice.from_rows(3, [chi])
    assert equal_sign(gamma, rays) == _single_signed(gamma.basis[0], rays)


@settings(max_examples=60, deadline=None)
@given(vectors3, vectors3, st.lists(vectors3, min_size=1, max_size=4))
def test_equal_sign_holds_where_a_bounded_search_finds_a_basis(v, w, rays):
    try:
        gamma = Sublattice.from_rows(3, [v, w])
    except ValueError:
        return  # v and w are dependent
    b = gamma.basis
    for u in itertools.product(range(-2, 3), repeat=4):
        if u[0] * u[3] - u[1] * u[2] not in (1, -1):
            continue
        basis = [[u[0] * x + u[1] * y for x, y in zip(*b)],
                 [u[2] * x + u[3] * y for x, y in zip(*b)]]
        if all(_single_signed(chi, rays) for chi in basis):
            assert equal_sign(gamma, rays), (b, rays, basis)
            return


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
    check_fan(fan)
