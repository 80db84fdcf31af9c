from fractions import Fraction
from functools import cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wondertoric.admissible import check_recursion
from wondertoric.arrangement import Layer, ToricArrangement
from wondertoric.fan import make_fan, restrict_fan
from wondertoric.fixtures import (
    a22_fan,
    a_n_c,
    running_arrangement,
    running_fan,
    running_named_layers,
)
from wondertoric.poset import contraction, deletion, make_building_set
from wondertoric.presentation import (
    ModelPresentation,
    presentation_from_arrangement,
    toric_relations,
)
from wondertoric.polyring import PairSweep, graded_rank_oracle


@pytest.fixture(scope="module")
def running_pres():
    named = running_named_layers()
    order = [named[n] for n in ("P1", "P2", "P3", "a", "b", "c")]
    names = {v: k for k, v in named.items()}
    pres = presentation_from_arrangement(
        running_arrangement(), running_fan(), selector="min", order=order,
        layer_names=names)
    return pres, named


def cvar(pres, index_1based):
    return pres.table.variable(("c", index_1based - 1))


def test_toric_relations_projective_line(running_pres):
    pres, named = running_pres
    sub = pres.restricted_fan(named["c"])
    rels = toric_relations(sub, pres.table)
    assert len(rels) == 2
    names = {pres.table.poly_name(r) for r in rels}
    assert names == {"c4*c3", "c4-c3"}


def test_toric_relations_trivial_fan(running_pres):
    pres, named = running_pres
    sub = pres.restricted_fan(named["P1"])
    assert toric_relations(sub, pres.table) == []


def test_toric_relations_running_counts(running_pres):
    pres, _ = running_pres
    rels = pres.toric()
    linear = [r for r in rels if pres.table.degree(r) == 1]
    quadratic = [r for r in rels if pres.table.degree(r) == 2]
    assert len(linear) == 3
    assert len(quadratic) == 55
    # monic distinct leading variables on the linear stratum
    leads = [pres.table.leading(r) for r in linear]
    assert all(c == 1 for _, c in leads)
    assert len({m for m, _ in leads}) == 3


def test_relation_i_for_c(running_pres):
    pres, named = running_pres
    pos = pres.table.position[("t", ((5,), named["c"]))]
    hits = [r for r in pres.relations().monomial_i
            if pres.table.exponents(next(iter(r.terms)))[pos]]
    assert len(hits) == 12  # every ray except r3, r4


def test_relation_iii_empty_join(running_pres):
    pres, named = running_pres
    table = pres.table
    a_atom = table.variable(("t", ((3,), named["a"])))
    c_atom = table.variable(("t", ((5,), named["c"])))
    target = table.mono_mul(a_atom, c_atom)
    assert any(r.terms == {target: 1} for r in pres.relations().incomparable_iii)


def test_relation_ii_worked_example(running_pres):
    # cover ({a,b}, L1) < ({a,b,P1}, P1): one new cover above, tau^0 = 1,
    # and the complement character is the third coordinate vector
    pres, named = running_pres
    table = pres.table
    abl1 = ((3, 4), named["L1"])
    abp1 = ((0, 3, 4), named["P1"])
    rel = pres._cover_relation(abl1, abp1)
    t_abp1 = table.term(1, table.variable(("t", abp1)))
    form = (3 * table.term(1, cvar(pres, 2)) + 3 * table.term(1, cvar(pres, 4))
            + table.term(1, cvar(pres, 8)) + table.term(1, cvar(pres, 12))
            + 2 * table.term(1, cvar(pres, 13)) + table.term(1, cvar(pres, 14)))
    expected = -t_abp1 + table.term(1, table.variable(("t", abl1))) * form
    assert rel == expected or rel == -expected


def test_relations_homogeneous(running_pres):
    pres, _ = running_pres
    for rel in pres.relations().all():
        assert pres.table.is_homogeneous(rel)


def test_alpha_contains_restricted_pieces(running_pres):
    pres, named = running_pres
    table = pres.table
    alpha = pres.alpha()
    t_c = table.variable(("t", ((5,), named["c"])))
    gb, _ = pres.restricted_gb(named["c"])
    for b in gb.elements:
        assert b.mul_term(1, t_c) in alpha


def test_alpha_members_lie_in_ideal(running_pres):
    # restricted linear forms decompose as a lifted global form minus
    # monomial relations; restricted non-faces divide global non-faces
    pres, named = running_pres
    table = pres.table
    sub = pres.restricted_fan(named["c"])
    lifted = {m for r in pres.toric() for m in r.terms}
    for rel in toric_relations(sub, pres.table):
        if table.degree(rel) == 1:
            continue
        mono = next(iter(rel.terms))
        nonfaces = [next(iter(r.terms)) for r in pres.toric()
                    if table.degree(r) == 2 and len(r.terms) == 1]
        assert any(table.mono_divides(nf, mono) for nf in nonfaces)


def test_ideal_equality_alpha_vs_generators(running_pres):
    # every raw generator reduces to zero against alpha
    pres, _ = running_pres
    reducer = pres.alpha_reducer()
    for g in pres.toric() + pres.relations().all():
        assert not reducer.reduce(g)


def test_toric_betti_running(running_pres):
    pres, _ = running_pres
    gb, positions = pres.restricted_gb(pres.poset.zero)
    assert [len(gb.standard_monomials(d, positions))
            for d in range(5)] == [1, 11, 11, 1, 0]
    from wondertoric.poset import make_building_set

    empty = make_building_set(pres.poset, frozenset(), ())
    toric_ctx = ModelPresentation(pres.poset, empty, pres.fan)
    rep = toric_ctx.betti()
    assert rep.ranks == [1, 11, 11, 1]
    assert rep.torsion == []
    for d in range(4):
        rank, torsion = graded_rank_oracle(toric_ctx.table, toric_ctx.toric(), d)
        assert (rank, torsion) == ([1, 11, 11, 1][d], ())


def test_chi_sign_invariance(running_pres):
    # negating the complement characters leaves the escalier counts alone
    pres, _ = running_pres
    import wondertoric.presentation as presentation_mod

    original = presentation_mod.complement_basis

    def negated(inner, outer):
        return [tuple(-x for x in v) for v in original(inner, outer)]

    flipped = ModelPresentation(pres.poset, pres.building,
                                pres.fan, pres.layer_names)
    presentation_mod.complement_basis = negated
    try:
        counts = [len(flipped.alpha_reducer().standard_monomials(d))
                  for d in range(4)]
    finally:
        presentation_mod.complement_basis = original
    assert counts == [1, 15, 15, 1]


def test_betti_poincare_symmetry(running_pres):
    pres, _ = running_pres
    ranks = pres.betti().ranks
    assert ranks == ranks[::-1]


def test_point_blowup_on_projective_line():
    # one point on the one-torus, projective-line fan: blowing up a point
    # on a curve changes nothing
    point = Layer.make(1, [[1]], [Fraction(0)])
    arr = ToricArrangement(1, (point,), ("p",))
    fan = make_fan(1, [(1,), (-1,)], [frozenset({0}), frozenset({1})])
    pres = presentation_from_arrangement(arr, fan, selector="min")
    assert pres.betti().ranks == [1, 1]


@pytest.mark.parametrize("fixture, selector", [
    ("running", "min"), ("running", "max"), ("a22", "min")])
def test_deletion_and_contraction_are_built_once(fixture, selector):
    arr, fan = ((running_arrangement(), running_fan()) if fixture == "running"
                else (a_n_c(2, 2), a22_fan()))
    pres = presentation_from_arrangement(arr, fan, selector=selector)
    deleted, contracted = pres.delete_last(), pres.contract_last()
    assert pres.delete_last() is deleted and pres.contract_last() is contracted
    sub, building = deletion(pres.poset, pres.building)
    x = pres.building.last
    upper, upper_building = contraction(pres.poset, pres.building, x)
    fresh = (ModelPresentation(sub, building, pres.fan, pres.layer_names,
                               pres.degree_cap),
             ModelPresentation(upper, upper_building,
                               restrict_fan(pres.fan, x.lattice), pres.layer_names))
    for kept, new in zip((deleted, contracted), fresh):
        assert kept.table.keys == new.table.keys
        assert kept.relations().all() == new.relations().all()
        assert kept.alpha() == new.alpha()
        assert kept.betti().ranks == new.betti().ranks


def test_restriction_map_images(running_pres):
    pres, named = running_pres
    deleted = pres.delete_last()
    contracted = pres.contract_last()
    assert contracted.fan.nrays == 2
    report = pres.restriction_map_check()
    assert report.ok
    assert report.generators_checked == len(deleted.toric()) + len(
        deleted.relations().all())


def test_leading_monomial_findings(running_pres):
    pres, _ = running_pres
    findings = pres.leading_monomial_findings()
    assert findings["ii_match"] + findings["ii_mismatch"] == 24
    # the join variable outranks the incomparable product for some pairs;
    # that is reported, not forced
    assert findings["iii_mismatch"] > 0


def blowup_hilbert(h_y, h_z, codim):
    """Graded ranks after blowing up a center of the given codimension:
    h_Y plus h_Z shifted by 1, ..., codim - 1."""
    if codim < 1:
        raise ValueError("codimension must be at least one")
    out = list(h_y)
    for shift in range(1, codim):
        for i, c in enumerate(h_z):
            idx = i + shift
            while idx >= len(out):
                out.append(0)
            out[idx] += c
    while out and out[-1] == 0:
        out.pop()
    return out


def test_blowup_hilbert():
    assert blowup_hilbert([1, 2, 1], [1], 1) == [1, 2, 1]
    assert blowup_hilbert([1, 11, 11, 1], [1, 1], 2) == [1, 12, 12, 1]
    assert blowup_hilbert([1, 1, 1], [1], 2) == [1, 2, 1]
    with pytest.raises(ValueError):
        blowup_hilbert([1], [1], 0)


def test_blowup_hilbert_running_chain():
    # the full model arises from the toric ranks by one curve blowup and
    # three point blowups
    h = [1, 11, 11, 1]
    h = blowup_hilbert(h, [1, 1], 2)
    for _ in range(3):
        h = blowup_hilbert(h, [1], 3)
    assert h == [1, 15, 15, 1]


def test_failed_alpha_takes_one_pair_sweep(monkeypatch):
    # the P1 x P1 fan is not equal-sign for A(2,2), so alpha fails; the
    # witness betti() reports is the one the verifying sweep found
    fan = make_fan(2, [(1, 0), (0, 1), (-1, 0), (0, -1)],
                   [frozenset({0, 1}), frozenset({1, 2}),
                    frozenset({2, 3}), frozenset({3, 0})])
    pres = presentation_from_arrangement(a_n_c(2, 2), fan, selector="min")
    calls = []
    witness = PairSweep.witness

    def counted(self):
        calls.append(self)
        return witness(self)

    monkeypatch.setattr(PairSweep, "witness", counted)
    with pytest.raises(AssertionError, match="alpha failed the Groebner pair test: S-pair"):
        pres.betti()
    assert len(calls) == 1
    assert pres.alpha_witness() is not None and not pres.verify_alpha()
    assert len(calls) == 1


def test_presentation_from_arrangement_validation():
    arr = a_n_c(2, 2)
    fan = a22_fan()
    with pytest.raises(ValueError):
        presentation_from_arrangement(arr, fan, selector="bogus")
    named = running_named_layers()
    with pytest.raises(ValueError):
        presentation_from_arrangement(arr, fan, selector=[next(iter(arr.subtori))])


def test_restriction_image_examples(running_pres):
    # toric variables pass through or die by the annihilator rule; blowup
    # variables map to the joins with the stratum's atom
    pres, named = running_pres
    images, deleted, contracted = pres.restriction_images()
    assert images[("c", 2)] == contracted.table.term(
        1, contracted.table.variable(("c", 2)))          # ray (3,2,3) survives
    assert not images[("c", 0)]                          # ray (3,1,3) dies
    assert not images[("t", ((3,), named["a"]))]         # {a} join {c} is empty
    p1_image = images[("t", ((0,), named["P1"]))]
    assert len(p1_image.terms) == 1
    mono = next(iter(p1_image.terms))
    pos = contracted.table.exponents(mono).index(1)
    assert contracted.table.keys[pos][0] == "t"
    assert contracted.bl.nested(contracted.table.keys[pos][1]).x == named["P1"]


# -- the ray order ----------------------------------------------------------

BUNDLED = {"a22": (lambda: a_n_c(2, 2), a22_fan),
           "running": (running_arrangement, running_fan)}
SELECTORS = ("min", "minwc", "max")


def relabelled(fan, perm):
    """The fan with its rays renumbered: new ray k is old ray perm[k]."""
    new_of = {old: new for new, old in enumerate(perm)}
    return make_fan(fan.ambient_rank, [fan.rays[i] for i in perm],
                    [[new_of[i] for i in cone] for cone in fan.max_cones])


@cache
def bundled_ranks(name, selector):
    arrangement, fan = BUNDLED[name]
    return presentation_from_arrangement(
        arrangement(), fan(), selector=selector).betti().ranks


def ordered_model(name, perm, selector):
    """The model of a bundled fan with its rays in another order, after
    checking that its ranks are the bundled order's, from all three routes
    and free of torsion.  Many orders give alpha or a restricted toric
    basis a non-unit leading coefficient."""
    arrangement, fan = BUNDLED[name]
    pres = presentation_from_arrangement(
        arrangement(), relabelled(fan(), perm), selector=selector)
    report = pres.betti()
    assert report.ranks == bundled_ranks(name, selector)
    assert report.torsion == []
    assert report.routes == dict.fromkeys(
        ("escalier", "oracle", "admissible"), report.ranks)
    return pres


@settings(max_examples=25, deadline=None)
@given(st.permutations(range(8)), st.sampled_from(SELECTORS))
@example((4, 3, 5, 7, 2, 6, 0, 1), "min")
def test_a22_ranks_do_not_depend_on_the_ray_order(perm, selector):
    pres = ordered_model("a22", perm, selector)
    assert check_recursion(pres, "B").ok
    assert pres.restriction_map_check().ok


@settings(max_examples=3, deadline=None)
@given(st.permutations(range(14)), st.sampled_from(SELECTORS))
@example((13, 10, 0, 12, 6, 5, 3, 8, 7, 11, 4, 1, 9, 2), "max")
def test_running_ranks_do_not_depend_on_the_ray_order(perm, selector):
    ordered_model("running", perm, selector)
