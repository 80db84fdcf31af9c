import gc
import itertools
import weakref

import pytest

from wondertoric import admissible
from wondertoric.fixtures import (
    a22_fan,
    a_n_c,
    running_arrangement,
    running_fan,
    running_named_layers,
)
from wondertoric.presentation import presentation_from_arrangement


@pytest.fixture(scope="module")
def pres():
    named = running_named_layers()
    order = [named[n] for n in ("P1", "P2", "P3", "a", "b", "c")]
    p = presentation_from_arrangement(
        running_arrangement(), running_fan(), selector="min", order=order,
        layer_names={v: k for k, v in named.items()})
    return p, named


def atom(p, named, name, idx):
    return ((idx,), named[name])


def test_monomial_to_function(pres):
    p, named = pres
    a_atom = ((3,), named["a"])
    abl1 = ((3, 4), named["L1"])
    f = admissible.monomial_to_function(p, [a_atom, abl1], [1, 1])
    assert f.value(named["a"]) == 2
    assert f.value(named["b"]) == 1
    assert f.support == frozenset({named["a"], named["b"]})
    f1 = admissible.monomial_to_function(p, [], [])
    assert f1.support == frozenset()
    f2 = admissible.monomial_to_function(p, [((0,), named["P1"])], [2])
    assert f2.value(named["P1"]) == 2


def test_monomial_to_function_rejects_non_chain(pres):
    p, named = pres
    with pytest.raises(ValueError):
        admissible.monomial_to_function(
            p, [((3,), named["a"]), ((5,), named["c"])], [1, 1])


def test_is_admissible_examples(pres):
    p, named = pres
    p1 = ((0,), named["P1"])
    assert admissible.is_admissible(p, [p1], [2])          # 2 < 3 - 0
    assert not admissible.is_admissible(p, [((3,), named["a"])], [1])  # 1 !< 1
    abp1 = ((0, 3, 4), named["P1"])
    assert not admissible.is_admissible(p, [abp1, ], [1])
    assert not admissible.is_admissible(p, [p1, abp1], [1, 1])


def test_enumerate_am_running(pres):
    p, named = pres
    items = admissible.enumerate_am(p)
    assert len(items) == 8
    got = {(it.chain, it.exps) for it in items}
    expected = {((), ())}
    expected.add(((((5,), named["c"]),), (1,)))
    for i, name in enumerate(("P1", "P2", "P3")):
        expected.add(((((i,), named[name]),), (1,)))
        expected.add(((((i,), named[name]),), (2,)))
    assert got == expected
    assert admissible.am_generating_function(p) == [1, 4, 3]


def test_enumerate_b_running(pres):
    p, _ = pres
    assert admissible.b_generating_function(p) == [1, 15, 15, 1]


def test_restricted_escaliers(pres):
    p, named = pres
    gb_c, pos_c = p.restricted_gb(named["c"])
    mus = [p.table.mono_name(m) for d in range(3)
           for m in gb_c.standard_monomials(d, pos_c)]
    assert mus == ["1", "c3"]
    gb_p, pos_p = p.restricted_gb(named["P1"])
    assert gb_p.standard_monomials(0, pos_p) == [p.table.one()]
    assert not gb_p.standard_monomials(1, pos_p)


def test_empty_building_set_basis(pres):
    p, _ = pres
    from wondertoric.poset import make_building_set
    from wondertoric.presentation import ModelPresentation

    eb = make_building_set(p.poset, frozenset(), ())
    ctx = ModelPresentation(p.poset, eb, p.fan, p.layer_names)
    assert admissible.am_generating_function(ctx) == [1]
    assert admissible.b_generating_function(ctx) == [1, 11, 11, 1]


def test_check_recursion_running(pres):
    p, _ = pres
    rep = admissible.check_recursion(p, "AM")
    assert rep.codim == 2
    assert rep.lhs == [1, 4, 3]
    assert rep.deleted == [1, 3, 3]
    assert rep.contracted == [1]
    assert rep.rhs == [1, 4, 3]
    assert rep.ok
    rep_b = admissible.check_recursion(p, "B")
    assert rep_b.ok and rep_b.lhs == [1, 15, 15, 1]


def test_check_recursion_rank_one_last(pres):
    p, named = pres
    order = [named[n] for n in ("P1", "P2", "P3", "c", "b", "a")]
    from wondertoric.poset import make_building_set
    from wondertoric.presentation import ModelPresentation

    bs = make_building_set(p.poset, frozenset(order), tuple(order))
    ctx = ModelPresentation(p.poset, bs, p.fan, p.layer_names)
    rep = admissible.check_recursion(ctx, "AM")
    assert rep.codim == 1
    assert rep.lhs == rep.deleted == rep.rhs
    assert rep.ok


def test_recursions_under_two_orders(pres):
    p, named = pres
    from wondertoric.poset import make_building_set
    from wondertoric.presentation import ModelPresentation

    for tail in (("P1", "P2", "P3", "a", "b", "c"),
                 ("P3", "P1", "P2", "b", "a", "c")):
        order = tuple(named[n] for n in tail)
        bs = make_building_set(p.poset, frozenset(order), order)
        ctx = ModelPresentation(p.poset, bs, p.fan, p.layer_names)
        for which in ("AM", "B"):
            assert admissible.check_recursion(ctx, which).ok


def test_peel_down_a22():
    pres22 = presentation_from_arrangement(a_n_c(2, 2), a22_fan(), selector="max")
    for which in ("AM", "B"):
        reports = admissible.peel_down(pres22, which)
        assert len(reports) == 4
        assert all(r.ok for r in reports)


def test_peel_down_releases_the_deletions_it_has_passed():
    # the model keeps its own deletion, but the walk drops the second one
    # once it has moved past it
    pres22 = presentation_from_arrangement(a_n_c(2, 2), a22_fan(), selector="max")
    first = pres22.delete_last()
    second = weakref.ref(first.delete_last())
    assert len(admissible.peel_down(pres22)) == 4
    gc.collect()
    assert pres22.delete_last() is first
    assert second() is None


@pytest.mark.parametrize("walk", [admissible.check_recursion, admissible.peel_down])
def test_unknown_recursion_kind_is_a_value_error(pres, walk):
    # "am" used to be computed with the B generating function; peel_down
    # rejects it before its first step
    p, _ = pres
    with pytest.raises(ValueError, match="recursion kind must be 'AM' or 'B', not 'am'"):
        walk(p, "am")


def test_flag_decomposition_unit_meet(pres):
    p, named = pres
    table = p.table
    mono = table.mono_mul(table.variable(("t", ((3,), named["a"]))),
                          table.variable(("t", ((4,), named["b"]))))
    result = admissible.flag_decomposition(p, mono)
    expected_monos = {table.variable(("t", ((3, 4), named[f"L{i}"])))
                      for i in (1, 2, 3)}
    assert set(result.terms) == expected_monos
    assert all(c == 1 for c in result.terms.values())


def test_flag_decomposition_trivial_and_zero(pres):
    p, named = pres
    table = p.table
    flag = table.mono_mul(table.variable(("t", ((0,), named["P1"]))),
                          table.variable(("t", ((0, 3), named["P1"]))))
    assert admissible.flag_decomposition(p, flag) == table.term(1, flag)
    dead = table.mono_mul(table.variable(("t", ((3,), named["a"]))),
                          table.variable(("t", ((5,), named["c"]))))
    assert not admissible.flag_decomposition(p, dead)


def test_flag_decomposition_normal_form_invariant(pres):
    # the rewriting is a congruence: source and image agree modulo alpha
    p, named = pres
    table = p.table
    reducer = p.alpha_reducer()
    mono = table.mono_mul(table.variable(("t", ((3,), named["a"]))),
                          table.variable(("t", ((4,), named["b"]))))
    lhs = reducer.reduce(table.term(1, mono))
    rhs = reducer.reduce(admissible.flag_decomposition(p, mono))
    assert lhs == rhs


# -- the pruned enumeration against generate-and-test ---------------------------


def reference_is_admissible(pres, chain, exps):
    """Each member's value stays under its rank gap inside the top stratum,
    with the bounds worked out afresh for every call."""
    f = admissible.monomial_to_function(pres, chain, exps)
    if not f.chain:
        return True
    poset = pres.poset
    top = pres.bl.nested(f.chain[-1])
    for g in top.members:
        below = [h for h in top.members if poset.lt(h, g)]
        m = poset.join_in_interval(below, g)
        assert m is not None
        if f.value(g) >= poset.rank(g) - poset.rank(m):
            return False
    return True


def reference_enumerate_am(pres):
    """Every chain of the blowup poset, grown by testing every label
    against its last element, times every exponent tuple up to the top
    rank; each tuple is tested, and the library's ``is_admissible`` must
    agree with the reference test on it."""
    blp = pres.bl.poset
    nonzero = [x for x in blp.labels if x != blp.zero]
    chains = []

    def extend(chain):
        chains.append(tuple(chain))
        for x in nonzero:
            if blp.lt(chain[-1], x):
                extend(chain + [x])

    for x in nonzero:
        extend([x])
    max_rank = max(pres.poset.rank(x) for x in pres.poset.labels)
    out = [admissible.AMItem((), (), 0)]
    for chain in chains:
        weights = [blp.rank(a) for a in chain]
        for exps in itertools.product(range(1, max_rank + 1), repeat=len(chain)):
            ok = reference_is_admissible(pres, chain, exps)
            assert admissible.is_admissible(pres, chain, exps) == ok
            if ok:
                out.append(admissible.AMItem(
                    chain, exps, sum(w * e for w, e in zip(weights, exps))))
    out.sort(key=lambda it: (it.degree, it.chain, it.exps))
    return out


@pytest.mark.parametrize("fixture", ["running", "A(2,2)"])
@pytest.mark.parametrize("selector", ["min", "minwc", "max"])
def test_enumerate_am_matches_reference_down_the_peel(fixture, selector):
    if fixture == "running":
        arr, fan = running_arrangement(), running_fan()
    else:
        arr, fan = a_n_c(2, 2), a22_fan()
    current = presentation_from_arrangement(arr, fan, selector=selector)
    visited = 0
    while True:
        for p in ([current, current.contract_last()] if len(current.building)
                  else [current]):
            assert admissible.enumerate_am(p) == reference_enumerate_am(p)
            visited += 1
        if not len(current.building):
            break
        current = current.delete_last()
    assert visited == 2 * len(
        presentation_from_arrangement(arr, fan, selector=selector).building) + 1
