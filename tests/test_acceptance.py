"""Acceptance suite.

Each test prints one pass/fail line with its wall time and asserts both
the expected values and the stated time budget.  The heavyweight model
objects are shared at module scope, so the pair sweep over the
distinguished generating set runs once.
"""

import time
from collections import Counter

import pytest

from wondertoric import admissible
from wondertoric.arrangement import poset_of_layers
from wondertoric.fixtures import (
    a22_fan,
    a_n_c,
    fig5_poset,
    running_arrangement,
    running_fan,
    running_named_layers,
    running_poset,
)
from wondertoric.poset import (
    blowup_at,
    blowup_building,
    contraction,
    contraction_iso,
    is_building_set,
    is_local_lattice,
    iterated_blowup,
    linear_refinements,
    make_building_set,
    minimal_building_set,
    minimal_well_connected,
    nested_sets,
)
from wondertoric.polyring import GroebnerBasis, graded_rank_oracle
from wondertoric.presentation import ModelPresentation, presentation_from_arrangement


class Budget:
    def __init__(self, number, description, seconds):
        self.number = number
        self.description = description
        self.seconds = seconds
        self.start = time.perf_counter()

    def done(self):
        elapsed = time.perf_counter() - self.start
        print(f"PASS criterion {self.number}: {self.description} "
              f"({elapsed:.2f}s, budget {self.seconds}s)")
        assert elapsed < self.seconds, \
            f"criterion {self.number} exceeded its {self.seconds}s budget"


@pytest.fixture(scope="module")
def named():
    return running_named_layers()


@pytest.fixture(scope="module")
def running(named):
    poset = running_poset()
    rev = {v: k for k, v in named.items()}
    order = tuple(named[n] for n in ("P1", "P2", "P3", "a", "b", "c"))
    building = make_building_set(poset, order, order)
    return poset, rev, building


@pytest.fixture(scope="module")
def model(running, named):
    poset, rev, building = running
    pres = presentation_from_arrangement(
        running_arrangement(), running_fan(), selector="min",
        order=building.order, layer_names=rev)
    return pres


@pytest.fixture(scope="module")
def model_betti(model):
    start = time.perf_counter()
    report = model.betti()
    return report, time.perf_counter() - start


def test_criterion_01_poset_of_layers(named):
    budget = Budget(1, "poset of layers matches the ten-layer figure", 1.0)
    poset = poset_of_layers(running_arrangement())
    assert len(poset) == 10
    ranks = Counter(poset.rank(x) for x in poset.labels if x != poset.zero)
    assert ranks == Counter({1: 2, 2: 4, 3: 3})
    rev = {v: k for k, v in named.items()}
    covers = {(rev[a], rev[b]) for a, b in poset.covers()}
    expected = {("0", "a"), ("0", "b"), ("0", "c")}
    for i in "123":
        expected |= {("a", f"L{i}"), ("b", f"L{i}"),
                     (f"L{i}", f"P{i}"), ("c", f"P{i}")}
    assert covers == expected
    budget.done()


def test_criterion_02_building_sets(running, named):
    budget = Budget(2, "minimal and minimal well-connected building sets", 1.0)
    poset, rev, _ = running
    minimal = minimal_building_set(poset)
    assert {rev[x] for x in minimal} == {"a", "b", "c", "P1", "P2", "P3"}
    closure = minimal_well_connected(poset, minimal)
    assert closure == set(poset.labels) - {poset.zero}
    assert len(closure) == 9
    budget.done()


def test_criterion_03_anc_family():
    budget = Budget(3, "A(n,c) building-set sizes and nested-set counts", 10.0)
    # the closed form ((c+1)^n - 1)/c counts the maximal building set
    for (n, c), expected_wc, expected_nested in [
            ((2, 2), 4, 8), ((2, 3), 5, 11), ((3, 2), 13, 73),
            ((3, 3), 21, 147), ((4, 2), 40, 848)]:
        poset = poset_of_layers(a_n_c(n, c))
        minimal = minimal_building_set(poset)
        assert len(minimal) == n, (n, c)
        closure = minimal_well_connected(poset, minimal)
        assert len(closure) == ((c + 1) ** n - 1) // c == expected_wc, (n, c)
        assert closure == set(poset.labels) - {poset.zero}
        building = make_building_set(poset, closure)
        assert len(nested_sets(poset, building)) == expected_nested, (n, c)
    budget.done()


def test_criterion_04_blowup_poset(running, named):
    budget = Budget(4, "blowup poset and order invariance", 5.0)
    poset, rev, building = running
    ns = nested_sets(poset, building)
    assert len(ns) == 21
    got = {(frozenset(rev[m] for m in n.members), rev[n.x]) for n in ns}
    expected = {(frozenset({x}), x) for x in ("a", "b", "c", "P1", "P2", "P3")}
    for i in "123":
        for y in ("a", "b", "c"):
            expected.add((frozenset({y, f"P{i}"}), f"P{i}"))
        expected.add((frozenset({"a", "b"}), f"L{i}"))
        expected.add((frozenset({"a", "b", f"P{i}"}), f"P{i}"))
    assert got == expected
    face = {(n.members, n.x) for n in ns} | {(frozenset(), poset.zero)}
    refinements = linear_refinements(poset, building.members, 3)
    assert len(refinements) >= 3
    for order in refinements:
        blown, decode = iterated_blowup(poset, order)
        assert len(blown) == 22
        assert {(s, x) for s, x in decode.values()} == face
    budget.done()


def test_criterion_05_contraction(running, named):
    budget = Budget(5, "contraction at c and its blowup isomorphism", 1.0)
    poset, rev, building = running
    upper, gc = contraction(poset, building, named["c"])
    assert len(upper) == 4
    assert {rev[x] for x in gc.members} == {"P1", "P2", "P3"}
    bl = blowup_building(poset, building)
    blc = blowup_building(upper, gc)
    s_nested = bl.nested_by_key[((5,), named["c"])]
    fwd = contraction_iso(poset, building, bl, s_nested, blc)
    assert len(fwd) == len(blc.poset) == 4
    budget.done()


def test_criterion_06_toric_betti(model):
    budget = Budget(6, "toric graded ranks by escalier and oracle", 30.0)
    empty = make_building_set(model.poset, frozenset(), ())
    toric = ModelPresentation(model.poset, empty, model.fan)
    report = toric.betti()
    assert report.ranks == [1, 11, 11, 1]
    assert report.torsion == []
    assert report.routes["escalier"] == report.routes["oracle"] == [1, 11, 11, 1]
    budget.done()


def test_criterion_07_model_betti(model_betti):
    report, elapsed = model_betti
    budget = Budget(7, "model graded ranks by all three routes", 600.0)
    budget.start -= elapsed  # account for the shared fixture computation
    assert report.ranks == [1, 15, 15, 1]
    assert report.torsion == []
    assert report.routes == {"escalier": [1, 15, 15, 1],
                             "oracle": [1, 15, 15, 1],
                             "admissible": [1, 15, 15, 1]}
    budget.done()


def test_criterion_08_groebner_verification(model, model_betti):
    report, _ = model_betti
    budget = Budget(8, "Gröbner test of the distinguished basis at cap 4", 600.0)
    assert model.degree_cap == 4
    assert model.verify_alpha()
    assert report.groebner_verified
    budget.done()


def test_criterion_09_admissible_monomials(model, named):
    budget = Budget(9, "admissible monomials and restricted escaliers", 5.0)
    items = admissible.enumerate_am(model)
    assert len(items) == 8
    got = {(it.chain, it.exps) for it in items}
    expected = {((), ())}
    expected.add(((((5,), named["c"]),), (1,)))
    for i in range(3):
        p = named[f"P{i + 1}"]
        expected |= {((((i,), p),), (1,)), ((((i,), p),), (2,))}
    assert got == expected
    gb_c, pos_c = model.restricted_gb(named["c"])
    mu_c = [model.table.mono_name(m) for d in range(3)
            for m in gb_c.standard_monomials(d, pos_c)]
    assert mu_c == ["1", "c3"]
    for i in (1, 2, 3):
        gb_p, pos_p = model.restricted_gb(named[f"P{i}"])
        assert gb_p.standard_monomials(0, pos_p) == [model.table.one()]
        assert not gb_p.standard_monomials(1, pos_p)
    budget.done()


def test_criterion_10_recursions(model):
    budget = Budget(10, "deletion-contraction recursions", 30.0)
    rep = admissible.check_recursion(model, "AM")
    assert rep.codim == 2
    assert (rep.lhs, rep.deleted, rep.contracted) == ([1, 4, 3], [1, 3, 3], [1])
    assert rep.rhs == [1, 4, 3] and rep.ok
    assert admissible.check_recursion(model, "B").ok
    a22 = presentation_from_arrangement(a_n_c(2, 2), a22_fan(), selector="max")
    for which in ("AM", "B"):
        reports = admissible.peel_down(a22, which)
        assert len(reports) == 4
        assert all(r.ok for r in reports)
    budget.done()


def test_criterion_11_restriction_map(model):
    budget = Budget(11, "restriction onto the last stratum is well defined", 60.0)
    report = model.restriction_map_check()
    assert report.generators_checked > 0
    assert report.failures == []
    budget.done()


def test_criterion_12_property_suite(model, model_betti):
    budget = Budget(12, "property suite over all fixtures", 120.0)
    report, _ = model_betti
    # combinatorial blowups preserve the local-lattice property
    for poset in (running_poset(), fig5_poset(),
                  poset_of_layers(a_n_c(2, 2))):
        assert is_local_lattice(poset)
        for x in poset.labels:
            if x == poset.zero:
                continue
            blown, _ = blowup_at(poset, x)
            assert is_local_lattice(blown)
    # blowup posets are locally boolean
    bl = model.bl
    assert bl.is_locally_boolean()
    a22 = presentation_from_arrangement(a_n_c(2, 2), a22_fan(), selector="min")
    assert a22.bl.is_locally_boolean()
    # relation homogeneity (re-checked here; also asserted at emission)
    for pres in (model, a22):
        for rel in pres.relations().all():
            assert pres.table.is_homogeneous(rel)
    # escalier versus oracle in every degree on every fixture
    for pres, expected in ((model, [1, 15, 15, 1]), (a22, [1, 6, 1])):
        reducer = pres.alpha_reducer()
        gens = pres.toric() + pres.relations().all()
        for d in range(pres.dim + 1):
            rank, torsion = graded_rank_oracle(pres.table, gens, d)
            assert torsion == ()
            assert rank == len(reducer.standard_monomials(d)) == expected[d]
    # minimal Groebner bases have unit leading coefficients
    for pres in (model, a22):
        for layer in pres.poset.labels:
            gb, _ = pres.restricted_gb(layer)
            for g in gb.elements:
                assert pres.table.leading(g)[1] == 1
    for f in GroebnerBasis(model.table, model.alpha()).elements:
        assert abs(model.table.leading(f)[1]) == 1
    budget.done()
