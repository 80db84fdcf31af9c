from math import gcd
from operator import add, le, mul, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wondertoric.fixtures import a22_fan, a_n_c, running_arrangement, running_fan
from wondertoric.polyring import (
    FIELD_BITS,
    GroebnerBasis,
    PairSweep,
    Polynomial,
    VariableTable,
    _ext_gcd,
    buchberger,
    graded_rank_oracle,
    groebner_witness,
)
from wondertoric.presentation import presentation_from_arrangement


def s_polynomial(table, f, g):
    """S-polynomial of f and g: each times lcm(leads) over its lead, scaled
    to the lcm of the leading coefficients, the second taken off."""
    (mf, cf), (mg, cg) = table.leading(f), table.leading(g)
    lcm_m = table.mono_lcm(mf, mg)
    lcm_c = abs(cf * cg) // gcd(cf, cg)
    return (f.mul_term(lcm_c // cf, table.mono_div(lcm_m, mf))
            - g.mul_term(lcm_c // cg, table.mono_div(lcm_m, mg)))


def gcd_polynomial(table, f, g):
    """GCD-polynomial of f and g: a*f and b*g under lcm(leads), with
    a*c_f + b*c_g = gcd(c_f, c_g)."""
    (mf, cf), (mg, cg) = table.leading(f), table.leading(g)
    lcm_m = table.mono_lcm(mf, mg)
    _, a, b = _ext_gcd(cf, cg)
    return (f.mul_term(a, table.mono_div(lcm_m, mf))
            + g.mul_term(b, table.mono_div(lcm_m, mg)))


def table3():
    # x > y > z, all weight one
    return VariableTable(("x", "y", "z"), (1, 1, 1), ("x", "y", "z"))


def mono(t, **exps):
    m = [0] * t.n
    for k, e in exps.items():
        m[t.position[k]] = e
    return t.encode(m)


def tuple_key(t, exps):
    """The monomial order on exponent tuples, ascending: weighted degree,
    then reverse lexicographic (the smallest variable's exponent decides
    first, and the larger exponent is the smaller monomial)."""
    return (sum(map(mul, exps, t.weights)), tuple(-e for e in reversed(exps)))


def test_compare_degree_dominates():
    t = table3()
    assert mono(t, x=2) > mono(t, y=1)


def test_grevlex_degree_two_order():
    t = table3()
    # classical degrevlex on x > y > z
    expected = ["x^2", "x*y", "y^2", "x*z", "y*z", "z^2"]
    monos = t.monomials_of_degree(2)
    assert [t.mono_name(m) for m in monos] == expected


def test_grevlex_weighted():
    t = VariableTable(("u", "v"), (2, 1), ("u", "v"))
    assert t.mono_degree(mono(t, u=1, v=1)) == 3
    assert mono(t, u=1) > mono(t, v=1)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=3, max_size=3),
       st.lists(st.integers(0, 4), min_size=3, max_size=3),
       st.lists(st.integers(0, 3), min_size=3, max_size=3))
def test_compare_multiplicative(e1, e2, e3):
    t = table3()
    k1, k2 = t.encode(e1), t.encode(e2)
    s1, s2 = t.mono_mul(t.encode(e3), k1), t.mono_mul(t.encode(e3), k2)
    assert (s1 > s2, s1 == s2, s1 < s2) == (k1 > k2, k1 == k2, k1 < k2)


def test_normal_form_zero():
    t = table3()
    gb = GroebnerBasis(t, [t.term(1, mono(t, x=1))])
    assert not gb.reduce(t.poly({}))


def test_normal_form_coefficient_remainder():
    t = table3()
    gb = GroebnerBasis(t, [t.term(3, mono(t, x=1))])
    nf = gb.reduce(t.term(2, mono(t, x=1)))
    assert nf.terms == {mono(t, x=1): 2}
    nf5 = gb.reduce(t.term(5, mono(t, x=1)))
    assert nf5.terms == {mono(t, x=1): 2}


def test_normal_form_modulo_a_binomial():
    # x^2 = x*y = y^2 modulo x - y
    t = table3()
    gb = GroebnerBasis(t, [t.poly({mono(t, x=1): 1, mono(t, y=1): -1})])
    assert gb.reduce(t.poly({mono(t, x=2): 3, mono(t, z=2): 1})).terms == {
        mono(t, y=2): 3, mono(t, z=2): 1}


def test_buchberger_gcd_pair():
    t = table3()
    gens = [t.term(2, mono(t, x=1)), t.term(3, mono(t, x=1))]
    gb = buchberger(t, gens, degree_cap=3)
    leads = {(m, c) for m, c in (t.leading(g) for g in gb.elements)}
    assert (mono(t, x=1), 1) in leads


def test_single_monomial_is_groebner():
    t = table3()
    assert groebner_witness(t, [t.term(1, mono(t, x=1, y=1))], degree_cap=5) is None


def test_is_groebner_detects_failure():
    t = table3()
    f = t.poly({mono(t, x=1): 1, mono(t, y=1): 1})
    g = t.poly({mono(t, x=1): 1, mono(t, z=1): 1})
    assert groebner_witness(t, [f, g], degree_cap=3) is not None
    gb = buchberger(t, [f, g], degree_cap=3)
    assert groebner_witness(t, gb.elements, degree_cap=3) is None


def test_projective_line_escalier():
    # variables ranked c4 > c3: the linear form reduces c4, leaving {1, c3}
    t = VariableTable(("c4", "c3"), (1, 1), ("c4", "c3"))
    nonface = t.poly({t.encode((1, 1)): 1})
    linear = t.poly({t.encode((0, 1)): 1, t.encode((1, 0)): -1})
    gb = buchberger(t, [nonface, linear], degree_cap=3)
    assert [len(gb.standard_monomials(d)) for d in range(4)] == [1, 1, 0, 0]
    names = [t.mono_name(m) for d in range(2) for m in gb.standard_monomials(d)]
    assert names == ["1", "c3"]
    assert all(lc == 1 for _, lc in map(t.leading, gb.elements))


def test_escalier_matches_oracle():
    t = table3()
    gens = [
        t.poly({mono(t, x=1, y=1): 1}),
        t.poly({mono(t, x=1): 1, mono(t, z=1): -1}),
    ]
    gb = buchberger(t, gens, degree_cap=4)
    for d in range(5):
        rank, torsion = graded_rank_oracle(t, gens, d)
        assert torsion == ()
        assert rank == len(gb.standard_monomials(d))


def test_oracle_degree_zero():
    t = table3()
    rank, torsion = graded_rank_oracle(t, [t.term(1, mono(t, x=1))], 0)
    assert (rank, torsion) == (1, ())


def test_oracle_detects_torsion():
    t = VariableTable(("x",), (1,), ("x",))
    rank, torsion = graded_rank_oracle(t, [t.term(2, t.encode((1,)))], 1)
    assert (rank, torsion) == (0, (2,))


def test_s_and_gcd_polynomials():
    t = table3()
    f = t.poly({mono(t, x=2): 2, mono(t, y=2): 1})
    g = t.poly({mono(t, x=1, y=1): 3, mono(t, z=2): 1})
    s = s_polynomial(t, f, g)
    assert mono(t, x=2, y=1) not in s.terms
    gp = gcd_polynomial(t, f, g)
    assert t.leading(gp)[1] == 1


def test_homogeneity_guard():
    t = table3()
    f = t.poly({mono(t, x=1): 1, mono(t,): 1})
    with pytest.raises(ValueError):
        buchberger(t, [f], degree_cap=2)


# -- reference oracles: the linear-scan reduction and the unpruned sweep ----


def support_mask(exps):
    return sum(1 << p for p, e in enumerate(exps) if e)


def reference_reducer(basis):
    """Reduction over ``basis.elements`` by a linear scan of the leads, on
    exponent tuples: largest term first by ``max`` over the terms left
    under ``tuple_key``; the first lead that divides it and whose
    coefficient is at most its own is used."""
    table = basis.table
    decode = table.exponents
    leads = [(decode(lm), lc) for lm, lc in map(table.leading, basis.elements)]
    masks = [support_mask(lm) for lm, _ in leads]
    tails = [[(decode(m), c) for m, c in g.terms.items() if decode(m) != lm]
             for g, (lm, _) in zip(basis.elements, leads)]

    def reduce(f):
        work = {decode(m): c for m, c in f.terms.items()}
        keys = {m: tuple_key(table, m) for m in work}
        out = {}
        while work:
            m = max(work, key=keys.__getitem__)
            c = work.pop(m)
            mask = support_mask(m)
            while True:
                i = next((k for k, (lm, lc) in enumerate(leads)
                          if not masks[k] & ~mask and lc <= abs(c)
                          and all(map(le, lm, m))), None)
                if i is None:
                    out[table.encode(m)] = c
                    break
                lm, lc = leads[i]
                q, r = divmod(c, lc)
                shift = tuple(map(sub, m, lm))
                for mm, cc in tails[i]:
                    key = tuple(map(add, mm, shift))
                    v = work.get(key, 0) - q * cc
                    if v:
                        work[key] = v
                        if key not in keys:
                            keys[key] = tuple_key(table, key)
                    else:
                        work.pop(key, None)
                c = r
                if c == 0:
                    break
        return Polynomial(out)

    return reduce, leads


def reference_is_groebner(table, polys, degree_cap):
    """Every S- and GCD-pair under the cap, with no criterion."""
    basis = GroebnerBasis(table, polys)
    reduce, leads = reference_reducer(basis)
    els = basis.elements
    for i in range(len(els)):
        for j in range(i + 1, len(els)):
            (mi, ci), (mj, cj) = leads[i], leads[j]
            if sum(map(mul, map(max, mi, mj), table.weights)) > degree_cap:
                continue
            if len(els[i].terms) > 1 or len(els[j].terms) > 1:
                if reduce(s_polynomial(table, els[i], els[j])):
                    return False
            if ci % cj and cj % ci:
                if reduce(gcd_polynomial(table, els[i], els[j])):
                    return False
    return True


def table4():
    # weighted: a > b > c > d with weights 2, 1, 3, 1
    return VariableTable("abcd", (2, 1, 3, 1), "abcd")


monomials4 = st.tuples(*[st.integers(0, 2)] * 4)
polys4 = st.dictionaries(monomials4.map(table4().encode),
                         st.integers(-4, 4).filter(bool),
                         min_size=1, max_size=5).map(Polynomial)


@settings(max_examples=300, deadline=None)
@given(st.lists(polys4, min_size=1, max_size=5), polys4)
def test_reduce_matches_linear_scan(gens, f):
    t = table4()
    basis = GroebnerBasis(t, gens)
    assert basis.reduce(f) == reference_reducer(basis)[0](f)


# -- the packed encoding against exponent tuples ------------------------------


@st.composite
def weighted_table(draw):
    """A table of 1 to 5 variables with weights 1 to 4."""
    n = draw(st.integers(1, 5))
    weights = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    names = [f"v{i}" for i in range(n)]
    return VariableTable(names, weights, names)


def exponent_tuples(t, degree):
    """Exponent tuples of weighted degree at most ``degree``: each position
    takes up to what the ones drawn before it leave, so a single variable
    can fill its field to the top."""
    @st.composite
    def draw_tuple(draw):
        exps = [0] * t.n
        left = degree
        for p in draw(st.permutations(range(t.n))):
            exps[p] = draw(st.integers(0, left // t.weights[p]))
            left -= exps[p] * t.weights[p]
        return tuple(exps)
    return draw_tuple()


def tuple_degree(t, exps):
    return sum(map(mul, exps, t.weights))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_k_order_is_the_monomial_order(data):
    t = data.draw(weighted_table())
    monos = data.draw(st.lists(
        exponent_tuples(t, data.draw(st.sampled_from((3, 12, t.max_degree)))),
        min_size=2, max_size=30, unique=True))
    assert sorted(monos, key=t.encode) == sorted(monos, key=lambda m: tuple_key(t, m))
    assert len({t.encode(m) for m in monos}) == len(monos)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_encoding_matches_exponent_tuples(data):
    t = data.draw(weighted_table())
    top = t.max_degree
    a, b = (data.draw(exponent_tuples(t, data.draw(st.sampled_from((2, 6, top)))))
            for _ in range(2))
    ka, kb = t.encode(a), t.encode(b)
    assert t.exponents(ka) == a
    assert t.support(ka) == [(p, e) for p, e in enumerate(a) if e]
    assert t.mono_degree(ka) == tuple_degree(t, a)
    assert t.mono_name(ka) == ("*".join(
        t.names[p] if e == 1 else f"{t.names[p]}^{e}"
        for p, e in enumerate(a) if e) or "1")
    assert t.mono_divides(ka, kb) == all(map(le, a, b))
    if all(map(le, a, b)):
        assert t.mono_div(kb, ka) == t.encode(tuple(map(sub, b, a)))
    shared = any(x and y for x, y in zip(a, b))
    assert bool(t.mono_mask(ka) & t.mono_mask(kb)) == shared
    for got, want in ((lambda: t.mono_mul(ka, kb), tuple(map(add, a, b))),
                      (lambda: t.mono_lcm(ka, kb), tuple(map(max, a, b)))):
        if tuple_degree(t, want) <= top:
            assert got() == t.encode(want)
        else:
            with pytest.raises(ValueError):
                got()


def test_field_overflow_raises():
    # w has weight one, so its exponent can fill its whole field
    t = VariableTable("uvw", (2, 3, 1), "uvw")
    top = t.max_degree
    full = t.encode((0, 0, top))
    assert t.exponents(full) == (0, 0, top)
    assert t.mono_mul(t.variable("w", top - 1), t.variable("w")) == full
    assert t.mono_degree(t.variable("u", top // 2)) == top - 1
    for overflow in (lambda: t.encode((0, 0, top + 1)),
                     lambda: t.encode((1, 0, top - 1)),
                     lambda: t.encode((0, -1, 0)),
                     lambda: t.variable("u", top // 2 + 1),
                     lambda: t.mono_mul(full, t.variable("w")),
                     lambda: t.mono_mul(full, t.variable("u")),
                     lambda: t.mono_lcm(full, t.variable("v")),
                     lambda: t.monomials_of_degree(top + 1),
                     lambda: GroebnerBasis(t, []).standard_monomials(top + 1)):
        with pytest.raises(ValueError):
            overflow()


@settings(max_examples=300, deadline=None)
@given(st.lists(polys4, min_size=1, max_size=4))
def test_pruned_sweep_matches_reference(gens):
    t = table4()
    # a cap above every lcm degree: the whole sweep, so the criterion holds;
    # the bare sweep too, which the rank test passes over on unit leads
    want = reference_is_groebner(t, gens, 40)
    assert (groebner_witness(t, gens, 40) is None) == want
    assert (PairSweep(GroebnerBasis(t, gens), 40).witness() is None) == want


def field_support(table, m):
    """``table.support(m)`` by a walk over every exponent field up to the
    highest nonzero one."""
    e = -m & table._low
    out, p = [], 0
    while e:
        if e & table.max_degree:
            out.append((p, e & table.max_degree))
        e >>= FIELD_BITS
        p += 1
    return out


@st.composite
def sparse_exponents(draw):
    """A table of 1 to 48 variables of weights 1 to 3 and an exponent tuple
    of degree at most ``max_degree``: the top position and a lone exponent
    of ``max_degree`` may occur."""
    n = draw(st.integers(1, 48))
    weights = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    table = VariableTable(range(n), weights, [f"v{i}" for i in range(n)])
    exps, budget = [0] * n, table.max_degree
    for p in draw(st.lists(st.just(n - 1) | st.integers(0, n - 1), unique=True,
                           max_size=6)):
        if budget >= weights[p]:
            exps[p] = draw(st.integers(1, budget // weights[p]))
            budget -= weights[p] * exps[p]
    return table, tuple(exps)


@settings(max_examples=300, deadline=None)
@given(sparse_exponents())
def test_support_matches_a_walk_over_the_fields(table_exps):
    table, exps = table_exps
    m = table.encode(exps)
    want = [(p, e) for p, e in enumerate(exps) if e]
    assert table.support(m) == field_support(table, m) == want
    assert table.exponents(m) == exps


def test_product_criterion_needs_unit_coefficients():
    t = table3()
    z = mono(t, z=1)
    units = [t.poly({mono(t, x=1): 1, z: 1}), t.poly({mono(t, y=1): 1, z: 1})]
    assert groebner_witness(t, units, 2) is None
    assert reference_is_groebner(t, units, 2)
    twos = [t.poly({mono(t, x=1): 2, z: 1}), t.poly({mono(t, y=1): 3, z: 1})]
    assert not reference_is_groebner(t, twos, 2)
    assert groebner_witness(t, twos, 2) is not None


def test_reducer_appended_after_reduce_is_found():
    t = table3()
    basis = GroebnerBasis(t, [t.term(1, mono(t, x=1, y=1))])
    f = t.poly({mono(t, z=2): 1, mono(t, x=1, z=1): 1})
    assert basis.reduce(f) == f
    basis._append(t.term(1, mono(t, z=1)))
    assert not basis.reduce(f)


def test_pruned_sweep_matches_reference_on_a22():
    checked = {}
    for selector, failing in (("min", 25), ("minwc", 40), ("max", 40)):
        pres = presentation_from_arrangement(a_n_c(2, 2), a22_fan(),
                                             selector=selector)
        table, alpha, cap = pres.table, pres.alpha(), pres.degree_cap
        key = (table.keys, tuple(frozenset(f.terms.items()) for f in alpha))
        if key not in checked:
            # on A(2,2) the minwc closure is every layer, so max repeats it
            variants = [alpha] + [alpha[:k] + alpha[k + 1:]
                                  for k in range(len(alpha))]
            # the rank test passes most of them over; the bare sweep must
            # agree with the reference, and name the pair the test fails on
            swept = [PairSweep(GroebnerBasis(table, v), cap).witness()
                     for v in variants]
            got = [w is None for w in swept]
            assert got == [reference_is_groebner(table, v, cap) for v in variants]
            assert swept == [groebner_witness(table, v, cap) for v in variants]
            checked[key] = got
        got = checked[key]
        assert len(got) == len(alpha) + 1
        assert got[0] and got.count(False) == failing


def test_sweep_counts_running_min():
    pres = presentation_from_arrangement(running_arrangement(), running_fan(),
                                         selector="min")
    sweep = PairSweep(GroebnerBasis(pres.table, pres.alpha()), pres.degree_cap)
    assert sweep.witness() is None
    # a pair of two monomials with c_j = 1 counts as monomial whatever its
    # lcm degree; the perfbench gate classifies by the cap first
    assert sweep.counts == {"pairs": 148240, "over_cap": 31099,
                            "monomial": 107880, "criterion": 7041,
                            "reduced": 2220}


def test_witness_names_the_failing_pair():
    t = table3()
    f = t.poly({mono(t, x=1): 1, mono(t, y=1): 1})
    g = t.poly({mono(t, x=1): 1, mono(t, z=1): 1})
    w = groebner_witness(t, [f, g], degree_cap=3)
    assert (w.kind, w.first, w.second) == ("S", "x+y", "x+z")
    assert w.normal_form == t.poly_name(GroebnerBasis(t, [f, g]).reduce(
        s_polynomial(t, f, g)))
    assert str(w) == f"S-pair of x+y and x+z reduces to {w.normal_form}"
    gcd_pair = [t.term(2, mono(t, x=1)), t.term(3, mono(t, x=1))]
    assert groebner_witness(t, gcd_pair, degree_cap=3).kind == "G"
