"""Differential tests of the two graded-rank routes against reference oracles.

The oracles below are the straightforward versions of the escalier, of
the SNF rank oracle's sparse elimination and of the inter-reduction that
ends ``buchberger``: the escalier lists every degree-d monomial and tests
each against every lead; one elimination looks for each
pivot by scanning every live row for the unit entry of least Markowitz
cost, another takes every pivot, single-unit rows included, off a heap;
the full-column oracle has a column for every degree-d monomial and a row
for every generator times monomial; ``minimalize`` rebuilds a basis for
every element whose tail it reduces.  The library grows the escalier
level by level, inserts distinct nonempty rows into an echelon form with
unit pivots, runs the oracle modulo the unit monomial generators, and
tail-reduces in one basis; it must give the same monomials, in the same
order, the same rank and torsion, and the same basis, term for term.

``TupleReducer`` is the reducer on dense exponent tuples that the packed
monomials replaced; the packed ``GroebnerBasis.reduce`` must give the
same normal forms, whether the leading coefficients are all 1 or not.
``PairSweep.reduce`` writes each pair from the stored tails; its
reference, ``heap_pair_reduce``, builds the pair's polynomial with
``s_polynomial`` or ``gcd_polynomial`` and reduces it with
``GroebnerBasis.reduce``.

The sweep's reducer lists come from an index of lead supports, and
``pairs_with`` counts by popcount the disjoint pairs of unit leads and,
for a monomial of leading coefficient 1, its pairs with every monomial:
``scan_candidates`` finds the reducers by a scan of the leads, and
``visiting_pairs_with`` visits every pair, with a pair index of its own.
"""

from heapq import heapify, heappop, heappush
from operator import add, mul, sub

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wondertoric import polyring
from wondertoric.fixtures import a22_fan, a_n_c, running_arrangement, running_fan
from wondertoric.intlinalg import snf
from wondertoric.polyring import (
    GroebnerBasis,
    GroebnerWitness,
    PairSweep,
    Polynomial,
    VariableTable,
    _sparse_quotient,
    basis_witness,
    buchberger,
    graded_rank_oracle,
    groebner_witness,
)
from wondertoric.presentation import presentation_from_arrangement, toric_relations

from test_polyring import gcd_polynomial, s_polynomial
from test_presentation import relabelled

# -- reference oracles -----------------------------------------------------


def reference_standard_monomials(basis, d, positions=None):
    """Degree-d monomials over ``positions`` that no lead divides."""
    table = basis.table
    leads = [(lm, table.mono_mask(lm), table.mono_degree(lm))
             for lm, _ in map(table.leading, basis.elements)]
    out = []
    for m in table.monomials_of_degree(d, positions):
        mask = table.mono_mask(m)
        if not any(ldeg <= d and not lmask & ~mask and table.mono_divides(lm, m)
                   for lm, lmask, ldeg in leads):
            out.append(m)
    return out


def reference_sparse_quotient(rows, ncols):
    """Free rank and torsion of Z^ncols modulo the row span, pivoting on
    the unit entry of least Markowitz cost found by a scan of every row."""
    rows = [dict(r) for r in rows if r]
    col_rows = {}
    for ridx, r in enumerate(rows):
        for c in r:
            col_rows.setdefault(c, set()).add(ridx)
    alive = set(range(len(rows)))
    contracted = 0

    def row_sub(dst, src, q):
        rd, rs = rows[dst], rows[src]
        for c, v in rs.items():
            nv = rd.get(c, 0) - q * v
            if nv:
                if c not in rd:
                    col_rows.setdefault(c, set()).add(dst)
                rd[c] = nv
            elif c in rd:
                del rd[c]
                col_rows[c].discard(dst)

    while True:
        pivot = best = None
        for ridx in alive:
            for c, v in rows[ridx].items():
                if abs(v) == 1:
                    cost = (len(rows[ridx]) - 1) * (len(col_rows[c]) - 1)
                    if best is None or cost < best:
                        best, pivot = cost, (ridx, c)
                    if cost == 0:
                        break
            if best == 0:
                break
        if pivot is None:
            break
        ridx, c = pivot
        if rows[ridx][c] < 0:
            rows[ridx] = {cc: -vv for cc, vv in rows[ridx].items()}
        for other in list(col_rows.get(c, ())):
            if other != ridx and other in alive:
                row_sub(other, ridx, rows[other][c])
        for cc in rows[ridx]:
            col_rows[cc].discard(ridx)
        alive.discard(ridx)
        col_rows.pop(c, None)
        contracted += 1

    residual = [rows[r] for r in alive if rows[r]]
    if not residual:
        return ncols - contracted, ()
    res_cols = sorted({c for r in residual for c in r})
    cidx = {c: k for k, c in enumerate(res_cols)}
    dense = [[0] * len(res_cols) for _ in residual]
    for k, r in enumerate(residual):
        for c, v in r.items():
            dense[k][cidx[c]] = v
    res = snf(dense)
    return (ncols - contracted - res.rank,
            tuple(d for d in res.invariant_factors if d != 1))


def reference_heap_quotient(rows, ncols):
    """The same invariants, every unit pivot taken off a Markowitz heap."""
    rows = [dict(r) for r in rows if r]
    col_rows = {}
    for ridx, r in enumerate(rows):
        for c in r:
            col_rows.setdefault(c, set()).add(ridx)
    alive = set(range(len(rows)))
    contracted = 0

    def unit_entries(ridx):
        r = rows[ridx]
        size = len(r) - 1
        return [(size * (len(col_rows[c]) - 1), ridx, c)
                for c, v in r.items() if v == 1 or v == -1]

    heap = [entry for ridx in alive for entry in unit_entries(ridx)]
    heapify(heap)

    def row_sub(dst, src, q):
        rd, rs = rows[dst], rows[src]
        for c, v in rs.items():
            nv = rd.get(c, 0) - q * v
            if nv:
                if c not in rd:
                    col_rows.setdefault(c, set()).add(dst)
                rd[c] = nv
            elif c in rd:
                del rd[c]
                col_rows[c].discard(dst)
        for entry in unit_entries(dst):
            heappush(heap, entry)

    while heap:
        cost, ridx, c = heappop(heap)
        if ridx not in alive:
            continue
        q0 = rows[ridx].get(c)
        if q0 != 1 and q0 != -1:
            continue
        now = (len(rows[ridx]) - 1) * (len(col_rows[c]) - 1)
        if now > cost:
            heappush(heap, (now, ridx, c))
            continue
        if q0 < 0:
            rows[ridx] = {cc: -vv for cc, vv in rows[ridx].items()}
        for other in list(col_rows[c]):
            if other != ridx:
                row_sub(other, ridx, rows[other][c])
        for cc in rows[ridx]:
            col_rows[cc].discard(ridx)
        alive.discard(ridx)
        col_rows.pop(c)
        contracted += 1

    residual = [rows[r] for r in alive if rows[r]]
    if not residual:
        return ncols - contracted, ()
    res_cols = sorted({c for r in residual for c in r})
    cidx = {c: k for k, c in enumerate(res_cols)}
    dense = [[0] * len(res_cols) for _ in residual]
    for k, r in enumerate(residual):
        for c, v in r.items():
            dense[k][cidx[c]] = v
    res = snf(dense)
    return (ncols - contracted - res.rank,
            tuple(d for d in res.invariant_factors if d != 1))


def reference_full_oracle(table, gens, d):
    """Rank and torsion in degree d from every degree-d monomial as a
    column and every generator times monomial as a row."""
    cols = table.monomials_of_degree(d)
    col_index = {m: i for i, m in enumerate(cols)}
    rows = []
    for g in gens:
        if not g:
            continue
        gd = table.degree(g)
        if not table.is_homogeneous(g):
            raise ValueError("rank oracle requires homogeneous generators")
        if gd > d:
            continue
        for m in table.monomials_of_degree(d - gd):
            rows.append({col_index[mm + m]: cc for mm, cc in g.terms.items()})
    return _sparse_quotient(rows, len(cols))


def reference_minimalize(basis):
    """Drop strongly redundant leads, then reduce each kept element's tail
    in a basis built afresh from the reduced earlier elements and the
    later ones; sort by lead."""
    table = basis.table
    elements = basis.elements
    leads = [table.leading(f) for f in elements]
    keep = []
    for i, (lm_i, lc_i) in enumerate(leads):
        redundant = False
        for j, (lm_j, lc_j) in enumerate(leads):
            if i == j:
                continue
            if table.mono_divides(lm_j, lm_i) and lc_i % lc_j == 0:
                if lm_j == lm_i and lc_j == lc_i and j > i:
                    continue
                redundant = True
                break
        if not redundant:
            keep.append(i)
    kept = [elements[i] for i in keep]
    reduced = []
    for i, f in enumerate(kept):
        others = GroebnerBasis(table, reduced + kept[i + 1:])
        lm, lc = table.leading(f)
        tail = others.reduce(f - Polynomial({lm: lc}))
        reduced.append(Polynomial({lm: lc}) + tail)
    reduced.sort(key=lambda g: tuple_key(table, table.exponents(max(g.terms))))
    return GroebnerBasis(table, reduced)


def tuple_key(table, exps):
    """Ascending monomial order on exponent tuples: weighted degree, then
    reverse lexicographic."""
    return (sum(map(mul, exps, table.weights)), tuple(-e for e in reversed(exps)))


def tuple_mask(exps):
    return sum(1 << p for p, e in enumerate(exps) if e)


class TupleReducer:
    """Reduction over a basis on dense exponent tuples.

    The terms still to reduce sit in ``work``; the front is a heap of
    ``(-degree, m[::-1], m, mask)``, which ascends as the monomial order
    descends, so the largest term comes off first.  The candidates for a
    term are the elements whose lead support lies inside its support, in
    the order they were added; a candidate's lead divides the term unless
    one of the lead's exponents above one (its "powers") exceeds the
    term's.  A new term's degree and support mask come from its tail
    term's and those of the shift.  Only ``reduce``'s input and output
    pass through the packed encoding.
    """

    def __init__(self, basis):
        table = self.table = basis.table
        self.weights = table.weights
        self.leads, self.tails = [], []
        for f in basis.elements:
            lm, lc = table.leading(f)
            self.leads.append((table.exponents(lm), lc))
            tail = [(table.exponents(m), c) for m, c in f.terms.items() if m != lm]
            self.tails.append([(e, c, self.degree(e), tuple_mask(e)) for e, c in tail])
        self.masks = [tuple_mask(lm) for lm, _ in self.leads]
        self.degrees = [self.degree(lm) for lm, _ in self.leads]
        self.support = [tuple((p, e) for p, e in enumerate(lm) if e)
                        for lm, _ in self.leads]
        self.powers = [tuple((p, e) for p, e in s if e > 1) for s in self.support]
        self.candidates = {}

    def degree(self, exps):
        return sum(map(mul, exps, self.weights))

    def _candidates(self, mask):
        found = self.candidates.get(mask)
        if found is None:
            found = [i for i, lead_mask in enumerate(self.masks)
                     if not lead_mask & ~mask]
            self.candidates[mask] = found
        return found

    def reduce(self, f):
        table = self.table
        work = {table.exponents(m): c for m, c in f.terms.items()}
        front = [(-self.degree(m), m[::-1], m, tuple_mask(m)) for m in work]
        heapify(front)
        out = {}
        while front:
            neg_deg, _, m, mask = heappop(front)
            c = work.pop(m, None)
            if c is None:
                continue
            while True:
                ac = abs(c)
                for i in self._candidates(mask):
                    if self.leads[i][1] <= ac:
                        for p, e in self.powers[i]:
                            if m[p] < e:
                                break
                        else:
                            break
                else:
                    out[table.encode(m)] = c
                    break
                lm, lc = self.leads[i]
                q, c = divmod(c, lc)
                shift = tuple(map(sub, m, lm))
                shift_deg = -neg_deg - self.degrees[i]
                shift_mask = mask & ~self.masks[i]
                for p, e in self.support[i]:
                    if m[p] > e:
                        shift_mask |= 1 << p
                for mm, cc, dd, mmask in self.tails[i]:
                    key = tuple(map(add, mm, shift))
                    qc = q * cc
                    old = work.get(key)
                    if old is None:
                        work[key] = -qc
                        heappush(front, (-(dd + shift_deg), key[::-1], key,
                                         mmask | shift_mask))
                    elif old == qc:
                        del work[key]
                    else:
                        work[key] = old - qc
                if c == 0:
                    break
        return Polynomial(out)


def term_lists(basis):
    """Each element's terms in insertion order: equal means the same basis,
    term for term."""
    return [list(f.terms.items()) for f in basis.elements]


def dense_quotient(rows, ncols):
    """The same invariants from one dense Smith normal form."""
    if ncols == 0:
        return 0, ()
    dense = [[r.get(c, 0) for c in range(ncols)] for r in rows] or [[0] * ncols]
    res = snf(dense)
    return ncols - res.rank, tuple(d for d in res.invariant_factors if d != 1)


# -- the bundled models ------------------------------------------------------

MODELS = [(fixture, selector) for fixture in ("running", "A(2,2)")
          for selector in ("min", "minwc", "max")]


@pytest.fixture(scope="module", params=MODELS, ids=lambda m: "-".join(m))
def model(request):
    fixture, selector = request.param
    if fixture == "running":
        arr, fan = running_arrangement(), running_fan()
    else:
        arr, fan = a_n_c(2, 2), a22_fan()
    return presentation_from_arrangement(arr, fan, selector=selector)


def test_escalier_matches_reference_on_alpha(model):
    reducer = model.alpha_reducer()
    for d in range(model.dim + 2):
        assert (reducer.standard_monomials(d)
                == reference_standard_monomials(reducer, d)), d


def test_restricted_escaliers_match_reference(model):
    for layer in model.poset.labels:
        gb, positions = model.restricted_gb(layer)
        for d in range(model.dim + 2):
            assert (gb.standard_monomials(d, positions)
                    == reference_standard_monomials(gb, d, positions)), (layer, d)


def assert_oracle_matches_references(table, gens, degrees, monkeypatch):
    got = [graded_rank_oracle(table, gens, d) for d in degrees]
    for reference in (reference_sparse_quotient, reference_heap_quotient):
        with monkeypatch.context() as m:
            m.setattr(polyring, "_sparse_quotient", reference)
            want = [graded_rank_oracle(table, gens, d) for d in degrees]
        assert got == want, reference.__name__
    return got


def test_oracle_matches_reference_on_models(model, monkeypatch):
    got = assert_oracle_matches_references(
        model.table, model.toric() + model.relations().all(),
        range(model.dim + 1), monkeypatch)
    assert all(torsion == () for _, torsion in got)


def test_oracle_over_alpha_matches_reference_on_models(model, monkeypatch):
    """The matrices the rank certificate reads, up to degree dim + 1."""
    got = assert_oracle_matches_references(
        model.table, model.alpha(), range(model.dim + 2), monkeypatch)
    assert got[-1] == (0, ())


def test_oracle_over_contracted_alpha_matches_reference(monkeypatch):
    """The contracted alpha that ``restriction_map_check`` certifies."""
    pres = presentation_from_arrangement(running_arrangement(), running_fan(),
                                         selector="max")
    contracted = pres.contract_last()
    got = assert_oracle_matches_references(
        contracted.table, contracted.alpha_reducer().elements,
        range(contracted.dim + 2), monkeypatch)
    assert got[-1] == (0, ())


# degree 3 of running/min has 1,389 products g * m over alpha and 861 over
# the relations, m outside M; 679 and 425 of them vanish modulo M, and 75
# and 23 of the others repeat an earlier row
@pytest.mark.parametrize("over, distinct", [("alpha", 635), ("relations", 413)])
def test_oracle_hands_over_distinct_nonempty_rows(over, distinct, monkeypatch):
    pres = presentation_from_arrangement(running_arrangement(), running_fan(),
                                         selector="min")
    gens = (pres.alpha() if over == "alpha"
            else pres.toric() + pres.relations().all())
    handed = []
    monkeypatch.setattr(polyring, "_sparse_quotient",
                        lambda rows, ncols: handed.append(rows) or (0, ()))
    graded_rank_oracle(pres.table, gens, 3)
    (rows,) = handed
    assert len(rows) == distinct
    assert all(rows)
    assert len({frozenset(r.items()) for r in rows}) == distinct


# the full-column reference lists every monomial of the degree; above this
# many (running/minwc and running/max at degree 4 have 20,227) it is left out
FULL_COLUMNS = 20000


def test_oracle_matches_full_column_reference(model):
    table, gens = model.table, model.toric() + model.relations().all()
    for d in range(model.dim + 2):
        if d <= model.dim or len(table.monomials_of_degree(d)) <= FULL_COLUMNS:
            assert (graded_rank_oracle(table, gens, d)
                    == reference_full_oracle(table, gens, d)), d
    assert graded_rank_oracle(table, gens, model.dim + 1) == (0, ())


def test_buchberger_matches_reference_minimalize_on_restricted_bases(
        model, monkeypatch):
    inputs = [toric_relations(model.restricted_fan(layer), model.table)
              for layer in model.poset.labels]
    got = [term_lists(buchberger(model.table, gens, model.degree_cap))
           for gens in inputs]
    monkeypatch.setattr(GroebnerBasis, "minimalize", reference_minimalize)
    want = [term_lists(buchberger(model.table, gens, model.degree_cap))
            for gens in inputs]
    assert got == want


def test_minimalize_reduces_each_tail_on_unit_leads():
    # x > y > z > w, unit leads.  x + y reduces its tail to -z by y + z;
    # the other two tails are reduced already
    t = VariableTable("xyzw", (1,) * 4, "xyzw")
    x, y, z, w = (t.variable(v) for v in "xyzw")
    basis = GroebnerBasis(t, [t.poly({x: 1, y: 1}), t.poly({y: 1, z: 1}),
                              t.poly({t.mono_mul(z, w): 1, t.mono_mul(w, w): 1})])
    got = basis.minimalize()
    assert [t.poly_name(f) for f in got.elements] == ["y+z", "x-z", "z*w+w^2"]
    assert term_lists(got) == term_lists(reference_minimalize(basis))


def test_minimalize_reduces_against_reduced_earlier_elements():
    # x > y > z > w.  x + 2y loses 2y to 2y + w and becomes x - w, which
    # turns the tail x*w of z^2 + x*w into w^2.  The unreduced x + 2y
    # would leave -2*y*w, which y*w + z*w, tried before 2y + w, turns
    # into 2*z*w: the basis is not a Groebner basis, so the order matters.
    t = VariableTable("xyzw", (1,) * 4, "xyzw")
    x, y, z, w = (t.variable(v) for v in "xyzw")
    m = t.mono_mul
    basis = GroebnerBasis(t, [
        t.poly({x: 1, y: 2}), t.poly({m(y, w): 1, m(z, w): 1}),
        t.poly({m(z, z): 1, m(x, w): 1}), t.poly({y: 2, w: 1})])
    got = basis.minimalize()
    assert term_lists(got) == term_lists(reference_minimalize(basis))
    assert [t.poly_name(f) for f in got.elements] == [
        "2*y+w", "x-w", "y*w+z*w", "z^2+w^2"]


# -- generated inputs -----------------------------------------------------------


@st.composite
def weighted_bases(draw):
    """A basis over 1 to 4 variables of weights 1 to 3, whose leads have
    coefficients from -3 to 3, so both unit and non-unit leads occur."""
    n = draw(st.integers(1, 4))
    weights = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    names = [f"v{i}" for i in range(n)]
    table = VariableTable(names, weights, names)
    gens = draw(st.lists(tuple_polys(table, 3), max_size=5))
    positions = draw(st.none() | st.lists(st.integers(0, n - 1), unique=True))
    return GroebnerBasis(table, gens), positions


def tuple_polys(table, max_size):
    """Polynomials with exponents 0 to 2 and coefficients -3 to 3."""
    monomials = st.tuples(*[st.integers(0, 2)] * table.n).map(table.encode)
    coeffs = st.integers(-3, 3).filter(bool)
    return st.dictionaries(monomials, coeffs, min_size=1,
                           max_size=max_size).map(Polynomial)


@settings(max_examples=200, deadline=None)
@given(weighted_bases(), st.integers(0, 7))
def test_escalier_matches_reference_on_weighted_tables(basis_positions, d):
    basis, positions = basis_positions
    assert (basis.standard_monomials(d, positions)
            == reference_standard_monomials(basis, d, positions))


@st.composite
def escalier_walks(draw):
    """A weighted basis and steps, each a degree and positions to ask the
    escalier for or a polynomial to append to the basis."""
    basis, _ = draw(weighted_bases())
    n = basis.table.n
    asks = st.tuples(st.integers(0, 6),
                     st.none() | st.lists(st.integers(0, n - 1), unique=True))
    steps = draw(st.lists(asks | tuple_polys(basis.table, 3), min_size=1, max_size=8))
    return basis, steps


@settings(max_examples=200, deadline=None)
@given(escalier_walks())
def test_escalier_memo_follows_the_basis_as_it_grows(walk):
    # after each step every escalier asked for so far is asked again, so a
    # level kept from before an append is caught
    basis, steps = walk
    asked = []
    for step in steps:
        if isinstance(step, Polynomial):
            _, lc = basis.table.leading(step)
            basis._append(step if lc > 0 else -step)
        else:
            asked.append(step)
        for d, positions in asked:
            assert (basis.standard_monomials(d, positions)
                    == reference_standard_monomials(basis, d, positions)), (d, positions)


@settings(max_examples=200, deadline=None)
@given(weighted_bases())
def test_minimalize_matches_reference_on_weighted_tables(basis_positions):
    basis, _ = basis_positions
    assert term_lists(basis.minimalize()) == term_lists(reference_minimalize(basis))


@st.composite
def homogeneous_inputs(draw):
    """Homogeneous generators of one degree over a weighted table of 1 to
    4 variables, with coefficients from -3 to 3, and a degree cap."""
    n = draw(st.integers(1, 4))
    weights = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    names = [f"v{i}" for i in range(n)]
    table = VariableTable(names, weights, names)
    d = draw(st.integers(1, 3))
    monomials = table.monomials_of_degree(d)
    if not monomials:
        return table, [], d
    coeffs = st.integers(-3, 3).filter(bool)
    polys = st.dictionaries(st.sampled_from(monomials), coeffs, min_size=1, max_size=3)
    gens = draw(st.lists(polys.map(Polynomial), max_size=4))
    return table, gens, d + draw(st.integers(0, 2))


@settings(max_examples=100, deadline=None)
@given(homogeneous_inputs())
def test_buchberger_matches_reference_minimalize_on_weighted_tables(inputs):
    table, gens, cap = inputs
    got = term_lists(buchberger(table, gens, cap))
    original = GroebnerBasis.minimalize
    GroebnerBasis.minimalize = reference_minimalize
    try:
        want = term_lists(buchberger(table, gens, cap))
    finally:
        GroebnerBasis.minimalize = original
    assert got == want


V0 = VariableTable(["v0"], [1], ["v0"])


@settings(max_examples=200, deadline=None)
@given(homogeneous_inputs())
@example((V0, [Polynomial({V0.encode((1,)): 2})], 1))
def test_escalier_counts_the_oracle_free_rank(inputs):
    # over Z the standard monomials of all leads, units or not, count the
    # free rank: <2*v0> leaves v0 torsion, so degree 1 has rank 0
    table, gens, cap = inputs
    basis = buchberger(table, gens, cap)
    for e in range(cap + 1):
        assert (len(basis.standard_monomials(e))
                == graded_rank_oracle(table, gens, e)[0]), e


@st.composite
def oracle_inputs(draw):
    """Generators over a weighted table of 1 to 4 variables, each
    homogeneous of its own degree from 0 to 3: unit monomials, monomials
    with a coefficient of 2 or 3 up to sign, and binomials; and a degree
    from -2 to 7."""
    n = draw(st.integers(1, 4))
    weights = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    names = [f"v{i}" for i in range(n)]
    table = VariableTable(names, weights, names)
    gens = []
    for _ in range(draw(st.integers(0, 6))):
        monomials = table.monomials_of_degree(draw(st.integers(0, 3)))
        if not monomials:
            continue
        kind = draw(st.sampled_from(("unit", "non-unit", "binomial")))
        if kind == "binomial" and len(monomials) > 1:
            pair = draw(st.lists(st.sampled_from(monomials), min_size=2,
                                 max_size=2, unique=True))
            coeffs = draw(st.lists(st.integers(-3, 3).filter(bool),
                                   min_size=2, max_size=2))
            gens.append(Polynomial(dict(zip(pair, coeffs))))
        else:
            scale = st.sampled_from((1, -1) if kind == "unit" else (2, -2, 3, -3))
            gens.append(Polynomial({draw(st.sampled_from(monomials)): draw(scale)}))
    return table, gens, draw(st.integers(-2, 7))


@settings(max_examples=200, deadline=None)
@given(oracle_inputs())
def test_oracle_matches_full_column_reference_on_weighted_tables(inputs):
    table, gens, d = inputs
    got = graded_rank_oracle(table, gens, d)
    assert got == reference_full_oracle(table, gens, d)
    if d < 0:
        assert got == (0, ())


def test_escalier_weights_and_non_unit_leads():
    # 2x is a lead like y: over Z the quotient by <2x, y> has free rank 0
    # in every positive degree
    t = VariableTable("xy", (1, 2), "xy")
    basis = GroebnerBasis(t, [t.term(2, t.encode((1, 0))), t.term(1, t.encode((0, 1)))])
    assert basis.standard_monomials(3) == []
    assert basis.standard_monomials(2, [1]) == []
    assert basis.standard_monomials(2, [0]) == []
    assert (GroebnerBasis(t, []).standard_monomials(2)
            == [t.encode((2, 0)), t.encode((0, 1))])
    assert GroebnerBasis(t, [t.const(1)]).standard_monomials(0) == []
    assert basis.standard_monomials(-1) == []


# -- the packed reducer against the tuple reducer ------------------------------


def pair_polynomial(basis, pair):
    """The S- or GCD-polynomial of a ``pairs_with`` pair, as a Polynomial."""
    _, i, j, kind = pair
    make = s_polynomial if kind == "S" else gcd_polynomial
    return make(basis.table, basis.elements[i], basis.elements[j])


def unit_leads(basis, unit=None):
    """The basis with the leading coefficients flagged in ``unit`` (by
    default all of them) set to 1."""
    unit = [True] * len(basis) if unit is None else unit
    return GroebnerBasis(basis.table, [
        Polynomial({**f.terms, lm: 1}) if one else f
        for f, lm, one in zip(basis.elements, basis._lm, unit)])


def alpha_pairs(basis, cap):
    """The pairs the alpha sweep reduces, each with its polynomial."""
    sweep = PairSweep(basis, cap)
    for j in range(len(basis)):
        for pair in sweep.pairs_with(j):
            yield pair, pair_polynomial(basis, pair)


@pytest.fixture(scope="module", params=[("min", 2220), ("max", 3964)],
                ids=lambda p: p[0])
def running(request):
    selector, reductions = request.param
    return presentation_from_arrangement(running_arrangement(), running_fan(),
                                         selector=selector), reductions


def test_reduce_matches_tuple_reducer_on_alpha_pairs(running):
    pres, reductions = running
    basis = GroebnerBasis(pres.table, pres.alpha())
    reference = TupleReducer(basis)
    pairs = [f for _, f in alpha_pairs(basis, pres.degree_cap)]
    assert len(pairs) == reductions
    assert all(c == 1 for c in basis._lc)
    for f in pairs:
        assert not basis.reduce(f)
        assert not reference.reduce(f)


@st.composite
def bases_and_polys(draw):
    basis, _ = draw(weighted_bases())
    return basis, draw(tuple_polys(basis.table, 6))


@settings(max_examples=200, deadline=None)
@given(bases_and_polys())
def test_reduce_matches_tuple_reducer_on_weighted_tables(basis_poly):
    # on the basis and on it with every leading coefficient set to 1
    basis, f = basis_poly
    unit = unit_leads(basis)
    assert all(c == 1 for c in unit._lc)
    for b in (basis, unit):
        assert b.reduce(f) == TupleReducer(b).reduce(f)


def tuple_witness(table, polys, cap):
    """The first failing pair as ``groebner_witness`` names it, found by
    reducing each alpha pair's polynomial with ``TupleReducer``."""
    basis = GroebnerBasis(table, polys)
    reference = TupleReducer(basis)
    name = table.poly_name
    for (_, i, j, kind), f in alpha_pairs(basis, cap):
        nf = reference.reduce(f)
        if nf:
            return GroebnerWitness(kind, name(basis.elements[i]),
                                   name(basis.elements[j]), name(nf))
    return None


def test_witness_matches_tuple_reducer_on_broken_alpha(running):
    # drop one of the first four elements of the toric basis that are not
    # monomials (linear forms and a quadric on running): alpha is then no
    # Groebner basis, and the first failing pair must be the same, with
    # the same normal form, as the tuple reducer finds
    pres, _ = running
    table, cap = pres.table, pres.degree_cap
    dropped = [g for g in pres.toric_gb().elements if len(g.terms) > 1][:4]
    broken = [[f for f in pres.alpha() if f != g] for g in dropped]
    got = [str(groebner_witness(table, alpha, cap)) for alpha in broken]
    want = [str(tuple_witness(table, alpha, cap)) for alpha in broken]
    assert got == want
    assert "None" not in got


def test_witness_matches_tuple_reducer_on_a_non_unit_alpha():
    # with the A(2,2) rays in this order alpha has the lead 2*c2*c1, so the
    # ranks do not certify it and its pairs are swept; whole it is a
    # Groebner basis, and less its first toric linear form the first
    # failing pair is the one the tuple reducer finds
    pres = presentation_from_arrangement(
        a_n_c(2, 2), relabelled(a22_fan(), (4, 3, 5, 7, 2, 6, 0, 1)))
    table, cap, alpha = pres.table, pres.degree_cap, pres.alpha()
    dropped = next(g for g in pres.toric_gb().elements if len(g.terms) > 1)
    broken = [f for f in alpha if f != dropped]
    assert len(broken) == len(alpha) - 1
    for polys in (alpha, broken):
        assert not all(c == 1 for c in GroebnerBasis(table, polys)._lc)
    assert groebner_witness(table, alpha, cap) is None
    assert tuple_witness(table, alpha, cap) is None
    got = groebner_witness(table, broken, cap)
    assert got is not None and got == tuple_witness(table, broken, cap)


# -- the rank certificate against the pair sweep -------------------------------


def certified_and_swept(table, polys, cap):
    """``basis_witness`` and the bare sweep, each on a fresh basis."""
    return (basis_witness(GroebnerBasis(table, polys), cap),
            PairSweep(GroebnerBasis(table, polys), cap).witness())


def test_certificate_matches_the_sweep_on_models(model, monkeypatch):
    # alpha has unit leads on every bundled model, so the ranks certify it
    # and no pair is swept
    table, alpha, cap = model.table, model.alpha(), model.degree_cap
    swept = PairSweep(GroebnerBasis(table, alpha), cap).witness()
    monkeypatch.setattr(PairSweep, "witness", None)
    assert basis_witness(GroebnerBasis(table, alpha), cap) is swept is None


def test_certificate_matches_the_sweep_on_a_non_unit_alpha():
    pres = presentation_from_arrangement(
        a_n_c(2, 2), relabelled(a22_fan(), (4, 3, 5, 7, 2, 6, 0, 1)))
    assert not all(c == 1 for c in pres.alpha_reducer()._lc)
    got, want = certified_and_swept(pres.table, pres.alpha(), pres.degree_cap)
    assert got is want is None


def a22_alphas():
    """The A(2,2) alphas under ``min`` and ``minwc``; ``max`` repeats
    ``minwc``."""
    for selector in ("min", "minwc"):
        pres = presentation_from_arrangement(a_n_c(2, 2), a22_fan(),
                                             selector=selector)
        yield pres.table, pres.alpha(), pres.degree_cap


def tail_changed(table, alpha):
    """Alpha with one tail coefficient of one element doubled, for every
    element with a tail."""
    for k, f in enumerate(alpha):
        lm, _ = table.leading(f)
        tail = next((m for m in f.terms if m != lm), None)
        if tail is not None:
            g = Polynomial({**f.terms, tail: 2 * f.terms[tail]})
            yield alpha[:k] + [g] + alpha[k + 1:]


def polynomial_added(table, alpha):
    """Alpha with one homogeneous polynomial added: c_a - c_b for every
    two toric variables, outside the ideal, and x * f for the first
    element f and every variable x, inside it."""
    toric = [table.variable(key) for key in table.keys if key[0] == "c"]
    for a, b in zip(toric, toric[1:]):
        yield alpha + [table.poly({a: 1, b: -1})]
    for p in range(table.n):
        yield alpha + [alpha[0].mul_term(1, table._vars[p])]


@pytest.mark.parametrize("mutate", [tail_changed, polynomial_added])
def test_certificate_matches_the_sweep_on_broken_alphas(mutate):
    # dropped elements are in test_pruned_sweep_matches_reference_on_a22
    failed = 0
    for table, alpha, cap in a22_alphas():
        for polys in mutate(table, alpha):
            assert all(c == 1 for c in GroebnerBasis(table, polys)._lc)
            got, want = certified_and_swept(table, polys, cap)
            assert got == want
            failed += want is not None
    assert failed


@st.composite
def unit_lead_inputs(draw):
    """Homogeneous polynomials over a weighted table of 1 to 4 variables
    of weights 1 to 3, each of its own degree from 1 to 4 with leading
    coefficient 1, and a degree cap from 0 to 8."""
    n = draw(st.integers(1, 4))
    weights = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    names = [f"v{i}" for i in range(n)]
    table = VariableTable(names, weights, names)
    coeffs = st.integers(-3, 3).filter(bool)
    polys = []
    for _ in range(draw(st.integers(0, 5))):
        monomials = table.monomials_of_degree(draw(st.integers(1, 4)))
        if not monomials:
            continue
        terms = draw(st.dictionaries(st.sampled_from(monomials), coeffs,
                                     min_size=1, max_size=3))
        terms[max(terms)] = 1
        polys.append(Polynomial(terms))
    return table, polys, draw(st.integers(0, 8))


@settings(max_examples=200, deadline=None)
@given(unit_lead_inputs())
def test_certificate_matches_the_sweep_on_weighted_tables(inputs):
    # weights above 1 exercise the stop after as many empty levels in a
    # row as the largest weight, which the bundled models barely reach
    table, polys, cap = inputs
    assert all(c == 1 for c in GroebnerBasis(table, polys)._lc)
    got, want = certified_and_swept(table, polys, cap)
    assert got == want


# -- pairs written from the stored tails against their polynomials -----------


def heap_pair_reduce(sweep, pair):
    """The reference for ``PairSweep.reduce``: build the pair's polynomial
    and reduce it by ``GroebnerBasis.reduce``."""
    return sweep.basis.reduce(pair_polynomial(sweep.basis, pair))


def assert_pairs_match_heap(basis, cap):
    """Every pair of the sweep reduces to the normal form of its
    polynomial, term for term; returns how many of them are nonzero."""
    sweep = PairSweep(basis, cap)
    nonzero = 0
    for j in range(len(basis)):
        for pair in sweep.pairs_with(j):
            nf = sweep.reduce(pair)
            want = heap_pair_reduce(sweep, pair)
            assert list(nf.terms.items()) == list(want.terms.items()), pair
            nonzero += bool(nf)
    return nonzero


def test_pair_reduce_matches_heap_on_models(model):
    # alpha, and alpha less one of the first three toric elements that are
    # not monomials, where some pairs have nonzero normal forms
    dropped = [g for g in model.toric_gb().elements if len(g.terms) > 1][:3]
    alphas = [model.alpha()] + [[f for f in model.alpha() if f != g]
                                for g in dropped]
    nonzero = [assert_pairs_match_heap(GroebnerBasis(model.table, alpha),
                                       model.degree_cap) for alpha in alphas]
    assert nonzero[0] == 0 and len(nonzero) == 4 and all(nonzero[1:]), nonzero


@st.composite
def sweep_bases(draw):
    """A weighted basis, half the time with every leading coefficient set
    to 1, else with some of them set to 1, and a degree cap from 0 to 8."""
    basis, _ = draw(weighted_bases())
    n = len(basis)
    unit = None if draw(st.booleans()) else draw(
        st.lists(st.booleans(), min_size=n, max_size=n))
    return unit_leads(basis, unit), draw(st.integers(0, 8))


@settings(max_examples=200, deadline=None)
@given(sweep_bases())
def test_pair_reduce_matches_heap_on_weighted_tables(basis_cap):
    assert_pairs_match_heap(*basis_cap)


# -- the lead-support index and the bulk pair counts against scans ------------


def lead_masks(basis):
    """The support mask of each lead, computed from ``_lm``."""
    return [basis.table.mono_mask(lm) for lm in basis._lm]


def scan_candidates(leads, term_mask):
    """The elements whose lead support lies in ``term_mask``, by a scan of
    the ``lead_masks``: every element whose mask lies inside it."""
    return [i for i, mask in enumerate(leads) if not mask & ~term_mask]


def lead_index(basis):
    """The exponents and degree of each lead, and bitsets of the elements
    by lead variable and by lead degree, built from the leads alone."""
    table = basis.table
    exps = [table.exponents(lm) for lm in basis._lm]
    degs = [table.mono_degree(lm) for lm in basis._lm]
    var_bits, deg_bits = [0] * table.n, {}
    for i, (lead, d) in enumerate(zip(exps, degs)):
        for p, e in enumerate(lead):
            if e:
                var_bits[p] |= 1 << i
        deg_bits[d] = deg_bits.get(d, 0) | 1 << i
    return exps, degs, var_bits, deg_bits


def visiting_pairs_with(sweep, j, index):
    """``pairs_with(j)`` and its counts, visiting every pair: with c_j = 1,
    a pair of two monomials is a monomial pair at any lcm degree; else a
    pair counts as visited when its leads share a variable or their
    degrees add up to at most the cap (the others are over it), and then
    the lcm degree, the monomial case and the criterion decide, pair by
    pair.  ``index`` is ``lead_index`` of the sweep's basis."""
    b = sweep.basis
    weights, cap = b.table.weights, sweep.degree_cap
    lcs, tails = b._lc, b._tails
    exps, degs, var_bits, deg_bits = index
    c_j, deg_j = lcs[j], degs[j]
    near = 0
    for p, e in enumerate(exps[j]):
        if e:
            near |= var_bits[p]
    for d, bits in deg_bits.items():
        if d + deg_j <= cap:
            near |= bits
    counts = {"pairs": j, "over_cap": j, "monomial": 0, "criterion": 0}
    out = []
    for i in range(j):
        if c_j == 1 and not tails[j] and not tails[i]:
            counts["over_cap"] -= 1
            counts["monomial"] += 1
            continue
        if not near >> i & 1:
            continue
        gcd_exps = [min(e, f) for e, f in zip(exps[i], exps[j])]
        deg = degs[i] + deg_j - sum(map(mul, weights, gcd_exps))
        common = any(gcd_exps)
        if deg > cap:
            continue
        counts["over_cap"] -= 1
        c_i = lcs[i]
        if not tails[j] and not tails[i]:
            counts["monomial"] += 1
        elif not common and c_i == 1 and c_j == 1:
            counts["criterion"] += 1
            continue
        else:
            out.append((deg, i, j, "S"))
        if c_i % c_j and c_j % c_i:
            out.append((deg, i, j, "G"))
    return out, counts


def assert_pairs_match_visits(basis, cap):
    """Every ``pairs_with(j)`` lists the visited pairs, in order, and the
    sweep's counts are the visits' totals."""
    sweep, index = PairSweep(basis, cap), lead_index(basis)
    totals = dict.fromkeys(("pairs", "over_cap", "monomial", "criterion"), 0)
    for j in range(len(basis)):
        want, counts = visiting_pairs_with(sweep, j, index)
        assert sweep.pairs_with(j) == want, j
        for key, n in counts.items():
            totals[key] += n
    assert sweep.counts == {**totals, "reduced": 0}
    return totals


def test_candidates_match_variable_scan_on_models(model):
    basis = GroebnerBasis(model.table, model.alpha())
    assert PairSweep(basis, model.degree_cap).witness() is None
    fresh = GroebnerBasis(model.table, model.alpha())
    assert len(basis._candidates) > 40
    leads = lead_masks(basis)
    for mask, found in basis._candidates.items():
        want = scan_candidates(leads, mask)
        assert found == want and fresh._candidates_for(mask) == want, mask


def test_pairs_match_visits_on_models(model):
    totals = assert_pairs_match_visits(GroebnerBasis(model.table, model.alpha()),
                                       model.degree_cap)
    assert totals["monomial"] and totals["criterion"]


@st.composite
def indexed_bases(draw):
    """A weighted basis that may hold a constant, with every support mask of
    its table: both the walk over sub-masks and the walk over groups."""
    basis, _ = draw(weighted_bases())
    table = basis.table
    if draw(st.booleans()):
        basis._append(table.const(draw(st.integers(1, 3))))
    masks = [sum(g for p, g in enumerate(table._guards) if bits >> p & 1)
             for bits in range(1 << table.n)]
    return basis, masks


@settings(max_examples=200, deadline=None)
@given(indexed_bases())
def test_candidates_match_variable_scan_on_weighted_tables(basis_masks):
    basis, masks = basis_masks
    leads = lead_masks(basis)
    for mask in masks:
        assert basis._candidates_for(mask) == scan_candidates(leads, mask), mask
    # the memo follows the basis as it grows
    basis._append(basis.table.term(1, basis.table.encode((1,) * basis.table.n)))
    leads = lead_masks(basis)
    for mask in masks:
        assert basis._candidates[mask] == scan_candidates(leads, mask), mask


def test_candidates_include_a_constant_lead():
    t = VariableTable("xyz", (1,) * 3, "xyz")
    basis = GroebnerBasis(t, [t.term(1, t.variable("x")), t.const(2),
                              t.term(1, t.variable("y"))])
    x = t.mono_mask(t.variable("x"))
    # three groups: the sub-masks of x and of 1, then the groups for x*y*z
    assert basis._candidates_for(x) == [0, 1]
    assert basis._candidates_for(0) == [1]
    assert basis._candidates_for(t._guard) == [0, 1, 2]


@settings(max_examples=200, deadline=None)
@given(sweep_bases())
def test_pairs_match_visits_on_weighted_tables(basis_cap):
    assert_pairs_match_visits(*basis_cap)


def pairs_in_order(basis, cap, order):
    """``pairs_with(j)`` of one fresh sweep for each j of ``order``, by j."""
    sweep = PairSweep(basis, cap)
    pairs = {j: sweep.pairs_with(j) for j in order}
    return [pairs[j] for j in range(len(basis))], sweep.counts


def test_pairs_out_of_order_match_pairs_in_order_on_models(model):
    # the sweep indexes the elements below j on the first pairs_with(j)
    basis = GroebnerBasis(model.table, model.alpha())
    n, cap = len(basis), model.degree_cap
    order = [(k * 7919 + 3) % n for k in range(n)]
    assert sorted(order) == list(range(n)) and order[0] > 0
    assert pairs_in_order(basis, cap, order) == pairs_in_order(basis, cap, range(n))


@settings(max_examples=200, deadline=None)
@given(sweep_bases(), st.data())
def test_pairs_out_of_order_match_pairs_in_order_on_weighted_tables(basis_cap, data):
    # and on a basis that grows between the calls, as in buchberger
    basis, cap = basis_cap
    n = len(basis)
    want = pairs_in_order(basis, cap, range(n))
    k = data.draw(st.integers(0, n))
    grown = GroebnerBasis(basis.table, basis.elements[:k])
    sweep = PairSweep(grown, cap)
    pairs = {}
    for part in (range(k), range(k, n)):
        for j in part:
            if j >= len(grown):
                grown._append(basis.elements[j])
        for j in data.draw(st.permutations(part)):
            pairs[j] = sweep.pairs_with(j)
    assert ([pairs[j] for j in range(n)], sweep.counts) == want


def test_gcd_pair_from_the_tails_matches_heap():
    # 2x + y and 3x + z: the GCD-pair -(2x + y) + (3x + z) = x - y + z is
    # written from the two tails and the lead gcd(2, 3) * x
    t = VariableTable("xyz", (1,) * 3, "xyz")
    x, y, z = (t.variable(v) for v in "xyz")
    basis = GroebnerBasis(t, [t.poly({x: 2, y: 1}), t.poly({x: 3, z: 1})])
    sweep = PairSweep(basis, 1)
    assert sweep.pairs_with(1) == [(1, 0, 1, "S"), (1, 0, 1, "G")]
    assert t.poly_name(sweep.reduce((1, 0, 1, "G"))) == "x-y+z"
    assert assert_pairs_match_heap(basis, 1) == 2


def test_disjoint_pair_with_a_non_unit_lead_is_reduced():
    # x^2 and y^2 share no variable, but 2*x^2 is no unit lead: the product
    # criterion does not apply over Z, and the S-pair is reduced
    t = VariableTable("xy", (1, 1), "xy")
    x, y = t.variable("x"), t.variable("y")
    basis = GroebnerBasis(t, [t.poly({x + x: 2, x + y: 1}), t.term(1, y + y)])
    assert PairSweep(basis, 4).pairs_with(1) == [(4, 0, 1, "S")]
    assert assert_pairs_match_visits(basis, 4)["criterion"] == 0


def test_buchberger_reduces_by_the_elements_it_adds(monkeypatch):
    # x > y > z.  The first S-pair reduces to x*z - 2*z^2, whose lead is
    # irreducible before it joins the basis; the next pair, of the same
    # degree, meets x*z again, which the new element reduces.  Later the
    # lead 5*z^3 is not a unit
    t = VariableTable("xyz", (1,) * 3, "xyz")
    x, y, z = (t.variable(v) for v in "xyz")
    m = t.mono_mul
    gens = [t.poly({m(x, x): 1, m(x, z): 1, m(z, z): -1}),
            t.poly({m(x, x): 1, m(z, z): 1}),
            t.poly({m(x, x): 1, m(x, y): -1, m(z, z): -1})]
    basis = buchberger(t, gens, 4)
    assert [t.poly_name(f) for f in basis.elements] == [
        "x*z-2*z^2", "x*y+2*z^2", "x^2+z^2", "5*z^3", "y*z^2-4*z^3"]
    got = term_lists(basis)
    monkeypatch.setattr(PairSweep, "reduce", heap_pair_reduce)
    assert got == term_lists(buchberger(t, gens, 4))


@settings(max_examples=100, deadline=None)
@given(homogeneous_inputs())
def test_buchberger_matches_heap_route_on_weighted_tables(inputs):
    table, gens, cap = inputs
    got = term_lists(buchberger(table, gens, cap))
    original = PairSweep.reduce
    PairSweep.reduce = heap_pair_reduce
    try:
        want = term_lists(buchberger(table, gens, cap))
    finally:
        PairSweep.reduce = original
    assert got == want


@st.composite
def sparse_matrices(draw):
    """Rows as column -> entry dicts: some empty, some without a unit."""
    ncols = draw(st.integers(0, 6))
    if ncols == 0:
        return draw(st.lists(st.just({}), max_size=2)), 0
    entries = st.integers(-4, 4).filter(bool)
    rows = draw(st.lists(st.dictionaries(st.integers(0, ncols - 1), entries,
                                         max_size=ncols), max_size=7))
    return rows, ncols


@settings(max_examples=200, deadline=None)
@given(sparse_matrices())
def test_sparse_quotient_matches_references(rows_ncols):
    rows, ncols = rows_ncols
    got = _sparse_quotient(rows, ncols)
    assert got == reference_sparse_quotient(rows, ncols)
    assert got == reference_heap_quotient(rows, ncols)
    assert got == dense_quotient(rows, ncols)


@st.composite
def unit_heavy_matrices(draw):
    """Up to 16 rows over up to 12 columns, entries mostly ±1, sometimes
    ±2 or 3: new pivots fill earlier rows and give waiting rows units.
    Also a permutation of the rows."""
    ncols = draw(st.integers(1, 12))
    entries = st.sampled_from((1, -1) * 4 + (2, -2, 3))
    rows = draw(st.lists(st.dictionaries(st.integers(0, ncols - 1), entries,
                                         max_size=ncols), max_size=16))
    return rows, ncols, draw(st.permutations(rows))


@settings(max_examples=300, deadline=None)
@given(unit_heavy_matrices())
def test_sparse_quotient_matches_dense_on_unit_heavy_matrices(inputs):
    rows, ncols, permuted = inputs
    before = [dict(r) for r in rows]
    got = _sparse_quotient(rows, ncols)
    assert rows == before
    assert got == dense_quotient(rows, ncols)
    assert _sparse_quotient(permuted, ncols) == got


@pytest.mark.parametrize("rows, ncols, expected", [
    ([{0: 2}], 1, (0, (2,))),
    ([{}, {0: 2}, {}], 2, (1, (2,))),
    ([{0: 2, 1: 4}, {0: 6, 1: 3}], 2, (0, (18,))),
    ([{0: 1, 1: 2}, {1: 4}], 2, (0, (4,))),
    ([{0: -1, 1: 3}, {0: 1, 1: 1}], 2, (0, (4,))),
    ([], 3, (3, ())),
    # single-unit rows: two on one column, a -1, and one beside a 2
    ([{0: 1}, {0: 1}, {0: 1, 1: 3}], 2, (0, (3,))),
    ([{1: -1}, {0: 2, 1: 5}], 2, (0, (2,))),
    ([{0: 1}, {0: 2, 1: 2}], 2, (0, (2,))),
    # a waiting row gains a unit; a new pivot is cleared from an earlier one
    ([{0: 2, 1: 3}, {1: 1, 0: 1}], 2, (0, ())),
    ([{0: 1, 1: 1}, {1: 1, 2: 2}, {2: 2, 3: 4}], 4, (1, (2,))),
])
def test_sparse_quotient_torsion(rows, ncols, expected):
    assert _sparse_quotient(rows, ncols) == expected
    assert reference_sparse_quotient(rows, ncols) == expected
    assert reference_heap_quotient(rows, ncols) == expected
