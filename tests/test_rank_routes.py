"""Differential tests of the two graded-rank routes against reference oracles.

The oracles below are the straightforward versions of the escalier and of
the SNF rank oracle's sparse elimination: the escalier lists every
degree-d monomial and tests each against every unit-coefficient lead; the
elimination looks for each pivot by scanning every live row for the unit
entry of least Markowitz cost.  The library grows the escalier level by
level and takes its pivots off a heap; it must give the same monomials, in
the same order, and the same rank and torsion.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wondertoric import polyring
from wondertoric.fixtures import a22_fan, a_n_c, running_arrangement, running_fan
from wondertoric.intlinalg import snf
from wondertoric.polyring import (
    GroebnerBasis,
    Polynomial,
    VariableTable,
    _sparse_quotient,
    graded_rank_oracle,
)
from wondertoric.presentation import presentation_from_arrangement

# -- reference oracles -----------------------------------------------------


def reference_standard_monomials(basis, d, positions=None):
    """Degree-d monomials over ``positions`` that no unit lead divides."""
    table = basis.table
    leads = [(lm, table.mono_mask(lm), table.mono_degree(lm))
             for lm, lc in map(table.leading, basis.elements) if abs(lc) == 1]
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


def test_oracle_matches_reference_on_models(model, monkeypatch):
    table, gens = model.table, model.toric() + model.relations().all()
    got = [graded_rank_oracle(table, gens, d) for d in range(model.dim + 1)]
    monkeypatch.setattr(polyring, "_sparse_quotient", reference_sparse_quotient)
    want = [graded_rank_oracle(table, gens, d) for d in range(model.dim + 1)]
    assert got == want
    assert all(torsion == () for _, torsion in got)


# -- generated inputs -----------------------------------------------------------


@st.composite
def weighted_bases(draw):
    """A basis over 1 to 4 variables of weights 1 to 3, whose leads have
    coefficients from -3 to 3, so both unit and non-unit leads occur."""
    n = draw(st.integers(1, 4))
    weights = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    names = [f"v{i}" for i in range(n)]
    table = VariableTable(names, weights, names, ("c",) * n)
    monomials = st.tuples(*[st.integers(0, 2)] * n)
    coeffs = st.integers(-3, 3).filter(bool)
    polys = st.dictionaries(monomials, coeffs, min_size=1, max_size=3)
    gens = draw(st.lists(polys.map(Polynomial), max_size=5))
    positions = draw(st.none() | st.lists(st.integers(0, n - 1), unique=True))
    return GroebnerBasis(table, gens), positions


@settings(max_examples=200, deadline=None)
@given(weighted_bases(), st.integers(0, 7))
def test_escalier_matches_reference_on_weighted_tables(basis_positions, d):
    basis, positions = basis_positions
    assert (basis.standard_monomials(d, positions)
            == reference_standard_monomials(basis, d, positions))


def test_escalier_weights_and_unit_leads():
    t = VariableTable("xy", (1, 2), "xy", ("c", "c"))
    basis = GroebnerBasis(t, [t.term(2, (1, 0)), t.term(1, (0, 1))])
    assert basis.standard_monomials(3) == [(3, 0)]
    assert basis.standard_monomials(2, [1]) == []
    assert basis.standard_monomials(2, [0]) == [(2, 0)]
    assert GroebnerBasis(t, []).standard_monomials(2) == [(2, 0), (0, 1)]
    assert GroebnerBasis(t, [t.const(1)]).standard_monomials(0) == []
    assert basis.standard_monomials(-1) == []


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
    assert got == dense_quotient(rows, ncols)


@pytest.mark.parametrize("rows, ncols, expected", [
    ([{0: 2}], 1, (0, (2,))),
    ([{}, {0: 2}, {}], 2, (1, (2,))),
    ([{0: 2, 1: 4}, {0: 6, 1: 3}], 2, (0, (18,))),
    ([{0: 1, 1: 2}, {1: 4}], 2, (0, (4,))),
    ([{0: -1, 1: 3}, {0: 1, 1: 1}], 2, (0, (4,))),
    ([], 3, (3, ())),
])
def test_sparse_quotient_torsion(rows, ncols, expected):
    assert _sparse_quotient(rows, ncols) == expected
    assert reference_sparse_quotient(rows, ncols) == expected
