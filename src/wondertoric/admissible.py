"""Admissible monomials, the additive basis, and deletion-contraction checks.

A chain monomial lives on a chain of nested sets; its induced function
adds the exponents of the chain elements containing each building-set
member.  Admissibility bounds that function by rank differences inside
the base poset, and the admissible monomials paired with monomial bases
of the restricted toric rings enumerate an additive basis of the model's
cohomology.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .polyring import Monomial, Polynomial


@dataclass(frozen=True)
class AdmissibleFunction:
    """Values of a chain monomial on the building set, with its source chain."""

    support: frozenset
    values: tuple  # (member, value) pairs, deterministic order
    chain: tuple   # blowup labels, increasing
    exps: tuple

    def value(self, member) -> int:
        for m, v in self.values:
            if m == member:
                return v
        return 0


@dataclass(frozen=True)
class AMItem:
    chain: tuple
    exps: tuple
    degree: int


def monomial_to_function(pres, chain, exps) -> AdmissibleFunction:
    """Induced function of a chain monomial; errors off-chain."""
    bl = pres.bl
    chain = tuple(chain)
    exps = tuple(int(e) for e in exps)
    if len(chain) != len(exps) or any(e < 1 for e in exps):
        raise ValueError("one positive exponent per chain element")
    for a, b in zip(chain, chain[1:]):
        if not bl.poset.lt(a, b):
            raise ValueError("labels do not form an increasing chain")
    if not chain:
        return AdmissibleFunction(frozenset(), (), (), ())
    values: dict = {}
    for label, e in zip(chain, exps):
        for member in bl.nested(label).members:
            values[member] = values.get(member, 0) + e
    support = bl.nested(chain[-1]).members
    ordered = tuple(sorted(values.items(),
                           key=lambda kv: bl.member_pos[kv[0]]))
    return AdmissibleFunction(frozenset(support), ordered, chain, exps)


def is_admissible(pres, chain, exps) -> bool:
    """Each member's value stays under its rank gap inside the top stratum."""
    f = monomial_to_function(pres, chain, exps)
    if not f.chain:
        return True
    gaps = pres.bl.nested(f.chain[-1]).gaps(pres.poset)
    return all(f.value(g) < gap for g, gap in gaps.items())


def _chains(pres):
    blp = pres.bl.poset
    nonzero = [x for x in blp.labels if x != blp.zero]
    above = {x: [y for y in blp.upset(x) if y != x] for x in nonzero}

    def extend(chain):
        yield tuple(chain)
        for x in above[chain[-1]]:
            yield from extend(chain + [x])

    for x in nonzero:
        yield from extend([x])


def _exponents(steps, bounds, values, exps=(), degree=0):
    """``(exps, degree)`` for each way to give the chain labels of
    ``steps``, as ``(weight, members)``, exponents that keep every
    member's value below its bound."""
    if not steps:
        yield exps, degree
        return
    (weight, members), rest = steps[0], steps[1:]
    for e in range(1, min(bounds[g] - values[g] for g in members)):
        for g in members:
            values[g] += e
        yield from _exponents(rest, bounds, values, exps + (e,), degree + weight * e)
        for g in members:
            values[g] -= e


def enumerate_am(pres) -> list[AMItem]:
    """All admissible monomials, including 1, in canonical order.

    A chain's exponents are chosen left to right; each stops where a
    member of its label, which is a member of the top, would reach its
    bound.  Values only grow with the exponents, so nothing is missed.
    """
    bl = pres.bl
    out = [AMItem((), (), 0)]
    bounds_of: dict = {}
    for chain in _chains(pres):
        if chain[-1] not in bounds_of:
            bounds_of[chain[-1]] = bl.nested(chain[-1]).gaps(pres.poset)
        bounds = bounds_of[chain[-1]]
        steps = [(bl.poset.rank(a), bl.nested(a).members) for a in chain]
        out += [AMItem(chain, exps, degree) for exps, degree
                in _exponents(steps, bounds, dict.fromkeys(bounds, 0))]
    out.sort(key=lambda it: (it.degree, it.chain, it.exps))
    return out


def am_monomial(pres, item: AMItem) -> Monomial:
    mono = pres.table.one()
    for label, e in zip(item.chain, item.exps):
        var = pres.table.variable(("t", label), e)
        mono = pres.table.mono_mul(mono, var)
    return mono


def _restricted_escalier(pres, layer) -> list[list[Monomial]]:
    """The standard monomials of the restricted basis of ``layer``, by degree
    up to the torus dimension k = dim - rank of the layer in the poset,
    above which the ring of the restricted smooth complete fan vanishes
    (Cox, Little and Schenck 2011, section 12.4); a standard monomial of
    degree k + 1 fails."""
    gb, positions = pres.restricted_gb(layer)
    k = pres.dim - pres.poset.rank(layer)
    above = gb.standard_monomials(k + 1, positions)
    if above:
        cap = pres.degree_cap
        raise AssertionError(
            f"escalier of layer {pres.layer_name(layer)} does not vanish above"
            f" its torus dimension {k}"
            + (f" (the degree cap {cap} is below {k} + 1, so its restricted"
               f" basis is complete only up to degree {cap})" if cap <= k else "")
            + ": " + ", ".join(pres.table.mono_name(m) for m in above))
    return [gb.standard_monomials(d, positions) for d in range(k + 1)]


def enumerate_b(pres) -> list[tuple[Monomial, int]]:
    """The additive basis: admissible monomials times restricted escaliers."""
    out = []
    escaliers: dict = {}
    for item in enumerate_am(pres):
        layer = pres.bl.pi[item.chain[-1]] if item.chain else pres.poset.zero
        if layer not in escaliers:
            escaliers[layer] = _restricted_escalier(pres, layer)
        base = am_monomial(pres, item)
        for d, std in enumerate(escaliers[layer]):
            for b in std:
                out.append((pres.table.mono_mul(base, b), item.degree + d))
    out.sort(key=lambda t: (t[1], t[0]))
    return out


def generating_function(degrees) -> list[int]:
    """Coefficient list of the degree histogram."""
    degrees = list(degrees)
    if not degrees:
        return [0]
    out = [0] * (max(degrees) + 1)
    for d in degrees:
        out[d] += 1
    return out


def am_generating_function(pres) -> list[int]:
    return generating_function(it.degree for it in enumerate_am(pres))


def b_generating_function(pres) -> list[int]:
    return generating_function(d for _, d in enumerate_b(pres))


def basis_degree_counts(pres, up_to: int) -> list[int]:
    counts = b_generating_function(pres)
    if len(counts) < up_to + 1:
        counts = counts + [0] * (up_to + 1 - len(counts))
    return counts


@dataclass
class RecursionReport:
    which: str
    last_name: str
    codim: int
    lhs: list[int]
    deleted: list[int]
    contracted: list[int]
    rhs: list[int]

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs


def _poly_add(a: list[int], b: list[int]) -> list[int]:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    while out and out[-1] == 0:
        out.pop()
    return out


def _generating_function(which: str):
    if which not in ("AM", "B"):
        raise ValueError(f"recursion kind must be 'AM' or 'B', not {which!r}")
    return am_generating_function if which == "AM" else b_generating_function


def check_recursion(pres, which: str = "AM") -> RecursionReport:
    """Deletion-contraction identity for the generating function.

    Both sides are enumerated independently: the left on the model, the
    right on the deleted model plus (y + ... + y^(d-1)) times the
    contracted one, d the rank of the last member; ``which`` is AM or B.
    """
    gen = _generating_function(which)
    last = pres.building.last
    d = pres.poset.rank(last)
    lhs = gen(pres)
    deleted = gen(pres.delete_last())
    contracted = gen(pres.contract_last())
    rhs = list(deleted)
    for shift in range(1, d):
        rhs = _poly_add(rhs, [0] * shift + contracted)
    lhs = _poly_add(lhs, [])
    return RecursionReport(which, pres.layer_name(last), d,
                           lhs, _poly_add(deleted, []),
                           _poly_add(contracted, []), rhs)


def peel_down(pres, which: str = "AM") -> list[RecursionReport]:
    """Recursion reports for every deletion step down to the empty set.
    The walk drops each memoised deletion once it has moved past it, so
    ``pres`` keeps only its own ``delete_last()``, not the whole chain."""
    _generating_function(which)
    out = []
    current = pres
    while len(current.building) > 0:
        out.append(check_recursion(current, which))
        deleted = current.delete_last()
        if current is not pres:
            current._deleted = None
        current = deleted
    return out


def flag_decomposition(pres, mono: Monomial) -> Polynomial:
    """Rewrite along incomparable pairs until every monomial is a flag.

    Each rewriting step replaces a product of two incomparable blowup
    variables by meet times the sum over the joins (dropping the term when
    the join is empty); the count of incomparable pairs strictly drops, so
    this terminates.
    """
    table = pres.table
    blp = pres.bl.poset
    result = Polynomial({})
    stack = [(1, mono)]
    while stack:
        coeff, m = stack.pop()
        pair = None
        present = [table.keys[p][1] for p, _ in table.support(m)
                   if table.keys[p][0] == "t"]
        for a, b in itertools.combinations(present, 2):
            if not blp.leq(a, b) and not blp.leq(b, a):
                pair = (a, b)
                break
        if pair is None:
            result = result + table.term(coeff, m)
            continue
        a, b = pair
        base = table.mono_div(m, table.mono_mul(table.variable(("t", a)),
                                                table.variable(("t", b))))
        joins = blp.joins(a, b)
        if not joins:
            continue
        meets = blp.meets(a, b)
        assert len(meets) == 1
        meet = meets[0]
        if meet != blp.zero:
            base = table.mono_mul(base, table.variable(("t", meet)))
        for c in joins:
            stack.append((coeff, table.mono_mul(base, table.variable(("t", c)))))
    return result
