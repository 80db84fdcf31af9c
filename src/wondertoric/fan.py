"""Smooth fans, annihilator restrictions and equal-sign checks.

A fan is a set of primitive integer rays plus its maximal cones; rays are
kept in ambient coordinates even after restriction, with the sublattice
the restricted fan lives in recorded alongside (the quotient torus never
needs explicit coordinates).  Completeness is declared by the caller and
checked only in part: ``check_pseudomanifold`` rejects a ray in no
maximal cone, maximal cones of the wrong size and facets not shared by
exactly two of them, a necessary condition; a Monte-Carlo coverage probe
is available for debugging but is not authoritative.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .intlinalg import Sublattice, annihilator, kernel_basis, snf


def _primitive(vec) -> tuple[int, ...]:
    g = 0
    for x in vec:
        g = gcd(g, abs(x))
    if g == 0:
        raise ValueError("zero ray")
    return tuple(x // g for x in vec)


@dataclass(frozen=True)
class Fan:
    """Rays (ambient coordinates) and maximal cones (index sets).

    ``lattice`` is the sublattice of the ambient lattice the fan spans
    inside; smoothness is measured against it.  ``ray_labels`` tie rays to
    their identities in an enclosing fan across restrictions.
    """

    ambient_rank: int
    rays: tuple[tuple[int, ...], ...]
    max_cones: tuple[frozenset[int], ...]
    ray_labels: tuple[int, ...]
    lattice: Sublattice

    @property
    def nrays(self) -> int:
        return len(self.rays)

    def cones(self) -> set[frozenset[int]]:
        """All faces of all maximal cones (simplicial fans), incl. the origin."""
        out = {frozenset()}
        for c in self.max_cones:
            for k in range(1, len(c) + 1):
                out.update(map(frozenset, itertools.combinations(sorted(c), k)))
        return out

    def minimal_nonfaces(self) -> list[frozenset[int]]:
        """Minimal ray sets not contained in any cone (Stanley-Reisner data):
        the pairs of rays that span no cone, then each face f of two or
        more rays with one ray v > max(f) added, when that is no face but
        every facet of it is."""
        faces = self.cones()
        found = [s for s in map(frozenset, itertools.combinations(range(self.nrays), 2))
                 if s not in faces]
        for f in faces:
            if len(f) < 2:
                continue
            for v in range(max(f) + 1, self.nrays):
                s = f | {v}
                if s not in faces and all(s - {u} in faces for u in f):
                    found.append(s)
        found.sort(key=lambda s: (len(s), sorted(s)))
        return found

    def ray_coords(self) -> list[tuple[int, ...]]:
        """Rays in coordinates of the fan's own lattice."""
        out = []
        for r in self.rays:
            c = self.lattice.solve(r)
            if c is None:
                raise ValueError("ray does not lie in the fan lattice")
            out.append(c)
        return out


def make_fan(ambient_rank: int, rays, max_cones, ray_labels=None,
             lattice: Sublattice | None = None) -> Fan:
    rays = tuple(tuple(map(int, r)) for r in rays)
    for r in rays:
        if len(r) != ambient_rank:
            raise ValueError("ray length does not match ambient rank")
        if _primitive(r) != r:
            raise ValueError(f"ray {r} is not primitive")
    if len(set(rays)) != len(rays):
        raise ValueError("duplicate rays")
    max_cones = [list(map(int, c)) for c in max_cones]
    for c in max_cones:
        if not c or max(c) >= len(rays) or min(c) < 0:
            raise ValueError("cone indexes a missing ray")
        if len(set(c)) != len(c):
            raise ValueError(f"maximal cone {c} repeats a ray index")
    cones = tuple(frozenset(c) for c in max_cones)
    if ray_labels is None:
        ray_labels = tuple(range(len(rays)))
    if lattice is None:
        lattice = Sublattice.full(ambient_rank)
    fan = Fan(ambient_rank, rays, cones, tuple(ray_labels), lattice)
    for c in cones:
        mat = [fan.rays[i] for i in sorted(c)]
        if snf(mat).rank != len(c):
            raise ValueError("maximal cone rays are linearly dependent")
    return fan


def is_smooth(fan: Fan) -> bool:
    """Every maximal cone simplicial and completable to a lattice basis."""
    coords = fan.ray_coords()
    for c in fan.max_cones:
        mat = [coords[i] for i in sorted(c)]
        res = snf(mat, cols=fan.lattice.rank)
        if res.rank != len(c) or any(d != 1 for d in res.invariant_factors):
            return False
    return True


def check_pseudomanifold(fan: Fan) -> None:
    """Raise ValueError unless every ray lies in a maximal cone, every
    maximal cone has ``lattice.rank`` rays and each of its facets lies in
    exactly two maximal cones.  A complete simplicial fan passes; passing
    does not make a fan complete."""
    dim = fan.lattice.rank
    if dim and not fan.max_cones:
        raise ValueError("the fan has no maximal cones")
    unused = set(range(fan.nrays)).difference(*fan.max_cones)
    if unused:
        r = min(unused)
        raise ValueError(f"ray {r} {list(fan.rays[r])} lies in no maximal cone")
    holders: dict[frozenset[int], int] = {}
    for c in fan.max_cones:
        if len(c) != dim:
            raise ValueError(f"maximal cone {sorted(c)} has {len(c)} rays, "
                             f"not {dim}: the fan is not complete")
        for r in sorted(c):
            facet = c - {r}
            holders[facet] = holders.get(facet, 0) + 1
    for facet, k in holders.items():
        if k != 2:
            raise ValueError(f"facet {sorted(facet)} should lie in 2 maximal "
                             f"cones, but lies in {k}: the maximal cones do not "
                             "form a complete fan")


def restrict_fan(fan: Fan, gamma: Sublattice) -> Fan:
    """Subfan of cones lying in the annihilator of ``gamma``.

    Rays stay in ambient coordinates; the annihilator lattice is recorded
    so that smoothness and toric relations of the restriction are taken
    relative to it.
    """
    ann = annihilator(gamma)
    in_ann = [i for i, r in enumerate(fan.rays)
              if all(sum(x * y for x, y in zip(chi, r)) == 0
                     for chi in gamma.basis)]
    keep = set(in_ann)
    sub_cones = {frozenset(c & keep) for c in fan.max_cones}
    sub_cones.discard(frozenset())
    maximal = [c for c in sub_cones
               if not any(c < d for d in sub_cones if d != c)]
    old_to_new = {i: k for k, i in enumerate(in_ann)}
    rays = tuple(fan.rays[i] for i in in_ann)
    labels = tuple(fan.ray_labels[i] for i in in_ann)
    cones = tuple(sorted((frozenset(old_to_new[i] for i in c) for c in maximal),
                         key=lambda c: sorted(c)))
    return Fan(fan.ambient_rank, rays, cones, labels, ann)


def _feasible_all_ge_one(rows) -> bool:
    """Exact Fourier-Motzkin: does ``rows @ mu >= 1`` componentwise have a solution?

    ``rows`` is a list of rational coefficient vectors, one inequality
    sum_j rows[i][j] * mu_j >= 1 per row.
    """
    if not rows:
        return True
    nvars = len(rows[0])
    # constraints as (coeffs, const) meaning coeffs . mu >= const
    cons = [([Fraction(x) for x in r], Fraction(1)) for r in rows]
    for v in range(nvars):
        pos, neg, rest = [], [], []
        for coeffs, const in cons:
            cv = coeffs[v]
            if cv > 0:
                pos.append((coeffs, const))
            elif cv < 0:
                neg.append((coeffs, const))
            else:
                rest.append((coeffs, const))
        new = rest
        for pc, pk in pos:
            for nc, nk in neg:
                # eliminate mu_v between pc.mu >= pk and nc.mu >= nk
                a, b = pc[v], -nc[v]
                coeffs = [b * x + a * y for x, y in zip(pc, nc)]
                coeffs[v] = Fraction(0)
                new.append((coeffs, b * pk + a * nk))
        cons = new
    return all(const <= 0 for _, const in cons)


def cone_interior_meets(fan: Fan, cone: frozenset[int], gamma: Sublattice) -> bool:
    """Does the relative interior of the cone meet the annihilator of gamma?

    Exact rational feasibility of a strictly positive ray combination
    pairing to zero with every character.
    """
    rays = [fan.rays[i] for i in sorted(cone)]
    if not rays:
        return True  # the origin lies in every linear subspace
    m = [[sum(x * y for x, y in zip(chi, r)) for r in rays]
         for chi in gamma.basis]
    ker = kernel_basis(m, cols=len(rays))
    if not ker:
        return False
    rows = [[Fraction(k[i]) for k in ker] for i in range(len(rays))]
    return _feasible_all_ge_one(rows)


def interior_condition(fan: Fan, gamma: Sublattice) -> bool:
    """Each cone's interior meets the annihilator only if the cone lies in it."""
    for cone in fan.cones():
        if not cone:
            continue
        inside = all(
            all(sum(x * y for x, y in zip(chi, fan.rays[i])) == 0
                for chi in gamma.basis)
            for i in cone
        )
        if inside:
            continue
        if cone_interior_meets(fan, cone, gamma):
            return False
    return True


@dataclass(frozen=True)
class EqualSignResult:
    status: str  # "found" | "refuted" | "inconclusive"
    basis: tuple[tuple[int, ...], ...] | None = None

    @property
    def found(self) -> bool:
        return self.status == "found"


def _single_signed(chi, rays) -> bool:
    vals = [sum(x * y for x, y in zip(chi, r)) for r in rays]
    return all(v >= 0 for v in vals) or all(v <= 0 for v in vals)


def equal_sign_search(gamma: Sublattice, cone_rays, bound: int | None = None) -> EqualSignResult:
    """Search for a basis of gamma with every vector single-signed on the cone.

    Enumerates unimodular recombinations of the Hermite basis with entries
    bounded by ``bound``.  Exhaustion is reported as inconclusive except
    in rank one, where the check is exact.
    """
    t = gamma.rank
    rays = [tuple(r) for r in cone_rays]
    if t == 0:
        return EqualSignResult("found", ())
    if t == 1:
        chi = gamma.basis[0]
        if _single_signed(chi, rays):
            return EqualSignResult("found", (chi,))
        return EqualSignResult("refuted")
    if bound is None:
        bound = 3 if t == 2 else 1
    base = [list(r) for r in gamma.basis]
    entries = range(-bound, bound + 1)
    for flat in itertools.product(entries, repeat=t * t):
        u = [list(flat[i * t:(i + 1) * t]) for i in range(t)]
        det = _det(u)
        if det not in (1, -1):
            continue
        cand = [tuple(sum(u[i][k] * base[k][j] for k in range(t))
                      for j in range(gamma.ambient_rank)) for i in range(t)]
        if all(_single_signed(chi, rays) for chi in cand):
            return EqualSignResult("found", tuple(cand))
    return EqualSignResult("inconclusive")


def _det(m) -> int:
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    out = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        out += (-1) ** j * m[0][j] * _det(minor)
    return out


def coverage_probe(fan: Fan, samples: int = 200, seed: int = 0) -> bool:
    """Debug-only completeness probe: random directions must land in a cone.

    Non-authoritative; inputs are declared complete by their producers.
    """
    rng = random.Random(seed)
    coords = fan.ray_coords()
    dim = fan.lattice.rank
    for _ in range(samples):
        target = [Fraction(rng.randint(-50, 50)) for _ in range(dim)]
        hit = False
        for cone in fan.max_cones:
            idx = sorted(cone)
            if len(idx) != dim:
                continue
            mat = [[Fraction(coords[i][d]) for i in idx] for d in range(dim)]
            sol = _solve_rational(mat, target)
            if sol is not None and all(x >= 0 for x in sol):
                hit = True
                break
        if not hit:
            return False
    return True


def _solve_rational(mat, rhs):
    n = len(mat)
    a = [row[:] + [rhs[i]] for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]
