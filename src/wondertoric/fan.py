"""Smooth fans, annihilator restrictions and equal-sign checks.

A fan is a set of primitive integer rays plus its maximal cones; rays are
kept in ambient coordinates even after restriction, with the sublattice
the restricted fan lives in recorded alongside (the quotient torus never
needs explicit coordinates).  ``check_fan`` decides exactly that
a fan is smooth and complete: every maximal cone is unimodular, the two
maximal cones on each facet lie on opposite sides of it, and one generic
point lies in exactly one maximal cone.  ``equal_sign`` decides the
equal-sign property of a cone by one exact feasibility test.
"""

from __future__ import annotations

import itertools
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


def make_fan(ambient_rank: int, rays, max_cones) -> Fan:
    if ambient_rank < 0:
        raise ValueError(f"ambient_rank must be nonnegative, not {ambient_rank}")
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
    fan = Fan(ambient_rank, rays, cones, tuple(range(len(rays))),
              Sublattice.full(ambient_rank))
    for c in cones:
        mat = [fan.rays[i] for i in sorted(c)]
        if snf(mat).rank != len(c):
            raise ValueError("maximal cone rays are linearly dependent")
    return fan


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


def check_fan(fan: Fan) -> None:
    """Raise ValueError, naming the cone, facet or point, unless the fan
    is smooth and complete.

    Beyond ``check_pseudomanifold``: each maximal cone must be unimodular,
    and the columns of its inverse are its facet normals u(c, r), with
    <u(c, r), r> = 1.  The two cones on a facet must give opposite
    normals.  Crossing a facet then leaves one cone and enters another, so
    every point off the facet hyperplanes lies in the same number of
    maximal cones; the fan is complete when one such point, on the moment
    curve (1, t, t^2, ...), lies in exactly one.
    """
    check_pseudomanifold(fan)
    dim = fan.lattice.rank
    if dim == 0:
        return
    coords = fan.ray_coords()
    normals: dict[frozenset[int], list[tuple[int, ...]]] = {}
    by_facet: dict[frozenset[int], list[tuple[int, ...]]] = {}
    for c in fan.max_cones:
        idx = sorted(c)
        res = snf([coords[i] for i in idx], transforms=True)
        if any(d != 1 for d in res.invariant_factors) or res.rank != dim:
            raise ValueError(f"maximal cone {idx} is not smooth")
        inv = [[sum(a * b for a, b in zip(row, col)) for col in zip(*res.left)]
               for row in res.right]
        normals[c] = list(zip(*inv))
        for r, u in zip(idx, normals[c]):
            by_facet.setdefault(c - {r}, []).append(u)
    for facet, (u, v) in by_facet.items():
        if any(x != -y for x, y in zip(u, v)):
            raise ValueError(f"the maximal cones on facet {sorted(facet)} "
                             "lie on one side of it")
    t = 1
    while True:
        p = [t ** k for k in range(dim)]
        if all(sum(x * y for x, y in zip(u, p)) for u, _ in by_facet.values()):
            break
        t += 1
    holders = [sorted(c) for c in fan.max_cones
               if all(sum(x * y for x, y in zip(u, p)) > 0
                      for u in normals[c])]
    if len(holders) != 1:
        raise ValueError(f"the point {p} lies in {len(holders)} maximal cones "
                         f"{holders}: the fan is not complete")


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


def equal_sign(gamma: Sublattice, cone_rays) -> bool:
    """Does gamma have a basis with every vector single-signed on the cone?

    Exactly when some chi in gamma (x) R pairs >= 1 with every ray that
    gamma does not annihilate: the cone of such chi is then
    full-dimensional, so it holds a unimodular subcone (stellar
    subdivision), whose generators are such a basis.
    """
    rows = [[sum(x * y for x, y in zip(chi, r)) for chi in gamma.basis]
            for r in cone_rays]
    return _feasible_all_ge_one([row for row in rows if any(row)])
