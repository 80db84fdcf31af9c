"""Cohomology presentations of toric wonderful models.

A model is assembled from a poset of layers (each label a ``Layer``,
which carries its character lattice), a building set with a fixed
linear order, and a smooth fan carrying the equal-sign property for the
arrangement.  The graded ring lives in one variable table: a toric
variable of weight one per ray and a blowup variable per nonminimal
nested set, weighted by its size.

Three independent routes compute the graded ranks: the escalier of the
distinguished generating set ``alpha`` (verified to be a strong Groebner
basis), an SNF rank oracle run on the raw relations, and the count of
admissible-monomial basis elements.  They are required to agree.  The
oracle over alpha, not over the relations, certifies alpha with unit
leads; the pair sweep runs only where that fails or cannot decide.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .arrangement import name_layers, poset_of_layers
from .fan import Fan, check_fan, restrict_fan
from .intlinalg import complement_basis, hnf
from .polyring import (
    GroebnerBasis,
    GroebnerWitness,
    Polynomial,
    VariableTable,
    basis_witness,
    buchberger,
    graded_rank_oracle,
)
from .poset import (
    BlowupPoset,
    BuildingSet,
    RankedPoset,
    _label_sort_key,
    blowup_building,
    contraction,
    contraction_iso,
    deletion,
    make_building_set,
    select_building,
)


def _dot(u, v) -> int:
    return sum(x * y for x, y in zip(u, v))


def _admissibility_class(poset, bl: BlowupPoset, label) -> int:
    """Position of a blowup variable relative to the additive basis.

    0: the lone variable is inadmissible at a non-maximal member (it must
    lead its incomparable-pair relation, so it ranks above plain
    variables); 1: admissible (a basis candidate, kept low so that it
    survives as a standard monomial); 2: inadmissible only at maximal
    members (its cover relation already leads with it, so it ranks last
    and lets products lead elsewhere).
    """
    ns = bl.nested(label)
    maximal = {g for g in ns.members
               if not any(poset.lt(g, h) for h in ns.members)}
    failing = {g for g, gap in ns.gaps(poset).items() if gap <= 1}
    if failing - maximal:
        return 0
    if failing:
        return 2
    return 1


def build_variable_table(bl: BlowupPoset, fan: Fan, layer_names=None) -> VariableTable:
    """One table for the model: blowup variables above toric variables.

    Blowup variables are ranked by ascending rank of their projection
    (variables sitting over shallow strata come first), then by the
    admissibility class of the lone variable, then by the member-sequence
    key; toric variables come last, by descending ray label.  This is the
    ranking under which the distinguished generating set is a Groebner
    basis with the admissible monomials as its escalier.
    """
    layer_names = layer_names or {}
    base = bl.base
    pad = len(bl.building.order)
    entries = []
    for label in bl.poset.labels:
        if label == bl.poset.zero:
            continue
        idx = label[0]
        padded = idx + (pad,) * (pad - len(idx))
        entries.append((
            base.rank(bl.pi[label]),
            _admissibility_class(base, bl, label),
            tuple(-v for v in padded),
            _label_sort_key(label[1]),
            label,
        ))
    entries.sort(key=lambda t: t[:4])
    member_names = {m: layer_names.get(m, str(m)) for m in bl.building.members}
    by_members: dict = {}
    for label in bl.poset.labels:
        if label != bl.poset.zero:
            by_members.setdefault(label[0], []).append(label)
    keys, weights, names = [], [], []
    order = bl.building.order
    for *_, label in entries:
        keys.append(("t", label))
        weights.append(len(label[0]))
        member_str = ",".join(member_names[order[i]] for i in label[0])
        if len(by_members[label[0]]) > 1:
            xname = layer_names.get(label[1], str(label[1]))
            names.append("t{" + member_str + "|" + xname + "}")
        else:
            names.append("t{" + member_str + "}")
    for ray_label in sorted(fan.ray_labels, reverse=True):
        keys.append(("c", ray_label))
        weights.append(1)
        names.append(f"c{ray_label + 1}")
    return VariableTable(keys, weights, names)


def toric_relations(fan: Fan, table: VariableTable) -> list[Polynomial]:
    """Stanley-Reisner monomials for minimal non-faces plus linear forms.

    The linear forms are emitted for the Hermite-reduced dual basis of the
    fan's lattice, so their leading variables are distinct and monic.
    """
    out = []
    for nonface in fan.minimal_nonfaces():
        mono = table.one()
        for i in sorted(nonface):
            mono = table.mono_mul(mono, table.variable(("c", fan.ray_labels[i])))
        out.append(table.term(1, mono))
    if fan.lattice.rank == 0 or fan.nrays == 0:
        return out
    coords = dict(zip(fan.ray_labels, fan.ray_coords()))
    # columns ordered largest variable first makes HNF pivots the leads
    variables = sorted((("c", lab) for lab in fan.ray_labels),
                       key=table.position.__getitem__)
    matrix = [[coords[lab][j] for _, lab in variables]
              for j in range(fan.lattice.rank)]
    reduced, _ = hnf(matrix, cols=len(variables))
    for row in reduced:
        if any(row):
            out.append(table.poly({table.variable(v): coeff
                                   for v, coeff in zip(variables, row)}))
    return out


@dataclass
class RelationSet:
    monomial_i: list[Polynomial]
    chern_ii: list[Polynomial]
    incomparable_iii: list[Polynomial]

    def all(self) -> list[Polynomial]:
        return self.monomial_i + self.chern_ii + self.incomparable_iii

    def counts(self) -> dict[str, int]:
        return {"i": len(self.monomial_i), "ii": len(self.chern_ii),
                "iii": len(self.incomparable_iii)}


class ModelPresentation:
    """All the algebra of one model: relations, alpha, graded ranks.

    The fan is taken as given: a direct caller must run ``check_fan`` on
    it first, as ``presentation_from_arrangement`` and the CLI do.  It is
    not run here because ``delete_last`` and ``contract_last`` build new
    presentations on the same fan or a restriction of it.  Each is built
    once and kept, so the two recursions and the restriction map share
    them: one pass of the running-max-routes benchmark builds 3
    presentations, 2 of them on the full fan.
    """

    def __init__(self, poset: RankedPoset, building: BuildingSet,
                 fan: Fan, layer_names: dict | None = None,
                 degree_cap: int | None = None):
        self.poset = poset
        self.building = building
        self.fan = fan
        self.layer_names = dict(layer_names or {})
        self.dim = fan.lattice.rank
        self.degree_cap = degree_cap if degree_cap is not None else self.dim + 1
        self.bl = blowup_building(poset, building)
        self.table = build_variable_table(self.bl, fan, self.layer_names)
        self._restricted: dict = {}
        self._toric: list[Polynomial] | None = None
        self._relations: RelationSet | None = None
        self._alpha: list[Polynomial] | None = None
        self._alpha_verified: bool | None = None
        self._alpha_witness: GroebnerWitness | None = None
        self._alpha_reducer: GroebnerBasis | None = None
        self._deleted: ModelPresentation | None = None
        self._contracted: ModelPresentation | None = None

    # -- naming ---------------------------------------------------------

    def layer_name(self, label) -> str:
        return self.layer_names.get(label, str(label))

    def t_var(self, bl_label) -> Polynomial:
        """The variable of a blowup label; the minimum maps to 1."""
        if bl_label == self.bl.poset.zero:
            return self.table.const(1)
        return self.table.term(1, self.table.variable(("t", bl_label)))

    # -- relations -------------------------------------------------------

    def toric(self) -> list[Polynomial]:
        if self._toric is None:
            self._toric = toric_relations(self.fan, self.table)
        return self._toric

    def tau(self, member) -> Polynomial:
        """Negated sum of atom variables over members above the given one."""
        out = Polynomial({})
        for h in self.building.members:
            if self.poset.leq(member, h):
                atom = ((self.bl.member_pos[h],), h)
                out = out - self.t_var(atom)
        return out

    def relations(self) -> RelationSet:
        if self._relations is not None:
            return self._relations
        table = self.table
        blp = self.bl.poset
        rel_i = []
        # (i) toric variables vanishing on a stratum
        for label in blp.labels:
            if label == blp.zero:
                continue
            gamma = self.bl.pi[label].lattice
            tmono = table.variable(("t", label))
            for lab, ray in zip(self.fan.ray_labels, self.fan.rays):
                if any(_dot(chi, ray) for chi in gamma.basis):
                    rel_i.append(table.term(
                        1, table.mono_mul(tmono, table.variable(("c", lab)))))
        rel_ii = [self._cover_relation(a, b) for a, b in self._moving_covers()]
        rel_iii = [self._pair_relation(a, b) for a, b in self._incomparable_pairs()]
        self._relations = RelationSet(rel_i, rel_ii, rel_iii)
        return self._relations

    def _moving_covers(self) -> list:
        """The covers that move the projection, one relation (ii) each."""
        return [(a, b) for a, b in self.bl.covers
                if self.bl.pi[a] != self.bl.pi[b]]

    def _incomparable_pairs(self) -> list:
        """The incomparable pairs of strata, one relation (iii) each."""
        blp = self.bl.poset
        nonzero = [x for x in blp.labels if x != blp.zero]
        return [(a, b) for a, b in itertools.combinations(nonzero, 2)
                if not (blp.leq(a, b) or blp.leq(b, a))]

    def _cover_relation(self, alab, blab) -> Polynomial:
        table = self.table
        blp = self.bl.poset
        pa, pb = self.bl.pi[alab], self.bl.pi[blab]
        assert self.poset.lt(pa, pb)
        new = self.bl.nested(blab).members - self.bl.nested(alab).members
        assert len(new) == 1, "covers must add exactly one member"
        g = next(iter(new))
        atom = ((self.bl.member_pos[g],), g)
        assert blab in blp.joins(atom, alab), \
            "cover is not the join with the new member's atom"
        ga, gb = pa.lattice, pb.lattice
        s = gb.rank - ga.rank
        chis = complement_basis(ga, gb)
        assert len(chis) == s
        first = Polynomial({})
        for clab in blp.covers_above(alab):
            if self.poset.leq(pb, self.bl.pi[clab]):
                first = first - self.t_var(clab)
        tau_pow = table.const(1)
        tau_g = self.tau(g)
        for _ in range(s - 1):
            tau_pow = tau_pow * tau_g
        second = self.t_var(alab)
        for chi in chis:
            form = Polynomial({})
            for lab, ray in zip(self.fan.ray_labels, self.fan.rays):
                v = _dot(chi, ray)
                if v < 0:
                    form = form + table.term(-v, table.variable(("c", lab)))
            second = second * form
        rel = first * tau_pow + second
        assert table.is_homogeneous(rel) and rel, \
            "cover relation must be homogeneous and nonzero"
        return rel

    def _pair_relation(self, alab, blab) -> Polynomial:
        table = self.table
        blp = self.bl.poset
        prod = table.term(1, table.mono_mul(
            table.variable(("t", alab)), table.variable(("t", blab))))
        joins = blp.joins(alab, blab)
        if not joins:
            return prod
        meets = blp.meets(alab, blab)
        if len(meets) != 1:
            raise AssertionError(
                "incomparable pair with a join has a non-unique meet: "
                f"{alab} vs {blab}")
        rest = Polynomial({})
        for clab in joins:
            rest = rest + self.t_var(meets[0]) * self.t_var(clab)
            ra = len(self.bl.nested(alab).members)
            rb = len(self.bl.nested(blab).members)
            rm = len(self.bl.nested(meets[0]).members)
            rc = len(self.bl.nested(clab).members)
            assert ra + rb == rm + rc, "size balance fails on a join"
        return prod - rest

    # -- restricted fans and their Groebner bases -------------------------

    def restricted_fan(self, layer_label) -> Fan:
        return restrict_fan(self.fan, layer_label.lattice)

    def restricted_gb(self, layer_label):
        """Groebner basis of the restricted toric ideal, with c-positions."""
        key = layer_label.lattice.basis
        cached = self._restricted.get(key)
        if cached is not None:
            return cached
        sub = self.restricted_fan(layer_label)
        gens = toric_relations(sub, self.table)
        gb = buchberger(self.table, gens, self.degree_cap)
        positions = tuple(sorted(self.table.position[("c", lab)]
                                 for lab in sub.ray_labels))
        self._restricted[key] = (gb, positions)
        return gb, positions

    def toric_gb(self) -> GroebnerBasis:
        zero_layer = self.poset.zero
        gb, _ = self.restricted_gb(zero_layer)
        return gb

    # -- alpha -------------------------------------------------------------

    def alpha(self) -> list[Polynomial]:
        """U plus the full toric basis plus stratum-restricted toric bases."""
        if self._alpha is not None:
            return self._alpha
        out = list(self.relations().all())
        out.extend(self.toric_gb().elements)
        for label in self.bl.poset.labels:
            if label == self.bl.poset.zero:
                continue
            gb, _ = self.restricted_gb(self.bl.pi[label])
            tmono = self.table.variable(("t", label))
            for b in gb.elements:
                out.append(b.mul_term(1, tmono))
        self._alpha = out
        return out

    def verify_alpha(self) -> bool:
        """Is alpha a strong Groebner basis up to the cap?  Decided once."""
        if self._alpha_verified is None:
            self._alpha_witness = basis_witness(self.alpha_reducer(),
                                                self.degree_cap)
            self._alpha_verified = self._alpha_witness is None
        return self._alpha_verified

    def alpha_witness(self) -> GroebnerWitness | None:
        """The first alpha pair with a nonzero normal form, or None: what
        ``verify_alpha`` found, by a sweep only if the ranks fail."""
        self.verify_alpha()
        return self._alpha_witness

    def alpha_reducer(self) -> GroebnerBasis:
        """The basis of alpha, built once: the rank test or the pair sweep,
        the escalier and the restriction map share it, its escalier levels
        and its reducer lists."""
        if self._alpha_reducer is None:
            self._alpha_reducer = GroebnerBasis(self.table, self.alpha())
        return self._alpha_reducer

    # -- deletion / contraction -------------------------------------------

    def delete_last(self) -> "ModelPresentation":
        """The model without the last member, built once."""
        if self._deleted is None:
            sub, new_building = deletion(self.poset, self.building)
            self._deleted = ModelPresentation(sub, new_building, self.fan,
                                              self.layer_names, self.degree_cap)
        return self._deleted

    def contract_last(self) -> "ModelPresentation":
        """The model on the last member's stratum, built once."""
        if self._contracted is None:
            x = self.building.last
            upper, new_building = contraction(self.poset, self.building, x)
            sub_fan = restrict_fan(self.fan, x.lattice)
            self._contracted = ModelPresentation(upper, new_building, sub_fan,
                                                 self.layer_names)
        return self._contracted

    # -- graded ranks --------------------------------------------------------

    def betti(self, verify: bool = True) -> "BettiReport":
        table = self.table
        cap = self.degree_cap
        verified = self.verify_alpha() if verify else None
        if verify and not verified:
            raise AssertionError("alpha failed the Groebner pair test: "
                                 f"{self.alpha_witness()}")
        reducer = self.alpha_reducer()
        degrees = list(range(self.dim + 1))
        escalier = [reducer.standard_monomials(d) for d in degrees]
        above = reducer.standard_monomials(self.dim + 1)
        if above:
            raise AssertionError(
                f"escalier does not vanish above the torus dimension {self.dim}"
                + (f" (the degree cap {cap} is below dim + 1, so alpha is"
                   f" verified only up to degree {cap})" if cap <= self.dim else "")
                + ": " + ", ".join(table.mono_name(m) for m in above))
        gens = self.toric() + self.relations().all()
        oracle = [graded_rank_oracle(table, gens, d) for d in degrees]
        from . import admissible

        basis_degrees = admissible.basis_degree_counts(self, self.dim)
        ranks = [len(e) for e in escalier]
        torsion = [t for _, t in oracle if t]
        mismatch = []
        for d in degrees:
            entries = {"escalier": ranks[d], "oracle": oracle[d][0],
                       "admissible": basis_degrees[d]}
            if len(set(entries.values())) != 1:
                mismatch.append((d, entries))
        if torsion or mismatch:
            raise AssertionError(
                "graded rank routes disagree or torsion appeared: "
                f"torsion={torsion} mismatches={mismatch} "
                f"escalier={ranks} oracle={[r for r, _ in oracle]} "
                f"admissible={basis_degrees}")
        return BettiReport(
            ranks=ranks,
            torsion=[],
            groebner_verified=bool(verified) if verify else False,
            relation_counts=self.relations().counts(),
            escalier_by_degree=[[table.mono_name(m) for m in e] for e in escalier],
            routes={"escalier": ranks, "oracle": [r for r, _ in oracle],
                    "admissible": basis_degrees},
        )

    def leading_monomial_findings(self) -> dict[str, int]:
        """Compare actual leading monomials of the cover and pair relations
        against the textbook pattern (t_b * t_G^(s-1), resp. the product of
        the incomparable pair).

        Mismatches are expected for some pair relations (a join variable
        may outrank the product); they are reported, never forced.
        """
        table = self.table
        rels = self.relations()
        out = {"ii_match": 0, "ii_mismatch": 0, "iii_match": 0, "iii_mismatch": 0}
        for (alab, blab), rel in zip(self._moving_covers(), rels.chern_ii):
            pa, pb = self.bl.pi[alab], self.bl.pi[blab]
            g = next(iter(self.bl.nested(blab).members
                          - self.bl.nested(alab).members))
            s = pb.lattice.rank - pa.lattice.rank
            atom = ((self.bl.member_pos[g],), g)
            expected = table.mono_mul(table.variable(("t", blab)),
                                      table.variable(("t", atom), s - 1))
            lm, _ = table.leading(rel)
            out["ii_match" if lm == expected else "ii_mismatch"] += 1
        for (alab, blab), rel in zip(self._incomparable_pairs(),
                                     rels.incomparable_iii):
            if not self.bl.poset.joins(alab, blab):
                continue
            lm, _ = table.leading(rel)
            expected = table.mono_mul(table.variable(("t", alab)),
                                      table.variable(("t", blab)))
            out["iii_match" if lm == expected else "iii_mismatch"] += 1
        return out

    def restriction_images(self):
        """Variable assignment of the pullback onto the last stratum.

        Returns (images, deleted, contracted): toric variables map to
        themselves or to zero according to whether their ray annihilates
        the stratum's characters; a blowup variable maps to the sum of the
        contracted variables over its joins with the stratum's atom.
        """
        g_member = self.building.last
        deleted = self.delete_last()
        contracted = self.contract_last()
        atom = ((self.bl.member_pos[g_member],), g_member)
        s_nested = self.bl.nested_by_key[atom]
        fwd = contraction_iso(self.poset, self.building, self.bl, s_nested,
                              contracted.bl)
        images: dict = {}
        for key in deleted.table.keys:
            kind, payload = key
            if kind == "c":
                if payload in contracted.fan.ray_labels:
                    images[key] = contracted.table.term(
                        1, contracted.table.variable(("c", payload)))
                else:
                    images[key] = Polynomial({})
            else:
                assert payload in self.bl.nested_by_key, \
                    "deleted blowup element missing from the full blowup"
                img = Polynomial({})
                for e in self.bl.poset.joins(atom, payload):
                    img = img + contracted.t_var(fwd[e])
                images[key] = img
        return images, deleted, contracted

    def restriction_map_check(self) -> "RestrictionReport":
        """Pullback onto the last member's stratum is well defined.

        Maps each generator of the deleted model's ideal through the
        variable assignment and reduces modulo the contracted alpha; all
        images must reduce to zero.
        """
        images, deleted, contracted = self.restriction_images()
        gens = deleted.toric() + deleted.relations().all()
        max_deg = max(deleted.table.degree(g) for g in gens)
        cap = max(contracted.degree_cap, max_deg)
        reducer = contracted.alpha_reducer()
        witness = basis_witness(reducer, cap)
        if witness is not None:
            raise AssertionError(f"contracted alpha failed verification: {witness}")
        failures = []
        for g in gens:
            img = _substitute(deleted.table, contracted.table, images, g)
            nf = reducer.reduce(img)
            if nf:
                failures.append((deleted.table.poly_name(g),
                                 contracted.table.poly_name(nf)))
        return RestrictionReport(len(gens), failures)


def _substitute(src: VariableTable, dst: VariableTable, images: dict,
                f: Polynomial) -> Polynomial:
    out = Polynomial({})
    for m, c in f.terms.items():
        term = dst.const(c)
        for pos, e in src.support(m):
            img = images[src.keys[pos]]
            for _ in range(e):
                term = term * img
            if not term:
                break
        out = out + term
    return out


@dataclass
class BettiReport:
    ranks: list[int]
    torsion: list
    groebner_verified: bool
    relation_counts: dict[str, int]
    escalier_by_degree: list[list[str]]
    routes: dict[str, list[int]]

    def as_dict(self) -> dict:
        return {
            "betti": self.ranks,
            "torsion": self.torsion,
            "groebner_verified": self.groebner_verified,
            "relation_counts": self.relation_counts,
            "escalier_by_degree": self.escalier_by_degree,
            "routes": self.routes,
        }


@dataclass
class RestrictionReport:
    generators_checked: int
    failures: list[tuple[str, str]]

    @property
    def ok(self) -> bool:
        return not self.failures


def presentation_from_arrangement(arrangement, fan: Fan, selector="min",
                                  order=None, degree_cap=None,
                                  layer_names: dict | None = None) -> ModelPresentation:
    """Wire an arrangement and a fan into a model presentation.

    ``selector`` picks the building set: "min", "max", "minwc", or an
    explicit collection of poset elements (see ``select_building``).
    ``layer_names`` may name derived layers; unnamed ones get generated
    W<rank>.<k> labels.
    """
    check_fan(fan)
    poset = poset_of_layers(arrangement)
    building = make_building_set(poset, select_building(poset, selector), order)
    names = name_layers(arrangement, poset, layer_names)
    return ModelPresentation(poset, building, fan, names, degree_cap)
