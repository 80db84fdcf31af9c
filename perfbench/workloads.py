"""The benchmark's workloads: inputs, the timed work, and its checks.

Each workload splits a run into the steps the harness times apart:

- ``load()`` imports the package (timed, part of set-up);
- ``inputs(mods, seed)`` makes the inputs (the benchmark's own cost, untimed);
- ``build(mods, inputs)`` parses and assembles the model (timed, set-up);
- ``steps(mods, state)`` lists the work a user waits for, as callables the
  harness times one by one (``solve_s``);
- ``check(mods, state, results)`` takes the steps' results and returns the
  failed checks (untimed);
- ``counters(mods, state)`` gives per-layer counts computed from outside
  the package (traced runs only), with the gate checks on them.
"""

from __future__ import annotations

import importlib
import os
import random
from fractions import Fraction
from types import SimpleNamespace

DATA = os.path.join("src", "wondertoric", "data")

# ROADMAP item 1 gate: pairs, over the cap, monomial-monomial, coprime
# leads with unit coefficients, reduced, genuine reductions.
PAIR_GATES = {
    "min": (148240, 128144, 10835, 7041, 9261, 2220),
    "max": (509545, 469841, 22173, 13567, 17531, 3964),
}
PAIR_KEYS = ("pairs", "pairs_over_cap", "pairs_monomial", "pairs_coprime",
             "pairs_reduced", "pairs_genuine")


def load(root: str) -> SimpleNamespace:
    """Import the package and the modules the workloads call."""
    wt = importlib.import_module("wondertoric")
    return SimpleNamespace(
        wt=wt,
        cli=importlib.import_module("wondertoric.cli"),
        poset=importlib.import_module("wondertoric.poset"),
        admissible=importlib.import_module("wondertoric.admissible"),
        fixtures=importlib.import_module("wondertoric.fixtures"),
        root=root,
    )


# -- the running example -------------------------------------------------------


class _Running:
    """The paper's reference model from the bundled JSON files."""

    selector = ""

    def inputs(self, mods, seed):
        return (os.path.join(mods.root, DATA, "running.arr.json"),
                os.path.join(mods.root, DATA, "running.fan.json"))

    def build(self, mods, inputs):
        warnings: list[str] = []
        arr = mods.cli.parse_arrangement(inputs[0], warnings)
        fan = mods.cli.parse_fan(inputs[1], warnings)
        return mods.wt.presentation_from_arrangement(arr, fan,
                                                     selector=self.selector)

    def counters(self, mods, pres):
        out = pair_counters(mods, pres)
        problems = []
        got = tuple(out[k] for k in PAIR_KEYS)
        if got != PAIR_GATES[self.selector]:
            problems.append(f"pair counters {got} differ from the gate "
                            f"{PAIR_GATES[self.selector]}")
        out["relations"] = len(pres.relations().all())
        out["alpha_size"] = len(pres.alpha())
        out["variables"] = pres.table.n
        return out, problems


def _route_problems(report, expected) -> list[str]:
    problems = []
    if report.ranks != expected:
        problems.append(f"Betti numbers {report.ranks}, expected {expected}")
    for route, ranks in report.routes.items():
        if ranks != expected:
            problems.append(f"route {route} gives {ranks}")
    if report.torsion:
        problems.append(f"torsion {report.torsion}")
    return problems


class RunningMin(_Running):
    name = "running-min"
    selector = "min"

    def steps(self, mods, pres):
        return [pres.betti]

    def check(self, mods, pres, results):
        report, = results
        problems = _route_problems(report, [1, 15, 15, 1])
        if not report.groebner_verified:
            problems.append("alpha was not verified as a Groebner basis")
        return problems


class RunningMaxRoutes(_Running):
    name = "running-max-routes"
    selector = "max"

    def steps(self, mods, pres):
        """What ``verify`` runs besides the alpha sweep, in its order."""
        poset, admissible = mods.poset, mods.admissible

        def blowups():
            orders = poset.linear_refinements(pres.poset, pres.building.members, 3)
            return [poset.iterated_blowup(pres.poset, order) for order in orders]

        return [
            lambda: pres.betti(verify=False),
            lambda: admissible.check_recursion(pres, "AM"),
            lambda: admissible.check_recursion(pres, "B"),
            blowups,
            pres.restriction_map_check,
            pres.leading_monomial_findings,
        ]

    def check(self, mods, pres, results):
        report, *recursions, blowups, restriction, findings = results
        problems = _route_problems(report, [1, 18, 18, 1])
        for rec in recursions:
            if not rec.ok:
                problems.append(f"{rec.which} recursion: {rec.lhs} != {rec.rhs}")
        if not restriction.ok:
            problems.append(f"restriction map fails on {restriction.failures[:3]}")
        if len(blowups) != 3:
            problems.append(f"{len(blowups)} linear refinements, expected 3")
        problems += _order_problems(pres.bl, blowups)
        rels = pres.relations()
        with_join = sum(1 for f in rels.incomparable_iii if len(f.terms) > 1)
        if (findings["ii_match"] + findings["ii_mismatch"] != len(rels.chern_ii)
                or findings["iii_match"] + findings["iii_mismatch"] != with_join):
            problems.append(f"leading-monomial findings {findings} do not "
                            "cover the cover and join relations")
        return problems


def _order_problems(bl, blowups) -> list[str]:
    """Iterated blowups must reproduce the nested-set face poset."""
    face = {(bl.nested(lab).members, bl.nested(lab).x) for lab in bl.poset.labels}
    problems = []
    for q, decode in blowups:
        if {(s, x) for s, x in decode.values()} != face or len(q) != len(face):
            problems.append("an iterated blowup differs from the nested-set faces")
    return problems


def pair_counters(mods, pres) -> dict:
    """Classify the alpha pairs as ``is_groebner`` meets them.

    A pair is over the cap when its lcm degree exceeds the degree cap;
    otherwise two monomials need no reduction, every other pair has its
    S-polynomial reduced, and a pair whose leading coefficients do not
    divide each other also has its GCD-polynomial reduced.  A reduced
    S-pair is coprime when its leading monomials share no variable and
    both leading coefficients are units (Buchberger's product criterion
    would skip it); the rest are genuine.
    """
    table = pres.table
    basis = mods.wt.GroebnerBasis(table, pres.alpha())
    leads = [table.leading(f) for f in basis.elements]
    single = [len(f.terms) == 1 for f in basis.elements]
    masks = [table.mono_mask(m) for m, _ in leads]
    cap = pres.degree_cap
    n = len(leads)
    over = monomial = coprime = reduced = 0
    for j in range(n):
        mj, cj = leads[j]
        for i in range(j):
            mi, ci = leads[i]
            if table.mono_degree(table.mono_lcm(mi, mj)) > cap:
                over += 1
                continue
            if single[i] and single[j]:
                monomial += 1
            else:
                reduced += 1
                if not masks[i] & masks[j] and abs(ci) == 1 and abs(cj) == 1:
                    coprime += 1
            if ci % cj and cj % ci:
                reduced += 1
    out = dict(zip(PAIR_KEYS, (n * (n - 1) // 2, over, monomial, coprime,
                               reduced, reduced - coprime)))
    out["pair_waste"] = coprime / reduced if reduced else 0.0
    return out


# -- arrangement combinatorics ---------------------------------------------------

# Random combinatorial types: (rank, subtori, count).  They are drawn once
# from TYPE_SEED; the run's seed then moves each one by a random signed
# permutation of the coordinates and a random torsion translation.  Those
# are automorphisms of the torus, so every seed gives isomorphic inputs in
# other coordinates: the run-to-run spread measures the program, not the
# size of the draw (fresh draws vary the run time by a quarter).
TYPE_SEED = 20241004
RANDOM_FAMILIES = ((3, 4, 8), (2, 6, 8))
# (layers, minimal building-set members, blowup faces) of each drawn type;
# isomorphism invariants, so every seed must reproduce them
RANDOM_EXPECTED = (
    (39, 4, 39), (18, 4, 18), (19, 5, 23), (24, 5, 34), (27, 5, 31),
    (20, 5, 25), (44, 6, 64), (25, 5, 28), (20, 8, 29), (25, 9, 35),
    (20, 8, 29), (28, 11, 45), (19, 10, 33), (27, 9, 37), (30, 11, 45),
    (13, 9, 25),
)

# A(n,c) under "max" is left out: its building set is the minwc closure
# (every layer above the torus, which the check asserts), so it would
# repeat the same blowups.
ANC_ITEMS = ([(2, c, sel) for c in range(2, 9) for sel in ("min", "minwc")]
             + [(3, 2, sel) for sel in ("min", "minwc")]
             + [(4, 2, "min")])


def draw_types(mods, rng: random.Random) -> list[tuple[int, list, int]]:
    """Random arrangements as (rank, [(rows, phase numerators)], q).

    Characters have entries in [-2, 2]; phases are multiples of 1/q with
    q in {1, 2, 3}.  Rows that fail to cut out a connected subtorus of the
    drawn codimension are redrawn.
    """
    types = []
    for rank, count, repeat in RANDOM_FAMILIES:
        for _ in range(repeat):
            q = rng.choice((1, 2, 3))
            subtori, seen = [], set()
            while len(subtori) < count:
                codim = rng.choice((1, 1, 2)) if rank >= 3 else 1
                rows = [tuple(rng.randint(-2, 2) for _ in range(rank))
                        for _ in range(codim)]
                nums = [rng.randrange(q) for _ in rows]
                try:
                    layer = mods.wt.Layer.make(rank, rows, [Fraction(a, q) for a in nums])
                except ValueError:
                    continue
                if layer.rank != codim or layer in seen:
                    continue
                seen.add(layer)
                subtori.append((rows, nums))
            types.append((rank, subtori, q))
    return types


def move(rank, subtori, q, rng: random.Random):
    """Apply a random signed permutation and a translation of order q."""
    perm = list(range(rank))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(rank)]
    shift = [rng.randrange(q) for _ in range(rank)]
    out = []
    for rows, nums in subtori:
        new_rows, phases = [], []
        for row, a in zip(rows, nums):
            new = [0] * rank
            for k, v in enumerate(row):
                new[perm[k]] = signs[k] * v
            new_rows.append(new)
            phases.append(Fraction(a + sum(x * t for x, t in zip(new, shift)), q))
        out.append((new_rows, phases))
    return out


class Arrangements:
    """Poset of layers, building sets, nested sets and iterated blowups."""

    name = "arrangements"

    def inputs(self, mods, seed):
        wt = mods.wt
        items = [(f"A({n},{c})/{sel}", mods.fixtures.a_n_c(n, c), sel, (n, c))
                 for n, c, sel in ANC_ITEMS]
        rng = random.Random(seed)
        for k, (rank, subtori, q) in enumerate(draw_types(mods, random.Random(TYPE_SEED))):
            moved = move(rank, subtori, q, rng)
            layers = tuple(wt.Layer.make(rank, rows, phases)
                           for rows, phases in moved)
            names = tuple(f"S{i}" for i in range(len(layers)))
            items.append((f"random{k}", wt.ToricArrangement(rank, layers, names),
                          "min", None))
        return items

    def build(self, mods, inputs):
        return inputs

    def steps(self, mods, items):
        return [lambda arr=arr, sel=sel: self.solve(mods, arr, sel)
                for _, arr, sel, _ in items]

    def solve(self, mods, arr, selector):
        poset = mods.poset
        p = mods.wt.poset_of_layers(arr)
        members = poset.minimal_building_set(p)
        if selector == "minwc":
            members = poset.minimal_well_connected(p, members)
        building = poset.make_building_set(p, members)
        bl = poset.blowup_building(p, building)
        boolean = bl.is_locally_boolean()
        orders = poset.linear_refinements(p, building.members, 2)
        blowups = [poset.iterated_blowup(p, order) for order in orders]
        return p, building, bl, boolean, blowups

    def check(self, mods, items, results):
        problems = []
        expected = iter(RANDOM_EXPECTED)
        for (label, _, selector, anc), (p, building, bl, boolean, blowups) in zip(
                items, results):
            found = []
            if not boolean:
                found.append("blowup poset is not locally boolean")
            if not blowups:
                found.append("no linear refinement")
            found += _order_problems(bl, blowups)
            size = len(building.members)
            if anc is not None:
                n, c = anc
                want = n if selector == "min" else ((c + 1) ** n - 1) // c
                if size != want:
                    found.append(f"{selector} building set has {size} members, "
                                 f"expected {want}")
                if selector == "minwc" and size != len(p) - 1:
                    found.append("minwc closure is not every layer above the torus")
            else:
                got = (len(p), size, len(bl.poset))
                want = next(expected)
                if got != want:
                    found.append(f"(layers, members, faces) {got}, expected {want}")
            problems += [f"{label}: {msg}" for msg in found]
        return problems

    def counters(self, mods, items):
        return {}, []


WORKLOADS = {w.name: w for w in (RunningMin(), RunningMaxRoutes(), Arrangements())}
