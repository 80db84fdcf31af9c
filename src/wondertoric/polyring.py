"""Graded integer polynomials, strong Groebner bases over Z, rank oracles.

Monomials are dense exponent tuples over a fixed variable table; the
order is degree-first (with per-variable weights) and reverse
lexicographic on ties, against a variable ranking that lists the largest
variable first.  Coefficients are arbitrary-precision integers.

The Groebner machinery is the strong (Z-coefficient) variant: reduction
divides coefficients with remainder, and completion closes under both
S-polynomials and GCD-polynomials.  All ideal generators the package
feeds in are homogeneous, which makes degree-truncated runs sound.

``GroebnerBasis.reduce`` keeps the terms still to reduce on a heap keyed
by ``(-degree, reversed exponents)``, which pops them in the monomial
order, largest first.  Reducers come from a divisibility index: one
bitset per variable marks the elements whose leading monomial uses it,
so the elements whose lead support lies inside a term's support are
found by masking, memoised per support inside the basis.  They are tried
in the order they were added, so the reducer chosen, and every normal
form and certificate, is the one a linear scan of the leads would give.

``PairSweep`` is the one pair generator behind ``buchberger`` and
``is_groebner``.  It skips pairs whose lcm degree (from the cached lead
degrees) is above the cap and S-pairs of two monomials, and it applies
Buchberger's product criterion: coprime leads whose leading coefficients
are both units need no S-pair and give no GCD-pair.  Over Z the criterion
is sound only with unit coefficients (Lichtblau 2012).  The sweep counts
what it skips and reduces; ``groebner_witness`` returns the first pair
whose normal form is nonzero, which ``is_groebner`` reduces to a bool.

Two independent routes give graded ranks, and both cost what their output
costs.  ``GroebnerBasis.standard_monomials`` grows the escalier degree by
degree outside the initial ideal, testing each new monomial against the
unit leads through the divisibility index.  ``graded_rank_oracle`` drops
the columns of the relation matrix's single-unit rows at once, eliminates
the remaining unit entries in Markowitz order off a heap, and hands what
is left to a dense Smith normal form.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import compress
from math import gcd
from operator import add, le, mul, neg, sub
from typing import NamedTuple

from .intlinalg import snf

Monomial = tuple


class VariableTable:
    """Fixed variable universe: names, weights and the monomial order.

    Positions run from the largest variable to the smallest; weights are
    positive integers (blowup variables weigh their nested-set size,
    toric variables weigh one).
    """

    def __init__(self, keys, weights, names, kinds):
        self.keys = tuple(keys)
        self.weights = tuple(int(w) for w in weights)
        self.names = tuple(names)
        self.kinds = tuple(kinds)
        self.n = len(self.keys)
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive")
        self.position = {k: i for i, k in enumerate(self.keys)}
        if len(self.position) != self.n:
            raise ValueError("duplicate variable keys")
        self._one = (0,) * self.n
        self._bits = tuple(1 << i for i in range(self.n))
        self._mono_cache: dict = {}

    # -- monomials -----------------------------------------------------

    def one(self) -> Monomial:
        return self._one

    def variable(self, key, exp: int = 1) -> Monomial:
        i = self.position[key]
        return self._one[:i] + (exp,) + self._one[i + 1:]

    def mono_degree(self, m: Monomial) -> int:
        return sum(map(mul, m, self.weights))

    def mono_mul(self, a: Monomial, b: Monomial) -> Monomial:
        return tuple(map(add, a, b))

    def mono_divides(self, a: Monomial, b: Monomial) -> bool:
        return all(map(le, a, b))

    def mono_div(self, a: Monomial, b: Monomial) -> Monomial:
        return tuple(map(sub, a, b))

    def mono_lcm(self, a: Monomial, b: Monomial) -> Monomial:
        return tuple(map(max, a, b))

    def mono_mask(self, m: Monomial) -> int:
        return sum(compress(self._bits, m))

    def mono_key(self, m: Monomial):
        """Sort key: ascending under the monomial order."""
        return (self.mono_degree(m), tuple(map(neg, reversed(m))))

    def mono_name(self, m: Monomial) -> str:
        parts = []
        for i, e in enumerate(m):
            if not e:
                continue
            parts.append(self.names[i] if e == 1 else f"{self.names[i]}^{e}")
        return "*".join(parts) if parts else "1"

    def monomials_of_degree(self, d: int, positions=None) -> list[Monomial]:
        pos = tuple(positions) if positions is not None else tuple(range(self.n))
        cached = self._mono_cache.get((d, pos))
        if cached is not None:
            return cached
        out: list[Monomial] = []
        expo = [0] * self.n

        def rec(i: int, rem: int):
            if rem == 0:
                out.append(tuple(expo))
                return
            if i == len(pos):
                return
            p = pos[i]
            w = self.weights[p]
            for e in range(rem // w, -1, -1):
                expo[p] = e
                rec(i + 1, rem - e * w)
            expo[p] = 0

        rec(0, d)
        out.sort(key=self.mono_key, reverse=True)
        self._mono_cache[(d, pos)] = out
        return out

    # -- polynomials ----------------------------------------------------

    def poly(self, terms: dict) -> "Polynomial":
        return Polynomial({m: int(c) for m, c in terms.items() if c})

    def term(self, coeff: int, mono: Monomial) -> "Polynomial":
        return Polynomial({mono: coeff}) if coeff else Polynomial({})

    def const(self, coeff: int) -> "Polynomial":
        return self.term(coeff, self._one)

    def leading(self, f: "Polynomial") -> tuple[Monomial, int]:
        m = max(f.terms, key=self.mono_key)
        return m, f.terms[m]

    def degree(self, f: "Polynomial") -> int:
        return max(self.mono_degree(m) for m in f.terms)

    def is_homogeneous(self, f: "Polynomial") -> bool:
        degs = {self.mono_degree(m) for m in f.terms}
        return len(degs) <= 1

    def sorted_terms(self, f: "Polynomial") -> list[tuple[Monomial, int]]:
        return sorted(f.terms.items(), key=lambda t: self.mono_key(t[0]),
                      reverse=True)

    def poly_name(self, f: "Polynomial") -> str:
        if not f.terms:
            return "0"
        bits = []
        for m, c in self.sorted_terms(f):
            s = self.mono_name(m)
            if s == "1":
                bits.append(f"{'+' if c > 0 else '-'}{abs(c)}")
            elif abs(c) == 1:
                bits.append(("+" if c > 0 else "-") + s)
            else:
                bits.append(f"{'+' if c > 0 else '-'}{abs(c)}*{s}")
        out = "".join(bits)
        return out[1:] if out.startswith("+") else out


class Polynomial:
    """Sparse integer polynomial: monomial -> nonzero coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = out.get(m, 0) + c
            if v:
                out[m] = v
            else:
                out.pop(m, None)
        return Polynomial(out)

    def __neg__(self):
        return Polynomial({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, scalar: int):
        if scalar == 0:
            return Polynomial({})
        return Polynomial({m: scalar * c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return self.__rmul__(other)
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(map(add, m1, m2))
                v = out.get(m, 0) + c1 * c2
                if v:
                    out[m] = v
                else:
                    del out[m]
        return Polynomial(out)

    def mul_term(self, coeff: int, mono: Monomial) -> "Polynomial":
        if coeff == 0:
            return Polynomial({})
        return Polynomial({tuple(map(add, m, mono)): coeff * c
                           for m, c in self.terms.items()})

    def __repr__(self):
        return f"Polynomial({len(self.terms)} terms)"


def _normalize_sign(table: VariableTable, f: Polynomial) -> Polynomial:
    _, lc = table.leading(f)
    return -f if lc < 0 else f


class GroebnerBasis:
    """A reducer set over Z with cached leading data.

    Reduction is coefficient-aware: a generator applies to a term when its
    leading monomial divides the term's and its (positive) leading
    coefficient is at most the term's in absolute value, in which case the
    term's coefficient is replaced by its remainder.  When several apply,
    the one added first is used.
    """

    def __init__(self, table: VariableTable, polys):
        self.table = table
        self.elements: list[Polynomial] = []
        self._lm: list[Monomial] = []
        self._lc: list[int] = []
        self._mask: list[int] = []
        self._deg: list[int] = []
        # (position, exponent) over the lead's support, and the part of it
        # with exponent above one: a lead whose support lies in a term's
        # support divides the term unless one of these exceeds the term's
        self._support: list[tuple[tuple[int, int], ...]] = []
        self._powers: list[tuple[tuple[int, int], ...]] = []
        # (monomial, coefficient, degree, support mask) of each non-lead term
        self._tails: list[list[tuple[Monomial, int, int, int]]] = []
        # divisibility index: bit i of _var_bits[p] is set when the lead of
        # element i uses variable p; _candidates memoises, per term support
        # mask, the elements whose lead support lies inside it, ascending
        self._var_bits = [0] * table.n
        self._candidates: dict[int, list[int]] = {}
        seen = set()
        for f in polys:
            if not f:
                continue
            f = _normalize_sign(table, f)
            h = frozenset(f.terms.items())
            if h in seen:
                continue
            seen.add(h)
            self._append(f)

    def _append(self, f: Polynomial):
        table = self.table
        lm, lc = table.leading(f)
        k = len(self.elements)
        mask = table.mono_mask(lm)
        support = tuple((p, e) for p, e in enumerate(lm) if e)
        self.elements.append(f)
        self._lm.append(lm)
        self._lc.append(lc)
        self._mask.append(mask)
        self._deg.append(table.mono_degree(lm))
        self._support.append(support)
        self._powers.append(tuple((p, e) for p, e in support if e > 1))
        self._tails.append(self._tail_data(f, lm))
        for p, _ in support:
            self._var_bits[p] |= 1 << k
        for term_mask, found in self._candidates.items():
            if not mask & ~term_mask:
                found.append(k)

    def _tail_data(self, f: Polynomial, lm: Monomial) -> list:
        table = self.table
        return [(m, c, table.mono_degree(m), table.mono_mask(m))
                for m, c in f.terms.items() if m != lm]

    def __len__(self):
        return len(self.elements)

    @property
    def torsion_suspect(self) -> bool:
        return any(abs(c) != 1 for c in self._lc)

    def _candidates_for(self, term_mask: int) -> list[int]:
        """Elements whose lead support lies in ``term_mask``, ascending."""
        bits = (1 << len(self.elements)) - 1
        for p, users in enumerate(self._var_bits):
            if users and not term_mask >> p & 1:
                bits &= ~users
        found = []
        while bits:
            low = bits & -bits
            found.append(low.bit_length() - 1)
            bits ^= low
        self._candidates[term_mask] = found
        return found

    def reduce(self, f: Polynomial, certificate: bool = False):
        """Normal form: no remaining term is reducible by the basis.

        The terms still to reduce sit in ``work``; the reduction front is a
        heap of ``_front_entry`` tuples, so the largest term comes off first.
        """
        table = self.table
        lcs, powers, tails, memo = self._lc, self._powers, self._tails, self._candidates
        work = dict(f.terms)
        front = [_front_entry(table.mono_degree(m), m, table.mono_mask(m))
                 for m in work]
        heapify(front)
        out: dict = {}
        cert: dict[int, Polynomial] = {}
        while front:
            neg_deg, _, m, mask = heappop(front)
            c = work.pop(m, None)
            if c is None:
                continue
            candidates = memo.get(mask)
            if candidates is None:
                candidates = self._candidates_for(mask)
            while True:
                ac = abs(c)
                for i in candidates:
                    if lcs[i] <= ac:
                        for p, e in powers[i]:
                            if m[p] < e:
                                break
                        else:
                            break
                else:
                    out[m] = c
                    break
                q, c = divmod(c, lcs[i])
                if tails[i]:
                    self._subtract_tail(i, q, m, -neg_deg, mask, work, front)
                if certificate:
                    shift = table.mono_div(m, self._lm[i])
                    cert[i] = cert.get(i, Polynomial({})) + Polynomial({shift: q})
                if c == 0:
                    break
        nf = Polynomial(out)
        return (nf, cert) if certificate else nf

    def _subtract_tail(self, i: int, q: int, m: Monomial, deg: int, mask: int,
                       work: dict, front: list):
        """``work -= q * (m / lead_i) * tail_i``; new terms join the front."""
        shift = tuple(map(sub, m, self._lm[i]))
        shift_deg = deg - self._deg[i]
        shift_mask = mask & ~self._mask[i]
        for p, e in self._support[i]:
            if m[p] > e:
                shift_mask |= 1 << p
        for mm, cc, dd, mmask in self._tails[i]:
            key = tuple(map(add, mm, shift))
            qc = q * cc
            old = work.get(key)
            if old is None:
                work[key] = -qc
                heappush(front, _front_entry(dd + shift_deg, key, mmask | shift_mask))
            elif old == qc:
                del work[key]
            else:
                work[key] = old - qc

    def minimalize(self) -> "GroebnerBasis":
        """Drop strongly redundant leads, tail-reduce, canonical sort.

        Tails are reduced in one basis of the kept elements, each written
        back once reduced; leads, and so the index, do not change.  No
        element reduces its own tail: every term there is below its lead.
        """
        keep = []
        for i in range(len(self.elements)):
            redundant = False
            for j in range(len(self.elements)):
                if i == j:
                    continue
                if (self.table.mono_divides(self._lm[j], self._lm[i])
                        and self._lc[i] % self._lc[j] == 0):
                    if self._lm[j] == self._lm[i] and self._lc[j] == self._lc[i] and j > i:
                        continue
                    redundant = True
                    break
            if not redundant:
                keep.append(i)
        basis = GroebnerBasis(self.table, [self.elements[i] for i in keep])
        for i, f in enumerate(basis.elements):
            lead = Polynomial({basis._lm[i]: basis._lc[i]})
            g = lead + basis.reduce(f - lead)
            basis.elements[i] = g
            basis._tails[i] = basis._tail_data(g, basis._lm[i])
        key = self.table.mono_key
        order = sorted(range(len(basis)), key=lambda i: key(basis._lm[i]))
        return GroebnerBasis(self.table, [basis.elements[i] for i in order])

    # -- escalier -------------------------------------------------------

    def _unit_lead_divides(self, m: Monomial, mask: int) -> bool:
        """Does the lead of an element with leading coefficient 1 divide m?"""
        lcs, powers = self._lc, self._powers
        candidates = self._candidates.get(mask)
        if candidates is None:
            candidates = self._candidates_for(mask)
        for i in candidates:
            if lcs[i] == 1:
                for p, e in powers[i]:
                    if m[p] < e:
                        break
                else:
                    return True
        return False

    def standard_monomials(self, d: int, positions=None) -> list[Monomial]:
        """Degree-d monomials outside the unit-coefficient initial ideal.

        Only the variables at ``positions`` (default: all) may occur.  The
        monomials outside an initial ideal form an order ideal, so level k
        is grown from the levels below it: each standard m of degree
        k - w_p times x_p, kept unless a unit lead divides it.  The cost
        follows the escalier, not the number of degree-d monomials.
        Largest first under the monomial order.
        """
        if d < 0:
            return []
        table = self.table
        weights = table.weights
        pos = tuple(positions) if positions is not None else tuple(range(table.n))
        one = table.one()
        # levels[k]: the standard monomials of degree k, with support masks
        levels = [{} if self._unit_lead_divides(one, 0) else {one: 0}]
        for k in range(1, d + 1):
            level = {}
            for p in pos:
                w = weights[p]
                if w > k:
                    continue
                bit = 1 << p
                for m, mask in levels[k - w].items():
                    level.setdefault(m[:p] + (m[p] + 1,) + m[p + 1:], mask | bit)
            levels.append({m: mask for m, mask in level.items()
                           if not self._unit_lead_divides(m, mask)})
        return sorted(levels[d], key=table.mono_key, reverse=True)

    def hilbert(self, up_to: int, positions=None) -> list[int]:
        return [len(self.standard_monomials(d, positions))
                for d in range(up_to + 1)]


def _front_entry(deg: int, m: Monomial, mask: int) -> tuple:
    """Heap entry of a term on the reduction front.

    ``(-deg, m[::-1])`` ascends as ``mono_key`` descends, so the heap pops
    the largest monomial first; ``m`` and its support mask ride along.
    """
    return (-deg, m[::-1], m, mask)


def s_polynomial(table: VariableTable, f: Polynomial, g: Polynomial) -> Polynomial:
    return _s_pair(table, f, table.leading(f), g, table.leading(g))


def gcd_polynomial(table: VariableTable, f: Polynomial, g: Polynomial) -> Polynomial:
    return _gcd_pair(table, f, table.leading(f), g, table.leading(g))


def _s_pair(table: VariableTable, f: Polynomial, lead_f, g: Polynomial,
            lead_g) -> Polynomial:
    """S-polynomial of f and g given their ``(monomial, coefficient)`` leads."""
    (mf, cf), (mg, cg) = lead_f, lead_g
    lcm_m = table.mono_lcm(mf, mg)
    lcm_c = abs(cf * cg) // gcd(cf, cg)
    return (f.mul_term(lcm_c // cf, table.mono_div(lcm_m, mf))
            - g.mul_term(lcm_c // cg, table.mono_div(lcm_m, mg)))


def _gcd_pair(table: VariableTable, f: Polynomial, lead_f, g: Polynomial,
              lead_g) -> Polynomial:
    """GCD-polynomial of f and g given their ``(monomial, coefficient)`` leads."""
    (mf, cf), (mg, cg) = lead_f, lead_g
    lcm_m = table.mono_lcm(mf, mg)
    d, a, b = _ext_gcd(cf, cg)
    return (f.mul_term(a, table.mono_div(lcm_m, mf))
            + g.mul_term(b, table.mono_div(lcm_m, mg)))


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


class GroebnerWitness(NamedTuple):
    """A pair whose normal form is nonzero: kind "S" or "G", the two
    generators and the normal form, each as ``poly_name`` text."""

    kind: str
    first: str
    second: str
    normal_form: str

    def __str__(self):
        return (f"{self.kind}-pair of {self.first} and {self.second} "
                f"reduces to {self.normal_form}")


class PairSweep:
    """The S- and GCD-pairs of a basis below a degree cap.

    ``pairs_with(j)`` lists the pairs (i, j), i < j, that need a reduction.
    It passes over a pair whose lcm degree is above the cap, and the
    S-pair of two monomials, which is zero.  It also applies Buchberger's
    product criterion: when the two leads are coprime and both leading
    coefficients are units, the S-polynomial has a standard representation
    over the pair itself, and no GCD-pair arises.  Over Z the criterion
    needs the unit coefficients (Lichtblau 2012).  ``counts`` holds how
    many pairs were met, how many of them fell in each case, and how many
    reductions ``reduce`` did.
    """

    def __init__(self, basis: GroebnerBasis, degree_cap: int):
        self.basis = basis
        self.degree_cap = degree_cap
        self.counts = dict.fromkeys(
            ("pairs", "over_cap", "monomial", "criterion", "reduced"), 0)

    def pairs_with(self, j: int) -> list[tuple[int, int, int, str]]:
        """``(lcm degree, i, j, kind)`` for the pairs of j that need work."""
        b = self.basis
        weights, cap = b.table.weights, self.degree_cap
        lcs, masks, degs, tails = b._lc, b._mask, b._deg, b._tails
        lm_j, c_j, mask_j, deg_j = b._lm[j], lcs[j], masks[j], degs[j]
        out = []
        over = monomial = criterion = 0
        for i in range(j):
            deg = degs[i] + deg_j
            common = masks[i] & mask_j
            if common:
                for p, e in b._support[i]:
                    f = lm_j[p]
                    if f:
                        deg -= weights[p] * (e if e < f else f)
            if deg > cap:
                over += 1
                continue
            c_i = lcs[i]
            if not tails[j] and not tails[i]:
                monomial += 1
            elif not common and c_i == 1 and c_j == 1:
                criterion += 1
                continue
            else:
                out.append((deg, i, j, "S"))
            if c_i % c_j and c_j % c_i:
                out.append((deg, i, j, "G"))
        counts = self.counts
        counts["pairs"] += j
        counts["over_cap"] += over
        counts["monomial"] += monomial
        counts["criterion"] += criterion
        return out

    def reduce(self, i: int, j: int, kind: str) -> Polynomial:
        """Normal form of the S- or GCD-polynomial of elements i and j."""
        b = self.basis
        make = _s_pair if kind == "S" else _gcd_pair
        self.counts["reduced"] += 1
        return b.reduce(make(b.table, b.elements[i], (b._lm[i], b._lc[i]),
                             b.elements[j], (b._lm[j], b._lc[j])))

    def witness(self) -> GroebnerWitness | None:
        """The first pair whose normal form is nonzero, or None."""
        b = self.basis
        for j in range(len(b)):
            for _, i, _, kind in self.pairs_with(j):
                nf = self.reduce(i, j, kind)
                if nf:
                    name = b.table.poly_name
                    return GroebnerWitness(kind, name(b.elements[i]),
                                           name(b.elements[j]), name(nf))
        return None


def buchberger(table: VariableTable, gens, degree_cap: int) -> GroebnerBasis:
    """Strong Groebner basis over Z, truncated above ``degree_cap``.

    All generators must be homogeneous (this is what makes the truncation
    sound); the result is inter-reduced and canonically ordered.
    """
    gens = [g for g in gens if g]
    for g in gens:
        if not table.is_homogeneous(g):
            raise ValueError("degree-capped completion requires homogeneous input")
    basis = GroebnerBasis(table, gens)
    sweep = PairSweep(basis, degree_cap)
    pending = [pair for j in range(len(basis)) for pair in sweep.pairs_with(j)]
    pending.sort()
    pos = 0
    while pos < len(pending):
        _, i, j, kind = pending[pos]
        pos += 1
        h = sweep.reduce(i, j, kind)
        if h:
            basis._append(_normalize_sign(table, h))
            tail = pending[pos:] + sweep.pairs_with(len(basis) - 1)
            tail.sort()
            pending = pending[:pos] + tail
    return basis.minimalize()


def groebner_witness(table: VariableTable, polys,
                     degree_cap: int) -> GroebnerWitness | None:
    """The first S- or GCD-pair below the cap with a nonzero normal form."""
    return PairSweep(GroebnerBasis(table, polys), degree_cap).witness()


def is_groebner(table: VariableTable, polys, degree_cap: int) -> bool:
    """Do all S- and GCD-pairs reduce to zero below the degree cap?"""
    return groebner_witness(table, polys, degree_cap) is None


# -- SNF rank oracle --------------------------------------------------------


def _sparse_quotient(rows: list[dict], ncols: int) -> tuple[int, tuple[int, ...]]:
    """Free rank and torsion of Z^ncols modulo the row span.

    A row that is a single unit entry puts e_c in the row span, so column c
    is dropped from every row at once and counted as contracted; rows left
    empty go.  The other unit pivots are contracted in Markowitz order: a
    heap holds ``(cost, row, column)`` for the entries of value ±1, with
    cost ``(row length - 1) * (column length - 1)``.  An entry is checked
    when it comes off the heap: it is dropped if its row is gone or the
    entry is no longer a unit, and pushed back if its cost has risen.  A
    row changed by an elimination pushes its unit entries again.  Anything
    left without a unit entry goes through a dense Smith normal form.
    """
    units = {c for r in rows if len(r) == 1
             for c, v in r.items() if v == 1 or v == -1}
    rows = [{c: v for c, v in r.items() if c not in units} for r in rows]
    rows = [r for r in rows if r]
    col_rows: dict[int, set[int]] = {}
    for ridx, r in enumerate(rows):
        for c in r:
            col_rows.setdefault(c, set()).add(ridx)
    alive = set(range(len(rows)))
    contracted = len(units)

    def unit_entries(ridx: int):
        r = rows[ridx]
        size = len(r) - 1
        return [(size * (len(col_rows[c]) - 1), ridx, c)
                for c, v in r.items() if v == 1 or v == -1]

    heap = [entry for ridx in alive for entry in unit_entries(ridx)]
    heapify(heap)

    def row_sub(dst: int, src: int, q: int):
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

    residual_rows = [rows[r] for r in alive if rows[r]]
    if not residual_rows:
        return ncols - contracted, ()
    res_cols = sorted({c for r in residual_rows for c in r})
    cidx = {c: k for k, c in enumerate(res_cols)}
    dense = [[0] * len(res_cols) for _ in residual_rows]
    for k, r in enumerate(residual_rows):
        for c, v in r.items():
            dense[k][cidx[c]] = v
    res = snf(dense)
    torsion = tuple(d for d in res.invariant_factors if d != 1)
    return ncols - contracted - res.rank, torsion


def graded_rank_oracle(table: VariableTable, gens, d: int,
                       max_monomials: int = 20000) -> tuple[int, tuple[int, ...]]:
    """Free rank and torsion of degree ``d`` of the quotient by ``gens``.

    Rows are all monomial multiples of the generators landing in degree
    ``d``, expressed in the degree-``d`` monomial basis; the quotient is
    read off a sparse Smith elimination.  Entirely independent of the
    Groebner route.
    """
    cols = table.monomials_of_degree(d)
    if len(cols) > max_monomials:
        raise ValueError(
            f"degree {d} has {len(cols)} monomials, above the cap {max_monomials}")
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
            row = {}
            for mm, cc in g.terms.items():
                row[col_index[table.mono_mul(mm, m)]] = cc
            rows.append(row)
    return _sparse_quotient(rows, len(cols))
