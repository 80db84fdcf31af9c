"""Graded integer polynomials, strong Groebner bases over Z, rank oracles.

A monomial is one int, packed by its ``VariableTable``, the only code
that knows the layout (Monagan and Pearce, "Sparse polynomial division
using a heap", 2011; "POLY: a new polynomial data structure for Maple
17", 2012).  With n variables at positions p from the largest to the
smallest, fields W bits wide and B = 2^W,

    K(m) = deg(m) * B^n - sum_p m[p] * B^p,    deg the weighted degree.

The low n fields of -K hold the exponents; the top bit of each field is a
guard bit, left clear.  So K(a*b) = K(a) + K(b); ascending K is the
monomial order, degree first and reverse lexicographic on ties; a | b
exactly when K(a) - K(b) sets no guard bit, as the lowest field of the
exponent difference to go negative sets its own; and the guard bits of
-K + (2^(W-1) - 1) mark the variables of the monomial, so ``support``
takes one step per variable of the monomial, not one per field.  A
degree of at most ``max_degree`` = 2^(W-1) - 1 bounds every exponent, so
the table refuses a monomial above it rather than let a field spill into
the next; the package's degree-capped runs stay far below it.

The Groebner machinery is the strong (Z-coefficient) variant: reduction
divides coefficients with remainder, and completion closes under both
S-polynomials and GCD-polynomials, with arbitrary-precision integer
coefficients.  All ideal generators the package feeds in are
homogeneous, which makes degree-truncated runs sound.

``GroebnerBasis.reduce`` is the one normal form, and one heap computes
it: the terms still to reduce sit in a dict and on a heap, both keyed by
the bare int -K, so they pop in the monomial order, largest first.
Reducers come from a lead-support index, the elements grouped by the
support of their lead: those whose lead support lies inside a term's
support are the groups of its sub-masks, memoised per support inside the
basis.  They are tried in the order they were added, so the reducer
chosen, and every normal form, is the one a linear scan of the leads
would give.  The heap reads parts (shift, multiplier, tail), so the sweep
writes each pair from the stored tails of its two elements, with no
``Polynomial`` built.

``PairSweep``, the one pair generator behind ``buchberger`` and
``basis_witness``, owns the pair index, bitsets it fills as it reaches
each element.  By lead variable and by lead degree they give the pairs
under the cap: leads that share a variable, and disjoint leads of small
enough degrees; no other pair is looked at.  It skips S-pairs of two
monomials, and it applies Buchberger's product criterion: coprime leads
whose leading coefficients are both units need no S-pair and give no
GCD-pair.  Over Z the criterion is sound only with unit coefficients
(Lichtblau 2012).  Disjoint pairs of unit leads, and the pairs of a
monomial of leading coefficient 1 with every other monomial, are counted
by popcount, not visited.  ``basis_witness`` returns the first pair whose
normal form is nonzero; it sweeps only a basis the ranks do not certify.

The ranks certify a homogeneous basis G whose leads are all 1 (the
Hilbert-function test, Kreuzer and Robbiano 2005, section 5.2, over Z).
Reduction by G writes each degree-d polynomial over the standard
monomials S_d, so Z^{S_d} maps onto R_d / <G>_d; if ``graded_rank_oracle``
over G gives that quotient free rank |S_d|, the kernel has rank 0 in a
free group, hence is 0, and every element of <G>_d, each S-pair of lcm
degree d included, reduces to 0.  An empty S_d passes at once.  The test
stops at the cap, at the largest lcm degree of a pair, or after as many
empty levels in a row as the largest weight, which leave every higher
level empty.  A failed degree leaves the verdict to the sweep.

Two independent routes give graded ranks, and both cost what their output
costs.  ``GroebnerBasis.standard_monomials`` grows the escalier degree by
degree outside the initial ideal, testing each new monomial against all
leads, whatever their coefficients, through the divisibility index; over
Z their count is the free rank, and torsion is the oracle's to find.
The basis keeps the levels it has grown, per set of positions, until it
grows itself, so asking for degree d + 1 after degree d costs one level.
``graded_rank_oracle`` works modulo the unit-coefficient monomial
generators and keeps one copy of each nonempty row: about half the
products g * m vanish modulo those generators.  The rows go, shortest first, into a reduced
echelon form with unit pivots, and what has no unit entry left goes to a
dense Smith normal form.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd
from typing import NamedTuple

from .intlinalg import snf

Monomial = int

# bits per exponent field, its top bit the guard
FIELD_BITS = 16


class VariableTable:
    """Fixed variable universe: names, weights and the monomial encoding.

    Positions run from the largest variable to the smallest; weights are
    positive (blowup variables weigh their nested-set size, toric ones
    one).  Monomials are the packed ints of the module docstring, which
    compare (``<``) in the monomial order; ``encode`` and ``exponents``
    convert from and to exponent tuples.
    """

    def __init__(self, keys, weights, names):
        self.keys = tuple(keys)
        self.weights = tuple(int(w) for w in weights)
        self.names = tuple(names)
        self.n = len(self.keys)
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive")
        self.position = {k: i for i, k in enumerate(self.keys)}
        if len(self.position) != self.n:
            raise ValueError("duplicate variable keys")
        w = FIELD_BITS
        self.max_degree = (1 << w - 1) - 1
        self._shift = w * self.n
        self._low = (1 << self._shift) - 1
        self._guards = tuple(1 << w * p + w - 1 for p in range(self.n))
        self._guard = sum(self._guards)
        self._fill = (self._guard >> w - 1) * self.max_degree
        self._kmax = self.max_degree << self._shift
        self._vars = tuple((wt << self._shift) - (1 << w * p)
                           for p, wt in enumerate(self.weights))
        self._mono_cache: dict = {}

    # -- monomials -----------------------------------------------------

    def encode(self, exps) -> Monomial:
        """The monomial with exponent ``exps[p]`` at each position p."""
        exps = tuple(exps)
        if len(exps) != self.n or min(exps, default=0) < 0:
            raise ValueError(f"not {self.n} nonnegative exponents: {exps}")
        return self._checked(sum(e * v for e, v in zip(exps, self._vars)))

    def exponents(self, m: Monomial) -> tuple[int, ...]:
        """The exponent tuple of ``m``; ``encode`` inverts it."""
        out = [0] * self.n
        for p, e in self.support(m):
            out[p] = e
        return tuple(out)

    def support(self, m: Monomial) -> list[tuple[int, int]]:
        """``(position, exponent)`` of each variable of ``m``, ascending:
        one step per set guard bit of its support mask."""
        e = -m
        bits = (e + self._fill) & self._guard
        out = []
        while bits:
            low = bits & -bits
            bits ^= low
            # the field of position p starts at bit W*p, its guard at W*p + W-1
            s = low.bit_length() - FIELD_BITS
            out.append((s // FIELD_BITS, e >> s & self.max_degree))
        return out

    def _checked(self, m: Monomial) -> Monomial:
        if not 0 <= m <= self._kmax:
            raise ValueError(f"monomial degree not in 0..{self.max_degree}, "
                             "what an exponent field holds")
        return m

    def one(self) -> Monomial:
        return 0

    def variable(self, key, exp: int = 1) -> Monomial:
        return self._checked(exp * self._vars[self.position[key]])

    def mono_degree(self, m: Monomial) -> int:
        return -(-m >> self._shift)

    def mono_mul(self, a: Monomial, b: Monomial) -> Monomial:
        return self._checked(a + b)

    def mono_divides(self, a: Monomial, b: Monomial) -> bool:
        # a field of E(b) - E(a) that goes negative sets its guard bit
        return not (a - b) & self._guard

    def mono_div(self, a: Monomial, b: Monomial) -> Monomial:
        """``a / b``; b must divide a."""
        return a - b

    def mono_lcm(self, a: Monomial, b: Monomial) -> Monomial:
        e = self._lcm_exponents(a, b)
        # -e is the packed lcm with a zero degree part
        deg = sum(self.weights[p] * x for p, x in self.support(-e))
        return self._checked((deg << self._shift) - e)

    def _lcm_exponents(self, a: Monomial, b: Monomial) -> int:
        """The exponent fields of lcm(a, b): K(lcm) = deg * B^n - this."""
        low, guard = self._low, self._guard
        ea, eb = -a & low, -b & low
        # per field: all low bits set where a's exponent is the larger
        ge = (ea + guard - eb) & guard
        ge -= ge >> FIELD_BITS - 1
        return ea & ge | eb & ~ge

    def mono_mask(self, m: Monomial) -> int:
        """Support mask: the guard bit of each variable of ``m``."""
        return (self._fill - m) & self._guard

    def mono_name(self, m: Monomial) -> str:
        parts = [self.names[p] if e == 1 else f"{self.names[p]}^{e}"
                 for p, e in self.support(m)]
        return "*".join(parts) if parts else "1"

    def monomials_of_degree(self, d: int, positions=None) -> list[Monomial]:
        """The degree-d monomials over ``positions`` (default all), largest first."""
        pos = tuple(positions) if positions is not None else tuple(range(self.n))
        cached = self._mono_cache.get((d, pos))
        if cached is not None:
            return cached
        self._checked(max(d, 0) << self._shift)
        out: list[Monomial] = []

        def rec(i: int, rem: int, m: Monomial):
            if rem == 0:
                out.append(m)
                return
            if i == len(pos):
                return
            p = pos[i]
            for e in range(rem // self.weights[p], -1, -1):
                rec(i + 1, rem - e * self.weights[p], m + e * self._vars[p])

        rec(0, d, 0)
        out.sort(reverse=True)
        self._mono_cache[(d, pos)] = out
        return out

    # -- polynomials ----------------------------------------------------

    def poly(self, terms: dict) -> "Polynomial":
        return Polynomial({m: int(c) for m, c in terms.items() if c})

    def term(self, coeff: int, mono: Monomial) -> "Polynomial":
        return Polynomial({mono: coeff}) if coeff else Polynomial({})

    def const(self, coeff: int) -> "Polynomial":
        return self.term(coeff, 0)

    def leading(self, f: "Polynomial") -> tuple[Monomial, int]:
        m = max(f.terms)
        return m, f.terms[m]

    def degree(self, f: "Polynomial") -> int:
        return self.mono_degree(max(f.terms))

    def is_homogeneous(self, f: "Polynomial") -> bool:
        return len({self.mono_degree(m) for m in f.terms}) <= 1

    def poly_name(self, f: "Polynomial") -> str:
        if not f.terms:
            return "0"
        bits = []
        for m, c in sorted(f.terms.items(), reverse=True):
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
    """Sparse integer polynomial: monomial -> nonzero coefficient.  Products
    skip the table's degree check; callers stay within ``max_degree``."""

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
                m = m1 + m2
                v = out.get(m, 0) + c1 * c2
                if v:
                    out[m] = v
                else:
                    del out[m]
        return Polynomial(out)

    def mul_term(self, coeff: int, mono: Monomial) -> "Polynomial":
        if coeff == 0:
            return Polynomial({})
        return Polynomial({m + mono: coeff * c for m, c in self.terms.items()})

    def __repr__(self):
        return f"Polynomial({len(self.terms)} terms)"


def _normalize_sign(table: VariableTable, f: Polynomial) -> Polynomial:
    _, lc = table.leading(f)
    return -f if lc < 0 else f


class GroebnerBasis:
    """A reducer set over Z: the elements, sign-normalised, without zeros or
    repeats, and what ``reduce`` and ``standard_monomials`` read of them.

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
        # (negated monomial, coefficient) of each non-lead term
        self._tails: list[list[tuple[int, int]]] = []
        # lead support index: support mask -> the elements whose lead has
        # that support, ascending; _candidates memoises, per term support
        # mask, the elements whose lead support lies inside it, ascending.
        # Every list holds the one int object _append made for an index (an
        # int above 256 made afresh costs 32 bytes per list entry)
        self._by_support: dict[int, list[int]] = {}
        self._candidates: dict[int, list[int]] = {}
        # positions -> the escalier levels standard_monomials has grown there
        self._levels: dict[tuple[int, ...], list[set[Monomial]]] = {}
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
        self.elements.append(f)
        self._lm.append(lm)
        self._lc.append(lc)
        self._tails.append([(-m, c) for m, c in f.terms.items() if m != lm])
        self._by_support.setdefault(mask, []).append(k)
        for term_mask, found in self._candidates.items():
            if not mask & ~term_mask:
                found.append(k)
        # a new lead can make a standard monomial reducible
        self._levels = {}

    def __len__(self):
        return len(self.elements)

    def _candidates_for(self, term_mask: int) -> list[int]:
        """Elements whose lead support lies in ``term_mask``, ascending: the
        lead support groups of the sub-masks of ``term_mask``, the empty one
        (a constant lead) included, or of all groups when they are fewer."""
        groups = self._by_support
        found = []
        if 1 << term_mask.bit_count() > len(groups):
            for mask, members in groups.items():
                if not mask & ~term_mask:
                    found += members
        else:
            sub = term_mask
            while True:
                members = groups.get(sub)
                if members is not None:
                    found += members
                if not sub:
                    break
                sub = (sub - 1) & term_mask
        found.sort()
        self._candidates[term_mask] = found
        return found

    def _first_reducer(self, neg: int) -> int:
        """The first element whose lead divides m = -``neg``, or -1: m is
        standard exactly when there is none."""
        guard = self.table._guard
        mask = (neg + self.table._fill) & guard
        candidates = self._candidates.get(mask)
        if candidates is None:
            candidates = self._candidates_for(mask)
        lms = self._lm
        for i in candidates:
            if not (lms[i] + neg) & guard:
                return i
        return -1

    def reduce(self, f: Polynomial) -> Polynomial:
        """Normal form: no remaining term is reducible by the basis."""
        return self._heap(((0, 1, [(-m, c) for m, c in f.terms.items()]),))

    def _heap(self, parts) -> Polynomial:
        """Normal form of the sum of the parts ``(shift, q, tail)``: q times
        each term c*m of ``tail``, given as (-K(m), c), moved by ``shift``
        to -K(m) + shift.  The dict ``work`` and the heap ``front`` hold the
        terms still to reduce, keyed by -K, so the largest comes off first.
        lead_i divides m when K(lead_i) - K(m) sets no guard bit; it is then
        -K(m / lead_i).
        """
        guard, fill = self.table._guard, self.table._fill
        lms, lcs, tails, memo = self._lm, self._lc, self._tails, self._candidates
        work: dict[int, int] = {}
        for shift, q, tail in parts:
            for mm, cc in tail:
                work[mm + shift] = work.get(mm + shift, 0) + q * cc
        work = {key: c for key, c in work.items() if c}
        front = list(work)
        heapify(front)
        out: dict = {}
        while front:
            neg = heappop(front)
            c = work.pop(neg, None)
            if c is None:
                continue
            mask = (neg + fill) & guard
            candidates = memo.get(mask)
            if candidates is None:
                candidates = self._candidates_for(mask)
            while True:
                ac = abs(c)
                for i in candidates:
                    if lcs[i] <= ac and not (lms[i] + neg) & guard:
                        break
                else:
                    out[-neg] = c
                    break
                q, c = divmod(c, lcs[i])
                shift = lms[i] + neg
                # work -= q * (m / lead_i) * tail_i; new terms join the front
                for mm, cc in tails[i]:
                    key = mm + shift
                    qc = q * cc
                    old = work.get(key)
                    if old is None:
                        work[key] = -qc
                        heappush(front, key)
                    elif old == qc:
                        del work[key]
                    else:
                        work[key] = old - qc
                if c == 0:
                    break
        return Polynomial(out)

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
            lm = basis._lm[i]
            lead = Polynomial({lm: basis._lc[i]})
            g = lead + basis.reduce(f - lead)
            basis.elements[i] = g
            basis._tails[i] = [(-m, c) for m, c in g.terms.items() if m != lm]
        order = sorted(range(len(basis)), key=basis._lm.__getitem__)
        return GroebnerBasis(self.table, [basis.elements[i] for i in order])

    # -- escalier -------------------------------------------------------

    def standard_monomials(self, d: int, positions=None) -> list[Monomial]:
        """Degree-d monomials outside the initial ideal, the ideal of the leads.

        Only the variables at ``positions`` (default: all) may occur.  Over
        Z their number is the free rank of the degree-d piece of the
        quotient, whatever the leading coefficients: the leading coefficient
        ideals filter the piece, and each step is Z or finite (Adams and
        Loustaunau 1994, ch. 4).  They are a Z-basis of the piece only when
        every leading coefficient is 1; otherwise only their count means
        anything.  The monomials outside an initial ideal form an order
        ideal, so level k is grown from the levels below it: each standard
        m of degree k - w_p times x_p, kept unless a lead divides it.  The
        cost follows the escalier, not the number of degree-d monomials.
        The levels are kept per ``positions`` until the basis grows, and
        extended only as far as asked.  Largest first under the monomial
        order, in a new list.
        """
        if d < 0:
            return []
        table = self.table
        table._checked(d << table._shift)
        pos = tuple(positions) if positions is not None else tuple(range(table.n))
        first = self._first_reducer
        # levels[k]: the standard monomials of degree k
        levels = self._levels.get(pos)
        if levels is None:
            levels = self._levels[pos] = [set() if first(0) >= 0 else {0}]
        for k in range(len(levels), d + 1):
            level = set()
            for p in pos:
                w = table.weights[p]
                if w <= k:
                    var = table._vars[p]
                    level.update(m + var for m in levels[k - w])
            levels.append({m for m in level if first(-m) < 0})
        return sorted(levels[d], reverse=True)


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
    needs the unit coefficients (Lichtblau 2012).  So when c_j is 1, two
    kinds of pair are counted by popcount: if j is a monomial, its pairs
    with every monomial i, which need no work whatever their lcm degree;
    then the disjoint pairs of unit leads under the cap.  The other pairs
    are visited in ascending i.  ``counts`` holds how many pairs were met,
    how many of them fell in each case, and how many reductions ``reduce``
    did.  A pair goes to the first case that takes it, in the order
    monomial with c_j = 1, over the cap, monomial, criterion: so a pair of
    two monomials with c_j = 1 counts as ``monomial`` even above the cap.
    Its pair index: bitsets of the elements by lead variable, by lead
    degree, with leading coefficient 1 and with no tail; ``pairs_with(j)``
    first adds the elements below j it lacks, so j may come in any order,
    on a basis that grows between the calls.

    ``reduce`` writes the S- or GCD-pair as parts over the stored tails of
    its two elements, each moved under the lcm, and hands them to the
    basis's heap (module docstring).
    """

    def __init__(self, basis: GroebnerBasis, degree_cap: int):
        self.basis = basis
        self.degree_cap = degree_cap
        self.counts = dict.fromkeys(
            ("pairs", "over_cap", "monomial", "criterion", "reduced"), 0)
        # the pair index (class docstring) of the elements below _indexed
        self._var_bits = [0] * basis.table.n
        self._deg_bits: dict[int, int] = {}
        self._indexed = self._unit_bits = self._bare_bits = 0

    def pairs_with(self, j: int) -> list[tuple[int, int, int, str]]:
        """``(lcm degree, i, j, kind)`` for the pairs of j that need work."""
        b = self.basis
        table, cap = b.table, self.degree_cap
        weights, lms, lcs, tails = table.weights, b._lm, b._lc, b._tails
        var_bits, deg_bits = self._var_bits, self._deg_bits
        # the elements below j join the index first, if not yet in it
        for k in range(self._indexed, j):
            bit, d = 1 << k, table.mono_degree(lms[k])
            for p, _ in table.support(lms[k]):
                var_bits[p] |= bit
            deg_bits[d] = deg_bits.get(d, 0) | bit
            self._unit_bits |= (lcs[k] == 1) << k
            self._bare_bits |= (not tails[k]) << k
        self._indexed = max(self._indexed, j)
        shift, fill, top = table._shift, table._fill, table.max_degree
        neg_j, c_j, mask_j = -lms[j], lcs[j], table.mono_mask(lms[j])
        deg_j = table.mono_degree(lms[j])
        # a pair is under the cap only if the leads share a variable or
        # their degrees add up to at most the cap, and then the lcm degree
        # of a disjoint pair is that sum; the others are not visited
        below = (1 << j) - 1
        share = disjoint = 0
        for p, _ in table.support(lms[j]):
            share |= var_bits[p]
        share &= below
        for d, bits in deg_bits.items():
            if d + deg_j <= cap:
                disjoint |= bits
        disjoint &= below & ~share
        monomial = criterion = 0
        if c_j == 1:
            # counted, not visited: with a monomial j, every monomial i (a
            # zero S-pair, and c_i % 1 == 0 gives no GCD-pair), whatever
            # the lcm degree; then the disjoint unit leads, the criterion
            if not tails[j]:
                bare = below & self._bare_bits
                monomial = bare.bit_count()
                share &= ~bare
                disjoint &= ~bare
            units = disjoint & self._unit_bits
            disjoint ^= units
            criterion = units.bit_count()
        near = share | disjoint
        out = []
        over = j - monomial - criterion
        while near:
            low = near & -near
            near ^= low
            i = low.bit_length() - 1
            # deg_i + deg_j (neg >> shift is -deg) less the gcd's degree
            neg_i = -lms[i]
            deg = deg_j - (neg_i >> shift)
            common = shared = (fill + neg_i) & mask_j
            while shared:
                guard = shared & -shared
                shared ^= guard
                s = guard.bit_length() - FIELD_BITS
                e, f = neg_i >> s & top, neg_j >> s & top
                deg -= weights[s // FIELD_BITS] * (e if e < f else f)
            if deg > cap:
                continue
            over -= 1
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

    def reduce(self, pair: tuple[int, int, int, str]) -> Polynomial:
        """Normal form of the S- or GCD-polynomial of a ``pairs_with`` pair."""
        deg, i, j, kind = pair
        b = self.basis
        self.counts["reduced"] += 1
        table, lms, lcs, tails = b.table, b._lm, b._lc, b._tails
        # (lcm/lm_k) * f_k moves a tail term (-K, c) of f_k by K(lm_k) - K(lcm)
        neg_lcm = table._lcm_exponents(lms[i], lms[j]) - (deg << table._shift)
        c_i, c_j = lcs[i], lcs[j]
        if kind == "S":
            # the leads cancel: c_j/g times the tail of i less c_i/g times
            # the tail of j, g = gcd(c_i, c_j)
            g = gcd(c_i, c_j)
            return b._heap(((lms[i] + neg_lcm, c_j // g, tails[i]),
                            (lms[j] + neg_lcm, -(c_i // g), tails[j])))
        # x*c_i + y*c_j = g: x*f_i + y*f_j under the lcm, led by g*lcm
        g, x, y = _ext_gcd(c_i, c_j)
        return b._heap(((neg_lcm, g, ((0, 1),)),
                        (lms[i] + neg_lcm, x, tails[i]),
                        (lms[j] + neg_lcm, y, tails[j])))

    def witness(self) -> GroebnerWitness | None:
        """The first pair whose normal form is nonzero, or None."""
        b = self.basis
        for j in range(len(b)):
            for pair in self.pairs_with(j):
                nf = self.reduce(pair)
                if nf:
                    _, i, _, kind = pair
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
    # the pairs are distinct tuples, taken smallest first
    pending = [pair for j in range(len(basis)) for pair in sweep.pairs_with(j)]
    heapify(pending)
    while pending:
        h = sweep.reduce(heappop(pending))
        if h:
            basis._append(_normalize_sign(table, h))
            for pair in sweep.pairs_with(len(basis) - 1):
                heappush(pending, pair)
    return basis.minimalize()


def basis_witness(basis: GroebnerBasis,
                  degree_cap: int) -> GroebnerWitness | None:
    """The first S- or GCD-pair of ``basis`` below the cap with a nonzero
    normal form; the basis is not changed.  A homogeneous basis whose
    leading coefficients are all 1 is tested by its free ranks first
    (module docstring), and its pairs are swept only when a degree fails;
    a failed degree with no failing pair is an ``AssertionError``."""
    table = basis.table
    gap = None
    if (all(c == 1 for c in basis._lc)
            and all(map(table.is_homogeneous, basis.elements))):
        # a pair's lcm degree is at most the sum of its two lead degrees
        top = min(degree_cap, sum(sorted(map(table.mono_degree, basis._lm))[-2:]))
        run, empty, d = max(table.weights, default=1), 0, 0
        while gap is None and d <= top and empty < run:
            size = len(basis.standard_monomials(d))
            rank = graded_rank_oracle(table, basis.elements, d)[0] if size else 0
            empty = 0 if size else empty + 1
            if rank != size:
                gap = d, size, rank
            d += 1
        if gap is None:
            return None
    witness = PairSweep(basis, degree_cap).witness()
    if witness is None and gap is not None:
        raise AssertionError("the rank test fails at degree {} ({} standard "
                             "monomials, free rank {}) but no pair "
                             "does".format(*gap))
    return witness


def groebner_witness(table: VariableTable, polys,
                     degree_cap: int) -> GroebnerWitness | None:
    """The first S- or GCD-pair below the cap with a nonzero normal form."""
    return basis_witness(GroebnerBasis(table, polys), degree_cap)


# -- SNF rank oracle --------------------------------------------------------


def _sparse_quotient(rows: list[dict], ncols: int) -> tuple[int, tuple[int, ...]]:
    """Free rank and torsion of Z^ncols modulo the row span.

    The rows go, shortest first, into a reduced echelon form with unit
    pivots: ``tails`` maps each pivot column c to its row less the entry 1
    at c, and no row has an entry in another row's pivot column.  An
    incoming row is reduced by the pivots; if it has an entry ±1, it
    pivots on the unit column that the fewest pivot rows contain, and that
    column is cleared from them.  A row with no unit entry waits, and the
    waiting rows are inserted again until a round adds no pivot.  Each
    pivot row identifies its column with the rest of the row, so the
    quotient is Z^(other columns) modulo the rows still waiting, which a
    dense Smith normal form reads, torsion included.  A single-unit row
    sorts first and clears its column from every later row.  The caller's
    rows are not changed.
    """
    tails: dict[int, dict[int, int]] = {}
    holders: dict[int, set[int]] = {}  # column -> pivots whose tail holds it

    def reduced(row: dict) -> dict:
        r = dict(row)
        for c in [c for c in row if c in tails]:
            q = r.pop(c)
            for cc, v in tails[c].items():
                nv = r.get(cc, 0) - q * v
                if nv:
                    r[cc] = nv
                else:
                    del r[cc]
        return r

    waiting, grew = sorted(filter(None, rows), key=len), True
    while grew:
        grew, left = False, []
        for row in waiting:
            r = reduced(row)
            units = [c for c, v in r.items() if v == 1 or v == -1]
            if not units:
                if r:
                    left.append(r)
                continue
            c = min(units, key=lambda c: len(holders.get(c, ())))
            if r.pop(c) == -1:
                r = {cc: -v for cc, v in r.items()}
            for p in holders.pop(c, ()):
                tail = tails[p]
                q = tail.pop(c)
                for cc, v in r.items():
                    nv = tail.get(cc, 0) - q * v
                    if nv:
                        if cc not in tail:
                            holders.setdefault(cc, set()).add(p)
                        tail[cc] = nv
                    elif cc in tail:
                        del tail[cc]
                        holders[cc].discard(p)
            tails[c] = r
            for cc in r:
                holders.setdefault(cc, set()).add(c)
            grew = True
        waiting = left
    free = ncols - len(tails)
    if not waiting:
        return free, ()
    res_cols = sorted({c for r in waiting for c in r})
    cidx = {c: k for k, c in enumerate(res_cols)}
    dense = [[0] * len(res_cols) for _ in waiting]
    for k, r in enumerate(waiting):
        for c, v in r.items():
            dense[k][cidx[c]] = v
    res = snf(dense)
    torsion = tuple(d for d in res.invariant_factors if d != 1)
    return free - res.rank, torsion


def graded_rank_oracle(table: VariableTable, gens, d: int) -> tuple[int, tuple[int, ...]]:
    """Free rank and torsion of degree ``d`` of the quotient by ``gens``.

    Works modulo M, the ideal of the unit-coefficient monomial generators:
    the columns are the degree-d monomials outside M, from the oracle's own
    walk, apart from the Groebner route (m is outside M when it is no
    generator and every m/x_q is), and the rows the other generators times
    them, with their terms in M dropped; a row left empty, or equal to an
    earlier one, is not handed on.
    """
    if d < 0:
        return 0, ()
    table._checked(d << table._shift)
    units, others = set(), []
    for g in filter(None, gens):
        if len(g.terms) == 1 and abs(next(iter(g.terms.values()))) == 1:
            units.update(g.terms)
        elif table.is_homogeneous(g):
            others.append(g)
        else:
            raise ValueError("rank oracle requires homogeneous generators")
    # levels[k]: degree-k monomial outside M -> its largest position (0 for 1)
    levels = [{} if 0 in units else {0: 0}]
    for k in range(1, d + 1):
        level = {}
        for p, w in enumerate(table.weights):
            if w > k:
                continue
            for m, top in levels[k - w].items():
                mp = m + table._vars[p]
                if top <= p and mp not in units and all(
                        mp - table._vars[q] in levels[k - table.weights[q]]
                        for q, _ in table.support(m)):
                    level[mp] = p
        levels.append(level)
    cols = {m: i for i, m in enumerate(levels[d])}
    rows: dict[frozenset, dict[int, int]] = {}
    for g in others:
        gd = table.degree(g)
        if gd > d:
            continue
        terms = g.terms.items()
        for m in levels[d - gd]:
            row = {k: cc for mm, cc in terms
                   if (k := cols.get(mm + m)) is not None}
            if row:
                rows.setdefault(frozenset(row.items()), row)
    return _sparse_quotient(list(rows.values()), len(cols))
