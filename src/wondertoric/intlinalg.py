"""Exact integer linear algebra.

Hermite and Smith normal forms over the integers, and the lattice
operations built on them: saturation, annihilators, membership tests and
quotient complements.  Everything runs on plain Python integers, so there
is no precision ceiling and no floating point anywhere in the package.

Matrices are sequences of equal-length rows of ints.  Functions never
mutate their arguments; results use tuples so they can be hashed and
compared.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b) -> list[list[int]]:
    if not a:
        return []
    cols = len(b[0]) if b else 0
    return [[sum(ra[k] * b[k][j] for k in range(len(b))) for j in range(cols)]
            for ra in a]


def freeze(mat) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(map(int, row)) for row in mat)


@dataclass(frozen=True)
class SNFResult:
    """Smith decomposition ``left @ M @ right = diag(invariant_factors)``.

    ``invariant_factors`` are the nonzero diagonal entries, positive and
    ordered so that each divides the next.  The transforms are unimodular;
    ``right_inv`` is the exact integer inverse of ``right`` (its first
    ``rank`` rows span the saturation of the row space of ``M``).
    Transforms are ``None`` unless requested.
    """

    invariant_factors: tuple[int, ...]
    left: tuple | None = None
    right: tuple | None = None
    right_inv: tuple | None = None

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)


def snf(mat, transforms: bool = False, cols: int | None = None) -> SNFResult:
    """Smith normal form of an integer matrix.

    ``cols`` must be supplied when ``mat`` has no rows (the column count
    cannot be inferred from an empty list).
    """
    a = [list(map(int, row)) for row in mat]
    nr = len(a)
    nc = len(a[0]) if nr else (0 if cols is None else cols)
    if nr and any(len(r) != nc for r in a):
        raise ValueError("ragged matrix")

    u = identity_matrix(nr)
    v = identity_matrix(nc)
    vinv = identity_matrix(nc)

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def row_neg(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    def row_add(i, j, q):
        # row_i += q * row_j
        a[i] = [x + q * y for x, y in zip(a[i], a[j])]
        u[i] = [x + q * y for x, y in zip(u[i], u[j])]

    def col_swap(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]
        vinv[i], vinv[j] = vinv[j], vinv[i]

    def col_add(i, j, q):
        # col_j += q * col_i  (inverse acts on rows of vinv: row_i -= q*row_j)
        for r in a:
            r[j] += q * r[i]
        for r in v:
            r[j] += q * r[i]
        vinv[i] = [x - q * y for x, y in zip(vinv[i], vinv[j])]

    t = 0
    while t < min(nr, nc):
        # Find a pivot of minimal absolute value in the working submatrix.
        piv = None
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                x = a[i][j]
                if x and (best is None or abs(x) < best):
                    best = abs(x)
                    piv = (i, j)
        if piv is None:
            break
        while True:
            i, j = piv
            if i != t:
                row_swap(t, i)
            if j != t:
                col_swap(t, j)
            if a[t][t] < 0:
                row_neg(t)
            # Clear column t, then row t; restart if fill-in reappears.
            dirty = False
            for i in range(t + 1, nr):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    row_add(i, t, -q)
                    if a[i][t]:
                        dirty = True
            for j in range(t + 1, nc):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    col_add(t, j, -q)
                    if a[t][j]:
                        dirty = True
            if dirty:
                piv = min(((i, j) for i in range(t, nr) for j in range(t, nc)
                           if a[i][j]), key=lambda ij: abs(a[ij[0]][ij[1]]))
                continue
            # Pivot must divide the rest of the submatrix for the
            # divisibility chain; if not, merge the offending row and retry.
            offender = None
            for i in range(t + 1, nr):
                for j in range(t + 1, nc):
                    if a[i][j] % a[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_add(t, offender, 1)
            piv = (t, t)
        t += 1

    factors = tuple(a[i][i] for i in range(min(nr, nc)) if a[i][i])
    if transforms:
        return SNFResult(factors, freeze(u), freeze(v), freeze(vinv))
    return SNFResult(factors)


def hnf(mat, cols: int | None = None) -> tuple[tuple[tuple[int, ...], ...], tuple]:
    """Row Hermite normal form.

    Returns ``(H, U)`` with ``H = U @ mat``, ``U`` unimodular.  ``H`` is in
    echelon form with positive pivots, entries above each pivot reduced to
    ``[0, pivot)``, zero rows at the bottom.
    """
    a = [list(map(int, row)) for row in mat]
    nr = len(a)
    nc = len(a[0]) if nr else (0 if cols is None else cols)
    u = identity_matrix(nr)

    def row_add(i, j, q):
        a[i] = [x + q * y for x, y in zip(a[i], a[j])]
        u[i] = [x + q * y for x, y in zip(u[i], u[j])]

    r = 0
    for c in range(nc):
        while True:
            nz = [i for i in range(r, nr) if a[i][c]]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(a[i][c]), i))
            if i0 != r:
                a[r], a[i0] = a[i0], a[r]
                u[r], u[i0] = u[i0], u[r]
            if a[r][c] < 0:
                a[r] = [-x for x in a[r]]
                u[r] = [-x for x in u[r]]
            done = True
            for i in range(r + 1, nr):
                if a[i][c]:
                    q = a[i][c] // a[r][c]
                    row_add(i, r, -q)
                    if a[i][c]:
                        done = False
            if done:
                break
        if r < nr and a[r][c]:
            for i in range(r):
                q = a[i][c] // a[r][c]
                if q:
                    row_add(i, r, -q)
            r += 1
            if r == nr:
                break
    return freeze(a), freeze(u)


def hnf_basis(rows, cols: int | None = None) -> tuple[tuple[int, ...], ...]:
    """Canonical (HNF) basis of the lattice spanned by ``rows``."""
    h, _ = hnf(rows, cols=cols)
    return tuple(r for r in h if any(r))


@dataclass(frozen=True)
class Sublattice:
    """A sublattice of Z^n given by a canonical basis.

    ``basis`` rows are Z-linearly independent and stored in Hermite normal
    form, so equal sublattices compare and hash equal.
    """

    ambient_rank: int
    basis: tuple[tuple[int, ...], ...] = field(default=())

    def __post_init__(self):
        # sublattices key the poset's dicts; hash the basis once
        object.__setattr__(self, "_hash", hash((self.ambient_rank, self.basis)))

    def __hash__(self):
        return self._hash

    @staticmethod
    def from_rows(ambient_rank: int, rows) -> "Sublattice":
        rows = [tuple(map(int, r)) for r in rows]
        for r in rows:
            if len(r) != ambient_rank:
                raise ValueError("row length does not match ambient rank")
        h = hnf_basis(rows, cols=ambient_rank)
        if len(h) != len(rows):
            raise ValueError("basis rows are not Z-linearly independent")
        return Sublattice(ambient_rank, h)

    @staticmethod
    def full(ambient_rank: int) -> "Sublattice":
        return Sublattice(ambient_rank, freeze(identity_matrix(ambient_rank)))

    @staticmethod
    def zero(ambient_rank: int) -> "Sublattice":
        return Sublattice(ambient_rank, ())

    @property
    def rank(self) -> int:
        return len(self.basis)

    def solve(self, vector) -> tuple[int, ...] | None:
        """Integer coordinates of ``vector`` in this basis, or None."""
        v = list(map(int, vector))
        if len(v) != self.ambient_rank:
            raise ValueError("vector length does not match ambient rank")
        coeffs = []
        for row in self.basis:
            p = next((j for j, x in enumerate(row) if x), None)
            if p is None:  # pragma: no cover - basis rows are nonzero
                coeffs.append(0)
                continue
            q, rem = divmod(v[p], row[p])
            if rem:
                return None
            coeffs.append(q)
            v = [x - q * y for x, y in zip(v, row)]
        if any(v):
            return None
        return tuple(coeffs)

    def contains_vector(self, vector) -> bool:
        return self.solve(vector) is not None

    def contains(self, other: "Sublattice") -> bool:
        return all(self.contains_vector(r) for r in other.basis)


def saturate(lat: Sublattice) -> Sublattice:
    """Saturation ``(L (x) Q) intersect Z^n``; same rank, index-one basis."""
    if lat.rank == 0:
        return lat
    res = snf(lat.basis, transforms=True)
    rows = [res.right_inv[i] for i in range(res.rank)]
    return Sublattice.from_rows(lat.ambient_rank, rows)


def lattice_index(lat: Sublattice) -> int:
    """Index of ``lat`` inside its saturation (product of invariant factors)."""
    out = 1
    for d in snf(lat.basis, cols=lat.ambient_rank).invariant_factors:
        out *= d
    return out


def is_saturated(lat: Sublattice) -> bool:
    return lattice_index(lat) == 1


def annihilator(lat: Sublattice) -> Sublattice:
    """Integer vectors pairing to zero with every row of ``lat``.

    The result is saturated of rank ``n - rank(lat)``.
    """
    n = lat.ambient_rank
    return Sublattice.from_rows(n, kernel_basis(lat.basis, n))


def kernel_basis(mat, cols: int) -> list[tuple[int, ...]]:
    """Basis of ``{v in Z^cols : mat @ v = 0}`` (saturated)."""
    if not mat:
        return [tuple(r) for r in identity_matrix(cols)]
    res = snf(mat, transforms=True)
    return [tuple(res.right[i][j] for i in range(cols))
            for j in range(res.rank, cols)]


def complement_basis(inner: Sublattice, outer: Sublattice) -> list[tuple[int, ...]]:
    """Vectors of ``outer`` whose images form a basis of ``outer/inner``.

    Both lattices must be saturated with ``inner`` contained in ``outer``;
    the choice is the deterministic SNF-adapted one, so repeated runs emit
    identical generators.
    """
    if inner.ambient_rank != outer.ambient_rank:
        raise ValueError("ambient rank mismatch")
    coords = []
    for row in inner.basis:
        c = outer.solve(row)
        if c is None:
            raise ValueError("inner lattice is not contained in outer")
        coords.append(list(c))
    m = outer.rank
    k = inner.rank
    if k == 0:
        return [tuple(r) for r in outer.basis]
    res = snf(coords, transforms=True, cols=m)
    assert all(d == 1 for d in res.invariant_factors), \
        "quotient of saturated lattices must be free"
    adapted = mat_mul([list(r) for r in res.right_inv], [list(r) for r in outer.basis])
    return [tuple(adapted[i]) for i in range(k, m)]


def is_unimodular(mat) -> bool:
    rows = len(mat)
    if rows == 0:
        return True
    if any(len(r) != rows for r in mat):
        return False
    res = snf(mat)
    return res.rank == rows and all(d == 1 for d in res.invariant_factors)
