"""Z2-graded linear algebra: super-spaces, parity-tagged maps, Koszul signs.

The sign conventions are the usual ones: permuting two odd elements in an
expression costs a minus sign.  Concretely,

* (f (x) g)(x (x) y) = (-1)^{p(g) p(x)} f(x) (x) g(y),
* tau(u (x) v)       = (-1)^{p(u) p(v)} v (x) u,
* f*(phi)            = (-1)^{p(f) p(phi)} phi . f,
* ev (left duality)  : V* (x) V -> k is the plain contraction,
* ev_right           : V (x) V* -> k carries the sign (-1)^{p(v) p(phi)},
* coev               : k -> V (x) V*, 1 |-> sum v_i (x) v_i^*.

All maps are dense-in-principle matrices over the rationals, stored sparsely;
spaces are ordered parity lists, so tensor products are strictly associative
and the unit object is literal (no coherence plumbing needed).

The sparse matrix kernels live here: ``mat_mul`` and ``mat_scomm`` work on
{(row, col): value} dicts, and ``mat_columns`` groups such a dict by column.
A map keeps its entries grouped by row (``SuperMap.rows``) once it is first read;
only ``invtensor.pairing_as_composite`` and ``invtensor._endo_of_covector`` read it.
Every sum of products in the library goes through one accumulate,
``_summed``: it adds (key, value) pairs by key and passes the result once
through ``_nonzero``, which drops the cancelled entries and leaves every value
a canonical scalar (``exactnum.exact``: an int when whole, else a Fraction);
``exactnum.cleared`` writes a dict as ints over one denominator for the int
kernels.  Maps are validated at the public constructor ``SuperMap(...)``,
which also makes each entry canonical; kernel results (compositions, sums,
scalar multiples, tensor products, transposes, partial traces) are homogeneous
by construction and are built through the private ``SuperMap._of``, which only
calls ``_nonzero``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .exactnum import exact

EVEN, ODD = 0, 1


@dataclass(frozen=True)
class SuperSpace:
    """An ordered basis with one parity bit per basis vector."""

    parities: tuple[int, ...]

    def __post_init__(self):
        if any(p not in (0, 1) for p in self.parities):
            raise ValueError("parities must be 0 or 1")

    @property
    def dim(self) -> int:
        return len(self.parities)

    @property
    def dim_even(self) -> int:
        return sum(1 for p in self.parities if p == EVEN)

    @property
    def dim_odd(self) -> int:
        return sum(1 for p in self.parities if p == ODD)

    @property
    def sdim(self) -> int:
        return self.dim_even - self.dim_odd

    def __repr__(self):
        return f"SuperSpace({self.dim_even}|{self.dim_odd}, dim={self.dim})"


def super_space(dim_even: int, dim_odd: int) -> SuperSpace:
    """The model space with ``dim_even`` even then ``dim_odd`` odd basis vectors."""
    return SuperSpace((EVEN,) * dim_even + (ODD,) * dim_odd)


UNIT = super_space(1, 0)


def _nonzero(d: dict) -> dict:
    """The entries that did not cancel to zero, as canonical scalars (a float raises)."""
    return {k: v.numerator if v.denominator == 1 else v for k, v in d.items() if v}


def _summed(pairs, start=()) -> dict:
    """``start`` plus the (key, value) pairs added by key, less what cancelled (``_nonzero``)."""
    out = dict(start)
    for k, v in pairs:
        out[k] = out.get(k, 0) + v
    return _nonzero(out)


def mat_columns(entries: dict, transpose: bool = False) -> dict[int, list]:
    """Sparse matrix entries, or their plain transpose, grouped as column -> [(row, value)]."""
    cols: dict[int, list] = {}
    for (i, j), v in entries.items():
        if transpose:
            i, j = j, i
        cols.setdefault(j, []).append((i, v))
    return cols


def mat_mul(x: dict, y: dict) -> dict:
    """The product x . y of sparse matrices {(row, col): value}."""
    by_row = mat_columns(y, transpose=True)
    return _summed(((i, j), u * v) for (i, k), u in x.items() for j, v in by_row.get(k, ()))


def mat_scomm(x: dict, px: int, y: dict, py: int) -> dict:
    """The super-commutator x . y - (-1)^{px py} y . x of sparse matrices."""
    sign = 1 if (px and py) else -1
    return _summed(((k, sign * v) for k, v in mat_mul(y, x).items()), mat_mul(x, y))


@dataclass(frozen=True)
class SuperMap:
    """A homogeneous linear map between super-spaces.

    Entries are stored sparsely as {(row, col): value}, each value a canonical
    scalar (see ``exactnum.exact``; anything but an int or a Fraction raises
    TypeError).  Homogeneity is enforced at construction: entry (i, j) may be
    nonzero only when parity(codomain_i) = parity(domain_j) + parity(map) in Z2.
    """

    domain: SuperSpace
    codomain: SuperSpace
    parity: int
    entries: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.parity not in (0, 1):
            raise ValueError("map parity must be 0 or 1")
        clean = {}
        rows, cols = self.codomain.parities, self.domain.parities
        for (i, j), v in self.entries.items():
            v = exact(v)
            if not v:
                continue
            if not (0 <= i < len(rows) and 0 <= j < len(cols)):
                raise ValueError(f"entry ({i},{j}) out of range")
            if rows[i] != (cols[j] + self.parity) % 2:
                raise ValueError(
                    f"entry ({i},{j}) violates homogeneity for parity {self.parity}"
                )
            clean[(i, j)] = v
        object.__setattr__(self, "entries", clean)

    @classmethod
    def _of(cls, domain, codomain, parity, entries) -> SuperMap:
        """A kernel result, homogeneous by construction: zeros dropped, no checks."""
        m = object.__new__(cls)
        for name, value in (("domain", domain), ("codomain", codomain),
                            ("parity", parity), ("entries", _nonzero(entries))):
            object.__setattr__(m, name, value)
        return m

    @cached_property
    def rows(self) -> dict[int, list]:  # row -> [(col, value)], built on first read and kept
        return mat_columns(self.entries, transpose=True)

    # -- basic algebra ----------------------------------------------------

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries.get((i, j), 0)

    def is_zero(self) -> bool:
        return not self.entries

    def __add__(self, other: SuperMap) -> SuperMap:
        if (self.domain, self.codomain) != (other.domain, other.codomain):
            raise ValueError("shape mismatch in map addition")
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.parity != other.parity:
            raise ValueError("cannot add maps of different parity")
        return SuperMap._of(self.domain, self.codomain, self.parity,
                            _summed(other.entries.items(), self.entries))

    def __sub__(self, other: SuperMap) -> SuperMap:
        return self + (-1) * other

    def __rmul__(self, scalar) -> SuperMap:
        c = exact(scalar)
        ent = {k: c * v for k, v in self.entries.items()} if c else {}
        return SuperMap._of(self.domain, self.codomain, self.parity, ent)

    def __neg__(self) -> SuperMap:
        return (-1) * self

    def __matmul__(self, other: SuperMap) -> SuperMap:
        """Composition self . other (apply ``other`` first)."""
        if other.codomain != self.domain:
            raise ValueError("composition shape mismatch")
        return SuperMap._of(other.domain, self.codomain, (self.parity + other.parity) % 2,
                            mat_mul(self.entries, other.entries))

    def apply(self, vec: dict) -> dict[int, Fraction]:
        """Apply to a column vector given as {index: value}, in one pass over the entries."""
        return _summed((i, v * vec[j]) for (i, j), v in self.entries.items() if j in vec)

    def __repr__(self):
        return (
            f"SuperMap({self.domain.dim}->{self.codomain.dim}, parity={self.parity}, "
            f"nnz={len(self.entries)})"
        )


def identity(V: SuperSpace) -> SuperMap:
    return SuperMap(V, V, EVEN, {(i, i): 1 for i in range(V.dim)})


def zero_map(U: SuperSpace, V: SuperSpace, parity: int = EVEN) -> SuperMap:
    return SuperMap(U, V, parity, {})


def column_map(V: SuperSpace, coords: dict) -> SuperMap:
    """The even map from the unit object k picking out the vector ``coords`` in V."""
    return SuperMap(UNIT, V, EVEN, {(i, 0): v for i, v in coords.items() if v})


def scalar_of(m: SuperMap) -> Fraction:
    """The scalar of a map k -> k."""
    if m.domain.dim != 1 or m.codomain.dim != 1:
        raise ValueError("not an endomorphism of the unit object")
    return m.entry(0, 0)


# -- tensor structure ------------------------------------------------------


def tensor_space(U: SuperSpace, V: SuperSpace) -> SuperSpace:
    """U (x) V with the left-factor-major lexicographic basis order."""
    return SuperSpace(tuple((p + q) % 2 for p in U.parities for q in V.parities))


def tensor_map(f: SuperMap, g: SuperMap) -> SuperMap:
    """Koszul-signed tensor product of maps."""
    dom = tensor_space(f.domain, g.domain)
    cod = tensor_space(f.codomain, g.codomain)
    dg, cg = g.domain.dim, g.codomain.dim
    ent = {}
    for (fi, fj), fv in f.entries.items():
        sign = -1 if (g.parity and f.domain.parities[fj]) else 1
        for (gi, gj), gv in g.entries.items():
            ent[(fi * cg + gi, fj * dg + gj)] = sign * fv * gv
    return SuperMap._of(dom, cod, (f.parity + g.parity) % 2, ent)


def super_permutation(U: SuperSpace, V: SuperSpace) -> SuperMap:
    """tau_{U,V}: U (x) V -> V (x) U, u (x) v |-> (-1)^{p(u)p(v)} v (x) u."""
    dom = tensor_space(U, V)
    cod = tensor_space(V, U)
    ent = {}
    for i, p in enumerate(U.parities):
        for j, q in enumerate(V.parities):
            ent[(j * U.dim + i, i * V.dim + j)] = -1 if p and q else 1
    return SuperMap(dom, cod, EVEN, ent)


# -- duality ---------------------------------------------------------------


def dual_space(V: SuperSpace) -> SuperSpace:
    """The dual basis carries the same parities."""
    return SuperSpace(V.parities)


def super_transpose(f: SuperMap) -> SuperMap:
    """f*: codomain* -> domain*, f*(phi) = (-1)^{p(f) p(phi)} phi . f."""
    ent = {}
    for (i, j), v in f.entries.items():
        sign = -1 if (f.parity and f.codomain.parities[i]) else 1
        ent[(j, i)] = sign * v
    return SuperMap._of(dual_space(f.codomain), dual_space(f.domain), f.parity, ent)


def ev(V: SuperSpace) -> SuperMap:
    """Left evaluation V* (x) V -> k, phi (x) v |-> phi(v)."""
    ent = {(0, i * V.dim + i): 1 for i in range(V.dim)}
    return SuperMap(tensor_space(dual_space(V), V), UNIT, EVEN, ent)


def ev_right(V: SuperSpace) -> SuperMap:
    """Right evaluation V (x) V* -> k, v (x) phi |-> (-1)^{p(v)p(phi)} phi(v)."""
    ent = {(0, i * V.dim + i): -1 if V.parities[i] else 1 for i in range(V.dim)}
    return SuperMap(tensor_space(V, dual_space(V)), UNIT, EVEN, ent)


def coev(V: SuperSpace) -> SuperMap:
    """Coevaluation k -> V (x) V*, 1 |-> sum_i v_i (x) v_i^*."""
    ent = {(i * V.dim + i, 0): 1 for i in range(V.dim)}
    return SuperMap(UNIT, tensor_space(V, dual_space(V)), EVEN, ent)


def dual_tensor_iso(U: SuperSpace, V: SuperSpace) -> SuperMap:
    """The canonical U* (x) V* -> (U (x) V)*, with sign (-1)^{p(u_i)p(v_j)}."""
    dom = tensor_space(dual_space(U), dual_space(V))
    cod = dual_space(tensor_space(U, V))
    ent = {}
    for i, p in enumerate(U.parities):
        for j, q in enumerate(V.parities):
            k = i * V.dim + j
            ent[(k, k)] = -1 if p and q else 1
    return SuperMap(dom, cod, EVEN, ent)


# -- traces ----------------------------------------------------------------


def supertrace(f: SuperMap) -> Fraction:
    """str(f) = sum_i (-1)^{p(v_i)} f_ii; requires a square map."""
    if f.domain != f.codomain:
        raise ValueError("supertrace requires domain == codomain")
    total = 0
    for i, p in enumerate(f.domain.parities):
        v = f.entries.get((i, i))
        if v:
            total += -v if p else v
    return total


def partial_supertrace(f: SuperMap, U: SuperSpace, V: SuperSpace) -> SuperMap:
    """Contract an endomorphism of U (x) V over the V factor.

    Equals (Id (x) ev_right) . (f (x) Id_{V*}) . (Id (x) coev); entrywise this
    is ptr(f)_{ij} = sum_v (-1)^{p(v)} f_{(i,v),(j,v)}.
    """
    if f.domain != f.codomain or f.domain != tensor_space(U, V):
        raise ValueError("map is not an endomorphism of the given factorization")
    return partial_supertrace_hom(f, U, V, U)


def partial_supertrace_hom(
    h: SuperMap, A: SuperSpace, C: SuperSpace, B: SuperSpace
) -> SuperMap:
    """Generalized partial supertrace Hom(A (x) C, B (x) C) -> Hom(A, B)."""
    if h.domain != tensor_space(A, C) or h.codomain != tensor_space(B, C):
        raise ValueError("map does not fit the requested factorizations")
    dc = C.dim
    ent = _summed(((r // dc, c // dc), -v if C.parities[c % dc] else v)
                  for (r, c), v in h.entries.items() if r % dc == c % dc)
    return SuperMap._of(A, B, h.parity, ent)


def parity_shift(V: SuperSpace) -> tuple[SuperSpace, SuperMap]:
    """The parity-flipped space and the odd isomorphism onto it."""
    flipped = SuperSpace(tuple((p + 1) % 2 for p in V.parities))
    sigma = SuperMap(V, flipped, ODD, {(i, i): 1 for i in range(V.dim)})
    return flipped, sigma
