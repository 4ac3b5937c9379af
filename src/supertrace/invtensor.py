"""Invariant tensors of the adjoint representation and their bilinear forms.

For sl(m|n) the adjoint representation is realized on the supertrace-zero
matrices; the invariant even supersymmetric form is the supertrace form of
the defining representation, b(x, y) = str(xy).  Degree-N invariant tensors
are exact kernels of the generator actions on tensor powers, applied factor
by factor on coordinates.  The subspaces reachable from witnessed modules
(images of coevaluations under g-linear maps into tensor powers) carry a
second bilinear form built from the modified supertrace; elements of those
subspaces keep their presentations (module, map, witness) so the form can be
evaluated and its presentation independence checked.  The reachable maps
come from Frobenius reciprocity through the adjunction
Hom(V (x) V*, g^(x)N) = Hom(V, g^(x)N (x) V); both forms, form adjoints and
the symmetric group action work on coordinates, through the extended form
b~_N = iota . b^(x)N and its inverse that ``AdjointData`` keeps per degree as
columns; the pairings read a presenting map's kept rows.  The g^(x)N-sized
map-composition route (dualizing_map, pairing_as_composite), composed once per
degree, is kept as an independent oracle.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial, reduce

from . import superlin as sl
from .exactnum import exact
from .linalg import RowReducer
from .mtrace import modified_trace
from .repmod import (  # hom_space stays bound here: perfbench's tracer test reads invtensor.hom_space
    FactorwiseAction,
    GModule,
    IdealWitness,
    _assembled,
    _check_g_linear,
    _make_module,
    _replay,
    hom_space,  # noqa: F401
    invariant_vectors,
    sl_generators,
    tensor_module,
    witness_dsum,
)
from .rootdata import RootSystem
from .superlin import SuperMap, SuperSpace


class FormConstructionError(ValueError):
    """The candidate invariant form failed one of its defining axioms."""


@dataclass(frozen=True, eq=False)
class AdjointData:
    """The adjoint module of sl(m|n) with its invariant bilinear form.

    basis_matrices realize the chosen homogeneous basis inside the defining
    representation; b is the form, stored once as the induced isomorphism
    g -> g*: column i holds the form against basis vector i, so (x_i, x_j) is
    ``b.entry(j, i)``.  The root system is ``module.rs``.  Per-degree tables are kept in
    one dict, ``_kept``, read through ``_keep(key, build)``: ("power", N), ("space", N),
    ("form", N, inverse) for ``form_columns``, ("composite", N) for ``dualizing_map``
    and ("moved", N, perm) for ``_permuter``.  ``_kept`` is not an init field, so
    ``dataclasses.replace`` starts a copy empty.
    """

    module: GModule
    basis_matrices: tuple[dict, ...]
    b: SuperMap
    b_inv: SuperMap
    _kept: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def gdim(self) -> int:
        return self.module.dim

    def _keep(self, key: tuple, build):
        """The table kept under ``key``: ``build()`` on the key's first read."""
        if key not in self._kept:
            self._kept[key] = build()
        return self._kept[key]

    def _fold(self, key: str, op, N: int, factor):
        """op folded over N copies of factor (N >= 1, else ValueError), kept under (key, N)."""
        if N < 1:
            raise ValueError("tensor degree must be at least 1")
        return self._keep((key, N), lambda: reduce(op, [factor] * N))

    def power(self, N: int) -> GModule:
        """The N-th tensor power of the adjoint module (kept)."""
        return self._fold("power", tensor_module, N, self.module)

    def power_space(self, N: int) -> SuperSpace:
        """The super-space of the N-th tensor power (kept), without its module."""
        return self._fold("space", sl.tensor_space, N, self.module.space)

    def form_columns(self, N: int, inverse: bool = False) -> list[list]:
        """Column t of b~_N, or of b~_N^-1 = b_inv^(x)N . iota^-1 (iota is its own inverse), as
        [(r, value)]: the walk of b's or b_inv's partners on every basis tensor, once per degree."""
        form = self.b_inv if inverse else self.b
        return self._keep(("form", N, inverse), lambda: _partner_walk(self, N, _partners(self, form)))


def build_adjoint(rs: RootSystem) -> AdjointData:
    """Adjoint data for sl(m|n); verifies all four axioms of the form exactly."""
    std, e, f, h = sl_generators(rs)
    par = std.parities
    dim, r = std.dim, rs.rank

    offdiag = [(p, q) for p in range(dim) for q in range(dim) if p != q]
    h_mats = [x.entries for x in h]
    basis: list[dict] = [{pq: 1} for pq in offdiag] + h_mats
    parities = [par[p] ^ par[q] for p, q in offdiag] + [0] * r
    gdim = len(basis)
    space = SuperSpace(tuple(parities))

    # Expansion of a supertraceless matrix over the chosen basis: off-diagonal
    # entries index directly, the diagonal solves against the h matrices.
    diag_reducer = RowReducer()
    for hm in h_mats:
        diag_reducer.add({p: v for (p, _), v in hm.items()})
    n_offdiag = gdim - r
    pos = {pq: k for k, pq in enumerate(offdiag)}

    def expand(mat: dict) -> dict[int, Fraction]:
        out = {pos[(p, q)]: v for (p, q), v in mat.items() if p != q}
        diag = {p: v for (p, q), v in mat.items() if p == q}
        if diag:
            for idx, c in diag_reducer.coords(diag).items():
                if c:
                    out[n_offdiag + idx] = c
        return out

    def ad_map(x: SuperMap) -> SuperMap:
        ent: dict[tuple[int, int], Fraction] = {}
        for col in range(gdim):
            image = sl.mat_scomm(x.entries, x.parity, basis[col], parities[col])
            for row, v in expand(image).items():
                ent[(row, col)] = v
        return SuperMap(space, space, x.parity, ent)

    name = f"adj({rs.m}|{rs.n})"
    module = _make_module(rs, space, *([ad_map(x) for x in xs] for xs in (e, f)), name)

    def str_of(mat: dict) -> Fraction:
        return sum(-v if par[p] else v for (p, q), v in mat.items() if p == q)

    b = SuperMap(space, sl.dual_space(space), 0,
                 {(i, j): v for j in range(gdim) for i in range(gdim)
                  if (v := str_of(sl.mat_mul(basis[j], basis[i])))})
    defect = form_defect(module, b)
    if defect:
        raise FormConstructionError(defect)

    # Row k of b^-1 expresses the k-th unit vector over the rows of b (``unit_coords``).
    reducer = RowReducer()
    for i in range(gdim):
        reducer.add(dict(b.rows.get(i, ())))
    if len(reducer) < gdim:
        raise FormConstructionError("form is degenerate")
    b_inv = SuperMap(sl.dual_space(space), space, 0,
                     {(k, i): c for (i, k), c in reducer.unit_coords().items()})
    return AdjointData(module, tuple(basis), b, b_inv)


def form_defect(module: GModule, b: SuperMap) -> str | None:
    """The first axiom the form b fails (even, supersymmetric, invariant), or None."""
    par = module.space.parities
    if any(par[i] != par[j] for i, j in b.entries):
        return "form is not even"
    if any(b.entry(j, i) != (-1 if par[i] and par[j] else 1) * v for (i, j), v in b.entries.items()):
        return "form is not supersymmetric"
    if not _check_g_linear(b, module, module.dual):
        return "form is not invariant"
    return None


# -- invariant tensors ---------------------------------------------------------


def invariant_tensors(adj: AdjointData, N: int, cap: int = 4):
    """Bases of the even and odd invariant tensors of degree N.

    Returns (even_basis, odd_basis) as sparse coordinate vectors over the
    lexicographic basis of the N-th adjoint tensor power: the weight-zero
    vectors that every e_i and f_i kills, acting factor by factor.  The odd
    basis is empty for these algebras; it is computed rather than assumed so
    the evenness statement is a checked result.
    """
    if N > cap:
        raise ValueError(f"degree {N} exceeds the configured cap {cap}")
    return tuple(invariant_vectors((adj.module,) * N, p) for p in (0, 1))


def is_invariant(adj: AdjointData, N: int, coords: dict) -> bool:
    """Whether every generator kills the degree-N tensor ``coords``.

    Only the e_i and f_i are applied: the adjoint module's relations are
    verified, so h_i = [e_i, f_i] kills what both of them kill.
    """
    action = FactorwiseAction((adj.module,) * N)
    return all(not action.apply(kind, i, coords) for kind in "ef" for i in range(adj.module.rs.rank))


def tensor_coords(u: dict, v: dict, vdim: int) -> dict:
    """Concatenation u (x) v of coordinate vectors (no signs for vectors)."""
    return {a * vdim + b: x * y for a, x in u.items() for b, y in v.items()}


# -- the extended supersymmetric form ------------------------------------------


def dual_coords(adj: AdjointData, N: int, coords: dict) -> dict:
    """The covector b~(t) = iota . b^(x)N (t) of a degree-N tensor, sparsely.

    One sum over the kept columns b~_N(e_t) of ``AdjointData.form_columns`` for
    the basis tensors t of the support.
    """
    cols = adj.form_columns(N)
    return sl._summed((r, v * c) for t, c in coords.items() for r, v in cols[t])


def _partners(adj: AdjointData, form: SuperMap) -> list[list]:
    """Column d of the even form map (b or b_inv) as [(c, value)]."""
    partners: list[list] = [[] for _ in range(adj.gdim)]
    for (c, d), v in form.entries.items():
        partners[d].append((c, v))
    return partners


def _partner_walk(adj: AdjointData, N: int, partners: list[list]) -> list[list]:
    """b~_N (or b_inv's walk) on every basis tensor t of g^(x)N, from precomputed partners.

    Column t as [(r, value)], degree by degree: column d gdim^j + t of degree j + 1 puts
    the Gram partners of d in front of column t of degree j (b is even, so E_pq meets only
    E_qp and a Cartan factor only Cartan elements).  The iota chain's Koszul sign
    (-1)^{sum_{i<k} p_i p_k} is (-1)^{k(k-1)/2}, k the number of odd factors, so an odd d
    adds the factor (-1)^{k_t}.
    """
    gdim, par = adj.gdim, adj.module.space.parities
    cols, odds = [[(0, 1)]], [0]
    for _ in range(N):
        place, last, cols = len(cols), cols, []
        for d in range(gdim):
            for t in range(place):
                col, flip = [], par[d] and odds[t] % 2
                for r, p in last[t]:
                    for e, v in partners[d]:  # distinct partner tuples: no key repeats, no zero
                        x = -p * v if flip else p * v
                        col.append((r + e * place, x.numerator if x.denominator == 1 else x))
                cols.append(col)
        odds = [odds[t] + par[d] for d in range(gdim) for t in range(place)]
    return cols


def extended_form(
    adj: AdjointData, t1: dict, n1: int, t2: dict, n2: int
) -> Fraction:
    """The signed product extension of b to tensor degrees (0 across degrees).

    On pure tensors of equal degree k the value is
    prod_i (-1)^{sum_{j>i} p(x_j) p(x'_i)} b(x_i, x'_i), extended bilinearly:
    the covector b~(t1) evaluated on t2.  A key off g^(x)n raises ValueError, a float TypeError.
    """
    for t, n in ((t1, n1), (t2, n2)):
        for k, v in t.items():
            exact(v)
            if k not in range(adj.gdim ** n):
                raise ValueError(f"coordinate {k} is outside g^(x){n}")
    if n1 != n2:
        return 0
    phi = dual_coords(adj, n1, t1)
    return sum(phi[r] * c for r, c in t2.items() if r in phi)


# -- presented invariant tensors (images of coevaluations) ----------------------


@dataclass(frozen=True, eq=False)
class PresentedTensor:
    """An invariant tensor together with the data presenting it.

    coords are the coordinates of f(coev_V(1)) in the degree-N power; f is an
    even g-linear map V (x) V* -> g^{(x)N} and witness certifies V.  The map is a
    recipe: ``source`` is ``build()``, read once and kept (a ``cached_property``): the
    map itself (``presented_tensor``), its assembly from the replay (``it_space``) or
    the moved tensor's own ``source`` (``sn_action``).  A moved tensor keeps adj's
    signed permutation ``perm``: f = P . source is built on first access, and the
    forms pull back through P.
    """

    degree: int
    coords: dict
    witness: IdealWitness
    build: Callable[[], SuperMap] = field(repr=False)
    perm: tuple[int, ...] | None = None
    adj: AdjointData | None = field(default=None, repr=False)

    @property
    def module(self) -> GModule:
        return self.witness.V

    @cached_property
    def source(self) -> SuperMap:
        """The presenting map before ``perm``: ``build()``, on first read."""
        return self.build()

    @cached_property
    def f(self) -> SuperMap:
        """The presenting map: ``source`` itself, or P . source with its columns moved."""
        if self.perm is None:
            return self.source
        move, src = _permuter(self.adj, self.degree, self.perm), self.source
        ent = {(r, c): v for c, col in sl.mat_columns(src.entries).items()
               for r, v in _permuted(move, col).items()}
        return SuperMap._of(src.domain, src.codomain, src.parity, ent)


@dataclass(frozen=True, eq=False)
class ITSubspace:
    """The reachable subspace of degree-N invariant tensors for a probe set."""

    degree: int
    elements: tuple[PresentedTensor, ...]  # linearly independent spanning set
    raw: tuple[PresentedTensor, ...]       # everything produced, with duplicates


def presented_tensor(adj: AdjointData, N: int, w: IdealWitness, f: SuperMap) -> PresentedTensor:
    """f(coev_V(1)): the sum of f's columns i d + i, the multiples of d + 1."""
    step = w.V.dim + 1
    coords = sl._summed((r, v) for (r, c), v in f.entries.items() if c % step == 0)
    return PresentedTensor(N, coords, w, lambda: f)


def it_space(adj: AdjointData, N: int, probes: list[IdealWitness]) -> ITSubspace:
    """Span the degree-N tensors reachable from the witnessed probe modules.

    By adjunction Hom(V (x) V*, g^(x)N) = Hom(V, g^(x)N (x) V): each g-linear
    g: V -> g^(x)N (x) V presents f = (Id (x) ev_right_V) . (g (x) Id_{V*}),
    that is f[x, j d + k] = (-1)^{p_k} g[x d + k, j] with d = dim V.  Every
    probe must be a certified Kac module (ValueError otherwise), so the maps
    g come from Frobenius reciprocity on the factorwise action of
    g^(x)N (x) V; neither side is built as a module.  The coordinates
    t[x] = sum_i (-1)^{p_i} g[x d + i, i], the diagonal that ``presented_tensor``
    sums, are read off the replay images and word coordinates C of g = images . C
    (``repmod._replay``, the words kept on V); f is assembled only when something reads it.
    """
    codomain = adj.power_space(N)
    raw: list[PresentedTensor] = []
    for w in probes:
        V = w.V
        dim, par = V.dim, V.space.parities  # read once per probe, not per entry
        if V.kac_vector is None:
            raise ValueError(f"probe {V.name} is not a certified Kac module")
        replays, coeffs = _replay(V, FactorwiseAction((adj.module,) * N + (V,)), 0)
        for images in replays:
            pairs = []
            for k, image in enumerate(images):
                for row, u in image.items():
                    x, i = divmod(row, dim)
                    c = coeffs.get((k, i))
                    if c:
                        pairs.append((x, -u * c if par[i] else u * c))
            raw.append(PresentedTensor(N, sl._summed(pairs), w,
                                       partial(_replayed_source, V, images, coeffs, codomain)))
    reducer = RowReducer()
    independent = [t for t in raw if t.coords and reducer.add(t.coords)]
    return ITSubspace(N, tuple(independent), tuple(raw))


def _replayed_source(V: GModule, images: list[dict], coeffs: dict, codomain: SuperSpace) -> SuperMap:
    """The presenting map f[x, j d + k] = (-1)^{p_k} g[x d + k, j] of g = images . C (``_assembled``),
    validated by ``SuperMap(...)``."""
    dim, par = V.dim, V.space.parities
    ent = {}
    for (row, j), v in _assembled(images, coeffs).items():
        x, k = divmod(row, dim)
        ent[(x, j * dim + k)] = -v if par[k] else v
    return SuperMap(sl.tensor_space(V.space, sl.dual_space(V.space)), codomain, 0, ent)


def it_sum(
    adj: AdjointData, t1: PresentedTensor, t2: PresentedTensor, lam
) -> PresentedTensor:
    """Present t1 + lam * t2 through the direct sum of the probe modules.

    Requires the two witnesses to share a core module; the presenting map acts
    blockwise on (V1 (+) V2) (x) (V1 (+) V2)*.  At lam = 0 the V2 block is zero,
    and t2's map is not read.
    """
    if t1.degree != t2.degree:
        raise ValueError("cannot sum tensors of different degree")
    lam = exact(lam)
    w = witness_dsum(t1.witness, t2.witness)
    V1, V2 = t1.module, t2.module
    d1, d2 = V1.dim, V2.dim
    d = d1 + d2
    ent: dict[tuple[int, int], Fraction] = {}
    for (row, col), v in t1.f.entries.items():
        i, j = divmod(col, d1)
        ent[(row, i * d + j)] = v
    for (row, col), v in (t2.f.entries.items() if lam else ()):
        i, j = divmod(col, d2)
        ent[(row, (d1 + i) * d + (d1 + j))] = lam * v
    vv = sl.tensor_space(w.V.space, sl.dual_space(w.V.space))
    f = SuperMap(vv, t1.f.codomain, 0, ent)
    return presented_tensor(adj, t1.degree, w, f)


def it_product(
    adj: AdjointData, t_inv: dict, m_deg: int, t1: PresentedTensor
) -> PresentedTensor:
    """Present t_inv (x) t1 (t_inv any invariant tensor) through t1's module."""
    # k (x) D and D share one basis, so the tensor product maps t1.f's domain.
    f = sl.tensor_map(sl.column_map(adj.power_space(m_deg), t_inv), t1.f)
    return presented_tensor(adj, m_deg + t1.degree, t1.witness, f)


# -- the modified bilinear form --------------------------------------------------


def _iota_chain(adj: AdjointData, N: int) -> SuperMap:
    """(g*)^(x)N -> (g^(x)N)* via iterated two-factor dual isomorphisms."""
    g = adj.module.space
    out = sl.identity(sl.dual_space(g))
    left = g
    for _ in range(N - 1):
        step = sl.dual_tensor_iso(left, g)
        out = step @ sl.tensor_map(out, sl.identity(sl.dual_space(g)))
        left = sl.tensor_space(left, g)
    return out


def dualizing_map(adj: AdjointData, N: int) -> SuperMap:
    """b~ = iota . b^(x)N: g^(x)N -> (g^(x)N)*, the form as an isomorphism; composed once per N."""
    return adj._keep(("composite", N),
                     lambda: _iota_chain(adj, N) @ reduce(sl.tensor_map, [adj.b] * N))


def _endo_of_covector(t1: PresentedTensor, phi: dict) -> SuperMap:
    """The endomorphism of t1's module classifying the pairing against b~^-1(phi); psi = f1^T phi reads
    the source's kept rows (``SuperMap.rows``) in phi, so a moved tensor's S_N orbit shares one index."""
    if t1.perm is not None:  # f1 = P . source, so f1^T phi = source^T (P^-1 phi): f1 is not built
        inverse = tuple(sorted(range(t1.degree), key=t1.perm.__getitem__))
        phi = _permuted(_permuter(t1.adj, t1.degree, inverse), phi.items())
    rows = t1.source.rows  # f1 is even: psi = f1^T phi has no signs
    psi = sl._summed((c, u * v) for r, u in phi.items() for c, v in rows.get(r, ()))
    vspace = t1.module.space
    par = vspace.parities
    ent = {}
    for c, v in psi.items():
        a, j = divmod(c, vspace.dim)
        # unpack: (-1)^{p_a p_j}; c^-1: (-1)^{p_j}; ev_right: (-1)^{p_a}.
        ent[(j, a)] = -v if (par[a] * par[j] + par[j] + par[a]) % 2 else v
    return SuperMap._of(vspace, vspace, 0, ent)


def _check_even_tensor(adj: AdjointData, N: int, coords: dict) -> None:
    """ValueError unless every nonzero coordinate is on an even basis tensor of g^(x)N; a float TypeError."""
    par = adj.power_space(N).parities
    for k, v in coords.items():
        if exact(v) and (k not in range(len(par)) or par[k]):
            raise ValueError(f"coordinate {k} is not on an even basis tensor of g^(x){N}")


def presented_endo(adj: AdjointData, t1: PresentedTensor, t2_coords: dict) -> SuperMap:
    """The endomorphism of t1's module classifying the pairing against t2.

    The composite ev_right . (Id (x) (c^-1 . unpack . f1* . b~ . t2)) turns an
    element of Hom(k, V1* (x) V1) into End(V1); its modified trace gives the
    value of the modified form.  It is read off coordinates: psi = f1*(b~(t2))
    from the kept rows of t1's source map at its support, with b~(t2) pulled back
    through t1's permutation if it has one, then endo[j, a] = +-psi[a d + j]
    with the diagonal signs of unpack, c^-1 and ev_right.
    """
    _check_even_tensor(adj, t1.degree, t2_coords)
    return _endo_of_covector(t1, dual_coords(adj, t1.degree, t2_coords))


def modified_gram(
    adj: AdjointData, rows: list[PresentedTensor], cols: list[PresentedTensor]
) -> list[list[Fraction]]:
    """The modified form on every pair (x, y), x in rows and y in cols.

    Each column tensor is dualized once, not once per pair; pairs of
    different degree pair to 0.
    """
    phis = []
    for y in cols:
        _check_even_tensor(adj, y.degree, y.coords)
        phis.append(dual_coords(adj, y.degree, y.coords))
    return [[modified_trace(_endo_of_covector(x, phi), x.witness) if x.degree == y.degree
             else 0 for y, phi in zip(cols, phis)] for x in rows]


def modified_form(
    adj: AdjointData, t1: PresentedTensor, t2: PresentedTensor
) -> Fraction:
    """The modified bilinear form on presented invariant tensors."""
    return modified_gram(adj, [t1], [t2])[0][0]


def classical_gram(
    adj: AdjointData, rows: list[PresentedTensor], cols: list[dict]
) -> list[list[tuple[Fraction, Fraction]]]:
    """The classical pairing of each x in rows against each tensor of cols, by both routes.

    Entry (x, t2) is (extended-form value, supertrace of the presented
    endomorphism); the two agree, and both vanish when t2 is invariant.  All
    tensors share one degree, and each is dualized once.
    """
    if len({x.degree for x in rows}) > 1:
        raise ValueError("rows of different degree")
    if not rows:
        return []
    N = rows[0].degree
    row_phis = [dual_coords(adj, N, x.coords) for x in rows]
    col_phis = []
    for t2 in cols:
        _check_even_tensor(adj, N, t2)
        col_phis.append(dual_coords(adj, N, t2))
    return [[(sum(phi[r] * c for r, c in t2.items() if r in phi),
              sl.supertrace(_endo_of_covector(x, col_phi)))
             for t2, col_phi in zip(cols, col_phis)]
            for x, phi in zip(rows, row_phis)]


def classical_form_vanishes(
    adj: AdjointData, t1: PresentedTensor, t2_coords: dict
) -> bool:
    """Whether the classical pairing of t1 against an invariant tensor is zero.

    Evaluates both routes (the signed product formula and the supertrace of
    the presented endomorphism), insists they agree, and reports vanishing.
    """
    value_ext, value_str = classical_gram(adj, [t1], [t2_coords])[0][0]
    if value_ext != value_str:
        raise FormConstructionError(
            f"pairing routes disagree ({value_ext} vs {value_str})"
        )
    return value_ext == 0


def pairing_as_composite(
    adj: AdjointData, t1_coords: dict, t2_coords: dict, N: int
) -> Fraction:
    """<t1* . b~ . t2> by composition with ``dualizing_map`` (for cross-checks), not ``form_columns``;
    t1* . b~ reads only t1's rows of b~, through the composite's kept row index (t1 is even)."""
    space = adj.power_space(N)
    t1, t2 = (sl.column_map(space, t) for t in (t1_coords, t2_coords))
    rows = dualizing_map(adj, N).rows
    t1_b = sl._summed(((0, c), u * v) for (r, _), u in t1.entries.items() for c, v in rows.get(r, ()))
    return sl.scalar_of(SuperMap._of(space, sl.UNIT, 0, t1_b) @ t2)


# -- symmetric group action and functorial adjoints ------------------------------


def _permuter(adj: AdjointData, N: int, perm: tuple[int, ...]):
    """The signed action of a permutation on basis indices of g^(x)N, memoized.

    ``perm[i]`` is the slot the i-th factor moves to; ValueError unless perm
    permutes range(N).  Each factor goes straight into its slot, and the move
    takes the Koszul sign (-1)^{sum p_i p_j} over the factor pairs i < j that
    perm reverses: flat -> (index, sign).  The factors are read last first, so
    an odd factor i meets the odd factors j > i already put into the slots
    below perm[i].  The moved indices are kept on ``adj`` per (N, perm), so
    later calls reuse them.
    """
    if sorted(perm) != list(range(N)):
        raise ValueError("not a permutation")
    gdim = adj.gdim
    par = adj.module.space.parities
    # Per factor, last first: its place in the moved index, and its slot's bit and the bits below.
    steps = [(gdim ** (N - 1 - slot), 1 << slot, (1 << slot) - 1) for slot in reversed(perm)]
    moved = adj._keep(("moved", N, tuple(perm)), dict)

    def move(flat: int) -> tuple[int, int]:
        if flat not in moved:
            index, rest, odd_slots, flips = 0, flat, 0, 0
            for place, bit, below in steps:
                rest, d = divmod(rest, gdim)
                index += d * place
                if par[d]:
                    flips += (odd_slots & below).bit_count()
                    odd_slots |= bit
            moved[flat] = (index, -1 if flips % 2 else 1)
        return moved[flat]

    return move


def _permuted(move, pairs) -> dict:
    """The sparse vector of (flat, value) ``pairs`` moved by a signed permutation ``move``."""
    return {new: sign * v for flat, v in pairs for new, sign in (move(flat),)}


def permutation_map(adj: AdjointData, N: int, perm: tuple[int, ...]) -> SuperMap:
    """The signed action of a permutation on the degree-N power, as a map."""
    move = _permuter(adj, N, perm)
    space = adj.power_space(N)
    ent = {}
    for c in range(space.dim):
        new, sign = move(c)
        ent[(new, c)] = sign
    return SuperMap._of(space, space, 0, ent)


def sn_action(
    adj: AdjointData, N: int, perm: tuple[int, ...], t: PresentedTensor
) -> PresentedTensor:
    """Apply a permutation to a presented tensor, keeping a valid presentation.

    Only the coordinates take the signed index permutation of ``permutation_map``;
    perm is composed onto t's own (composed[i] = perm[t.perm[i]]), and the moved
    tensor reads t's source map, the same object, on its own first read of ``source``.
    """
    move = _permuter(adj, N, perm)
    if t.degree != N:
        raise ValueError(f"tensor of degree {t.degree} under a permutation of {N} slots")
    composed = tuple(perm) if t.perm is None else tuple(perm[s] for s in t.perm)
    coords = sl._nonzero(_permuted(move, t.coords.items()))
    return PresentedTensor(N, coords, t.witness, partial(getattr, t, "source"), composed, adj)


def form_adjoint(adj: AdjointData, G: SuperMap, m_deg: int, n_deg: int) -> SuperMap:
    """The adjoint G* = b~_M^-1 . G^T . b~_N of G: g^(x)M -> g^(x)N for the extended form.

    Two sparse products on the columns ``AdjointData.form_columns`` keeps, all
    columns at once: the covectors b~_N(e_c) pulled back through the super
    transpose of G, then sent through the kept columns of b~_M^-1.  No call
    walks a form.
    """
    if (G.domain.dim, G.codomain.dim) != (adj.gdim ** m_deg, adj.gdim ** n_deg):
        raise ValueError(f"map is not g^(x){m_deg} -> g^(x){n_deg}")
    transposed = sl.mat_columns(sl.super_transpose(G).entries)
    pulled = sl._summed(((j, c), u * v) for c, col in enumerate(adj.form_columns(n_deg))
                        for r, v in col for j, u in transposed.get(r, ()))
    inverse = adj.form_columns(m_deg, inverse=True)
    ent = sl._summed(((a, c), w * v) for (j, c), v in pulled.items() for a, w in inverse[j])
    return SuperMap._of(G.codomain, G.domain, G.parity, ent)


def pairing_map(adj: AdjointData) -> SuperMap:
    """g (x) g -> k given by the form itself (a b-contraction)."""
    g = adj.module.space
    ent = {(0, a * adj.gdim + c): v for (c, a), v in adj.b.entries.items()}
    return SuperMap(sl.tensor_space(g, g), sl.UNIT, 0, ent)


def casimir_coords(adj: AdjointData) -> dict:
    """The form-inverse tensor sum_i x_i (x) x^i in g (x) g coordinates."""
    g, inv = adj.gdim, adj.b_inv.entries
    return {a * g + bb: inv[(bb, a)] for a in range(g) for bb in range(g) if (bb, a) in inv}
