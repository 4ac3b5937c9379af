"""Explicit finite-dimensional sl(m|n)-modules and morphism machinery.

A module is a tuple of generator matrices (e_i, f_i, h_i as SuperMaps) on a
based super-space.  The h_i act diagonally, and the basis weights are read
off their diagonals in one place (``_make_module``); the matrices of the
defining representation are written once (``sl_generators``), and the
standard, Kac and adjoint modules are built from them.  Every constructor
verifies the Chevalley relations

    [e_i, f_j] = delta_ij h_i,   [h_i, e_j] = a_ij e_j,
    [h_i, f_j] = -a_ij f_j,      [h_i, h_j] = 0,

exactly (the [e_i, f_j] relations as super-commutators, the [h_i, x_j] ones as
weight gaps of the entries of x_j) and aborts on failure, so a module object
is always a certified representation of the generator algebra.

Kac modules for typical dominant weights are induced from the even part: the
simple gl(m) x gl(n) module with the matching highest weight is built inside
tensor powers of the defining representations, the one-dimensional central
character absorbs the free coordinate a_s, and the induced action on the
exterior algebra of the odd lowering space is computed by commuting generators
through the wedge factors.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import lcm

from . import superlin as sl
from .exactnum import exact, rat_str
from .linalg import RowReducer, nullspace
from .rootdata import RootSystem, Weight
from .superlin import SuperMap, SuperSpace

CONSTRUCTION_VERSION = 1


class ModuleRelationError(AssertionError):
    """A constructed module failed the exact generator-relation check."""


class ModuleIntegrityError(ValueError):
    """A cached module failed verification after loading."""


class WitnessNotFoundError(RuntimeError):
    """No splitting through V0 (x) W was found with the canonical W.

    Or V is not a certified Kac module and no search ran.  This records a
    failed search, not a proof that V lies outside the ideal of typicals.
    """


@dataclass(frozen=True, eq=False)
class GModule:
    """Generator matrices on a based super-space with recorded basis weights.

    A recorded ``highest_weight`` is that of a basis vector generating the module.
    """

    rs: RootSystem
    space: SuperSpace
    e: tuple[SuperMap, ...]
    f: tuple[SuperMap, ...]
    h: tuple[SuperMap, ...]
    basis_weights: tuple[tuple[Fraction, ...], ...]
    name: str = ""
    highest_weight: Weight | None = None

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def sdim(self) -> int:
        return self.space.sdim

    def gens(self) -> tuple[SuperMap, ...]:
        return self.e + self.f + self.h

    def weight(self, i: int) -> tuple[Fraction, ...]:
        return self.basis_weights[i]

    def __repr__(self):
        return f"GModule({self.name or 'unnamed'}, dim={self.dim}, sdim={self.sdim})"


def verify_relations(mod: GModule) -> None:
    """Exact check of all Chevalley relations; raises ModuleRelationError.

    Once every h_i is checked to be diagonal with the basis weights,
    [h_i, x_j] = +-a_ij x_j says exactly that each nonzero entry (a, b) of
    e_j (f_j) moves the weight by +a_j (-a_j): (w_a - w_b)_i = +-a_ij.  The
    diagonal h_i commute with each other.
    """
    rs = mod.rs
    r = rs.rank
    for i in range(r):
        hm = mod.h[i]
        for (a, b), v in hm.entries.items():
            if a != b:
                raise ModuleRelationError(f"{mod.name}: h_{i} is not diagonal")
            if v != mod.basis_weights[a][i]:
                raise ModuleRelationError(
                    f"{mod.name}: h_{i} eigenvalue mismatch at basis vector {a}"
                )
        for a, wts in enumerate(mod.basis_weights):
            if wts[i] != hm.entry(a, a):
                raise ModuleRelationError(f"{mod.name}: basis weight {a} disagrees with h_{i}")
    # The weight gaps in ints: coordinate i scaled by the lcm of its denominators.
    dens = [lcm(*(w[i].denominator for w in mod.basis_weights)) for i in range(r)]
    scaled = [[x.numerator * (d // x.denominator) for x, d in zip(w, dens)]
              for w in mod.basis_weights]
    for j in range(r):
        for x, sign in ((mod.e[j], 1), (mod.f[j], -1)):
            for a, b in x.entries:
                for i in range(r):
                    if scaled[a][i] - scaled[b][i] != sign * rs.cartan.a[i][j] * dens[i]:
                        raise ModuleRelationError(f"{mod.name}: [h_{i}, x_{j}] relation failed")
    for i, e in enumerate(mod.e):
        for j, f in enumerate(mod.f):
            lhs = sl.mat_scomm(e.entries, e.parity, f.entries, f.parity)
            if lhs != (mod.h[i].entries if i == j else {}):
                raise ModuleRelationError(f"{mod.name}: [e_{i}, f_{j}] relation failed")


def _make_module(rs, space, e, f, h, name, hw=None, check=True) -> GModule:
    """A module with its basis weights read off the diagonals of the h_i."""
    weights = tuple(tuple(Fraction(x.entry(a, a)) for x in h) for a in range(space.dim))
    mod = GModule(rs, space, tuple(e), tuple(f), tuple(h), weights, name, hw)
    if check:
        verify_relations(mod)
    return mod


# -- basic constructions -----------------------------------------------------


def trivial_module(rs: RootSystem, parity: int = 0, check: bool = True) -> GModule:
    space = SuperSpace((parity,))
    zero = [sl.zero_map(space, space, 1 if i == rs.s else 0) for i in range(rs.rank)]
    zeroh = [sl.zero_map(space, space) for _ in range(rs.rank)]
    name = "C(1|0)" if parity == 0 else "C(0|1)"
    hw = Weight((Fraction(0),) * rs.rank) if parity == 0 else None
    return _make_module(rs, space, zero, zero, zeroh, name, hw, check)


def sl_generators(rs: RootSystem):
    """The defining representation C^{m|n} of sl(m|n) and its Chevalley generators.

    Returns (space, e, f, h): the first m basis vectors are even, the last n
    odd; e_i = E_{i,i+1} and f_i = E_{i+1,i} (odd for i = s), and
    h_i = E_{ii} - E_{i+1,i+1} (E_{ss} + E_{s+1,s+1} at the odd index).
    """
    if rs.family != "sl":
        raise ValueError("the matrix realization is only written for sl(m|n)")
    space = SuperSpace(tuple(0 if k < rs.m else 1 for k in range(rs.m + rs.n)))
    e, f, h = [], [], []
    for i in range(rs.rank):
        par = 1 if i == rs.s else 0
        e.append(SuperMap(space, space, par, {(i, i + 1): 1}))
        f.append(SuperMap(space, space, par, {(i + 1, i): 1}))
        h.append(SuperMap(space, space, 0, {(i, i): 1, (i + 1, i + 1): 1 if par else -1}))
    return space, e, f, h


def standard_module(rs: RootSystem) -> GModule:
    """The defining sl(m|n)-module C^{m|n} with elementary-matrix generators."""
    # Its highest weight vector is the first basis vector, seen only by h_0.
    hw = Weight((Fraction(1),) + (Fraction(0),) * (rs.rank - 1))
    return _make_module(rs, *sl_generators(rs), f"std({rs.m}|{rs.n})", hw)


def dual_module(V: GModule, check: bool = True) -> GModule:
    """Dual action x.phi = -(-1)^{p(x)p(phi)} phi . x (antipode is negation)."""
    space = sl.dual_space(V.space)
    dualize = lambda x: -1 * sl.super_transpose(x)
    return _make_module(
        V.rs, space,
        [dualize(x) for x in V.e], [dualize(x) for x in V.f], [dualize(x) for x in V.h],
        f"({V.name})*", None, check,
    )


def tensor_module(V: GModule, W: GModule, check: bool = True) -> GModule:
    """Tensor action x.(v (x) w) = x.v (x) w + (-1)^{p(x)p(v)} v (x) x.w; no highest weight."""
    if V.rs != W.rs:
        raise ValueError("tensor factors must live over the same algebra")
    idv, idw = sl.identity(V.space), sl.identity(W.space)
    act = lambda xv, xw: sl.tensor_map(xv, idw) + sl.tensor_map(idv, xw)
    return _make_module(
        V.rs, sl.tensor_space(V.space, W.space),
        [act(a, b) for a, b in zip(V.e, W.e)],
        [act(a, b) for a, b in zip(V.f, W.f)],
        [act(a, b) for a, b in zip(V.h, W.h)],
        f"{V.name}(x){W.name}", None, check,
    )


def direct_sum_module(V: GModule, W: GModule, check: bool = True) -> GModule:
    if V.rs != W.rs:
        raise ValueError("direct summands must live over the same algebra")
    space = SuperSpace(V.space.parities + W.space.parities)
    dv = V.dim

    def block(a: SuperMap, b: SuperMap) -> SuperMap:
        ent = dict(a.entries)
        for (i, j), v in b.entries.items():
            ent[(i + dv, j + dv)] = v
        return SuperMap(space, space, a.parity, ent)

    return _make_module(
        V.rs, space,
        [block(a, b) for a, b in zip(V.e, W.e)],
        [block(a, b) for a, b in zip(V.f, W.f)],
        [block(a, b) for a, b in zip(V.h, W.h)],
        f"{V.name}(+){W.name}", None, check,
    )


def parity_shift_module(V: GModule, check: bool = True) -> GModule:
    """The same underlying action with all parities flipped.

    Odd generators are negated so that the identity matrix with an odd parity
    tag is a g-linear isomorphism onto the shifted module.  The highest
    weight is kept, so op K(lam) is certified with an odd d.
    """
    space, _ = sl.parity_shift(V.space)

    def shift(x: SuperMap) -> SuperMap:
        ent = {k: (-v if x.parity else v) for k, v in x.entries.items()}
        return SuperMap(space, space, x.parity, ent)

    return _make_module(
        V.rs, space,
        [shift(x) for x in V.e], [shift(x) for x in V.f], [shift(x) for x in V.h],
        f"op({V.name})", V.highest_weight, check,
    )


def sigma_map(V: GModule) -> SuperMap:
    """The odd g-linear isomorphism V -> parity_shift_module(V)."""
    return sl.parity_shift(V.space)[1]


def sigma_inverse(V: GModule) -> SuperMap:
    flipped, _ = sl.parity_shift(V.space)
    return SuperMap(flipped, V.space, sl.ODD, {(i, i): 1 for i in range(V.dim)})


# -- simple gl(k) modules inside tensor powers -------------------------------


def _weyl_dim(lam: list[int]) -> int:
    k = len(lam)
    num = den = 1
    for i in range(k):
        for j in range(i + 1, k):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
    return num // den


def _gl_simple_module(k: int, amu: tuple[int, ...]):
    """All gl(k) matrix-unit actions on the simple module with sl-weight amu.

    Returns (dim, units, weights) where units[(a, b)] is the sparse matrix of
    E_ab in the generated basis and weights[v] is the gl-weight (occupation
    vector) of basis vector v.  Realized inside (C^k)^{(x) d} by generating
    from the column-antisymmetrized highest weight vector.
    """
    lam = [sum(amu[i:]) for i in range(k - 1)] + [0]

    def flat(t: tuple[int, ...]) -> int:
        idx = 0
        for digit in t:
            idx = idx * k + digit
        return idx

    # Highest weight vector: tensor over columns of wedge(e_1..e_height).
    from itertools import permutations

    hw: dict[tuple[int, ...], Fraction] = {(): 1}
    heights = [sum(1 for row in lam if row > c) for c in range(lam[0] if lam else 0)]
    for hgt in heights:
        new: dict[tuple[int, ...], Fraction] = {}
        for perm in permutations(range(hgt)):
            sign = 1
            for a in range(hgt):
                for b in range(a + 1, hgt):
                    if perm[a] > perm[b]:
                        sign = -sign
            for t, c in hw.items():
                new[t + perm] = new.get(t + perm, 0) + sign * c
        hw = sl.nonzero(new)

    def unit_apply(a: int, b: int, vec: dict) -> dict:
        out: dict[tuple[int, ...], Fraction] = {}
        for t, c in vec.items():
            for pos, digit in enumerate(t):
                if digit == b:
                    u = t[:pos] + (a,) + t[pos + 1 :]
                    out[u] = out.get(u, 0) + c
        return sl.nonzero(out)

    def flatten(vec: dict) -> dict[int, Fraction]:
        return {flat(t): c for t, c in vec.items()}

    reducer = RowReducer()
    reducer.add(flatten(hw))
    basis = [hw]
    frontier = [hw]
    while frontier:
        nxt = []
        for vec in frontier:
            for i in range(k - 1):
                image = unit_apply(i + 1, i, vec)
                if image and reducer.add(flatten(image)):
                    basis.append(image)
                    nxt.append(image)
        frontier = nxt
    dim = len(basis)
    if dim != _weyl_dim(lam):
        raise ModuleRelationError("generated gl module has unexpected dimension")

    weights = []
    for vec in basis:
        t = next(iter(vec))
        weights.append(tuple(sum(1 for d in t if d == a) for a in range(k)))

    units: dict[tuple[int, int], dict[tuple[int, int], Fraction]] = {}
    for a in range(k):
        for b in range(k):
            ent: dict[tuple[int, int], Fraction] = {}
            for col, vec in enumerate(basis):
                image = unit_apply(a, b, vec)
                if not image:
                    continue
                for row, v in reducer.coords(flatten(image)).items():
                    if v:
                        ent[(row, col)] = v
            units[(a, b)] = ent
    return dim, units, weights


# -- Kac modules ---------------------------------------------------------------


def kac_module(rs: RootSystem, lam: Weight) -> GModule:
    """The Kac module K(lam) for a typical finite-dominant weight of sl(m|n).

    Induced from the simple module of the even part: the underlying space is
    the exterior algebra on the odd lowering root vectors tensored with the
    gl(m) x gl(n) simple module, the central character is fixed by a_s, and
    generator matrices are obtained by commuting through the wedge factors.
    For typical lam this is the irreducible highest weight module.
    """
    if rs.family != "sl":
        raise ValueError("Kac modules are only constructed for sl(m|n)")
    if not rs.is_dominant_finite(lam):
        raise ValueError(f"weight {lam} is not dominant with natural a_i (i != s)")
    from .rootdata import AtypicalWeightError

    if not rs.is_typical(lam):
        raise AtypicalWeightError(f"weight {lam} is atypical; Kac module not simple")

    m, n, r, s = rs.m, rs.n, rs.rank, rs.s
    amu_m = tuple(int(lam.a[i]) for i in range(m - 1))
    amu_n = tuple(int(lam.a[i]) for i in range(m, r))
    dm, units_m, wts_m = _gl_simple_module(m, amu_m)
    dn, units_n, wts_n = _gl_simple_module(n, amu_n)
    dim_v0 = dm * dn
    # The central character: a diagonal matrix whose gl(m) block has trace t
    # acts by t * center plus its gl-weights, where center makes
    # h_s = E_mm + E_{m+1,m+1} act by a_s on the highest weight vector.
    center = exact(lam.a[s] - wts_m[0][m - 1] - wts_n[0][0])

    # Each matrix unit E_ab of the two even blocks, grouped by column.
    units_m_bycol, units_n_bycol = (
        {key: sl.mat_columns(ent) for key, ent in units.items()} for units in (units_m, units_n)
    )

    def even_apply(mat: dict, k: int) -> dict[int, Fraction]:
        """Apply a block-diagonal supertraceless (m+n)-matrix to V0 basis vector k.

        The traceless block parts act through the recorded gl matrix units;
        the scalar part (proportional to the center) acts by the character
        fixed by a_s.  Diagonal units act by gl-weights, so the whole
        diagonal contribution is a scalar on each basis vector.
        """
        im, jn = divmod(k, dn)
        out: dict[int, Fraction] = {}
        diag = center * sum(v for (p, q), v in mat.items() if p == q and p < m)
        for (p, q), v in mat.items():
            if p == q:
                if p < m:
                    diag += v * wts_m[im][p]
                else:
                    diag += v * wts_n[jn][p - m]
            elif p < m and q < m:
                for row, u in units_m_bycol[(p, q)].get(im, ()):
                    out[row * dn + jn] = out.get(row * dn + jn, 0) + v * u
            elif p >= m and q >= m:
                for row, u in units_n_bycol[(p - m, q - m)].get(jn, ()):
                    out[im * dn + row] = out.get(im * dn + row, 0) + v * u
        out[k] = out.get(k, 0) + diag
        return sl.nonzero(out)

    mn = m * n

    def y_matrix(c: int) -> dict:
        i, j = divmod(c, n)
        return {(m + j, i): 1}

    ys = [y_matrix(c) for c in range(mn)]

    def wedge(c: int, vec: dict[int, Fraction]) -> dict[int, Fraction]:
        # Distinct basis vectors wedge to distinct ones, so nothing accumulates.
        out: dict[int, Fraction] = {}
        for idx, v in vec.items():
            mask, k = divmod(idx, dim_v0)
            if not mask & (1 << c):
                below = bin(mask & ((1 << c) - 1)).count("1")
                out[(mask | (1 << c)) * dim_v0 + k] = -v if below % 2 else v
        return out

    def act(chains: dict, acted: dict, chain: tuple, mask: int, k: int) -> dict[int, Fraction]:
        """The commutator chain [[x, y_c1], y_c2]... applied to basis vector (mask, k).

        ``chains`` memoizes each chain of the generator x as (matrix, parity),
        ``acted`` each result by (chain, mask, k); cached dicts are never mutated.
        """
        key = (chain, mask, k)
        if key in acted:
            return acted[key]
        if chain not in chains:
            x, px = chains[chain[:-1]]
            chains[chain] = (sl.mat_scomm(x, px, ys[chain[-1]], 1), (px + 1) % 2)
        x, px = chains[chain]
        out: dict[int, Fraction] = {}
        if x and mask == 0:
            even_part: dict[tuple[int, int], Fraction] = {}
            for (p, q), v in x.items():
                if p >= m and q < m:  # odd lowering block: wedge on a new factor
                    c = q * n + (p - m)
                    idx = (1 << c) * dim_v0 + k
                    out[idx] = out.get(idx, 0) + v
                elif (p < m) == (q < m):
                    even_part[(p, q)] = v
                # odd raising block annihilates the vacuum factor
            if even_part:
                for idx, v in even_apply(even_part, k).items():
                    out[idx] = out.get(idx, 0) + v
        elif x:
            c = (mask & -mask).bit_length() - 1
            rest = mask & ~(1 << c)
            out = dict(act(chains, acted, chain + (c,), rest, k))
            sign = -1 if px else 1
            for idx, v in wedge(c, act(chains, acted, chain, rest, k)).items():
                out[idx] = out.get(idx, 0) + sign * v
        acted[key] = out = sl.nonzero(out)
        return out

    dim = (1 << mn) * dim_v0
    parities = tuple(bin(idx // dim_v0).count("1") % 2 for idx in range(dim))
    space = SuperSpace(parities)

    def generator_map(x: SuperMap) -> SuperMap:
        chains: dict[tuple, tuple[dict, int]] = {(): (x.entries, x.parity)}
        acted: dict[tuple, dict[int, Fraction]] = {}
        ent: dict[tuple[int, int], Fraction] = {}
        for mask in range(1 << mn):
            for k in range(dim_v0):
                col = mask * dim_v0 + k
                for row, v in act(chains, acted, (), mask, k).items():
                    ent[(row, col)] = v
        return SuperMap(space, space, x.parity, ent)

    e, f, h = ([generator_map(x) for x in xs] for xs in sl_generators(rs)[1:])
    return _make_module(rs, space, e, f, h, _kac_name(lam), lam)


def _kac_name(lam: Weight) -> str:
    return "K(" + ",".join(rat_str(x) for x in lam.a) + ")"


def _kac_dim(rs: RootSystem, lam: Weight) -> int:
    """2^(mn) times the dimensions of the gl(m) and gl(n) simple factors."""
    dim = 1 << (rs.m * rs.n)
    for amu in (lam.a[: rs.m - 1], lam.a[rs.m :]):
        dim *= _weyl_dim([int(sum(amu[i:])) for i in range(len(amu) + 1)])
    return dim


# -- morphism spaces -----------------------------------------------------------


class FactorwiseAction:
    """The Chevalley generators acting on coordinates of M_1 (x) ... (x) M_k.

    x . (v_1 (x) ... (x) v_k) is the sum over positions pos of
    (-1)^{p(x) (p(v_1) + ... + p(v_{pos-1}))} v_1 (x) ... (x) x.v_pos (x) ... (x) v_k,
    in the left-factor-major basis of ``tensor_space``.  Each generator acts
    through the columns of its factor matrices, so no map of the product is
    built.  With ``transpose`` every generator acts by its plain transpose;
    the signs stay, since the factors left of pos do not move.
    """

    def __init__(self, factors, transpose: bool = False):
        self.factors = tuple(factors)
        self.transpose = transpose
        self.rs = self.factors[0].rs
        if any(M.rs != self.rs for M in self.factors):
            raise ValueError("tensor factors must live over the same algebra")
        self.dims = [M.dim for M in self.factors]
        self.places = [1] * len(self.dims)
        for pos in range(len(self.dims) - 2, -1, -1):
            self.places[pos] = self.places[pos + 1] * self.dims[pos + 1]
        self.parities = [M.space.parities for M in self.factors]
        self.gen_parity = [x.parity for x in self.factors[0].e]
        self._steps: dict[tuple[str, int], list] = {}  # filled on first use

    def _factor_steps(self, kind: str, i: int) -> list[tuple]:
        """(columns of ``kind``_i, place, dim, parities) per factor, last factor first.

        The columns are computed once per distinct module.
        """
        key = (kind, i)
        if key not in self._steps:
            by_module: dict[int, dict] = {}
            for M in self.factors:
                if id(M) not in by_module:
                    by_module[id(M)] = sl.mat_columns(getattr(M, kind)[i].entries, self.transpose)
            self._steps[key] = [(by_module[id(M)], place, dim, par) for M, place, dim, par
                                in zip(self.factors, self.places, self.dims, self.parities)][::-1]
        return self._steps[key]

    def apply(self, kind: str, i: int, vec: dict) -> dict[int, Fraction]:
        """``kind``_i ("e", "f" or "h") on a sparse vector; key b * dim + k is vector k of block b.

        The positions are visited last factor first, so on V (x) U* the moves
        in U* come before those in V, in the order of the entrywise Hom
        equations F x_U - (-1)^{p(x) p(F)} x_V F; a kill system then meets
        its rows in that order, and the eliminator returns the same basis.
        """
        steps = self._factor_steps(kind, i)
        odd = kind != "h" and self.gen_parity[i]
        out: dict[int, Fraction] = {}
        for flat, c in vec.items():
            # lead: the parity of the factors left of pos, the whole parity peeled from the right.
            lead = 0
            if odd:
                for _, place, dim, par in steps:
                    lead ^= par[flat // place % dim]
            for cols, place, dim, par in steps:
                d = flat // place % dim
                lead ^= par[d]
                for row, v in cols.get(d, ()):
                    key = flat + (row - d) * place
                    out[key] = out.get(key, 0) + (-v if odd and lead else v) * c
        return sl.nonzero(out)

    def indices(self, wt: tuple, parity: int) -> list[int]:
        """The basis indices of weight ``wt`` and the given parity, ascending.

        The factors are split in two halves, and each half's basis is grouped
        by weight; the two tables meet at complementary weights.
        """
        if len(self.factors) == 1:
            M = self.factors[0]
            return [j for j, w in enumerate(M.basis_weights)
                    if w == wt and M.space.parities[j] == parity]
        half = len(self.factors) // 2
        left, right = _weight_table(self.factors[:half]), _weight_table(self.factors[half:])
        rdim = self.places[half - 1]
        wt = tuple(map(exact, wt))
        out = []
        for wl, lefts in left.items():
            rights = right.get(tuple(a - b for a, b in zip(wt, wl)), ())
            out += [a * rdim + b for a, pa in lefts for b, pb in rights if pa ^ pb == parity]
        return sorted(out)


def _weight_table(factors) -> dict[tuple, list[tuple[int, int]]]:
    """Weight -> [(index, parity)] over the basis of the tensor product of ``factors``.

    The weights are keyed as canonical scalars, which hash and add as ints where whole.
    """
    table = {(0,) * factors[0].rs.rank: [(0, 0)]}
    for M in factors:
        nxt: dict[tuple, list[tuple[int, int]]] = {}
        weights = [tuple(map(exact, w)) for w in M.basis_weights]
        for w, entries in table.items():
            for j, (wj, pj) in enumerate(zip(weights, M.space.parities)):
                key = tuple(a + b for a, b in zip(w, wj))
                nxt.setdefault(key, []).extend((a * M.dim + j, p ^ pj) for a, p in entries)
        table = nxt
    return table


def _killed(action: FactorwiseAction, kinds: str, support: list[int]) -> list[dict[int, Fraction]]:
    """A basis of the vectors on the basis indices ``support`` killed by every generator of ``kinds``.

    ``kinds`` names the generator series, e.g. "e" for singular vectors or
    "ef" for invariants.
    """
    if not support:
        return []
    rows: dict[tuple, dict[int, Fraction]] = {}
    for kind in kinds:
        for g in range(action.rs.rank):
            for t, j in enumerate(support):
                for i, v in action.apply(kind, g, {j: 1}).items():
                    rows.setdefault((kind, g, i), {})[t] = v
    return [{support[t]: v for t, v in vec.items()} for vec in nullspace(rows.values(), len(support))]


def _kac_vector(U: GModule) -> int | None:
    """The index of the highest weight vector d when U is certified to be a Kac module.

    The certificate: the recorded highest weight mu is finite-dominant and
    typical, dim U = dim K(mu), and U's one basis vector d of weight mu is
    killed by every e_i.  Then d generates a nonzero quotient of the simple
    module K(mu) (op K(mu) when d is odd) of dimension dim U, so U is that
    module.  Returns None when any part fails; every Kac route asks this gate.
    """
    rs, mu = U.rs, U.highest_weight
    if mu is None or rs.family != "sl" or not rs.is_dominant_finite(mu) or not rs.is_typical(mu):
        return None
    if U.dim != _kac_dim(rs, mu):
        return None
    top = [k for k, wt in enumerate(U.basis_weights) if wt == mu.a]
    if len(top) != 1 or any(j == top[0] for x in U.e for (_, j) in x.entries):
        return None
    return top[0]


def _singular(K: GModule, d: int, target: FactorwiseAction, parity: int) -> list[dict]:
    """The vectors v = F(d) that fix the g-linear maps F: K -> target (``_induced_maps``).

    Frobenius reciprocity: the target's weight-mu vectors of parity p(d) + p(F) killed by
    every e_i; for a transposed target, the rows d of the maps target -> K, killed by the f_i.
    """
    # A transient action for the kill system, so its columns are freed before the replay.
    return _killed(FactorwiseAction(target.factors, target.transpose),
                   "f" if target.transpose else "e",
                   target.indices(K.highest_weight.a, (K.space.parities[d] + parity) % 2))


def _induced_maps(K: GModule, d: int, target: FactorwiseAction, parity: int, singular=None):
    """The g-linear maps K -> target out of the certified Kac module K, as {(row, col): value} dicts.

    The map F is fixed by v = F(d), one of ``singular`` (default: all of
    ``_singular``), and F(x . w) = (-1)^{p(F) p(x)} x . F(w) replays in the
    target the f-words that span K from d, found once per call.  The target
    is any factorwise action, so a tensor product is never built as a
    module.  When the target acts by transposes the same core gives the
    transposes of the maps target -> K, spread by the e_i.
    """
    singular = _singular(K, d, target, parity) if singular is None else singular
    if not singular:
        return []
    spread = "e" if target.transpose else "f"
    source = FactorwiseAction((K,), target.transpose)
    reducer = RowReducer()
    reducer.add({d: 1})
    vecs, words = [{d: 1}], [None]
    frontier = [0]
    while frontier and len(reducer) < K.dim:
        nxt = []
        for k in frontier:
            for g in range(K.rs.rank):
                image = source.apply(spread, g, vecs[k])
                if image and reducer.add(image):
                    nxt.append(len(vecs))
                    vecs.append(image)
                    words.append((k, g))
        frontier = nxt
    if len(reducer) != K.dim:
        raise ModuleRelationError(
            f"{K.name}: words from the highest weight vector span {len(reducer)} of {K.dim}"
        )
    signs = [-1 if parity and x.parity else 1 for x in K.e]
    basis = [reducer.coords({j: 1}) for j in range(K.dim)]
    out = []
    for v in singular:
        images = [v]
        for k, g in words[1:]:
            image = target.apply(spread, g, images[k])
            images.append({i: signs[g] * c for i, c in image.items()})
        ent: dict[tuple[int, int], Fraction] = {}
        for j, coords in enumerate(basis):
            for k, c in coords.items():
                for i, x in images[k].items():
                    ent[(i, j)] = ent.get((i, j), 0) + c * x
        out.append(sl.nonzero(ent))
    return out


def hom_space(U: GModule, V: GModule, parity: int | None = 0) -> list[SuperMap]:
    """A basis of the g-linear maps U -> V of the given parity (None = both).

    When U is certified to be a typical Kac module K(mu) (see ``_kac_vector``),
    Frobenius reciprocity gives Hom(K(mu), V) = {weight-mu vectors of V killed
    by every e_i}: only that system is solved, and each map is rebuilt from
    the f-words that span K(mu) from its highest weight vector.  When V is the
    certified one, the same route runs on row vectors through
    Hom(U, K) = Hom(K*, U*): the highest weight row of a map is a weight-mu
    covector of U killed by every f_i acting on the right, and the e_i acting
    on the right spread it.  Other modules take the generic route: a map F is
    an invariant of V (x) U* with F[i, j] the coordinate of v_i (x) u_j*, since
    x acts there by x_V F - (-1)^{p(x) p(F)} F x_U.  Its unknowns are the
    weight-zero basis vectors of that parity, U index outer, and the system is
    the one kill system of the e_i and f_i acting factor by factor.
    """
    if parity is None:
        return hom_space(U, V, 0) + hom_space(U, V, 1)
    if U.rs != V.rs:
        raise ValueError("morphisms require modules over the same algebra")
    d = _kac_vector(U)
    if d is not None:
        return [SuperMap(U.space, V.space, parity, ent)
                for ent in _induced_maps(U, d, FactorwiseAction((V,)), parity)]
    d = _kac_vector(V)
    if d is not None:
        target = FactorwiseAction((U,), transpose=True)
        return [SuperMap(U.space, V.space, parity, {(i, j): v for (j, i), v in ent.items()})
                for ent in _induced_maps(V, d, target, parity)]
    action = FactorwiseAction((V, dual_module(U, check=False)))
    support = sorted(action.indices((0,) * U.rs.rank, parity), key=lambda t: (t % U.dim, t))
    return [SuperMap(U.space, V.space, parity, {divmod(t, U.dim): v for t, v in vec.items()})
            for vec in _killed(action, "ef", support)]


def invariant_vectors(V: GModule, parity: int | None = None) -> list[dict[int, Fraction]]:
    """A basis of the vectors killed by every generator, as sparse columns."""
    action = FactorwiseAction((V,))
    zero = (0,) * V.rs.rank
    return [vec for p in ((0, 1) if parity is None else (parity,))
            for vec in _killed(action, "ef", action.indices(zero, p))]


# -- ideal witnesses -----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class IdealWitness:
    """A certified splitting of V through V0 (x) W.

    alpha: V0 (x) W -> V and beta: V -> V0 (x) W are even g-linear maps with
    alpha . beta = Id_V exactly; V0 is K(lam) with an even d (``_check_core``).
    V0 (x) W is not kept as a module: its basis is the left-factor-major one
    of ``tensor_space(V0.space, W.space)``, and it acts factor by factor.
    """

    V: GModule
    V0: GModule
    W: GModule
    alpha: SuperMap
    beta: SuperMap

    def __repr__(self):
        return f"IdealWitness({self.V.name} through {self.V0.name}(x){self.W.name})"


def _check_g_linear(m: SuperMap, src, dst) -> bool:
    """Whether m: src -> dst satisfies m . x = (-1)^{p(m) p(x)} x . m for every e_i, f_i, h_i.

    Each side is a module or a tuple of factors (ValueError unless m runs between their
    spaces), acting factor by factor, so no product module or matrix is built: m . x is
    the transposed action of src on all rows of m at once (row i at offset i * dim src),
    and x . m the action of dst on all its columns (column j at offset j * dim dst).
    """
    src, dst = (s if isinstance(s, tuple) else (s,) for s in (src, dst))
    if (m.domain, m.codomain) != tuple(reduce(sl.tensor_space, (M.space for M in side))
                                       for side in (src, dst)):
        raise ValueError("map does not run between the spaces of src and dst")
    on_rows, on_cols = FactorwiseAction(src, transpose=True), FactorwiseAction(dst)
    ds, dd = m.domain.dim, m.codomain.dim
    rows = {i * ds + j: v for (i, j), v in m.entries.items()}
    cols = {j * dd + i: v for (i, j), v in m.entries.items()}
    for kind in "efh":
        for g in range(on_rows.rs.rank):
            sign = -1 if m.parity and kind != "h" and on_rows.gen_parity[g] else 1
            lhs = {divmod(t, ds): v for t, v in on_rows.apply(kind, g, rows).items()}
            rhs = {divmod(t, dd)[::-1]: sign * v for t, v in on_cols.apply(kind, g, cols).items()}
            if lhs != rhs:
                return False
    return True


def _check_core(V0: GModule) -> None:
    """ValueError unless V0 is K(lam) certified with an even d, so that d(V0) = mod_sdim(lam)."""
    d = _kac_vector(V0)
    if d is None or V0.space.parities[d]:
        raise ValueError(f"witness core {V0.name} is not a certified Kac module "
                         "with an even highest weight vector")


def make_witness(V, V0, W, alpha, beta) -> IdealWitness:
    """Check and record a splitting: alpha . beta = Id_V, both maps even and g-linear.

    A bad core (``_check_core``) or a map off ``tensor_space(V0.space, W.space)`` and V.space
    raises ValueError before any g-linearity work, which is done on the factors.
    """
    _check_core(V0)
    if alpha.parity != 0 or beta.parity != 0:
        raise ValueError("witness maps must be even")
    V0W = sl.tensor_space(V0.space, W.space)
    for name, m, spaces in (("alpha", alpha, (V0W, V.space)), ("beta", beta, (V.space, V0W))):
        for side, got, want in zip(("domain", "codomain"), (m.domain, m.codomain), spaces):
            if got != want:
                raise ValueError(f"{name} has the wrong {side}")
    if alpha @ beta != sl.identity(V.space):
        raise ValueError("alpha . beta is not the identity")
    if not _check_g_linear(alpha, (V0, W), V) or not _check_g_linear(beta, V, (V0, W)):
        raise ValueError("witness maps are not g-linear")
    return IdealWitness(V, V0, W, alpha, beta)


def trivial_witness(V: GModule) -> IdealWitness:
    """The identity splitting of V through itself; V must be a valid core (``_check_core``)."""
    # V (x) k and V share one basis, so the identity is both alpha and beta.
    ident = sl.identity(V.space)
    return make_witness(V, V, trivial_module(V.rs, check=False), ident, ident)


def ideal_witness(V: GModule, V0: GModule) -> IdealWitness:
    """Search for a splitting of V through V0 (x) (V0* (x) V).

    A bad core V0 raises ValueError before any solve (``_check_core``), and
    a V that is not a certified Kac module WitnessNotFoundError.  alpha is
    fixed by its row d, a singular covector u, and beta by its column d, a
    singular vector v, on the factorwise action of (V0, W); the first pair
    with c = u . v = (alpha . beta)[d, d] != 0 is replayed and normalized.
    """
    _check_core(V0)
    if V is V0:
        return trivial_witness(V)
    d = _kac_vector(V)
    if d is None:
        raise WitnessNotFoundError(f"{V.name} is not a certified Kac module; no search ran")
    W = tensor_module(dual_module(V0, check=False), V, check=False)
    by_rows, by_cols = FactorwiseAction((V0, W), transpose=True), FactorwiseAction((V0, W))
    us, vs = _singular(V, d, by_rows, 0), _singular(V, d, by_cols, 0)
    pairs = ((u, v, sum(x * v.get(i, 0) for i, x in u.items())) for u in us for v in vs)
    u, v, c = next((pair for pair in pairs if pair[2]), (None, None, 0))
    if not c:
        raise WitnessNotFoundError(f"no splitting of {V.name} through {V0.name} with W = V0* (x) V")
    a = SuperMap(sl.tensor_space(V0.space, W.space), V.space, 0,
                 {(j, i): x for (i, j), x in _induced_maps(V, d, by_rows, 0, [u])[0].items()})
    b = SuperMap(V.space, a.domain, 0, _induced_maps(V, d, by_cols, 0, [v])[0])
    return make_witness(V, V0, W, Fraction(1, c) * a, b)


def witness_tensor(w: IdealWitness, U: GModule) -> IdealWitness:
    """Closure under tensoring: a witness for V (x) U with W' = W (x) U."""
    V2 = tensor_module(w.V, U, check=False)
    W2 = tensor_module(w.W, U, check=False)
    idu = sl.identity(U.space)
    # (V0 (x) W) (x) U and V0 (x) (W (x) U) share the same flattened basis.
    return make_witness(V2, w.V0, W2, sl.tensor_map(w.alpha, idu), sl.tensor_map(w.beta, idu))


def witness_dsum(w1: IdealWitness, w2: IdealWitness) -> IdealWitness:
    """Closure under direct sums (the two witnesses must share V0)."""
    if w1.V0 is not w2.V0:
        raise ValueError("direct-sum witnesses must share the same core module")
    V = direct_sum_module(w1.V, w2.V, check=False)
    W = direct_sum_module(w1.W, w2.W, check=False)
    V0W = sl.tensor_space(w1.V0.space, W.space)
    ent_a: dict[tuple[int, int], Fraction] = {}
    ent_b: dict[tuple[int, int], Fraction] = {}
    # Summand k's V and W indices move by the dimensions of the summands before it.
    for w, dv, dw in ((w1, 0, 0), (w2, w1.V.dim, w1.W.dim)):
        for (i, col), v in w.alpha.entries.items():
            i0, iw = divmod(col, w.W.dim)
            ent_a[(i + dv, i0 * W.dim + dw + iw)] = v
        for (row, j), v in w.beta.entries.items():
            i0, iw = divmod(row, w.W.dim)
            ent_b[(i0 * W.dim + dw + iw, j + dv)] = v
    return make_witness(V, w1.V0, W, SuperMap(V0W, V.space, 0, ent_a),
                        SuperMap(V.space, V0W, 0, ent_b))


def witness_parity_shift(w: IdealWitness) -> IdealWitness:
    """A witness for the parity-shifted module, shifting the W factor."""
    V_op = parity_shift_module(w.V, check=False)
    W_op = parity_shift_module(w.W, check=False)
    id0 = sl.identity(w.V0.space)
    alpha = sigma_map(w.V) @ w.alpha @ sl.tensor_map(id0, sigma_inverse(w.W))
    beta = sl.tensor_map(id0, sigma_map(w.W)) @ w.beta @ sigma_inverse(w.V)
    return make_witness(V_op, w.V0, W_op, alpha, beta)


# -- serialization and caching ---------------------------------------------------


def save_gmodule(mod: GModule, path: str) -> None:
    """Write a module as versioned JSON lines (header then one generator per line)."""
    lines = [
        json.dumps(
            {
                "record": "module",
                "version": CONSTRUCTION_VERSION,
                "name": mod.name,
                "family": mod.rs.family,
                "m": mod.rs.m,
                "n": mod.rs.n,
                "parities": list(mod.space.parities),
                "weights": [[rat_str(x) for x in wt] for wt in mod.basis_weights],
                "highest_weight": (
                    [rat_str(x) for x in mod.highest_weight.a]
                    if mod.highest_weight
                    else None
                ),
            },
            sort_keys=True,
        )
    ]
    for series, maps in (("e", mod.e), ("f", mod.f), ("h", mod.h)):
        for idx, m in enumerate(maps):
            lines.append(
                json.dumps(
                    {
                        "record": "generator",
                        "series": series,
                        "index": idx,
                        "parity": m.parity,
                        "entries": [
                            [i, j, rat_str(v)] for (i, j), v in sorted(m.entries.items())
                        ],
                    },
                    sort_keys=True,
                )
            )
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    with os.fdopen(fd, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    os.replace(tmp, path)


def load_gmodule(rs: RootSystem, path: str) -> GModule:
    """Load and re-verify a module saved by save_gmodule; corruption raises ModuleIntegrityError."""
    try:
        with open(path) as fh:
            records = [json.loads(line) for line in fh if line.strip()]
        header = records[0]
        if header["record"] != "module" or header["version"] != CONSTRUCTION_VERSION:
            raise ModuleIntegrityError(f"{path}: unsupported module record")
        if (header["family"], header["m"], header["n"]) != (rs.family, rs.m, rs.n):
            raise ModuleIntegrityError(f"{path}: module belongs to a different algebra")
        space = SuperSpace(tuple(header["parities"]))
        weights = tuple(tuple(Fraction(x) for x in wt) for wt in header["weights"])
        hw = header.get("highest_weight")
        hw = Weight(tuple(Fraction(x) for x in hw)) if hw else None
        series: dict[str, dict[int, SuperMap]] = {"e": {}, "f": {}, "h": {}}
        for rec in records[1:]:
            if rec["record"] != "generator":
                raise ModuleIntegrityError(f"{path}: stray record {rec['record']!r}")
            # Entries are written by rat_str: an int literal when whole.
            ent = {(i, j): Fraction(v) if "/" in v else int(v) for i, j, v in rec["entries"]}
            series[rec["series"]][rec["index"]] = SuperMap(space, space, rec["parity"], ent)
        e = tuple(series["e"][i] for i in range(rs.rank))
        f = tuple(series["f"][i] for i in range(rs.rank))
        h = tuple(series["h"][i] for i in range(rs.rank))
        mod = GModule(rs, space, e, f, h, weights, header["name"], hw)
        verify_relations(mod)
        return mod
    except ModuleIntegrityError:
        raise
    except (KeyError, ValueError, IndexError, TypeError, ArithmeticError,
            ModuleRelationError) as exc:
        raise ModuleIntegrityError(f"{path}: corrupt module record ({exc})") from exc


def _weight_slug(lam: Weight) -> str:
    return "_".join(rat_str(x).replace("/", "o").replace("-", "m") for x in lam.a)


def kac_cache_path(cache_dir: str, rs: RootSystem, lam: Weight) -> str:
    name = f"kac-{_weight_slug(lam)}.v{CONSTRUCTION_VERSION}.jsonl"
    return os.path.join(cache_dir, f"{rs.family}_{rs.m}_{rs.n}", name)


def cached_kac_module(rs: RootSystem, lam: Weight, cache_dir: str | None) -> GModule:
    """Kac module with a read-through file cache keyed by algebra and weight."""
    if not cache_dir:
        return kac_module(rs, lam)
    path = kac_cache_path(cache_dir, rs, lam)
    if os.path.exists(path):
        mod = load_gmodule(rs, path)
        if (mod.name, mod.highest_weight, mod.dim) != (_kac_name(lam), lam, _kac_dim(rs, lam)):
            raise ModuleIntegrityError(
                f"{path}: holds {mod.name} of dim {mod.dim}, not the requested {_kac_name(lam)}"
            )
        return mod
    mod = kac_module(rs, lam)
    save_gmodule(mod, path)
    return mod
