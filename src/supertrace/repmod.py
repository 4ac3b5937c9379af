"""Explicit finite-dimensional sl(m|n)-modules and morphism machinery.

A module is its generator matrices e_i and f_i (SuperMaps) on a based
super-space; what is derived from them, such as the basis weights read off
the diagonal h_i = [e_i, f_i], is computed once and kept on the ``GModule``.
The matrices of the defining representation are written once
(``sl_generators``), and the standard, Kac and adjoint modules are built from
them.  ``verify_relations`` checks the Chevalley relations

    [e_i, f_j] = delta_ij h_i,   [h_i, e_j] = a_ij e_j,
    [h_i, f_j] = -a_ij f_j,      [h_i, h_j] = 0,

exactly (the [e_i, f_j] relations as super-commutators in ints, the [h_i, x_j]
ones as weight gaps of the entries of x_j) and aborts on failure.  It runs on
every module built from scratch (the trivial, standard, Kac and adjoint
modules, all through ``_make_module``) and on every module read from a file
(``load_gmodule``), and on nothing else; such a module is a certified
representation of the generator algebra.  The dual, tensor, direct-sum and
parity-shift modules (``_derived``) are a construction's action on their
parts, a representation whenever the parts are, and are built unchecked.

Kac modules for typical dominant weights are induced from the even part: the
simple gl(m) x gl(n) module V0 with the matching highest weight is built
inside tensor powers of the defining representations, the one-dimensional
central character absorbs the free coordinate a_s, and the generators of
K(lam) = Lambda(g_-1) (x) V0 are written straight from its PBW basis.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain, permutations
from math import lcm
from operator import add

from . import superlin as sl
from .exactnum import cleared, exact, rat_str, ratio
from .linalg import RowReducer, nullspace
from .rootdata import AtypicalWeightError, RootSystem, Weight
from .superlin import SuperMap, SuperSpace

CONSTRUCTION_VERSION = 2


class ModuleRelationError(AssertionError):
    """A constructed module failed the exact generator-relation check."""


class ModuleIntegrityError(ValueError):
    """A cached module failed verification after loading."""


class WitnessNotFoundError(RuntimeError):
    """V is not a certified Kac module, so ``ideal_witness`` ran no search.

    This is not a proof that V lies outside the ideal of typicals.  The
    other raise, no beta found for a certified V, is a guard: a certified V
    is projective, so it cannot happen.
    """


@dataclass(frozen=True, eq=False)
class GModule:
    """The generator matrices e_i and f_i on a based super-space; immutable.

    What is derived from them is a ``cached_property``, kept once read: ``basis_weights``
    (the h_i are not stored), ``cleared``, ``dual`` and, for a Kac module, ``kac_vector``
    and ``kac_words``; ``dataclasses.replace`` starts with none kept.  A recorded
    ``highest_weight`` is that of a basis vector generating the module.
    """

    rs: RootSystem
    space: SuperSpace
    e: tuple[SuperMap, ...]
    f: tuple[SuperMap, ...]
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

    @cached_property
    def basis_weights(self) -> tuple[tuple, ...]:
        """Weight a: the diagonal entries (a, a) of [e_i, f_i] = e_i f_i - (-1)^{p(e_i)} f_i e_i,
        read in ints off the kept tables of ``cleared`` as canonical scalars (``ratio``), so they
        hash and add as ints where whole; ``verify_relations`` certifies them.

        Entry f_i[k, a] meets e_i[a, k] alone on the diagonal: at a in e_i f_i, at k in f_i e_i.
        """
        diags = []
        for i, x in enumerate(self.e):
            (e, de), (f, df) = self.cleared["e", i][:2], self.cleared["f", i][:2]
            sign = 1 if x.parity else -1
            diag = [0] * self.dim
            for (k, a), v in f.items():
                if u := e.get((a, k)):
                    diag[a] += u * v
                    diag[k] += sign * u * v
            frac = {t: ratio(t, de * df) for t in set(diag)}  # one scalar per value
            diags.append([frac[t] for t in diag])
        return tuple(zip(*diags))

    @property
    def h(self) -> tuple[SuperMap, ...]:
        """The h_i = [e_i, f_i]: even diagonal maps of the ``basis_weights``, homogeneous, so unchecked."""
        return tuple(SuperMap._of(self.space, self.space, 0, {(a, a): w[i] for a, w in
                                                             enumerate(self.basis_weights)})
                     for i in range(self.rs.rank))

    @cached_property
    def kac_vector(self) -> int | None:
        """The index of the highest weight vector d when the module is certified to be a Kac module.

        The certificate: the recorded highest weight mu is finite-dominant and
        typical, dim = dim K(mu), and the one basis vector d of weight mu is
        killed by every e_i.  Then d generates a nonzero quotient of the simple
        module K(mu) (op K(mu) when d is odd) of dimension dim, so the module is
        that one.  None when any part fails; every Kac route asks this gate.
        """
        rs, mu = self.rs, self.highest_weight
        if (mu is None or rs.family != "sl" or not rs.is_dominant_finite(mu) or not rs.is_typical(mu)
                or self.dim != _kac_dim(rs, mu)):
            return None
        top = [k for k, wt in enumerate(self.basis_weights) if wt == mu.a]
        if len(top) != 1 or any(j == top[0] for x in self.e for (_, j) in x.entries):
            return None
        return top[0]

    @cached_property
    def kac_words(self) -> tuple[tuple[tuple[int, int], ...], dict]:
        """(words, C): the f-words that span a certified Kac module from d, and their coordinates.

        Word 0 is d; word k > 0 is (j, g), f_g on word j < k.  C[k, j], basis vector j over the
        words, is read off the search's rows.  f_g steps a word's depth lam - wt by Cartan column
        g (integral here: each b shares the denominator of its a), and no word is tried in a
        weight space already spanned.  ModuleRelationError when the words do not span.
        """
        d = self.kac_vector
        if d is None:
            raise ValueError(f"{self.name} is not a certified Kac module")
        source = FactorwiseAction((self,))
        reducer = RowReducer()
        reducer.add({d: 1})
        vecs, words = [{d: 1}], []
        lam, steps = self.basis_weights[d], list(zip(*self.rs.cartan.a))
        room = Counter(tuple((a.numerator - b.numerator) // a.denominator for a, b in zip(lam, wt))
                       for wt in self.basis_weights)
        depths, frontier = [(0,) * self.rs.rank], [0]
        spanned = Counter(depths)
        while frontier and len(reducer) < self.dim:
            nxt = []
            for k in frontier:
                for g in range(self.rs.rank):
                    depth = tuple(map(add, depths[k], steps[g]))
                    if spanned[depth] == room[depth]:
                        continue
                    image = source.apply("f", g, vecs[k])
                    if image and reducer.add(image):
                        nxt.append(len(vecs))
                        vecs.append(image)
                        words.append((k, g))
                        depths.append(depth)
                        spanned[depth] += 1
            frontier = nxt
        if len(reducer) != self.dim:
            raise ModuleRelationError(f"{self.name}: words from the highest weight vector span "
                                      f"{len(reducer)} of {self.dim}")
        return tuple(words), reducer.unit_coords()

    @cached_property
    def dual(self) -> GModule:  # built once, for hom_space's generic route and form_defect
        return dual_module(self)

    @cached_property
    def cleared(self) -> dict[tuple[str, int], tuple[dict, int, dict[int, list], dict[int, list]]]:
        """(kind, i) -> ``kind``_i as ints over den (``exactnum.cleared``): (ints, den, by column,
        by row), for every e_i and f_i."""
        return {(kind, i): (ent, den, sl.mat_columns(ent), sl.mat_columns(ent, True))
                for kind in "ef" for i, x in enumerate(getattr(self, kind))
                for ent, den in (cleared(x.entries),)}

    def __repr__(self):
        return f"GModule({self.name or 'unnamed'}, dim={self.dim}, sdim={self.sdim})"


def verify_relations(mod: GModule) -> None:
    """Exact check of the Cartan and [e_i, f_j] relations; raises ModuleRelationError.

    The h_i are the diagonal maps of ``GModule.basis_weights``, read off the diagonals of
    the [e_i, f_i], so they commute with each other.  Checked: [h_i, x_j] = +-a_ij x_j, which
    for diagonal h_i says exactly that each nonzero entry (a, b) of e_j (f_j) moves the weight
    by +a_j (-a_j): (w_a - w_b)_i = +-a_ij; then [e_i, f_j] = delta_ij h_i, so [e_i, f_i] has
    no entry off the diagonal.  Diagonal h_i with these relations exist exactly when both
    checks pass.  [e_i, f_j] is checked in ints on the kept tables of ``GModule.cleared``,
    both products in one sum: [den_e e_i, den_f f_j] = delta_ij den_e den_f h_i.  No
    Serre-type relation is checked, not even [e_s, e_s] = 0 for the odd isotropic simple root.
    """
    rs, r = mod.rs, mod.rs.rank
    # The weights in ints: coordinate i of every basis weight cleared over dens[i].
    scaled, dens = zip(*(cleared(dict(enumerate(w[i] for w in mod.basis_weights)))
                         for i in range(r)))
    for j in range(r):
        for x, sign in ((mod.e[j], 1), (mod.f[j], -1)):
            for i, sc in enumerate(scaled):
                gap = sign * rs.cartan.a[i][j] * dens[i]
                if any(sc[a] - sc[b] != gap for a, b in x.entries):
                    raise ModuleRelationError(f"{mod.name}: [h_{i}, x_{j}] relation failed")
    dim = mod.dim
    for i, x in enumerate(mod.e):
        e, de, e_cols = mod.cleared["e", i][:3]
        for j, y in enumerate(mod.f):
            f, df, f_cols = mod.cleared["f", j][:3]
            # den_e den_f w_a[i] in ints: dens[i], the lcm of the denominators, divides den_e den_f.
            want = ({a * (dim + 1): v * (de * df // dens[i]) for a, v in scaled[i].items() if v}
                    if i == j else {})
            # e f - (-1)^{p(e) p(f)} f e in one accumulate, each product over its left factor's columns.
            sign = 1 if x.parity and y.parity else -1
            terms = chain(((a * dim + b, u * v) for (k, b), v in f.items() for a, u in e_cols.get(k, ())),
                          ((a * dim + b, sign * u * v) for (k, b), v in e.items()
                           for a, u in f_cols.get(k, ())))
            if sl._summed(terms) != want:
                raise ModuleRelationError(f"{mod.name}: [e_{i}, f_{j}] relation failed")


def _make_module(rs, space, e, f, name, hw=None) -> GModule:
    mod = GModule(rs, space, tuple(e), tuple(f), name, hw)
    verify_relations(mod)
    return mod


# -- basic constructions -----------------------------------------------------


def trivial_module(rs: RootSystem) -> GModule:
    """The even one-dimensional module C(1|0) on which every generator acts by 0."""
    space = SuperSpace((0,))
    zero = [sl.zero_map(space, space, 1 if i == rs.s else 0) for i in range(rs.rank)]
    return _make_module(rs, space, zero, zero, "C(1|0)", Weight((Fraction(0),) * rs.rank))


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
    return _make_module(rs, *sl_generators(rs)[:3], f"std({rs.m}|{rs.n})", hw)


def _derived(mods: tuple[GModule, ...], space: SuperSpace, act, name: str, hw) -> GModule:
    """The module on ``space`` whose i-th e and f are ``act`` of the i-th e and f of ``mods``."""
    return GModule(mods[0].rs, space,
                   *(tuple(act(*xs) for xs in zip(*(getattr(M, kind) for M in mods)))
                     for kind in "ef"), name, hw)


def dual_module(V: GModule) -> GModule:
    """Dual action x.phi = -(-1)^{p(x)p(phi)} phi . x (antipode is negation)."""
    return _derived((V,), sl.dual_space(V.space), lambda x: -1 * sl.super_transpose(x),
                    f"({V.name})*", None)


def tensor_module(V: GModule, W: GModule) -> GModule:
    """Tensor action x.(v (x) w) = x.v (x) w + (-1)^{p(x)p(v)} v (x) x.w; no highest weight."""
    if V.rs != W.rs:
        raise ValueError("tensor factors must live over the same algebra")
    idv, idw = sl.identity(V.space), sl.identity(W.space)
    return _derived((V, W), sl.tensor_space(V.space, W.space),
                    lambda xv, xw: sl.tensor_map(xv, idw) + sl.tensor_map(idv, xw),
                    f"{V.name}(x){W.name}", None)


def direct_sum_module(V: GModule, W: GModule) -> GModule:
    """Block-diagonal action on V (+) W, W's indices after V's."""
    if V.rs != W.rs:
        raise ValueError("direct summands must live over the same algebra")
    space = SuperSpace(V.space.parities + W.space.parities)
    dv = V.dim

    def block(a: SuperMap, b: SuperMap) -> SuperMap:
        ent = dict(a.entries)
        ent.update({(i + dv, j + dv): v for (i, j), v in b.entries.items()})
        return SuperMap(space, space, a.parity, ent)

    return _derived((V, W), space, block, f"{V.name}(+){W.name}", None)


def parity_shift_module(V: GModule) -> GModule:
    """The same underlying action with all parities flipped.

    Odd generators are negated so that the identity matrix with an odd parity
    tag is a g-linear isomorphism onto the shifted module.  The highest
    weight is kept, so op K(lam) is certified with an odd d.
    """
    space, _ = sl.parity_shift(V.space)
    shift = lambda x: SuperMap(space, space, x.parity,
                               {k: -v if x.parity else v for k, v in x.entries.items()})
    return _derived((V,), space, shift, f"op({V.name})", V.highest_weight)


def sigma_map(V: GModule) -> SuperMap:
    """The odd g-linear isomorphism V -> parity_shift_module(V)."""
    return sl.parity_shift(V.space)[1]


def sigma_inverse(V: GModule) -> SuperMap:
    """The odd inverse of ``sigma_map``: the parity shift of the shifted space."""
    return sl.parity_shift(sl.parity_shift(V.space)[0])[1]


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
    """The off-diagonal gl(k) matrix-unit actions on the simple module with sl-weight amu.

    Returns (dim, units, weights) where units[(a, b)] is the sparse matrix of
    E_ab (a != b) in the generated basis and weights[v] is the gl-weight
    (occupation vector) of basis vector v, which gives the diagonal E_aa.
    Realized inside (C^k)^{(x) d} by generating from the column-antisymmetrized
    highest weight vector.
    """
    lam = [sum(amu[i:]) for i in range(k - 1)] + [0]

    def flat(t: tuple[int, ...]) -> int:
        idx = 0
        for digit in t:
            idx = idx * k + digit
        return idx

    # Highest weight vector: tensor over columns of wedge(e_1..e_height).
    hw: dict[tuple[int, ...], Fraction] = {(): 1}
    heights = [sum(1 for row in lam if row > c) for c in range(lam[0] if lam else 0)]
    for hgt in heights:
        signed = [(perm, (-1) ** sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:]))
                  for perm in permutations(range(hgt))]
        hw = sl._summed((t + perm, sign * c) for perm, sign in signed for t, c in hw.items())

    def unit_apply(a: int, b: int, vec: dict) -> dict:
        return sl._summed((t[:pos] + (a,) + t[pos + 1 :], c) for t, c in vec.items()
                          for pos, digit in enumerate(t) if digit == b)

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
    for a, b in permutations(range(k), 2):  # E_aa acts through the weights (``_kac_even_part``)
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


def _kac_even_part(rs: RootSystem, lam: Weight):
    """(dim V0, even_apply) for the gl(m) x gl(n) simple module V0 that K(lam) is induced from.

    even_apply(mat, k) applies a block-diagonal supertraceless (m+n)-matrix to
    V0 basis vector k: the traceless block parts act through the recorded gl
    matrix units, the scalar part (proportional to the center) by the
    character fixed by a_s, so the diagonal acts by one scalar per vector.
    """
    m, r, s = rs.m, rs.rank, rs.s
    dm, units_m, wts_m = _gl_simple_module(m, tuple(int(lam.a[i]) for i in range(m - 1)))
    dn, units_n, wts_n = _gl_simple_module(rs.n, tuple(int(lam.a[i]) for i in range(m, r)))
    # The central character: a diagonal matrix whose gl(m) block has trace t
    # acts by t * center plus its gl-weights, where center makes
    # h_s = E_mm + E_{m+1,m+1} act by a_s on the highest weight vector.
    center = exact(lam.a[s] - wts_m[0][m - 1] - wts_n[0][0])
    # Each matrix unit E_ab of the two even blocks, grouped by column.
    units_m_bycol, units_n_bycol = (
        {key: sl.mat_columns(ent) for key, ent in units.items()} for units in (units_m, units_n)
    )

    def even_apply(mat: dict, k: int) -> dict[int, Fraction]:
        im, jn = divmod(k, dn)
        diag = sum(v * (center + wts_m[im][p] if p < m else wts_n[jn][p - m])
                   for (p, q), v in mat.items() if p == q)
        # A unit of the gl(m) block moves the first V0 factor, one of gl(n) the second.
        blocks = [(v, units_m_bycol[(p, q)].get(im, ()), dn, jn) if p < m else
                  (v, units_n_bycol[(p - m, q - m)].get(jn, ()), 1, im * dn)
                  for (p, q), v in mat.items() if p != q]
        return sl._summed(((row * step + base, v * u) for v, col, step, base in blocks
                           for row, u in col), {k: diag})

    return dm * dn, even_apply


def _wedge(c: int, vec: dict, sign: int, dim_v0: int):
    """The (index, value) pairs of sign * (y_c wedge vec); index mask dim_v0 + k is y_mask (x) v_k."""
    for idx, v in vec.items():
        mask, k = divmod(idx, dim_v0)
        if not mask >> c & 1:
            below = bin(mask & ((1 << c) - 1)).count("1")
            yield (mask | 1 << c) * dim_v0 + k, -sign * v if below % 2 else sign * v


def kac_module(rs: RootSystem, lam: Weight) -> GModule:
    """The Kac module K(lam) for a typical finite-dominant weight of sl(m|n).

    Induced from the simple module V0 of the even part (``_kac_even_part``):
    the basis is y_mask (x) v_k = y_c1 ... y_cj v_k over the bits c1 < ... < cj
    of mask, y_c = E_{m+j,i} (c = i n + j).  An even x replaces one factor y_c
    by [x, y_c] and acts on v_k; a lowering x wedges; a raising x kills the
    vacuum and peels off the lowest factor, x(y_c w) = [x, y_c] w - y_c x w; the
    generators are homogeneous by construction, so they are built by ``SuperMap._of``.
    For typical lam this is the irreducible highest weight module.
    """
    if rs.family != "sl":
        raise ValueError("Kac modules are only constructed for sl(m|n)")
    if not rs.is_dominant_finite(lam):
        raise ValueError(f"weight {lam} is not dominant with natural a_i (i != s)")
    if not rs.is_typical(lam):
        raise AtypicalWeightError(f"weight {lam} is atypical; Kac module not simple")

    m, n, mn = rs.m, rs.n, rs.m * rs.n
    dim_v0, even_apply = _kac_even_part(rs, lam)
    dim = (1 << mn) * dim_v0
    ys = [{(m + j, i): 1} for i in range(m) for j in range(n)]
    blocks = range(0, dim, dim_v0)

    def even(x: dict) -> tuple[list, list]:
        """An even x on V0 per k, and on the wedge factors per mask as [(mask' dim_v0, value)]."""
        moves = [[(q * n + p - m, v) for (p, q), v in sl.mat_scomm(x, 0, y, 1).items()] for y in ys]
        # y_c moved to the front, replaced by [x, y_c] = sum v y_c2, wedged back on.
        on_y = [sl._summed(pair for c in range(mn) if mask >> c & 1 for c2, v in moves[c]
                           for pair in _wedge(c2, {(mask ^ 1 << c) * dim_v0: v},
                                              (-1) ** bin(mask & ((1 << c) - 1)).count("1"), dim_v0)
                           ).items() for mask in range(1 << mn)]
        return [even_apply(x, k).items() for k in range(dim_v0)], on_y

    def matrix(x: SuperMap) -> dict:
        """The entries {(row, col): value} of x on the basis y_mask (x) v_k."""
        if not x.parity:
            # x moves v_k inside the block of mask, or the wedge factors of every v_k alike.
            on_v0, on_y = even(x.entries)
            return sl._summed(chain(
                (((base + row, base + k), v) for base in blocks for k in range(dim_v0)
                 for row, v in on_v0[k]),
                (((idx + k, base + k), v) for base, moved in zip(blocks, on_y)
                 for idx, v in moved for k in range(dim_v0))))
        # Raising entries kill the vacuum, lowering ones wedge on a factor.
        out = [{(1 << q * n + p - m) * dim_v0 + k: v for (p, q), v in x.entries.items() if p >= m}
               for k in range(dim_v0)]
        comms = [even(sl.mat_scomm(x.entries, 1, y, 1)) for y in ys]
        for col in range(dim_v0, dim):
            mask, k = divmod(col, dim_v0)
            c = (mask & -mask).bit_length() - 1
            rest = mask ^ 1 << c
            (on_v0, on_y), before = comms[c], rest * dim_v0
            out.append(sl._summed(chain(((before + row, v) for row, v in on_v0[k]),
                                        ((idx + k, v) for idx, v in on_y[rest]),
                                        _wedge(c, out[before + k], -1, dim_v0))))
        return {(row, col): v for col, image in enumerate(out) for row, v in image.items()}

    space = SuperSpace(tuple(bin(idx // dim_v0).count("1") % 2 for idx in range(dim)))
    e, f = ([SuperMap._of(space, space, x.parity, matrix(x)) for x in xs]
            for xs in sl_generators(rs)[1:3])
    return _make_module(rs, space, e, f, _kac_name(lam), lam)


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
    the signs stay, since the factors left of pos do not move.  The factors'
    ``GModule.cleared`` columns are scaled to L, the lcm of their denominators, so
    ``_scaled`` multiplies ints only; ``apply`` divides once per output entry.
    """

    def __init__(self, factors, transpose: bool = False):
        self.factors = tuple(factors)
        if not self.factors:
            raise ValueError("a factorwise action needs at least one factor")
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
        self._steps: dict[tuple[str, int], tuple[list, int]] = {}  # filled on first use

    def _factor_steps(self, kind: str, i: int) -> tuple[list[tuple], int]:
        """(columns, place, dim, parities, L // den) per factor, last factor first, and L."""
        key = (kind, i)
        if key not in self._steps:
            if kind not in ("e", "f"):  # h_s is even: the odd signs of e_s and f_s would be wrong
                raise ValueError(f"the factorwise action applies e_i and f_i, not {kind!r}")
            tables = [M.cleared[kind, i] for M in self.factors]
            L = lcm(*(t[1] for t in tables))
            self._steps[key] = ([(t[2 + self.transpose], place, dim, par, L // t[1])
                                 for t, place, dim, par
                                 in zip(tables, self.places, self.dims, self.parities)][::-1], L)
        return self._steps[key]

    def apply(self, kind: str, i: int, vec: dict) -> dict[int, Fraction]:
        """``kind``_i ("e" or "f") on a sparse vector; key b * dim + k is vector k of block b.

        The positions are visited last factor first, so on V (x) U* the moves
        in U* come before those in V, in the order of the entrywise Hom
        equations F x_U - (-1)^{p(x) p(F)} x_V F; a kill system then meets
        its rows in that order, and the eliminator returns the same basis.
        The values are canonical scalars.
        """
        ints, den = cleared(vec)
        out, L = self._scaled(kind, i, ints)
        L *= den
        return {k: v if L == 1 else ratio(v, L) for k, v in out.items() if v}

    def _scaled(self, kind: str, i: int, vec: dict[int, int], out: dict[int, int] | None = None,
                mult: int = 1) -> tuple[dict[int, int], int]:
        """``kind``_i on an int vector: mult L times the image in ints, zeros kept, added into
        ``out`` (a new dict by default), and L."""
        steps, L = self._factor_steps(kind, i)
        odd = self.gen_parity[i]
        out = {} if out is None else out
        for flat, c in vec.items():
            c *= mult
            # lead: the parity of the factors left of pos, the whole parity peeled from the right.
            lead = 0
            if odd:
                for _, place, dim, par, _ in steps:
                    lead ^= par[flat // place % dim]
            for cols, place, dim, par, scale in steps:
                d = flat // place % dim
                lead ^= par[d]
                s = -c * scale if odd and lead else c * scale
                for row, v in cols.get(d, ()):
                    key = flat + (row - d) * place
                    out[key] = out.get(key, 0) + v * s
        return out, L

    def indices(self, wt: tuple, parity: int) -> list[int]:
        """The basis indices of weight ``wt`` and the given parity, ascending.

        The factors are split in two halves, the right one empty for one factor, and each
        half's basis is grouped by weight; the two tables meet at complementary weights.
        """
        half = max(1, len(self.factors) // 2)
        left, right = (_weight_table(self.rs, fs) for fs in (self.factors[:half], self.factors[half:]))
        rdim = self.places[half - 1]
        out = []
        for wl, lefts in left.items():
            rights = right.get(tuple(a - b for a, b in zip(wt, wl)), ())
            out += [a * rdim + b for a, pa in lefts for b, pb in rights if pa ^ pb == parity]
        return sorted(out)


def _weight_table(rs: RootSystem, factors) -> dict[tuple, list[tuple[int, int]]]:
    """Weight -> [(index, parity)] over the basis of the tensor product of ``factors``,
    keyed by the ``basis_weights``; no factors give the zero weight at index 0."""
    table = {(0,) * rs.rank: [(0, 0)]}
    for M in factors:
        nxt: dict[tuple, list[tuple[int, int]]] = {}
        for w, entries in table.items():
            for j, (wj, pj) in enumerate(zip(M.basis_weights, M.space.parities)):
                key = tuple(a + b for a, b in zip(w, wj))
                nxt.setdefault(key, []).extend((a * M.dim + j, p ^ pj) for a, p in entries)
        table = nxt
    return table


def _killed(action: FactorwiseAction, kinds: str, support: list[int]) -> list[dict[int, Fraction]]:
    """A basis of the vectors on the basis indices ``support`` killed by every generator of ``kinds``.

    ``kinds`` names the generator series, e.g. "e" for singular vectors or
    "ef" for invariants.  Each generator acts once, on support vector t in block t;
    the rows stay scaled by L, which moves no kernel.
    """
    if not support:
        return []
    dim = action.places[0] * action.dims[0]
    units = {t * dim + j: 1 for t, j in enumerate(support)}
    rows: dict[tuple, dict[int, int]] = {}
    for kind in kinds:
        for g in range(action.rs.rank):
            for key, v in action._scaled(kind, g, units)[0].items():
                if v:
                    t, i = divmod(key, dim)
                    rows.setdefault((kind, g, i), {})[t] = v
    return [{support[t]: v for t, v in vec.items()} for vec in nullspace(rows.values(), len(support))]


def _singular(K: GModule, target: FactorwiseAction, parity: int) -> list[dict]:
    """The vectors v = F(d) that fix the g-linear maps F: K -> target (``_replay``).

    Frobenius reciprocity: the target's weight-mu vectors of parity p(d) + p(F) killed by
    every e_i.
    """
    return _killed(target, "e",
                   target.indices(K.highest_weight.a, (K.space.parities[K.kac_vector] + parity) % 2))


def _replay(K: GModule, target: FactorwiseAction, parity: int, singular=None):
    """Each singular vector's images of the f-words, and the word coordinates C.

    A g-linear map F: K -> target out of the certified Kac module K is fixed
    by v = F(d), one of ``singular`` (default: all of ``_singular``), and
    F(x . w) = (-1)^{p(F) p(x)} x . F(w) replays in the target the f-words
    that span K from d (``GModule.kac_words``): image k is F(word k), so
    F = images . C (``_assembled``).  The target is any factorwise action, so
    a tensor product is never built as a module.
    """
    singular = _singular(K, target, parity) if singular is None else singular
    if not singular:
        return [], {}
    words, coords = K.kac_words
    signs = [-1 if parity and x.parity else 1 for x in K.e]
    replays = []
    for v in singular:
        images = [v]
        for k, g in words:
            image = target.apply("f", g, images[k])
            images.append(image if signs[g] == 1 else {i: -c for i, c in image.items()})
        replays.append(images)
    return replays, coords


def _assembled(images: list[dict], coords: dict) -> dict:
    """The map F = images . C of a ``_replay``, as {(row, col): value}."""
    return sl.mat_mul({(i, k): x for k, image in enumerate(images) for i, x in image.items()}, coords)


def _parities(parity) -> tuple[int, ...]:
    """(parity,) for 0 or 1, both for None; ValueError for anything else."""
    if parity not in (0, 1, None):
        raise ValueError(f"parity must be 0, 1 or None, not {parity!r}")
    return (0, 1) if parity is None else (parity,)


def hom_space(U: GModule, V: GModule, parity: int | None = 0) -> list[SuperMap]:
    """A basis of the g-linear maps U -> V of the given parity (None = both).

    When U is certified to be a typical Kac module K(mu) (``GModule.kac_vector``),
    Frobenius reciprocity gives Hom(K(mu), V) = {weight-mu vectors of V killed
    by every e_i}: only that system is solved, and each map is rebuilt from
    the f-words that span K(mu) from its highest weight vector.  Any other U
    takes the generic route, whatever V is: a map F is an invariant of
    V (x) U* with F[i, j] the coordinate of v_i (x) u_j*, since x acts there
    by x_V F - (-1)^{p(x) p(F)} F x_U.  Its unknowns are the weight-zero basis
    vectors of that parity, U index outer, and the system is the one kill
    system of the e_i and f_i acting factor by factor.
    """
    if parity not in (0, 1):
        return [m for p in _parities(parity) for m in hom_space(U, V, p)]
    if U.rs != V.rs:
        raise ValueError("morphisms require modules over the same algebra")
    if U.kac_vector is not None:
        replays, coords = _replay(U, FactorwiseAction((V,)), parity)
        return [SuperMap(U.space, V.space, parity, _assembled(images, coords)) for images in replays]
    action = FactorwiseAction((V, U.dual))
    support = sorted(action.indices((0,) * U.rs.rank, parity), key=lambda t: (t % U.dim, t))
    return [SuperMap(U.space, V.space, parity, {divmod(t, U.dim): v for t, v in vec.items()})
            for vec in _killed(action, "ef", support)]


def invariant_vectors(V, parity: int | None = None) -> list[dict[int, Fraction]]:
    """A basis of the vectors killed by every generator, as sparse columns.

    V is a module or a tuple of factors, acting factor by factor on the basis of their
    ``tensor_space``, so no product module is built.
    """
    action = FactorwiseAction(V if isinstance(V, tuple) else (V,))
    zero = (0,) * action.rs.rank
    return [vec for p in _parities(parity)
            for vec in _killed(action, "ef", action.indices(zero, p))]


# -- ideal witnesses -----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class IdealWitness:
    """A certified splitting of V through V0 (x) W.

    alpha: V0 (x) W -> V and beta: V -> V0 (x) W are even g-linear maps with
    alpha . beta = Id_V exactly; V0 is K(lam) with an even d (``_check_core``).
    W is the tuple of its factor modules, never empty, acting one by one: V0 (x) W is the
    left-factor-major ``tensor_space`` over (V0,) + W, never built as a module.
    """

    V: GModule
    V0: GModule
    W: tuple[GModule, ...]
    alpha: SuperMap
    beta: SuperMap

    @cached_property
    def d(self) -> Fraction:
        """d(V0) = ``mod_sdim`` of the core's highest weight, the scale of the modified trace."""
        return self.V.rs.mod_sdim(self.V0.highest_weight)

    @cached_property
    def w_space(self) -> SuperSpace:
        """The space of W, the tensor product of its factors' spaces."""
        return reduce(sl.tensor_space, (M.space for M in self.W), sl.UNIT)

    @cached_property
    def beta_keyed(self) -> dict:
        """beta as B[i, a dim W + u] = beta[(i, u), a], the left factor of ``mtrace.bracket``."""
        dw = self.w_space.dim
        return {(row // dw, a * dw + row % dw): b for (row, a), b in self.beta.entries.items()}

    @cached_property
    def alpha_rows(self) -> dict[int, list]:
        """Row k of alpha as [(u, j, (-1)^{p(u)} alpha[k, j dim W + u])], for ``mtrace.bracket``."""
        dw, par = self.w_space.dim, self.w_space.parities
        return {k: [(col % dw, col // dw, -v if par[col % dw] else v) for col, v in row]
                for k, row in sl.mat_columns(self.alpha.entries, True).items()}

    def __repr__(self):
        return f"IdealWitness({self.V.name} through {'(x)'.join(M.name for M in (self.V0,) + self.W)})"


def _check_g_linear(m: SuperMap, src, dst) -> bool:
    """Whether m: src -> dst satisfies m . x = (-1)^{p(m) p(x)} x . m for every generator.

    Each side is a module or a tuple of factors (ValueError unless m runs between their
    spaces), acting factor by factor, so no product module or matrix is built.  m is keyed
    once, row-major (i * dim src + j): m . x is the transposed action of src on that vector,
    and x . m the action of dst on the same vector, dst's places scaled by dim src.  Only
    the e_i and f_i are checked: on modules with verified relations [e_i, f_i] = h_i, and a
    map that commutes with e_i and f_i (with the signs above) commutes with their
    super-commutator.  The check is homogeneous in m: it runs on m cleared to ints and
    adds L_dst (m . x) and -(-1)^{p(m) p(x)} L_src (x . m) into one sum, which must vanish.
    """
    src, dst = (s if isinstance(s, tuple) else (s,) for s in (src, dst))
    if (m.domain, m.codomain) != tuple(reduce(sl.tensor_space, (M.space for M in side))
                                       for side in (src, dst)):
        raise ValueError("map does not run between the spaces of src and dst")
    ds = m.domain.dim
    on_rows, on_cols = FactorwiseAction(src, transpose=True), FactorwiseAction(dst)
    on_cols.places = [p * ds for p in on_cols.places]  # dst acts on the i of i * ds + j
    ent, _ = cleared(m.entries)
    keyed = {i * ds + j: v for (i, j), v in ent.items()}
    for kind in "ef":
        for g in range(on_rows.rs.rank):
            sign = -1 if m.parity and on_rows.gen_parity[g] else 1
            l_src, l_dst = on_rows._factor_steps(kind, g)[1], on_cols._factor_steps(kind, g)[1]
            total, _ = on_rows._scaled(kind, g, keyed, mult=l_dst)
            on_cols._scaled(kind, g, keyed, total, -sign * l_src)
            if any(total.values()):
                return False
    return True


def _check_core(V0: GModule) -> None:
    """ValueError unless V0 is K(lam) certified with an even d, so that d(V0) = mod_sdim(lam)."""
    d = V0.kac_vector
    if d is None or V0.space.parities[d]:
        raise ValueError(f"witness core {V0.name} is not a certified Kac module "
                         "with an even highest weight vector")


def make_witness(V, V0, W, alpha, beta) -> IdealWitness:
    """Check and record a splitting: alpha . beta = Id_V, both maps even and g-linear.

    W is a tuple of factor modules (a module raises TypeError).  A bad core (``_check_core``) or
    a map off the space of (V0,) + W and V.space raises ValueError before any g-linearity work,
    which is done on the factors, as is the ValueError for a factor over another algebra.
    """
    _check_core(V0)
    if alpha.parity != 0 or beta.parity != 0:
        raise ValueError("witness maps must be even")
    V0W = reduce(sl.tensor_space, (M.space for M in (V0,) + W))
    for name, m, spaces in (("alpha", alpha, (V0W, V.space)), ("beta", beta, (V.space, V0W))):
        for side, got, want in zip(("domain", "codomain"), (m.domain, m.codomain), spaces):
            if got != want:
                raise ValueError(f"{name} has the wrong {side}")
    if alpha @ beta != sl.identity(V.space):
        raise ValueError("alpha . beta is not the identity")
    if not _check_g_linear(alpha, (V0,) + W, V) or not _check_g_linear(beta, V, (V0,) + W):
        raise ValueError("witness maps are not g-linear")
    return IdealWitness(V, V0, W, alpha, beta)


def trivial_witness(V: GModule) -> IdealWitness:
    """The identity splitting of V through itself, W = (k,); V must be a valid core (``_check_core``).

    V (x) k and V share one basis, so the identity is both alpha and beta.  Id . Id = Id and
    the identity commutes with every action, so ``make_witness`` has nothing left to check.
    """
    _check_core(V)
    ident = sl.identity(V.space)
    return IdealWitness(V, V, (trivial_module(V.rs),), ident, ident)


def ideal_witness(V: GModule, V0: GModule) -> IdealWitness:
    """Split V through V0 (x) W, W = (V0*, V), with alpha = ev_{V0} (x) Id_V.

    A bad core V0 raises ValueError before any solve (``_check_core``), and
    a V that is not a certified Kac module WitnessNotFoundError.  ev = ev_right(V0) (x) Id_V;
    beta is replayed from its column d, the first singular vector v on the factorwise action
    of (V0, V0*, V) with c = ev(v)[d] != 0, and alpha = ev / c.  Such a v exists:
    ev is onto and the certified V (K(lam) or op K(lam)) is projective, so
    some beta has ev . beta = Id_V, and End(V) = k makes ev . beta = c Id_V.
    """
    _check_core(V0)
    if V is V0:
        return trivial_witness(V)
    d = V.kac_vector
    if d is None:
        raise WitnessNotFoundError(f"{V.name} is not a certified Kac module; no search ran")
    # Not V0.dual: a core serves many calls, and a dual kept on it would make a call's work
    # (and the benchmark's per-op counts) depend on the calls before it.
    W = (dual_module(V0), V)
    ev = sl.tensor_map(sl.ev_right(V0.space), sl.identity(V.space))
    action = FactorwiseAction((V0,) + W)
    pairs = ((v, ev.apply(v).get(d, 0)) for v in _singular(V, action, 0))
    v, c = next((pair for pair in pairs if pair[1]), (None, 0))
    if not c:
        raise WitnessNotFoundError(f"no splitting of {V.name} through {V0.name} with W = V0* (x) V")
    (images,), coords = _replay(V, action, 0, [v])
    b = SuperMap(V.space, ev.domain, 0, _assembled(images, coords))
    return make_witness(V, V0, W, Fraction(1, c) * ev, b)


def witness_tensor(w: IdealWitness, U: GModule) -> IdealWitness:
    """Closure under tensoring: a witness for V (x) U with U appended to W's factors."""
    idu = sl.identity(U.space)
    # (V0 (x) W) (x) U and V0 (x) (W (x) U) share the same flattened basis.
    return make_witness(tensor_module(w.V, U), w.V0, w.W + (U,), sl.tensor_map(w.alpha, idu),
                        sl.tensor_map(w.beta, idu))


def witness_dsum(w1: IdealWitness, w2: IdealWitness) -> IdealWitness:
    """Closure under direct sums (sharing V0): W' = (W1 (+) W2,), each W folded into one module."""
    if w1.V0 is not w2.V0:
        raise ValueError("direct-sum witnesses must share the same core module")
    V = direct_sum_module(w1.V, w2.V)
    W = direct_sum_module(*(reduce(tensor_module, w.W) for w in (w1, w2)))
    V0W = sl.tensor_space(w1.V0.space, W.space)
    ent_a: dict[tuple[int, int], Fraction] = {}
    ent_b: dict[tuple[int, int], Fraction] = {}
    # Summand k's V and W indices move by the dimensions of the summands before it.
    for w, dv, dw in ((w1, 0, 0), (w2, w1.V.dim, w1.w_space.dim)):
        for (i, col), v in w.alpha.entries.items():
            i0, iw = divmod(col, w.w_space.dim)
            ent_a[(i + dv, i0 * W.dim + dw + iw)] = v
        for (row, j), v in w.beta.entries.items():
            i0, iw = divmod(row, w.w_space.dim)
            ent_b[(i0 * W.dim + dw + iw, j + dv)] = v
    return make_witness(V, w1.V0, (W,), SuperMap(V0W, V.space, 0, ent_a),
                        SuperMap(V.space, V0W, 0, ent_b))


def witness_parity_shift(w: IdealWitness) -> IdealWitness:
    """A witness for the parity-shifted module, shifting W's last factor."""
    V_op = parity_shift_module(w.V)
    *rest, last = w.W
    ident = sl.identity(reduce(sl.tensor_space, (M.space for M in [w.V0] + rest)))
    alpha = sigma_map(w.V) @ w.alpha @ sl.tensor_map(ident, sigma_inverse(last))
    beta = sl.tensor_map(ident, sigma_map(last)) @ w.beta @ sigma_inverse(w.V)
    return make_witness(V_op, w.V0, (*rest, parity_shift_module(last)), alpha, beta)


# -- serialization and caching ---------------------------------------------------


def save_gmodule(mod: GModule, path: str) -> None:
    """Write a module as versioned JSON lines: a header, then one line per e_i and f_i."""
    hw = mod.highest_weight
    header = {"record": "module", "version": CONSTRUCTION_VERSION, "name": mod.name,
              "family": mod.rs.family, "m": mod.rs.m, "n": mod.rs.n,
              "parities": list(mod.space.parities),
              "highest_weight": [rat_str(x) for x in hw.a] if hw else None}
    lines = [json.dumps(header, sort_keys=True)] + [
        json.dumps({"record": "generator", "series": series, "index": idx, "parity": m.parity,
                    "entries": [[i, j, rat_str(v)] for (i, j), v in sorted(m.entries.items())]},
                   sort_keys=True)
        for series, maps in (("e", mod.e), ("f", mod.f)) for idx, m in enumerate(maps)]
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    with os.fdopen(fd, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    os.replace(tmp, path)


def _read_rat(text: str):
    """A scalar as ``rat_str`` writes it, an int literal or p/q: ValueError otherwise, TypeError
    for a non-string."""
    num, slash, den = str.partition(text, "/")
    return Fraction(int(num), int(den)) if slash else int(num)


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
        hw = header.get("highest_weight")
        hw = Weight(tuple(map(_read_rat, hw))) if hw is not None else None
        if hw is not None and len(hw.a) != rs.rank:
            raise ModuleIntegrityError(f"{path}: highest weight {hw} has {len(hw.a)} coordinates; "
                                       f"rank is {rs.rank}")
        series: dict[str, dict[int, SuperMap]] = {"e": {}, "f": {}}
        for rec in records[1:]:
            if rec["record"] != "generator":
                raise ModuleIntegrityError(f"{path}: stray record {rec['record']!r}")
            kind, idx = rec["series"], rec["index"]
            if type(idx) is not int or idx not in range(rs.rank) or idx in series[kind]:
                raise ModuleIntegrityError(f"{path}: stray or repeated record {kind}_{idx!r}")
            ent = {(i, j): _read_rat(v) for i, j, v in rec["entries"]}
            series[kind][idx] = SuperMap(space, space, rec["parity"], ent)
        e, f = (tuple(series[kind][i] for i in range(rs.rank)) for kind in "ef")
        mod = GModule(rs, space, e, f, header["name"], hw)
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
        d = mod.kac_vector  # certifies dim K(lam) and the module; K(lam) has an even d
        if (mod.name, mod.highest_weight) != (_kac_name(lam), lam) or d is None or mod.space.parities[d]:
            raise ModuleIntegrityError(f"{path}: holds {mod.name} of dim {mod.dim}, "
                                       f"not a certified {_kac_name(lam)}")
        return mod
    mod = kac_module(rs, lam)
    save_gmodule(mod, path)
    return mod
