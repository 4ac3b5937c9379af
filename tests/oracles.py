"""Slow or independent reference routes, kept as test oracles.

The invariant-tensor routes build g^(x)N-sized modules or maps, or solve a
generic Hom system, where the library works on coordinates.  The Hom
equations of ``hom_by_equations`` are written entry by entry from the
generator matrices, where the library solves for the invariants of
V (x) U*.  The weight formulas give the basis weights of the standard,
adjoint and Kac modules in closed form, and ``WEIGHT_RULES`` those of the
dual, tensor, direct-sum and parity-shift constructions from their parts,
where the library reads every module's weights off the diagonals of the
[e_i, f_i].  ``v1_bytes`` writes a module in the construction-version-1 file
layout, header weights and h records included, which the library no longer
writes.  The witness routes build V0 (x) W as a module of SuperMaps, take
alpha = ev_right(V0) (x) Id_V from superlin, solve Hom(V, V0 (x) W) in full
and check g-linearity by products with every generator matrix (e, f and h),
where the library writes alpha entry by entry, solves on the factors
(V0, W), replays one beta and checks only the e_i and f_i;
``ideal_witness_by_modules`` is the only module-built witness search left.
``dual_coords_by_walk`` pairs each tensor factor by factor with b's
partners, where the library sums the kept columns of b~_N.  ``partner_walk``
walks the columns of b~_N or b~_N^-1 up from degree 0 with a count of odd
factors, ``iota_chain`` composes the whole chain of two-factor dual
isomorphisms and ``dualizing_map_by_chain`` composes iota . b^(x)N for each N,
where the library makes each degree-N table one step on the kept table of
degree N - 1.
``kac_generators_by_chains`` commutes each generator through the wedge
factors of K(lam) chain by chain, where the library writes the generators
straight from the PBW basis.  ``g_linear_two_sided`` acts on m's rows and on a
column-major copy and compares the re-keyed images, where the library adds both
sides into one sum over one keying of m.  ``kac_words_unskipped`` tries every
f_g on every new word, where ``GModule.kac_words`` skips words whose weight
space is already spanned; ``replay_unskipped`` replays those words in
Fractions, where the library replays in ints over one denominator, and
``assembled_in_fractions``, ``hom_by_fraction_replay``,
``beta_by_fraction_replay`` and ``it_coords_by_fraction_replay`` build the
maps, the witness beta and the reachable tensors' coordinates from it.
``SetDifferenceRowReducer`` refreshes the column index of each updated row
from whole key-set differences, where the library looks only at the new pivot
row's columns.  ``unit_coords_by_solves`` solves for each unit
vector on its own, where the library reads them all off the reduced rows, and
``presenting_maps_at_once`` assembles every presenting map of ``it_space``,
where the library assembles one only when it is read.  ``sn_action_map``
composes the adjacent super swaps that bubble-sort a permutation, where the
library puts each factor straight into its slot with a closed-form sign, and
``permutation_map`` writes that closed-form move out as a whole map, where the
library pulls a covector back through the inverse move and builds no map.
``sl_roots_by_hand`` and ``osp2_roots_by_hand`` write each positive root's
simple-root coordinates and parity, and the Cartan matrix, by hand, where the
library derives them from epsilon-delta vectors.
``adjoint_all_columns`` builds the whole form adjoint G* as a map, where
the library's ``adjoint_coords`` maps only the tensors it is given.
``pairing_with_rho_shift_by_form``, ``atypicality_factors_by_form`` and
``mod_sdim_by_form`` evaluate <rho, alpha> through the form on every call,
where ``RootSystem`` reads it kept per positive root (``rho_pairings``).
Singular vectors, submodule dimensions, irreducibility and the double-dual
isomorphism are computed only here, as checks on the library.  The tests
compare the two.
"""

import json
from fractions import Fraction
from functools import reduce
from itertools import product

from supertrace import invtensor as it
from supertrace import repmod as rm
from supertrace import superlin as sl
from supertrace.exactnum import cleared, rat_str
from supertrace.linalg import RowReducer, _eliminate, nullspace
from supertrace.rootdata import AtypicalWeightError


def hom_by_equations(U, V, parity):
    """Hom(U, V) by elimination over F . x_U = (-1)^{p(x) p(F)} x_V . F for the e_i and f_i.

    The h-generator equations say exactly that F matches basis weights, which
    cuts the unknowns to weight-matched entry positions (U index outer).
    """
    by_weight_v = {}
    for i in range(V.dim):
        by_weight_v.setdefault(V.basis_weights[i], []).append(i)
    unknowns = [(i, j) for j in range(U.dim) for i in by_weight_v.get(U.basis_weights[j], ())
                if (V.space.parities[i] + U.space.parities[j]) % 2 == parity]
    if not unknowns:
        return []
    equations = {}

    def put(key, t, val):
        row = equations.setdefault(key, {})
        row[t] = row.get(t, 0) + val

    for gidx, (xu, xv) in enumerate(zip(U.e + U.f, V.e + V.f)):
        sign = -1 if (parity and xu.parity) else 1
        xu_rows, xv_cols = sl.mat_columns(xu.entries, transpose=True), sl.mat_columns(xv.entries)
        for t, (i, j) in enumerate(unknowns):
            for j2, v in xu_rows.get(j, ()):
                put((gidx, i, j2), t, v)
            for i2, v in xv_cols.get(i, ()):
                put((gidx, i2, j), t, -sign * v)
    return [sl.SuperMap(U.space, V.space, parity, {unknowns[t]: v for t, v in vec.items()})
            for vec in nullspace(equations.values(), len(unknowns))]


def g_linear_by_products(m, src, dst):
    """m . x == (-1)^{p(m) p(x)} x . m for every generator, as products of module matrices."""
    for xs, xd in zip(src.gens(), dst.gens()):
        sign = -1 if (m.parity and xs.parity) else 1
        if m @ xs != sign * (xd @ m):
            return False
    return True


def g_linear_two_sided(m, src, dst):
    """``repmod._check_g_linear`` with each side on its own vector: m . x over m's rows,
    x . m over a column-major copy, both re-keyed to (i, j) and compared as dicts."""
    src, dst = (s if isinstance(s, tuple) else (s,) for s in (src, dst))
    if (m.domain, m.codomain) != tuple(reduce(sl.tensor_space, (M.space for M in side))
                                       for side in (src, dst)):
        raise ValueError("map does not run between the spaces of src and dst")
    on_rows, on_cols = rm.FactorwiseAction(src, transpose=True), rm.FactorwiseAction(dst)
    ds, dd = m.domain.dim, m.codomain.dim
    ent, _ = cleared(m.entries)
    rows = {i * ds + j: v for (i, j), v in ent.items()}
    cols = {j * dd + i: v for (i, j), v in ent.items()}
    for kind in "ef":
        for g in range(on_rows.rs.rank):
            sign = -1 if m.parity and on_rows.gen_parity[g] else 1
            lhs, l_src = on_rows._scaled(kind, g, rows)
            rhs, l_dst = on_cols._scaled(kind, g, cols)
            if ({divmod(t, ds): l_dst * v for t, v in lhs.items() if v}
                    != {divmod(t, dd)[::-1]: sign * l_src * v for t, v in rhs.items() if v}):
                return False
    return True


def kac_words_unskipped(K):
    """``GModule.kac_words`` with the word search trying every f_g on every new word."""
    d = K.kac_vector
    source = rm.FactorwiseAction((K,))
    reducer = RowReducer()
    reducer.add({d: 1})
    vecs, words = [{d: 1}], [None]
    frontier = [0]
    while frontier and len(reducer) < K.dim:
        nxt = []
        for k in frontier:
            for g in range(K.rs.rank):
                image = source.apply("f", g, vecs[k])
                if image and reducer.add(image):
                    nxt.append(len(vecs))
                    vecs.append(image)
                    words.append((k, g))
        frontier = nxt
    assert len(reducer) == K.dim
    return tuple(words[1:]), reducer.unit_coords()


def replay_unskipped(K, target, parity, singular=None):
    """``repmod._replay`` over the words of ``kac_words_unskipped``, in Fractions: each image
    through ``FactorwiseAction.apply``, and C as the word search reads it."""
    singular = rm._singular(K, target, parity) if singular is None else singular
    if not singular:
        return [], {}
    words, coords = kac_words_unskipped(K)
    signs = [-1 if parity and x.parity else 1 for x in K.e]
    replays = []
    for v in singular:
        images = [v]
        for k, g in words:
            image = target.apply("f", g, images[k])
            images.append(image if signs[g] == 1 else {i: -c for i, c in image.items()})
        replays.append(images)
    return replays, coords


def assembled_in_fractions(images, coords):
    """F = images . C of a Fraction replay (``replay_unskipped``), as {(row, col): value}."""
    return sl.mat_mul({(i, k): x for k, image in enumerate(images) for i, x in image.items()}, coords)


def hom_by_fraction_replay(U, V, parity):
    """``hom_space`` out of a certified U, replayed in Fractions over the unskipped words."""
    replays, coords = replay_unskipped(U, rm.FactorwiseAction((V,)), parity)
    return [sl.SuperMap(U.space, V.space, parity, assembled_in_fractions(images, coords))
            for images in replays]


def beta_by_fraction_replay(V, V0):
    """``ideal_witness``'s beta: its singular vector (the first with ev(v)[d] != 0) replayed in
    Fractions over the unskipped words."""
    action = rm.FactorwiseAction((V0, rm.dual_module(V0), V))
    ev = sl.tensor_map(sl.ev_right(V0.space), sl.identity(V.space))
    v = next(v for v in rm._singular(V, action, 0) if ev.apply(v).get(V.kac_vector, 0))
    (images,), coords = replay_unskipped(V, action, 0, [v])
    return sl.SuperMap(V.space, ev.domain, 0, assembled_in_fractions(images, coords))


def it_coords_by_fraction_replay(adj, N, w):
    """The coordinates of ``it_space``'s tensors for one probe: each map g of the Fraction replay
    assembled in full, then t[x] = sum_i (-1)^{p_i} g[x d + i, i]."""
    V = w.V
    dim, par = V.dim, V.space.parities
    replays, coords = replay_unskipped(V, rm.FactorwiseAction((adj.module,) * N + (V,)), 0)
    out = []
    for images in replays:
        diagonal = []
        for (row, j), v in assembled_in_fractions(images, coords).items():
            x, i = divmod(row, dim)
            if i == j:
                diagonal.append((x, -v if par[i] else v))
        out.append(sl._summed(diagonal))
    return out


class SetDifferenceRowReducer(RowReducer):
    """``RowReducer`` whose ``_insert`` refreshes each updated row's column index from the
    two whole key-set differences of its old and new row."""

    def _insert(self, row):
        row = self._reduce(row)
        free = [j for j in row if j >= 0]
        if not free:
            return False
        pc = min(free, key=lambda j: (abs(row[j]), -j))
        for q in self._holders.pop(pc, ()):
            old = self._rows[q]
            new = self._rows[q] = _eliminate(old, row, pc)
            for j in old.keys() - new.keys():
                if j >= 0 and j != pc:
                    self._holders[j].discard(q)
            for j in new.keys() - old.keys():
                if j >= 0:
                    self._holders.setdefault(j, set()).add(q)
        self._rows[pc] = row
        for j in free:
            if j != pc:
                self._holders.setdefault(j, set()).add(pc)
        return True


def ideal_witness_by_modules(V, V0):
    """(alpha, beta) of ideal_witness through V0 (x) W built as a module, W = V0* (x) V.

    alpha is ev_right(V0) (x) Id_V from superlin; beta is the first map of
    Hom(V, V0 (x) W) with a nonzero composite c, and alpha is scaled by 1/c
    so that alpha . beta = Id.
    """
    if len(rm.hom_space(V, V, 0)) != 1:
        raise ValueError("module does not have scalar even endomorphisms")
    W = rm.tensor_module(rm.dual_module(V0), V)
    V0W = rm.tensor_module(V0, W)
    a = sl.tensor_map(sl.ev_right(V0.space), sl.identity(V.space))
    for b in rm.hom_space(V, V0W, 0):
        comp = a @ b
        c = comp.entry(0, 0)
        if c:
            assert comp == c * sl.identity(V.space)
            a = Fraction(1, c) * a
            assert g_linear_by_products(a, V0W, V) and g_linear_by_products(b, V, V0W)
            return a, b
    raise rm.WitnessNotFoundError(f"no splitting of {V.name} through {V0.name}")


def singular_vectors(V):
    """A basis of the weight vectors annihilated by every raising generator, weight by weight."""
    by_weight = {}
    for i in range(V.dim):
        by_weight.setdefault(V.basis_weights[i], []).append(i)
    action = rm.FactorwiseAction((V,))
    return [vec for cols in by_weight.values() for vec in rm._killed(action, "e", cols)]


def submodule_dimension(V, seeds):
    """Dimension of the submodule generated by the given vectors."""
    reducer = RowReducer()
    frontier = [vec for vec in seeds if reducer.add(vec)]
    action = rm.FactorwiseAction((V,))
    while frontier:
        frontier = [image for vec in frontier for kind in "ef" for g in range(V.rs.rank)
                    if (image := action.apply(kind, g, vec)) and reducer.add(image)]
    return len(reducer)


def is_irreducible(V):
    """Exact irreducibility: every singular vector generates the whole module.

    Any nonzero submodule contains a singular vector (take a weight vector of
    maximal height), so this criterion is complete for modules with diagonal
    Cartan action.
    """
    return V.dim > 0 and all(submodule_dimension(V, [vec]) == V.dim
                             for vec in singular_vectors(V))


def it_space_generic(adj, N, probes):
    """it_space by the generic solve of Hom(V (x) V*, g^(x)N) over both modules."""
    power = adj.power(N)
    raw = []
    for w in probes:
        vv = rm.tensor_module(w.V, rm.dual_module(w.V))
        for f in hom_by_equations(vv, power, 0):
            raw.append(it.presented_tensor(N, w, f))
    reducer = RowReducer()
    independent = [t for t in raw if t.coords and reducer.add(t.coords)]
    return it.ITSubspace(N, tuple(independent), tuple(raw))


def presenting_maps_at_once(adj, N, w):
    """The presenting maps of ``it_space`` for one probe, every replay of ``_replay`` assembled
    at once and validated: f[x, j d + k] = (-1)^{p_k} g[x d + k, j]."""
    V = w.V
    dim, par = V.dim, V.space.parities
    domain = sl.tensor_space(V.space, sl.dual_space(V.space))
    target = rm.FactorwiseAction((adj.module,) * N + (V,))
    maps = []
    replays, coords = rm._replay(V, target, 0)
    for images in replays:
        ent = {}
        for (row, j), v in rm._assembled(images, coords).items():
            x, k = divmod(row, dim)
            ent[(x, j * dim + k)] = -v if par[k] else v
        maps.append(sl.SuperMap(domain, adj.power_space(N), 0, ent))
    return maps


def unit_coords_by_solves(reducer, columns):
    """Each unit vector e_j (j in ``columns``) over the accepted vectors, one ``coords`` solve
    per unit, as {(k, j): c}."""
    return {(k, j): c for j in columns for k, c in reducer.coords({j: 1}).items()}


def double_dual_iso(V):
    """The canonical V -> V**, v |-> (-1)^{p(v)} v** in the dual-dual basis."""
    ent = {(i, i): -1 if V.parities[i] else 1 for i in range(V.dim)}
    return sl.SuperMap(V, sl.dual_space(sl.dual_space(V)), sl.EVEN, ent)


def invert_diag(m):
    """The inverse of a diagonal map."""
    ent = {}
    for (i, j), v in m.entries.items():
        if i != j:
            raise ValueError("not a diagonal map")
        ent[(i, j)] = 1 / Fraction(v)
    return sl.SuperMap(m.codomain, m.domain, m.parity, ent)


def sl_roots_by_hand(m, n):
    """sl(m|n)'s positive roots alpha_i + ... + alpha_j as (coeffs, parity), in the library's
    order, odd when they span s = m - 1, with the distinguished Cartan matrix: 2 on the diagonal
    but 0 at s, -1 beside it but +1 at (s, s + 1)."""
    r, s = m + n - 1, m - 1
    roots = [(tuple(1 if i <= k <= j else 0 for k in range(r)), int(i <= s <= j))
             for i in range(r) for j in range(i, r)]
    cartan = tuple(tuple((0 if i == s else 2) if i == j else (1 if (i, j) == (s, s + 1) else -1)
                         if abs(i - j) == 1 else 0 for j in range(r)) for i in range(r))
    return roots, cartan


def osp2_roots_by_hand(n):
    """osp(2|2n)'s positive roots as (coeffs, parity), in the library's order: for each i the
    even delta_i -+ delta_j (j > i) and 2 delta_i, then the odd eps -+ delta_i; with the Cartan
    matrix of eps - delta_1, delta_k - delta_{k+1}, 2 delta_n."""
    r = n + 1

    def two_delta(i):  # 2 delta_i (1-based i) in simple-root coordinates
        return [2 if i <= k < n else 0 for k in range(n)] + [1]

    def delta_diff(i, j):
        return [1 if i <= k < j else 0 for k in range(r)]

    roots = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            roots.append((tuple(delta_diff(i, j)), 0))
            roots.append((tuple(x + y for x, y in zip(delta_diff(i, j), two_delta(j))), 0))
        roots.append((tuple(two_delta(i)), 0))
    for i in range(1, n + 1):
        minus = [1] + delta_diff(1, i)[1:]
        roots += [(tuple(minus), 1), (tuple(x + y for x, y in zip(minus, two_delta(i))), 1)]
    cartan = [[0] * r for _ in range(r)]
    cartan[0][1] = 1
    for i in range(1, r):
        cartan[i][i], cartan[i][i - 1] = 2, -1
        if i + 1 < r:
            cartan[i][i + 1] = -2 if i + 1 == n else -1
    return roots, tuple(map(tuple, cartan))


def pairing_with_rho_shift_by_form(rs, w, root):
    """<lambda + rho, alpha>, with <rho, alpha> through ``form_rr`` on every call."""
    return rs.form_wr(w, root.coeffs) + rs.form_rr(rs.rho, root.coeffs)


def atypicality_factors_by_form(rs, w):
    return [pairing_with_rho_shift_by_form(rs, w, a) for a in rs.pos_odd]


def mod_sdim_by_form(rs, w):
    """prod_even <lambda + rho, alpha> / <rho, alpha> over prod_odd <lambda + rho, alpha>."""
    value = Fraction(1)
    for alpha in rs.pos_even:
        value *= pairing_with_rho_shift_by_form(rs, w, alpha) / rs.form_rr(rs.rho, alpha.coeffs)
    for factor in atypicality_factors_by_form(rs, w):
        if factor == 0:
            raise AtypicalWeightError(f"weight {w} is atypical")
        value /= factor
    return value


def _adjacent_swaps(N, perm):
    """The slots i whose swaps with i + 1, in this order, bubble-sort perm."""
    if sorted(perm) != list(range(N)):
        raise ValueError("not a permutation")
    current, swaps = list(perm), []
    for end in range(N - 1, 0, -1):
        for i in range(end):
            if current[i] > current[i + 1]:
                current[i], current[i + 1] = current[i + 1], current[i]
                swaps.append(i)
    return swaps


def sn_action_map(adj, N, perm):
    """The signed permutation action on g^(x)N, composed from the adjacent super permutations
    that bubble-sort perm."""
    g = adj.module.space
    out = sl.identity(adj.power_space(N))
    for i in _adjacent_swaps(N, perm):
        left = adj.power_space(i) if i else sl.UNIT
        right = adj.power_space(N - i - 2) if N - i - 2 else sl.UNIT
        swap = reduce(sl.tensor_map,
                      (sl.identity(left), sl.super_permutation(g, g), sl.identity(right)))
        out = swap @ out
    return out


def permutation_map(adj, N, perm):
    """The signed action of a permutation on g^(x)N as a map: every basis tensor moved by ``_permuter``."""
    move, space = it._permuter(adj, N, perm), adj.power_space(N)
    ent = {}
    for c in range(space.dim):
        new, sign = move(c)
        ent[(new, c)] = sign
    return sl.SuperMap._of(space, space, 0, ent)


def dual_coords_by_walk(adj, N, coords):
    """b~_N(t) = iota . b^(x)N (t) term by term: every choice of Gram partners for t's digits.

    The Koszul sign of iota is (-1)^{sum_{i<k} p_i p_k} over the digits' parities.
    """
    gdim, par = adj.gdim, adj.module.space.parities
    partners = [[] for _ in range(gdim)]
    for (c, d), v in adj.b.entries.items():
        partners[d].append((c, v))
    out = {}
    for flat, coeff in coords.items():
        digits = [flat // gdim ** (N - 1 - k) % gdim for k in range(N)]
        odd = sum(par[d] for d in digits)
        sign = -1 if (odd * (odd - 1) // 2) % 2 else 1  # pairs of odd digits
        for choice in product(*(partners[d] for d in digits)):
            row, value = 0, sign * Fraction(coeff)
            for e, v in choice:
                row, value = row * gdim + e, value * v
            out[row] = out.get(row, 0) + value
    return {k: v for k, v in out.items() if v}


def partner_walk(adj, N, form):
    """The columns of b~_N (form b) or b~_N^-1 (form b_inv) as [(r, value)], walked up from
    degree 0 on every call with a count of odd factors per basis tensor.

    Column d gdim^j + t of degree j + 1 puts the partners of d in front of column t of
    degree j; an odd d adds the factor (-1)^{k_t}, k_t the odd factors of t.
    """
    gdim, par = adj.gdim, adj.module.space.parities
    partners = [[] for _ in range(gdim)]
    for (c, d), v in form.entries.items():
        partners[d].append((c, v))
    cols, odds = [[(0, 1)]], [0]
    for _ in range(N):
        place, last, cols = len(cols), cols, []
        for d in range(gdim):
            for t in range(place):
                col, flip = [], par[d] and odds[t] % 2
                for r, p in last[t]:
                    for e, v in partners[d]:
                        x = -p * v if flip else p * v
                        col.append((r + e * place, x.numerator if x.denominator == 1 else x))
                cols.append(col)
        odds = [odds[t] + par[d] for d in range(gdim) for t in range(place)]
    return cols


def iota_chain(adj, N):
    """(g*)^(x)N -> (g^(x)N)* via iterated two-factor dual isomorphisms, composed from degree 1."""
    g = adj.module.space
    out = sl.identity(sl.dual_space(g))
    left = g
    for _ in range(N - 1):
        step = sl.dual_tensor_iso(left, g)
        out = step @ sl.tensor_map(out, sl.identity(sl.dual_space(g)))
        left = sl.tensor_space(left, g)
    return out


def power_of(f, N):
    """f^(x)N, tensored on the right N - 1 times."""
    out = f
    for _ in range(N - 1):
        out = sl.tensor_map(out, f)
    return out


def dualizing_map_by_chain(adj, N):
    """b~_N = iota . b^(x)N, with the whole iota chain and b^(x)N composed for this N."""
    return iota_chain(adj, N) @ power_of(adj.b, N)


def adjoint_via_form(adj, G, m_deg, n_deg):
    """G* = (b^(x)M)^-1 . iota_M^-1 . G^T . b~_N as a composite of g^(x)N-sized maps."""
    iota_m_inv = invert_diag(iota_chain(adj, m_deg))
    return (power_of(adj.b_inv, m_deg) @ iota_m_inv @ sl.super_transpose(G)
            @ dualizing_map_by_chain(adj, n_deg))


def adjoint_all_columns(adj, G, m_deg, n_deg):
    """G* = b~_M^-1 . G^T . b~_N as a map, every column at once: the covectors b~_N(e_c) pulled back
    through the super transpose of G, then sent through the kept columns of b~_M^-1."""
    transposed = sl.mat_columns(sl.super_transpose(G).entries)
    pulled = sl._summed(((j, c), u * v) for c, col in enumerate(adj.form_columns(n_deg))
                        for r, v in col for j, u in transposed.get(r, ()))
    inverse = adj.form_columns(m_deg, inverse=True)
    ent = sl._summed(((a, c), w * v) for (j, c), v in pulled.items() for a, w in inverse[j])
    return sl.SuperMap._of(G.codomain, G.domain, G.parity, ent)


def power_action_apply(adj, N, gen, coords):
    """A generator applied to degree-N coordinates, factor by factor, from its matrix."""
    gdim = adj.gdim
    par = adj.module.space.parities
    by_col = {}
    for (i, j), v in gen.entries.items():
        by_col.setdefault(j, []).append((i, v))
    out = {}
    for flat, c in coords.items():
        lead_parity = 0
        digits = [flat // gdim ** (N - 1 - k) % gdim for k in range(N)]
        for pos, d in enumerate(digits):
            sign = -1 if (gen.parity and lead_parity % 2) else 1
            place = gdim ** (N - 1 - pos)
            for i, v in by_col.get(d, ()):
                key = flat + (i - d) * place
                out[key] = out.get(key, 0) + sign * v * c
            lead_parity += par[d]
    return sl._nonzero(out)


def scomm(x, y):
    """The super-commutator [x, y] = x . y - (-1)^{p(x) p(y)} y . x of two maps."""
    sign = -1 if (x.parity and y.parity) else 1
    return x @ y - sign * (y @ x)


def _h_diagonals(rs):
    """The diagonal of h_i = E_ii - E_{i+1,i+1} (E_ss + E_{s+1,s+1}) on the defining basis."""
    diags = []
    for i in range(rs.rank):
        diag = [Fraction(0)] * (rs.m + rs.n)
        diag[i] = Fraction(1)
        diag[i + 1] = Fraction(1 if i == rs.s else -1)
        diags.append(diag)
    return diags


def std_weights(rs):
    """Basis vector k of the defining module has weight (h_i[k])_i."""
    diags = _h_diagonals(rs)
    return tuple(tuple(d[k] for d in diags) for k in range(rs.m + rs.n))


def adjoint_weights(rs):
    """E_pq (p != q, row-major) has weight h[p] - h[q]; the rank Cartan vectors weigh 0."""
    dim = rs.m + rs.n
    diags = _h_diagonals(rs)
    offdiag = [(p, q) for p in range(dim) for q in range(dim) if p != q]
    roots = tuple(tuple(d[p] - d[q] for d in diags) for p, q in offdiag)
    return roots + ((Fraction(0),) * rs.rank,) * rs.rank


# The basis weights of each construction from those of its parts, in its basis order.
WEIGHT_RULES = {
    "dual": lambda wv: tuple(tuple(-x for x in w) for w in wv),
    "tensor": lambda wv, ww: tuple(tuple(a + b for a, b in zip(v, w)) for v in wv for w in ww),
    "dsum": lambda wv, ww: wv + ww,
    "shift": lambda wv: wv,
}


def v1_bytes(mod):
    """The bytes of ``mod`` in the version-1 module file: the header records the basis
    weights, and the e, f and h series follow, h taken from ``GModule.h``."""
    rats = lambda xs: [rat_str(x) for x in xs]
    header = {"record": "module", "version": 1, "name": mod.name, "family": mod.rs.family,
              "m": mod.rs.m, "n": mod.rs.n, "parities": list(mod.space.parities),
              "weights": [rats(wt) for wt in mod.basis_weights],
              "highest_weight": rats(mod.highest_weight.a) if mod.highest_weight else None}
    lines = [json.dumps(header, sort_keys=True)] + [
        json.dumps({"record": "generator", "series": series, "index": idx, "parity": m.parity,
                    "entries": [[i, j, rat_str(v)] for (i, j), v in sorted(m.entries.items())]},
                   sort_keys=True)
        for series, maps in (("e", mod.e), ("f", mod.f), ("h", mod.h)) for idx, m in enumerate(maps)]
    return ("\n".join(lines) + "\n").encode()


def kac_weights(rs, lam):
    """Basis weights of K(lam): the V0 weight plus the roots of the wedged odd vectors.

    Basis vector (mask, k) wedges the odd lowering vectors y_c = E_{m+j, i}
    (c = i n + j) named by the bits of mask onto basis vector k of the
    gl(m) x gl(n) simple module V0; a_s also carries the central character.
    """
    m, n, r, s = rs.m, rs.n, rs.rank, rs.s
    _, _, wts_m = rm._gl_simple_module(m, tuple(int(lam.a[i]) for i in range(m - 1)))
    dn, _, wts_n = rm._gl_simple_module(n, tuple(int(lam.a[i]) for i in range(m, r)))
    deg_m, deg_n = sum(wts_m[0]), sum(wts_n[0])
    s_m = Fraction(wts_m[0][m - 1]) - Fraction(deg_m, m)
    s_n = Fraction(wts_n[0][0]) - Fraction(deg_n, n)
    c_z = m * n * (lam.a[s] - s_m - s_n)
    diags = _h_diagonals(rs)

    def v0_weight(k):
        im, jn = divmod(k, dn)
        out = []
        for i in range(r):
            if i < s:
                out.append(Fraction(wts_m[im][i] - wts_m[im][i + 1]))
            elif i > s:
                out.append(Fraction(wts_n[jn][i - m] - wts_n[jn][i - m + 1]))
            else:
                out.append(Fraction(wts_m[im][m - 1]) - Fraction(deg_m, m)
                           + Fraction(wts_n[jn][0]) - Fraction(deg_n, n) + c_z / (m * n))
        return out

    y_weights = []
    for c in range(m * n):
        i, j = divmod(c, n)
        y_weights.append([d[m + j] - d[i] for d in diags])
    weights = []
    for mask in range(1 << (m * n)):
        for k in range(len(wts_m) * dn):
            base = v0_weight(k)
            for c in range(m * n):
                if mask & (1 << c):
                    base = [x + y for x, y in zip(base, y_weights[c])]
            weights.append(tuple(base))
    return tuple(weights)


def kac_generators_by_chains(rs, lam):
    """(e, f, h) of K(lam) by commuting each generator through the wedge factors.

    Basis vector (mask, k) is y_c1 ... y_cj v_k over the bits c1 < ... < cj of
    mask; x (y_c w) = [x, y_c] w + (-1)^{p(x)} y_c (x w) peels off the lowest
    factor, so each chain [[x, y_c1], y_c2]... acts on the vacuum at the end,
    where its odd lowering entries wedge on a factor, its odd raising ones
    vanish and its even part acts on V0.  Each chain of x is computed once and
    each result memoized by (chain, mask, k).
    """
    m, n = rs.m, rs.n
    mn = m * n
    dim_v0, even_apply = rm._kac_even_part(rs, lam)
    ys = [{(m + j, i): 1} for i in range(m) for j in range(n)]
    dim = (1 << mn) * dim_v0
    space = sl.SuperSpace(tuple(bin(idx // dim_v0).count("1") % 2 for idx in range(dim)))

    def act(chains, acted, chain, mask, k):
        key = (chain, mask, k)
        if key in acted:
            return acted[key]
        if chain not in chains:
            x, px = chains[chain[:-1]]
            chains[chain] = (sl.mat_scomm(x, px, ys[chain[-1]], 1), (px + 1) % 2)
        x, px = chains[chain]
        if not x:
            out = {}
        elif mask == 0:
            lowered = (((1 << (q * n + p - m)) * dim_v0 + k, v)
                       for (p, q), v in x.items() if p >= m and q < m)
            even_part = {(p, q): v for (p, q), v in x.items() if (p < m) == (q < m)}
            out = sl._summed(lowered, even_apply(even_part, k) if even_part else ())
        else:
            c = (mask & -mask).bit_length() - 1
            rest = mask & ~(1 << c)
            first = act(chains, acted, chain + (c,), rest, k)
            wedged = rm._wedge(c, act(chains, acted, chain, rest, k), -1 if px else 1, dim_v0)
            out = sl._summed(wedged, first)
        acted[key] = out
        return out

    def generator_map(x):
        chains, acted, ent = {(): (x.entries, x.parity)}, {}, {}
        for col in range(dim):
            for row, v in act(chains, acted, (), *divmod(col, dim_v0)).items():
                ent[(row, col)] = v
        return sl.SuperMap(space, space, x.parity, ent)

    return tuple(tuple(generator_map(x) for x in xs) for xs in rm.sl_generators(rs)[1:])
