"""Slow or independent reference routes, kept as test oracles.

The invariant-tensor routes build g^(x)N-sized modules or maps, or solve a
generic Hom system, where the library works on coordinates.  The Hom
equations of ``hom_by_equations`` are written entry by entry from the
generator matrices, where the library solves for the invariants of
V (x) U*.  The weight formulas give the basis weights of the standard,
adjoint and Kac modules in closed form, where the library reads them off the
h_i.  The witness routes build V0 (x) W as a module of SuperMaps, solve
both Hom spaces in full and check g-linearity by products with its
generator matrices, where the library works on the factors (V0, W) and
replays one pair; ``ideal_witness_by_modules`` is the only module-built
witness search left.  Singular vectors, submodule dimensions and
irreducibility are computed only here, as checks on the modules the library
builds.  The tests compare the two.
"""

from fractions import Fraction
from functools import reduce

from supertrace import invtensor as it
from supertrace import repmod as rm
from supertrace import superlin as sl
from supertrace.linalg import RowReducer, nullspace


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


def ideal_witness_by_modules(V, V0):
    """(alpha, beta) of ideal_witness through V0 (x) W built as a module, W = V0* (x) V.

    Both Hom spaces are solved in full, and the first pair in the order
    alphas x betas with a nonzero composite is normalized to alpha . beta = Id.
    """
    if len(rm.hom_space(V, V, 0)) != 1:
        raise ValueError("module does not have scalar even endomorphisms")
    W = rm.tensor_module(rm.dual_module(V0, check=False), V, check=False)
    V0W = rm.tensor_module(V0, W, check=False)
    alphas, betas = rm.hom_space(V0W, V, 0), rm.hom_space(V, V0W, 0)
    for a in alphas:
        for b in betas:
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
        frontier = [image for vec in frontier for kind in "efh" for g in range(V.rs.rank)
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
        vv = rm.tensor_module(w.V, rm.dual_module(w.V, check=False), check=False)
        for f in hom_by_equations(vv, power, 0):
            raw.append(it.presented_tensor(adj, N, w, f))
    reducer = RowReducer()
    independent = [t for t in raw if t.coords and reducer.add(t.coords)]
    return it.ITSubspace(N, tuple(independent), tuple(raw))


def invert_diag(m):
    """The inverse of a diagonal map."""
    ent = {}
    for (i, j), v in m.entries.items():
        if i != j:
            raise ValueError("not a diagonal map")
        ent[(i, j)] = 1 / Fraction(v)
    return sl.SuperMap(m.codomain, m.domain, m.parity, ent)


def sn_action_map(adj, N, perm):
    """The signed permutation action on g^(x)N, composed from adjacent super permutations."""
    g = adj.module.space
    out = sl.identity(adj.power_space(N))
    for i in it._adjacent_swaps(N, perm):
        left = adj.power_space(i) if i else sl.UNIT
        right = adj.power_space(N - i - 2) if N - i - 2 else sl.UNIT
        swap = reduce(sl.tensor_map,
                      (sl.identity(left), sl.super_permutation(g, g), sl.identity(right)))
        out = swap @ out
    return out


def adjoint_via_form(adj, G, m_deg, n_deg):
    """G* = (b^(x)M)^-1 . iota_M^-1 . G^T . b~_N as a composite of g^(x)N-sized maps."""
    binv_pow = adj.b_inv
    for _ in range(m_deg - 1):
        binv_pow = sl.tensor_map(binv_pow, adj.b_inv)
    iota_m_inv = invert_diag(it._iota_chain(adj, m_deg))
    return binv_pow @ iota_m_inv @ sl.super_transpose(G) @ it.dualizing_map(adj, n_deg)


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
        for pos, d in enumerate(it._digits(flat, N, gdim)):
            sign = -1 if (gen.parity and lead_parity % 2) else 1
            place = gdim ** (N - 1 - pos)
            for i, v in by_col.get(d, ()):
                key = flat + (i - d) * place
                out[key] = out.get(key, 0) + sign * v * c
            lead_parity += par[d]
    return sl.nonzero(out)


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
