"""Slow reference routes of the invariant-tensor layer, kept as test oracles.

Each builds g^(x)N-sized modules or maps, or solves a generic Hom system,
where the library works on coordinates: the tests compare the two.
"""

from supertrace import invtensor as it
from supertrace import repmod as rm
from supertrace import superlin as sl
from supertrace.linalg import RowReducer


def it_space_generic(adj, N, probes):
    """it_space by the generic solve of Hom(V (x) V*, g^(x)N) over both modules."""
    power = adj.power(N)
    raw = []
    for w in probes:
        vv = rm.tensor_module(w.V, rm.dual_module(w.V, check=False), check=False)
        for f in rm._hom_generic(vv, power, 0):
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
        ent[(i, j)] = 1 / v
    return sl.SuperMap(m.codomain, m.domain, m.parity, ent)


def sn_action_map(adj, N, perm):
    """The signed permutation action on g^(x)N, composed from adjacent super permutations."""
    g = adj.module.space
    out = sl.identity(adj.power_space(N))
    for i in it._adjacent_swaps(N, perm):
        left = adj.power_space(i) if i else sl.UNIT
        right = adj.power_space(N - i - 2) if N - i - 2 else sl.UNIT
        swap = sl.tensor_many(sl.identity(left), sl.super_permutation(g, g), sl.identity(right))
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
