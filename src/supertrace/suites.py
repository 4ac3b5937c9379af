"""The exhaustive verification suites behind the `verify` command.

Every check is an exact equality of rationals or matrices; there are no
tolerances anywhere.  The trace and tensor suites run over a fixed roster of
sl(2|1) modules small enough that the whole battery finishes in seconds while
still exercising every statement: two independent witnesses for one module,
odd morphisms through parity shifts, tensor and direct-sum closures, and the
invariant-tensor pairings at degrees up to the configured cap.
"""

from __future__ import annotations

import os
import random
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import permutations
from operator import matmul

from . import invtensor as it
from . import mtrace as mt
from . import repmod as rm
from . import superlin as sl
from .exactnum import rat_str
from .linalg import RowReducer
from .report import CheckResult, check, check_true, info, report_dict
from .rootdata import build_root_system, weight


@dataclass(frozen=True, eq=False)
class Roster:
    """The standard sl(2|1) verification roster: modules, witnesses, Hom bases."""

    rs: object
    std: rm.GModule
    A: rm.GModule          # K(0|1)
    B: rm.GModule          # K(1|1)
    C: rm.GModule          # K(0|1) (x) std
    D: rm.GModule          # parity shift of K(0|1)
    wA: rm.IdealWitness
    wB: rm.IdealWitness
    wB_via_A: rm.IdealWitness
    wC: rm.IdealWitness
    wD: rm.IdealWitness
    cache: dict  # Kac module cache lookups: hits, misses, writes

    def probes(self, N: int) -> list[rm.IdealWitness]:
        """The probe witnesses of the degree-N reachable tensors: wA and wB_via_A up to degree 2, wA above."""
        return [self.wA, self.wB_via_A] if N <= 2 else [self.wA]


def build_roster(cache_dir: str | None = None) -> Roster:
    rs = build_root_system("sl", 2, 1)
    std = rm.standard_module(rs)
    cache = {"hits": 0, "misses": 0, "writes": 0}

    def kac(lam):
        path = rm.kac_cache_path(cache_dir, rs, lam) if cache_dir else None
        existed = path is not None and os.path.exists(path)
        mod = rm.cached_kac_module(rs, lam, cache_dir)
        if path is not None:
            cache["hits" if existed else "misses"] += 1
            cache["writes"] += not existed and os.path.exists(path)
        return mod

    A = kac(weight(0, 1))
    B = kac(weight(1, 1))
    wA = rm.trivial_witness(A)
    wC, wD = rm.witness_tensor(wA, std), rm.witness_parity_shift(wA)
    return Roster(rs, std, A, B, wC.V, wD.V, wA, rm.trivial_witness(B), rm.ideal_witness(B, A),
                  wC, wD, cache)


def _every(check_id: str, outcomes: list[bool], detail: str) -> CheckResult:
    """Holds when every comparison in ``outcomes`` held; fails when nothing was compared."""
    return check_true(check_id, bool(outcomes) and all(outcomes),
                      detail if outcomes else "nothing was compared")


def _rand_frac(rng: random.Random) -> Fraction:
    num = rng.randint(-6, 6)
    den = rng.randint(1, 4)
    return Fraction(num, den)


def _rand_combination(basis, rng: random.Random):
    out = None
    for m in basis:
        term = _rand_frac(rng) * m
        out = term if out is None else out + term
    return out


# -- graded linear algebra suite -------------------------------------------------


def _random_homogeneous_map(rng, U: sl.SuperSpace, V: sl.SuperSpace, parity: int) -> sl.SuperMap:
    ent = {}
    for i in range(V.dim):
        for j in range(U.dim):
            if (V.parities[i] + U.parities[j]) % 2 == parity and rng.random() < 0.7:
                ent[(i, j)] = _rand_frac(rng)
    return sl.SuperMap(U, V, parity, ent)


def suite_superlin(seed: int = 2024) -> list[CheckResult]:
    rng = random.Random(seed)
    out: list[CheckResult] = []
    V = sl.super_space(2, 1)
    W = sl.super_space(1, 2)
    VV = sl.tensor_space(V, V)

    out.append(check("superlin.tensor-dims", (9, 5, 4), (VV.dim, VV.dim_even, VV.dim_odd)))

    f = _random_homogeneous_map(rng, V, V, 1)
    g = _random_homogeneous_map(rng, V, V, 1)
    idv = sl.identity(V)
    lhs = sl.tensor_map(idv, g) @ sl.tensor_map(f, idv)
    rhs = -1 * (sl.tensor_map(f, idv) @ sl.tensor_map(idv, g))
    out.append(check_true("superlin.interchange-sign", lhs == rhs,
                          "odd maps anticommute across tensor slots"))

    f2 = _random_homogeneous_map(rng, V, W, 1)
    g2 = _random_homogeneous_map(rng, W, V, 1)
    out.append(check_true(
        "superlin.transpose-antihomomorphism",
        sl.super_transpose(f2 @ g2) + sl.super_transpose(g2) @ sl.super_transpose(f2)
        == sl.zero_map(sl.dual_space(W), sl.dual_space(W), 0),
        "(fg)* = -g*f* for odd f, g",
    ))

    tau = sl.super_permutation(V, W)
    tau_back = sl.super_permutation(W, V)
    out.append(check_true("superlin.permutation-involution",
                          tau_back @ tau == sl.identity(sl.tensor_space(V, W)),
                          "tau . tau = Id"))
    odd_point = sl.super_space(0, 1)
    out.append(check("superlin.permutation-odd-odd", Fraction(-1),
                     sl.super_permutation(odd_point, odd_point).entry(0, 0)))

    zig = sl.tensor_map(sl.identity(V), sl.ev(V)) @ sl.tensor_map(sl.coev(V), sl.identity(V))
    out.append(check_true("superlin.zigzag", zig == sl.identity(V), "(Id(x)ev).(coev(x)Id) = Id"))
    dv = sl.dual_space(V)
    zig2 = sl.tensor_map(sl.ev(V), sl.identity(dv)) @ sl.tensor_map(sl.identity(dv), sl.coev(V))
    out.append(check_true("superlin.zigzag-dual", zig2 == sl.identity(dv),
                          "(ev(x)Id).(Id(x)coev) = Id on the dual"))
    out.append(check("superlin.dimension-loop", Fraction(V.sdim),
                     sl.scalar_of(sl.ev_right(V) @ sl.coev(V))))

    fe = _random_homogeneous_map(rng, V, V, 0)
    ge = _random_homogeneous_map(rng, V, V, 0)
    fo = _random_homogeneous_map(rng, V, V, 1)
    go = _random_homogeneous_map(rng, V, V, 1)
    out.append(check("superlin.trace-cyclic-even", sl.supertrace(fe @ ge), sl.supertrace(ge @ fe)))
    out.append(check("superlin.trace-cyclic-odd", sl.supertrace(fo @ go), -sl.supertrace(go @ fo)))
    out.append(check("superlin.trace-identity", Fraction(1), sl.supertrace(sl.identity(V))))
    balanced = sl.super_space(2, 2)
    out.append(check("superlin.trace-balanced", Fraction(0), sl.supertrace(sl.identity(balanced))))

    big = _random_homogeneous_map(rng, VV, VV, 0)
    out.append(check("superlin.partial-trace-total", sl.supertrace(big),
                     sl.supertrace(sl.partial_supertrace(big, V, V))))
    composite = (
        sl.tensor_map(sl.identity(V), sl.ev_right(V))
        @ sl.tensor_map(big, sl.identity(sl.dual_space(V)))
        @ sl.tensor_map(sl.identity(V), sl.coev(V))
    )
    out.append(check_true("superlin.partial-trace-duality-route",
                          sl.partial_supertrace(big, V, V) == composite,
                          "entrywise ptr equals the ev/coev composite"))
    out.append(check_true(
        "superlin.partial-trace-identity",
        sl.partial_supertrace(sl.identity(VV), V, V) == V.sdim * sl.identity(V),
        "ptr(Id) = sdim(V) Id",
    ))

    flipped, sigma = sl.parity_shift(V)
    out.append(check("superlin.parity-shift-sdim", -V.sdim, flipped.sdim))
    back = sl.parity_shift(flipped)[1] @ sigma
    out.append(check_true("superlin.parity-shift-involution",
                          back == sl.identity(V) and back.parity == 0,
                          "sigma . sigma = Id with even parity"))

    ff, gg = _random_homogeneous_map(rng, V, V, 1), _random_homogeneous_map(rng, V, V, 0)
    fp, gp = _random_homogeneous_map(rng, V, V, 0), _random_homogeneous_map(rng, V, V, 1)
    inter = sl.tensor_map(ff, gg) @ sl.tensor_map(fp, gp)
    expect = sl.tensor_map(ff @ fp, gg @ gp)  # sign (-1)^{p(gg) p(fp)} = +1 here
    out.append(check_true("superlin.tensor-compose", inter == expect,
                          "(f(x)g).(f'(x)g') = +-(ff')(x)(gg')"))
    inter2 = sl.tensor_map(gg, ff) @ sl.tensor_map(gp, fp)
    expect2 = -1 * sl.tensor_map(gg @ gp, ff @ fp)  # sign (-1)^{p(ff) p(gp)} = -1
    out.append(check_true("superlin.tensor-compose-sign", inter2 == expect2,
                          "interchange sign for odd(x)odd"))
    return out


# -- modified trace suite ---------------------------------------------------------


def suite_trace(roster: Roster, seed: int = 2024) -> list[CheckResult]:
    rng = random.Random(seed)
    out: list[CheckResult] = []
    rs, A, B, C, D = roster.rs, roster.A, roster.B, roster.C, roster.D
    wA, wB, wB2, wC, wD = roster.wA, roster.wB, roster.wB_via_A, roster.wC, roster.wD
    idA, idB = sl.identity(A.space), sl.identity(B.space)

    out.append(check("trace.bracket-identity", Fraction(1),
                     mt.bracket(idA, wA), module=A.name))
    out.append(check("trace.bracket-scaling", Fraction(2),
                     mt.bracket(2 * idA, wA)))
    out.append(check("trace.value-identity", Fraction(1, 2),
                     mt.modified_trace(idA, wA), module=A.name))
    out.append(check("trace.witness-independence",
                     mt.modified_trace(idB, wB), mt.modified_trace(idB, wB2),
                     module=B.name, value=mt.modified_trace(idB, wB)))
    out.append(check("trace.closed-form-cross-check", Fraction(2, 3),
                     mt.modified_trace(idB, wB2)))

    # Odd endomorphism of A (+) D built from the parity-shift isomorphism.
    wS = rm.witness_dsum(wA, wD)
    S = wS.V
    sig, sig_inv = rm.sigma_map(A), rm.sigma_inverse(A)
    ent = {}
    for (i, j), v in sig.entries.items():
        ent[(i + A.dim, j)] = v
    for (i, j), v in sig_inv.entries.items():
        ent[(i, j + A.dim)] = v
    f_odd = sl.SuperMap(S.space, S.space, sl.ODD, ent)
    out.append(check("trace.odd-endomorphism-vanishes", Fraction(0),
                     mt.bracket(f_odd, wS), module=S.name))

    # Cyclicity with an even pair (inclusion/projection) and an odd pair (sigma).
    wS2 = rm.witness_dsum(wA, wA)
    S2 = wS2.V
    incl = sl.SuperMap(A.space, S2.space, 0, {(i, i): 1 for i in range(A.dim)})
    proj = sl.SuperMap(S2.space, A.space, 0, {(i, i): 1 for i in range(A.dim)})
    out.append(check("trace.cyclicity-even",
                     mt.modified_trace(incl @ proj, wS2),
                     mt.modified_trace(proj @ incl, wA)))
    out.append(check("trace.cyclicity-odd",
                     mt.modified_trace(sig @ sig_inv, wD),
                     -mt.modified_trace(sig_inv @ sig, wA),
                     note="sign (-1) for an odd pair"))
    out.append(check("trace.parity-shift-negates", -mt.modified_trace(idA, wA),
                     mt.modified_trace(sl.identity(D.space), wD)))

    ends_c = rm.hom_space(C, C, 0)
    out.append(check_true("trace.roster-endomorphisms", len(ends_c) >= 2,
                          f"End({C.name}) even dimension {len(ends_c)}"))
    u1, u2 = ends_c[0], ends_c[1]
    a, b = _rand_frac(rng), _rand_frac(rng)
    out.append(check("trace.linearity",
                     a * mt.modified_trace(u1, wC) + b * mt.modified_trace(u2, wC),
                     mt.modified_trace(a * u1 + b * u2, wC)))

    # Tensor factorization, including a non-scalar second factor and an
    # ideal-member second factor (where both sides vanish).
    idstd = sl.identity(roster.std.space)
    out.append(check("trace.tensor-factorization",
                     mt.modified_trace(idA, wA) * sl.supertrace(idstd),
                     mt.modified_trace(sl.tensor_map(idA, idstd), wC)))
    U2 = rm.direct_sum_module(roster.std, roster.std)
    wAU2 = rm.witness_tensor(wA, U2)
    swap = sl.SuperMap(
        U2.space, U2.space, 0,
        {(i, i + roster.std.dim): 1 for i in range(roster.std.dim)}
        | {(i + roster.std.dim, i): 1 for i in range(roster.std.dim)},
    )
    out.append(check("trace.tensor-factorization-nonscalar",
                     mt.modified_trace(idA, wA) * sl.supertrace(swap),
                     mt.modified_trace(sl.tensor_map(idA, swap), wAU2),
                     second_factor="swap on std(+)std"))
    wAB = rm.witness_tensor(wA, B)
    out.append(check("trace.tensor-factorization-ideal", Fraction(0),
                     mt.modified_trace(sl.tensor_map(idA, idB), wAB),
                     note="second factor lies in the ideal, so str(g) = 0"))

    ok4 = all(
        mt.modified_trace(u, wC)
        == mt.modified_trace(sl.partial_supertrace(u, A.space, roster.std.space), wA)
        for u in ends_c
    )
    out.append(check_true("trace.partial-trace-property", ok4,
                          "str'(f) = str'(ptr f) on an End basis", module=C.name))

    # Conjugation invariance with even and odd operators.
    AA = rm.tensor_module(A, A)
    AD = rm.tensor_module(A, D)
    h_even = rm.hom_space(AA, AA, 0)
    h_odd = rm.hom_space(AD, AA, 1)
    ok_even = True
    for _ in range(3):
        h = _rand_combination(h_even, rng)
        fmap = _rand_frac(rng) * idA
        gmap = _rand_frac(rng) * idA
        l, r = mt.trace_invariance_sides(h, A, A, A, A, fmap, gmap, wA, wA)
        ok_even = ok_even and l == r
    out.append(check_true("trace.conjugation-invariance-even", ok_even,
                          "both sides equal for even operators"))
    ok_odd = True
    for _ in range(3):
        h = _rand_combination(h_odd, rng)
        fmap = _rand_frac(rng) * sig
        gmap = _rand_frac(rng) * idA
        l, r = mt.trace_invariance_sides(h, A, D, A, A, fmap, gmap, wA, wD)
        ok_odd = ok_odd and l == r
    out.append(check_true("trace.conjugation-invariance-odd", ok_odd,
                          "sign (-1)^{p(Psi)p(f)} exercised with odd Psi and odd f"))

    # The genuine supertrace vanishes on morphisms of witnessed modules.
    out.append(_every("trace.supertrace-vanishes",
                      [mt.classical_str_is_zero(w, fmap) for V, w in ((A, wA), (B, wB), (C, wC))
                       for fmap in rm.hom_space(V, V, None)],
                      "str = 0 on End bases of witnessed modules"))
    # Control: the projection onto the (even) highest weight vector is not
    # g-linear and has supertrace 1.
    control = sl.SuperMap(A.space, A.space, 0, {(0, 0): 1})
    out.append(check("trace.supertrace-nonzero-control", (Fraction(1), False),
                     (sl.supertrace(control), rm._check_g_linear(control, A, A)),
                     note="(str, g-linear) of the projection onto basis vector 0"))
    out.append(check("trace.scalar-rule", rs.mod_sdim(weight(1, 1)) * 5,
                     mt.modified_trace(5 * idB, wB2),
                     note="str' of c Id on a typical module is c d(V)"))
    out.append(check("trace.sdim-zero", (0, 0), (A.sdim, B.sdim)))
    return out


# -- invariant tensor suite --------------------------------------------------------


def suite_tensors(
    roster: Roster, max_degree: int = 3, seed: int = 2024
) -> list[CheckResult]:
    rng = random.Random(seed)
    out: list[CheckResult] = []
    adj = it.build_adjoint(roster.rs)
    defect = it.form_defect(adj.module, adj.b)
    if defect is None and adj.b_inv @ adj.b != sl.identity(adj.module.space):
        defect = "b_inv . b is not the identity"
    out.append(check_true("tensors.form-axioms", defect is None,
                          defect or "even, supersymmetric, invariant, b_inv . b = Id"))
    _, e, f, h = rm.sl_generators(roster.rs)
    h1, e1, f1 = (adj.basis_matrices.index(x[0].entries) for x in (h, e, f))
    out.append(check("tensors.form-sample", (Fraction(2), Fraction(1), Fraction(0)),
                     (adj.b.entry(h1, h1), adj.b.entry(f1, e1), adj.b.entry(e1, e1)),
                     note="b(h1,h1), b(e1,f1), b(e1,e1) in the standard representation"))

    degrees = list(range(1, max_degree + 1))
    even_bases = {}
    for N in degrees:
        even, odd = it.invariant_tensors(adj, N, cap=max_degree)
        even_bases[N] = even
        out.append(check(f"tensors.invariants-even-degree-{N}", 0, len(odd),
                         even_dim=len(even)))

    cas = it.casimir_coords(adj)
    member = RowReducer()
    for v in even_bases.get(2, []):
        member.add(v)
    out.append(check_true("tensors.casimir-membership",
                          it.is_invariant(adj, 2, cas) and member.contains(cas),
                          "form-inverse tensor is invariant and lies in the degree-2 basis span"))

    spaces = {}
    for N in degrees:
        spaces[N] = it.it_space(adj, N, roster.probes(N))
        out.append(info(f"tensors.reachable-dimension-degree-{N}",
                        f"dim {len(spaces[N].elements)} of invariant dim {len(even_bases[N])}",
                        probes=",".join(w.V.name for w in roster.probes(N))))

    values = [pair for N in degrees
              for row in it.classical_gram(adj, spaces[N].elements, even_bases[N]) for pair in row]
    out.append(_every("tensors.kernel-property", [ve == 0 for ve, _ in values],
                      "extended form vanishes against all invariants"))
    out.append(_every("tensors.route-agreement", [ve == vs for ve, vs in values],
                      "combinatorial and supertrace routes agree"))

    def random_even_tensor(N: int) -> dict:
        evens = [k for k, p in enumerate(adj.power_space(N).parities) if not p]
        coords = {rng.choice(evens): _rand_frac(rng) for _ in range(5)}
        return {k: v for k, v in coords.items() if v}

    agree = all(
        it.extended_form(adj, t1, N, t2, N) == it.pairing_as_composite(adj, t1, t2, N)
        for N in degrees
        for t1, t2 in [(random_even_tensor(N), random_even_tensor(N)) for _ in range(3)]
    )
    out.append(check_true("tensors.extended-form-composite", agree,
                          "signed product formula equals the map-composition route"))
    supersym = all(
        it.extended_form(adj, t1, N, t2, N) == it.extended_form(adj, t2, N, t1, N)
        for N in degrees
        for t1, t2 in [(random_even_tensor(N), random_even_tensor(N)) for _ in range(3)]
    )
    out.append(check_true("tensors.extended-form-supersymmetric", supersym,
                          "symmetric on even tensors"))
    other = 3 if max_degree >= 3 else 1
    t1, t2 = random_even_tensor(2), random_even_tensor(other)
    out.append(check("tensors.extended-form-degree-mismatch", Fraction(0),
                     it.extended_form(adj, t1, 2, t2, other)))

    coords = {N: [t.coords for t in spaces[N].elements] for N in degrees}
    grams = {N: it.modified_gram(adj, spaces[N].elements, coords[N]) for N in degrees}
    out.append(_every("tensors.modified-form-symmetric",
                      [v == gram[j][i] for gram in grams.values() for i, row in enumerate(gram)
                       for j, v in enumerate(row)],
                      "Gram matrices symmetric at all degrees"))
    nonzero = any(v for gram in grams.values() for row in gram for v in row)
    out.append(check_true("tensors.modified-form-nonzero", nonzero,
                          f"degree-2 Gram {[[rat_str(v) for v in r] for r in grams.get(2, [])]}"))
    for N in degrees:
        rank = RowReducer()
        for row in grams[N]:
            rank.add({j: v for j, v in enumerate(row) if v})
        out.append(info(f"tensors.modified-gram-rank-degree-{N}",
                        f"rank {len(rank)} of {len(grams[N])}"))
    classical = {}
    for N in degrees:
        phis = [it.dual_coords(adj, N, x) for x in coords[N]]  # each element dualized once
        classical[N] = [sum(phi[r] * c for r, c in y.items() if r in phi) for phi in phis for y in coords[N]]
    out.append(_every(
        "tensors.classical-gram-recorded", [v == 0 for g in classical.values() for v in g],
        "extended-form Gram on reachable invariants is zero, entries per degree "
        + str({N: len(g) for N, g in classical.items()}),
    ))

    # Presentation independence: re-present every reachable element through a direct sum with a
    # same-core partner, and compare any duplicate presentations.  A column enters the form only
    # through its coordinates, so the rows of the re-presentations are the ones to pair.
    same = []
    represented = {}
    for N in degrees:
        elems, firsts, seconds = spaces[N].elements, [], []
        for i, t in enumerate(elems):
            partner = next((u for u in spaces[N].raw
                            if u.witness.V0 is t.witness.V0 and u is not t), None)
            if partner is not None:
                firsts.append(i)
                seconds.append(it.it_sum(adj, t, partner, 0))
        represented[N] = len(seconds)
        rows = it.modified_gram(adj, seconds, coords[N])
        same += [second.coords == elems[i].coords and row == grams[N][i]
                 for i, second, row in zip(firsts, seconds, rows)]
    dup_pairs = 0
    for N in degrees:
        pairs = [(prior, cand) for k, cand in enumerate(spaces[N].raw) if cand.coords
                 for prior in spaces[N].raw[:k] if prior.coords == cand.coords]
        dup_pairs += len(pairs)
        involved = list({id(t): t for pair in pairs for t in pair}.values())
        rows = dict(zip(map(id, involved), it.modified_gram(adj, involved, coords[N])))
        same += [rows[id(a)] == rows[id(b)] for a, b in pairs]
    out.append(_every("tensors.presentation-independence", same,
                      f"direct-sum re-presentations per degree {represented} "
                      f"and {dup_pairs} duplicate pairs"))

    # Vector-space and ideal closure, with the explicit constructions.  The partner of x is the first
    # same-core presentation with non-zero coordinates: x itself, the first non-zero one of its degree.
    sums = []
    if spaces[2].elements:
        x, lam = spaces[2].elements[0], Fraction(3, 2)
        expected = sl._summed(((k, lam * v) for k, v in x.coords.items()), x.coords)
        sums.append(it.it_sum(adj, x, x, lam).coords == expected)
    out.append(_every("tensors.closure-sum", sums,
                      "direct-sum presentation matches coordinate addition"))

    products = []
    if even_bases.get(2) and spaces[2].elements:
        tprime = even_bases[2][0]
        t1p = spaces[2].elements[0]
        product = it.it_product(adj, tprime, 2, t1p)
        expected = it.tensor_coords(tprime, t1p.coords, adj.gdim ** 2)
        products.append(product.coords == expected and product.degree == 4
                        and it.is_invariant(adj, 4, product.coords))
    out.append(_every("tensors.closure-product", products,
                      "invariant (x) reachable lands invariantly in degree 4"))

    # The S2 and S3 moves of the reachable elements, built once per permutation; both checks below read them.
    moves = {(N, perm): [it.sn_action(adj, N, perm, t) for t in spaces[N].elements]
             for N in (2, 3) if N <= max_degree and spaces[N].elements for perm in permutations(range(N))}
    out.append(_every("tensors.permutation-orthogonality",
                      [it.modified_gram(adj, moved, [t.coords for t in moved]) == grams[N]
                       for (N, _), moved in moves.items()],
                      "S2 and S3 preserve the modified Gram matrices"))

    # Functorial adjoints: permutations and a contraction-insertion operator.  G* comes from
    # the form, not from the inverse permutation; each permutation reaches adjoint_coords as a tuple.
    cases = list(moves.items())
    if spaces[2].elements:
        G = sl.column_map(adj.power_space(2), it.casimir_coords(adj)) @ it.pairing_map(adj)
        cases.append(((2, G), [it.PresentedTensor(2, G.apply(x.coords), x.witness, partial(matmul, G, x.f))
                               for x in spaces[2].elements]))
    adjoints = [it.modified_gram(adj, moved, coords[N]) == it.modified_gram(
                    adj, spaces[N].elements, [it.adjoint_coords(adj, G, N, N, y) for y in coords[N]])
                for (N, G), moved in cases]
    out.append(_every("tensors.functorial-adjoint", adjoints,
                      "(G t1, t2)' = (t1, G* t2)' for permutations and contraction-insertion"))
    return out


# -- aggregation ---------------------------------------------------------------------


SUITES = ("superlin", "trace", "tensors")


def _raised(name: str, exc: Exception) -> CheckResult:
    """A failed check for an exception, with the innermost frame that raised it."""
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return CheckResult(
        f"{name}.raised", False, "no exception", f"{type(exc).__name__}: {exc}",
        {"at": f"{os.path.basename(frame.filename)}:{frame.lineno} in {frame.name}"},
    )


def run_verification(
    suites,
    algebra: str = "sl21",
    max_degree: int = 3,
    cache_dir: str | None = None,
    seed: int = 2024,
) -> dict:
    """Run the requested suites and aggregate one exact-check report.

    A suite (or the roster build) that raises is recorded as the failed check
    ``<suite>.raised`` and the other suites still run; the suites that need
    the roster are skipped when it could not be built.  The report's
    ``timings`` block holds the wall seconds of the roster build and of each
    suite that ran.  Its ``run`` block records how it was run: seed, max
    degree, algebra (None, as at the top, unless the trace or tensors suite,
    the only ones that read it, is asked for), package and module construction
    versions, and the Kac module cache hits, misses and writes of the roster
    build (all 0 when no roster was needed, null when its build failed).
    ``suites`` lists names of ``SUITES`` or "all"; ValueError for any other entry, a string or none.
    """
    from . import __version__

    if isinstance(suites, str) or not suites:
        raise ValueError(f"suites must be a non-empty list of names, got {suites!r}")
    unknown = [s for s in suites if s not in (*SUITES, "all")]
    if unknown:
        raise ValueError(f"unknown suites {unknown}; choose from {(*SUITES, 'all')}")
    wanted = list(SUITES) if "all" in suites else [s for s in SUITES if s in suites]
    results: list[CheckResult] = []
    timings: dict[str, float] = {}
    roster = None
    if "trace" in wanted or "tensors" in wanted:
        start = time.perf_counter()
        try:
            roster = build_roster(cache_dir)
        except rm.ModuleIntegrityError as exc:
            results.append(CheckResult(
                "roster.cache-integrity", False, "loadable cached modules", str(exc),
            ))
        except Exception as exc:
            results.append(_raised("roster", exc))
        timings["roster"] = time.perf_counter() - start
    else:
        algebra = None
    runs = {
        "superlin": lambda: suite_superlin(seed),
        "trace": lambda: suite_trace(roster, seed),
        "tensors": lambda: suite_tensors(roster, max_degree, seed),
    }
    for name in wanted:
        if name == "superlin" or roster is not None:
            start = time.perf_counter()
            try:
                results.extend(runs[name]())
            except Exception as exc:
                results.append(_raised(name, exc))
            timings[name] = time.perf_counter() - start
    run = {
        "seed": seed,
        "max_degree": max_degree,
        "algebra": algebra,
        "version": __version__,
        "construction_version": rm.CONSTRUCTION_VERSION,
        "cache": roster.cache if roster is not None else (
            None if "roster" in timings else {"hits": 0, "misses": 0, "writes": 0}),
    }
    return report_dict("+".join(wanted), algebra, results, timings, run)
