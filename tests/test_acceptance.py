"""Acceptance gate: every stated criterion checked as an exact equality.

One test per criterion, each printing a single pass line (run with -s to see
them); all tolerances are zero because the arithmetic is exact throughout.
"""

import random
from fractions import Fraction as F
from functools import partial
from itertools import permutations
from operator import matmul

import pytest

import oracles
from conftest import rand_combination
from supertrace import invtensor as it
from supertrace import mtrace as mt
from supertrace import repmod as rm
from supertrace import superlin as sl
from supertrace.rootdata import build_root_system, weight


def passed(num, message):
    print(f"acceptance criterion {num}: PASS - {message}")


@pytest.fixture(scope="module")
def shifted(roster):
    return rm.parity_shift_module(roster.A), rm.witness_parity_shift(roster.wA)


@pytest.fixture(scope="module")
def it_spaces(roster, adj):
    return {
        2: it.it_space(adj, 2, [roster.wA, roster.wB_via_A]),
        3: it.it_space(adj, 3, [roster.wA]),
    }


def test_criterion_01_closed_form_dimension():
    samples = [F(1), F(2), F(7), F(1, 2), F(-7, 3), F(5, 4), F(-9, 2), F(11), F(3, 7), F(-13, 5)]
    for n in (2, 3, 4):
        rs = build_root_system("sl", n, 1)
        excluded = {F(-i) for i in range(n)}
        count = 0
        for a in samples:
            if a in excluded:
                continue
            lam = weight(*([0] * (n - 1) + [a]))
            expect = F(1)
            for i in range(n):
                expect /= a + i
            assert rs.mod_sdim(lam) == expect
            count += 1
        assert count >= 10
    passed(1, "sl(n|1) closed form matches the root-product definition, n = 2, 3, 4")


def test_criterion_02_classical_limit(rs21, rs31):
    families = {
        "sl(2|1)": (rs21, [weight(0, a) for a in (1, 2, F(1, 2), -3, 7)]
                    + [weight(1, 1), weight(1, F(3, 2)), weight(2, -4), weight(3, F(1, 3)), weight(5, 2)]),
        "sl(3|1)": (rs31, [weight(0, 0, a) for a in (1, 2, F(5, 2), -4)]
                    + [weight(1, 0, 1), weight(0, 1, F(1, 2)), weight(1, 1, 1),
                       weight(2, 0, -5), weight(0, 2, 3), weight(1, 2, F(7, 3))]),
        "osp(2|2)": (build_root_system("osp2", 1),
                     [weight(*ab) for ab in ((1, 1), (F(1, 2), 1), (3, 1), (-2, 0), (5, 2),
                                             (F(7, 2), 0), (-1, 3), (2, 4), (F(-5, 3), 1), (4, 0))]),
    }
    for name, (rs, weights) in families.items():
        assert len(weights) >= 10
        for lam in weights:
            assert rs.is_typical(lam), (name, lam)
            series = rs.qmod_sdim(lam, 8)
            assert series.constant_term == rs.mod_sdim(lam)
            assert all(series.coeffs[k] == 0 for k in range(1, 9, 2))
    passed(2, "constant terms match and odd coefficients vanish on 30 typical weights")


def test_criterion_03_typicality_locus(rs21):
    expected = {0: {F(0), F(-1)}, 1: {F(0), F(-2)}, 2: {F(0), F(-3)}}
    for a1, expect in expected.items():
        detected = set()
        poles = set()
        t = F(-5)
        while t <= 5:
            w = weight(a1, t)
            if not rs21.is_typical(w):
                detected.add(t)
            if any(v == 0 for v in rs21.atypicality_factors(w)):
                poles.add(t)
            t += F(1, 2)
        assert detected == poles == expect
        assert all(x.denominator == 1 for x in detected)
    passed(3, "atypical points equal the pole set and are integers for a1 in {0,1,2}")


def test_criterion_04_vanishing_supertrace(roster):
    for V, w in ((roster.A, roster.wA), (roster.B, roster.wB), (roster.C, roster.wC)):
        basis = rm.hom_space(V, V, 0)
        assert basis
        for f in basis:
            assert sl.supertrace(f) == 0
            assert mt.classical_str_is_zero(w, f)
    for lam in (weight(0, 1), weight(1, 1), weight(0, 2), weight(2, F(1, 2))):
        assert rm.kac_module(roster.rs, lam).sdim == 0
    passed(4, "str = 0 on End bases and sdim = 0 for all constructed typical modules")


def test_criterion_05_witness_independence(roster):
    idb = sl.identity(roster.B.space)
    via_trivial = mt.modified_trace(idb, roster.wB)
    via_other = mt.modified_trace(idb, roster.wB_via_A)
    # Independent oracle for d(1|1): (a1+1)/(a(a+a1+1)) at a1 = a = 1.
    assert via_trivial == via_other == F(2, 3) == F(2) / (1 * (1 + 1 + 1))
    assert roster.rs.mod_sdim(weight(1, 1)) == F(2, 3)
    # A third core with a different modified dimension (1/6, so the bracket
    # scalar must come out exactly 4) still lands on the same value.
    K02 = rm.kac_module(roster.rs, weight(0, 2))
    w3 = rm.ideal_witness(roster.B, K02)
    assert mt.bracket(idb, w3) == 4
    assert mt.modified_trace(idb, w3) == F(2, 3)
    passed(5, "str'(Id) agrees through three witnesses with the value 2/3")


def test_criterion_06_trace_properties(roster, shifted):
    rng = random.Random(60)
    A, B, C, std = roster.A, roster.B, roster.C, roster.std
    D, wD = shifted
    wA, wB, wC = roster.wA, roster.wB, roster.wC
    witnessed = [wA, wB, roster.wB_via_A, wC, wD]
    assert len({w.V for w in witnessed}) >= 3

    sig, sig_inv = rm.sigma_map(A), rm.sigma_inverse(A)
    Dstd = rm.tensor_module(D, std)
    odd_maps = [
        (sig, A, D),
        (sig_inv, D, A),
        (sl.tensor_map(sig, sl.identity(std.space)), C, Dstd),
    ]
    for m, src, dst in odd_maps:
        assert m.parity == sl.ODD and rm._check_g_linear(m, src, dst)
    assert len(odd_maps) >= 3

    ends_c = rm.hom_space(C, C, 0)
    S2 = rm.direct_sum_module(A, A)
    wS2 = rm.witness_dsum(wA, wA)
    incl = sl.SuperMap(A.space, S2.space, 0, {(i, i): F(1) for i in range(A.dim)})
    proj = sl.SuperMap(S2.space, A.space, 0, {(i, i): F(1) for i in range(A.dim)})
    even_maps = [sl.identity(A.space), sl.identity(B.space), ends_c[0], ends_c[1], incl, proj]
    assert len(even_maps) >= 5

    # (1) linearity on a two-dimensional endomorphism space.
    a, b = F(5, 3), F(-2, 7)
    assert mt.modified_trace(a * ends_c[0] + b * ends_c[1], wC) == (
        a * mt.modified_trace(ends_c[0], wC) + b * mt.modified_trace(ends_c[1], wC)
    )
    # (2) cyclicity, even and odd pairs.
    assert mt.modified_trace(incl @ proj, wS2) == mt.modified_trace(proj @ incl, wA)
    assert mt.modified_trace(sig @ sig_inv, wD) == -mt.modified_trace(sig_inv @ sig, wA)
    # (3) factorization, including a vanishing case with the factor in the ideal.
    g_std = F(3) * sl.identity(std.space)
    assert mt.modified_trace(sl.tensor_map(sl.identity(A.space), g_std), rm.witness_tensor(wA, std)) == (
        mt.modified_trace(sl.identity(A.space), wA) * sl.supertrace(g_std)
    )
    wAB = rm.witness_tensor(wA, B)
    assert mt.modified_trace(sl.tensor_map(sl.identity(A.space), sl.identity(B.space)), wAB) == 0
    # (4) the partial trace identity over an End basis.
    for u in ends_c:
        assert mt.modified_trace(u, wC) == mt.modified_trace(
            sl.partial_supertrace(u, A.space, std.space), wA
        )
    passed(6, "properties (1)-(4) hold exactly on a roster with 5 even and 3 odd maps")


def test_criterion_07_invariance(roster, shifted):
    rng = random.Random(70)
    A, wA = roster.A, roster.wA
    D, wD = shifted
    AA = rm.tensor_module(A, A)
    AD = rm.tensor_module(A, D)
    DA = rm.tensor_module(D, A)
    basis_even = rm.hom_space(AA, AA, 0)
    basis_mixed = rm.hom_space(AD, DA, 0)
    basis_odd = rm.hom_space(AD, AA, 1)
    assert basis_even and basis_mixed and basis_odd
    sig = rm.sigma_map(A)
    ida = sl.identity(A.space)
    checked = 0
    nonzero = 0
    for _ in range(4):  # even Psi, even f
        h = rand_combination(basis_even, rng)
        f = F(rng.randint(1, 5)) * ida
        g = F(rng.randint(1, 5)) * ida
        left, right = mt.trace_invariance_sides(h, A, A, A, A, f, g, wA, wA)
        assert left == right
        checked += 1
        nonzero += left != 0
    for _ in range(3):  # even Psi, odd f and odd g
        h = rand_combination(basis_mixed, rng)
        f = F(rng.randint(1, 5)) * sig
        g = F(rng.randint(1, 5)) * rm.sigma_inverse(A)
        left, right = mt.trace_invariance_sides(h, A, D, D, A, f, g, wD, wD)
        assert left == right
        checked += 1
    for _ in range(3):  # odd Psi, odd f: the sign -1 matters
        h = rand_combination(basis_odd, rng)
        f = F(rng.randint(1, 5)) * sig
        g = F(rng.randint(1, 5)) * ida
        left, right = mt.trace_invariance_sides(h, A, D, A, A, f, g, wA, wD)
        assert left == right
        checked += 1
        nonzero += left != 0
    assert checked == 10 and nonzero >= 2
    passed(7, "conjugation invariance holds on 10 randomized g-linear triples")


def test_criterion_08_evenness_of_invariants(adj):
    dims = {}
    for N in (1, 2, 3):
        even, odd = it.invariant_tensors(adj, N)
        assert odd == []
        dims[N] = len(even)
    assert dims[1] == 0 and dims[2] >= 1
    passed(8, f"all invariant tensors even for N <= 3 (dims {dims})")


def test_criterion_09_kernel_property(adj, it_spaces):
    pairs = 0
    for N, space in it_spaces.items():
        even, _ = it.invariant_tensors(adj, N)
        for t in space.elements:
            for tp in even:
                route_ext, route_str = it.classical_gram(adj, [t], [tp])[0][0]
                assert route_ext == route_str == 0
                pairs += 1
    assert pairs
    passed(9, f"extended form vanishes on {pairs} reachable-vs-invariant pairs, both routes agreeing")


def test_criterion_10_modified_form(adj, it_spaces):
    grams = {}
    for N, space in it_spaces.items():
        elems = space.elements
        assert elems
        gram = [[it.modified_form(adj, x, y) for y in elems] for x in elems]
        assert gram == [list(r) for r in zip(*gram)]
        grams[N] = gram
    assert any(v for g in grams.values() for row in g for v in row)

    # Presentation independence through a direct-sum re-presentation.
    x = it_spaces[2].elements[0]
    partner = next(u for u in it_spaces[2].raw if u.witness.V0 is x.witness.V0 and u is not x)
    second = it.it_sum(adj, x, partner, 0)
    assert second.coords == x.coords
    for other in it_spaces[2].elements:
        assert it.modified_form(adj, x, other) == it.modified_form(adj, second, other)

    for N in (2, 3):
        elems = it_spaces[N].elements
        for perm in permutations(range(N)):
            pmap = oracles.sn_action_map(adj, N, perm)
            moved = [
                it.PresentedTensor(N, pmap.apply(t.coords), t.witness, partial(matmul, pmap, t.f))
                for t in elems
            ]
            after = [[it.modified_form(adj, x, y) for y in moved] for x in moved]
            assert after == grams[N]
    passed(10, "modified form symmetric, presentation independent; S2 and S3 act orthogonally")


def test_criterion_11_structural_oracles(roster, shifted, adj):
    D, _ = shifted
    modules = [roster.std, roster.A, roster.B, roster.C, D, adj.module,
               rm.dual_module(roster.A), rm.tensor_module(roster.A, roster.A)]
    for mod in modules:
        rm.verify_relations(mod)
        V = mod.space
        dv = sl.dual_space(V)
        left = sl.tensor_map(sl.identity(V), sl.ev(V)) @ sl.tensor_map(sl.coev(V), sl.identity(V))
        right = sl.tensor_map(sl.ev(V), sl.identity(dv)) @ sl.tensor_map(sl.identity(dv), sl.coev(V))
        assert left == sl.identity(V) and right == sl.identity(dv)
    rs31 = build_root_system("sl", 3, 1)
    for rs, lam, dim_v0 in (
        (roster.rs, weight(0, 1), 1),
        (roster.rs, weight(1, 1), 2),
        (roster.rs, weight(3, F(1, 2)), 4),
        (rs31, weight(0, 0, 2), 1),
        (rs31, weight(1, 0, 1), 3),
    ):
        mod = rm.kac_module(rs, lam)
        assert mod.dim == 2 ** (rs.m * rs.n) * dim_v0
    passed(11, "generator relations, induced dimensions and duality identities all exact")
