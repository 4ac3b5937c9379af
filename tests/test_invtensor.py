import dataclasses
import random
from fractions import Fraction as F
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from supertrace import invtensor as it
from supertrace import repmod as rm
from supertrace import superlin as sl
from supertrace.linalg import RowReducer
from supertrace.rootdata import weight


@pytest.fixture(scope="module")
def basis_pos(adj):
    dim = adj.rs.m + adj.rs.n
    pos = {}
    k = 0
    for p in range(dim):
        for q in range(dim):
            if p != q:
                pos[(p, q)] = k
                k += 1
    return pos


@pytest.fixture(scope="module")
def spaces(roster, adj):
    probes2 = [roster.wA, roster.wB_via_A]
    return {
        2: it.it_space(adj, 2, probes2),
        3: it.it_space(adj, 3, [roster.wA]),
    }


def random_even_tensor(adj, N, rng, terms=5):
    par = adj.module.space.parities
    coords = {}
    for _ in range(terms):
        while True:
            digs = [rng.randrange(adj.gdim) for _ in range(N)]
            if sum(par[d] for d in digs) % 2 == 0:
                break
        flat = 0
        for d in digs:
            flat = flat * adj.gdim + d
        coords[flat] = F(rng.randint(-5, 5))
    return {k: v for k, v in coords.items() if v}


class TestForm:
    def test_samples(self, adj, basis_pos):
        h1 = adj.gdim - adj.rs.rank
        assert adj.gram[h1][h1] == 2
        assert adj.gram[basis_pos[(0, 1)]][basis_pos[(1, 0)]] == 1
        assert adj.gram[basis_pos[(0, 1)]][basis_pos[(0, 1)]] == 0

    def test_even(self, adj):
        par = adj.module.space.parities
        for a in range(adj.gdim):
            for b in range(adj.gdim):
                if par[a] != par[b]:
                    assert adj.gram[a][b] == 0

    def test_b_inverse(self, adj):
        assert adj.b_inv @ adj.b == sl.identity(adj.module.space)

    def test_adjoint_module_weights_are_roots(self, adj, basis_pos):
        # e_1 = E_{0,1} carries the first-column Cartan weights.
        w = adj.module.basis_weights[basis_pos[(0, 1)]]
        assert w == (2, -1)


def _extended_form_oracle(adj, t1, n1, t2, n2):
    """Reference signed product formula: every pair of terms, factor by factor."""
    if n1 != n2:
        return F(0)
    par = adj.module.space.parities

    def digits_of(flat):
        out = []
        for _ in range(n1):
            flat, d = divmod(flat, adj.gdim)
            out.append(d)
        return out[::-1]

    total = F(0)
    for flat1, c1 in t1.items():
        d1 = digits_of(flat1)
        for flat2, c2 in t2.items():
            d2 = digits_of(flat2)
            prod = c1 * c2
            exponent = 0
            for i in range(n1):
                prod *= adj.gram[d1[i]][d2[i]]
                exponent += sum(par[d] for d in d1[i + 1:]) * par[d2[i]]
            total += -prod if exponent % 2 else prod
    return total


class TestExtendedForm:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), st.randoms(use_true_random=False))
    def test_matches_all_pairs_oracle(self, adj, N, rnd):
        # t2 mostly holds factorwise partners of t1's terms, so values are nonzero.
        rng = random.Random(rnd.randint(0, 10**6))
        partners = [[c for c, v in enumerate(row) if v] for row in adj.gram]

        def flat_of(digits):
            flat = 0
            for d in digits:
                flat = flat * adj.gdim + d
            return flat

        t1, t2 = {}, {}
        for _ in range(rng.randint(0, 6)):
            digits = [rng.randrange(adj.gdim) for _ in range(N)]
            t1[flat_of(digits)] = F(rng.randint(-3, 3), rng.randint(1, 3))
            mate = [rng.choice(partners[d]) if rng.random() < 0.8 else rng.randrange(adj.gdim)
                    for d in digits]
            t2[flat_of(mate)] = F(rng.randint(-3, 3), rng.randint(1, 3))
        assert it.extended_form(adj, t1, N, t2, N) == _extended_form_oracle(adj, t1, N, t2, N)

    def test_degree_mismatch(self, adj):
        rng = random.Random(20)
        t1 = random_even_tensor(adj, 2, rng)
        t2 = random_even_tensor(adj, 3, rng)
        assert it.extended_form(adj, t1, 2, t2, 3) == 0

    # Multiples of gdim: at degree 1, gdim and 5 gdim used to read as key 0.
    @pytest.mark.parametrize("key", [-1, 1, 2, 5])
    def test_coordinate_outside_the_power_raises(self, adj, key):
        assert it.extended_form(adj, {0: 1}, 1, {2: 1}, 1) == 1
        bad = {key * adj.gdim: 1}
        for args in ((bad, 1, {2: 1}, 1), ({2: 1}, 1, bad, 1), (bad, 1, {2: 1}, 2)):
            with pytest.raises(ValueError):
                it.extended_form(adj, *args)

    def test_inexact_value_raises(self, adj):
        for args in (({0: 0.5}, 1, {2: 1}, 1), ({0: 1}, 1, {2: 1.0}, 1)):
            with pytest.raises(TypeError):
                it.extended_form(adj, *args)

    def test_even_pair_value(self, adj, basis_pos):
        e1, f1 = basis_pos[(0, 1)], basis_pos[(1, 0)]
        t1 = {e1 * adj.gdim + f1: F(1)}
        t2 = {f1 * adj.gdim + e1: F(1)}
        assert it.extended_form(adj, t1, 2, t2, 2) == 1

    def test_supersymmetry(self, adj):
        rng = random.Random(21)
        for N in (2, 3):
            for _ in range(10):
                t1 = random_even_tensor(adj, N, rng)
                t2 = random_even_tensor(adj, N, rng)
                assert it.extended_form(adj, t1, N, t2, N) == it.extended_form(adj, t2, N, t1, N)

    def test_composite_route_agreement(self, adj):
        rng = random.Random(22)
        for N in (1, 2, 3):
            for _ in range(5):
                t1 = random_even_tensor(adj, N, rng)
                t2 = random_even_tensor(adj, N, rng)
                assert it.extended_form(adj, t1, N, t2, N) == it.pairing_as_composite(
                    adj, t1, t2, N
                )


class TestInvariants:
    def test_degree_one_empty(self, adj):
        even, odd = it.invariant_tensors(adj, 1)
        assert even == [] and odd == []

    def test_degree_two_contains_casimir(self, adj):
        even, odd = it.invariant_tensors(adj, 2)
        assert odd == [] and len(even) >= 1
        cas = it.casimir_coords(adj)
        assert it.is_invariant(adj, 2, cas)
        from supertrace.linalg import RowReducer

        span = RowReducer()
        for v in even:
            span.add(v)
        assert span.contains(cas)

    def test_degree_three_even_only(self, adj):
        even, odd = it.invariant_tensors(adj, 3)
        assert odd == []
        assert len(even) == 2

    def test_cap_enforced(self, adj):
        with pytest.raises(ValueError):
            it.invariant_tensors(adj, 5, cap=4)

    def test_degree_zero_raises(self, adj):
        with pytest.raises(ValueError):
            it.invariant_tensors(adj, 0)
        with pytest.raises(ValueError):
            it.is_invariant(adj, 0, {0: 1})


class TestReachableSubspace:
    def test_elements_are_invariant(self, adj, spaces):
        for N, space in spaces.items():
            for t in space.elements:
                assert it.is_invariant(adj, N, t.coords)

    def test_kernel_property_both_routes(self, adj, spaces):
        for N, space in spaces.items():
            even, _ = it.invariant_tensors(adj, N)
            for t in space.elements:
                for tp in even:
                    ve, vs = it.classical_gram(adj, [t], [tp])[0][0]
                    assert ve == vs == 0

    def test_closure_sum_matches_coordinates(self, adj, spaces):
        elems = spaces[2].elements
        raw = spaces[2].raw
        x = elems[0]
        partner = next(u for u in raw if u.witness.V0 is x.witness.V0)
        lam = F(3, 2)
        summed = it.it_sum(adj, x, partner, lam)
        expect = dict(x.coords)
        for k, v in partner.coords.items():
            w = expect.get(k, F(0)) + lam * v
            if w:
                expect[k] = w
            else:
                expect.pop(k, None)
        assert summed.coords == expect
        assert it.is_invariant(adj, 2, summed.coords)

    def test_closure_product_lands_in_higher_degree(self, adj, spaces):
        even2, _ = it.invariant_tensors(adj, 2)
        t1 = spaces[2].elements[0]
        prod = it.it_product(adj, even2[0], 2, t1)
        assert prod.degree == 4
        assert prod.coords == it.tensor_coords(even2[0], t1.coords, adj.gdim ** 2)
        for g in adj.module.e + adj.module.f + adj.module.h:
            assert not oracles.power_action_apply(adj, 4, g, prod.coords)
        assert it.is_invariant(adj, 4, prod.coords)


class TestModifiedForm:
    def test_degree_mismatch_is_zero(self, adj, spaces):
        assert it.modified_form(adj, spaces[2].elements[0], spaces[3].elements[0]) == 0

    def test_symmetric_and_nonzero(self, adj, spaces):
        for N, space in spaces.items():
            elems = space.elements
            gram = [[it.modified_form(adj, a, b) for b in elems] for a in elems]
            assert gram == [list(row) for row in zip(*gram)]
        assert it.modified_form(adj, spaces[2].elements[0], spaces[2].elements[0]) != 0

    def test_presentation_independence(self, adj, spaces):
        elems = spaces[2].elements
        x = elems[0]
        partner = next(u for u in spaces[2].raw if u.witness.V0 is x.witness.V0 and u is not x)
        second = it.it_sum(adj, x, partner, 0)
        assert second.coords == x.coords
        for other in elems:
            assert it.modified_form(adj, x, other) == it.modified_form(adj, second, other)
            assert it.modified_form(adj, other, x) == it.modified_form(adj, other, second)

    def test_duplicate_presentations_agree(self, adj, spaces):
        pairs = 0
        for N, space in spaces.items():
            for i, a in enumerate(space.raw):
                for b in space.raw[i + 1 :]:
                    if a.coords and a.coords == b.coords:
                        pairs += 1
                        for other in space.elements:
                            assert it.modified_form(adj, a, other) == it.modified_form(
                                adj, b, other
                            )
        assert pairs > 0


def _presented_endo_oracle(adj, t1, t2_coords):
    """Reference presented endomorphism: the composite of g^(x)N-sized maps."""
    t2 = sl.column_map(t1.f.codomain, t2_coords)
    vspace = t1.module.space
    dual_v = sl.dual_space(vspace)
    unpack = oracles.invert_diag(sl.dual_tensor_iso(vspace, dual_v))
    c_inv = oracles.invert_diag(oracles.double_dual_iso(vspace))
    s = (sl.tensor_map(sl.identity(dual_v), c_inv) @ unpack @ sl.super_transpose(t1.f)
         @ it.dualizing_map(adj, t1.degree) @ t2)
    inner = sl.tensor_map(sl.identity(vspace), s)
    contract = sl.tensor_map(sl.ev_right(vspace), sl.identity(vspace))
    return contract @ inner


def _sn_action_oracle(adj, N, perm, t):
    """Reference permutation action: compose with the map of adjacent super swaps."""
    pmap = oracles.sn_action_map(adj, N, perm)
    return it.PresentedTensor(N, pmap.apply(t.coords), pmap @ t.f, t.witness)


def _column_tensor(adj, N, coords, witness):
    """A tensor presented by its own column map k -> g^(x)N (any even coords)."""
    return it.PresentedTensor(N, coords, sl.column_map(adj.power(N).space, coords), witness)


@pytest.fixture(scope="module")
def casimir_products(adj, spaces):
    cas = it.casimir_coords(adj)
    return [it.it_product(adj, cas, 2, t) for t in spaces[2].raw if t.coords][:2]


class TestCoordinateRoutes:
    """dual_coords, presented_endo and sn_action against the map-composition routes."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 3), st.randoms(use_true_random=False))
    def test_dual_coords_is_the_dualizing_map(self, adj, N, rnd):
        t = random_even_tensor(adj, N, random.Random(rnd.randint(0, 10**6)))
        assert it.dual_coords(adj, N, t) == it.dualizing_map(adj, N).apply(t)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([2, 3]), st.data())
    def test_presented_endo_matches_composite(self, adj, spaces, N, data):
        t1 = data.draw(st.sampled_from(spaces[N].raw))
        t2 = random_even_tensor(adj, N, random.Random(data.draw(st.integers(0, 10**6))))
        assert it.presented_endo(adj, t1, t2) == _presented_endo_oracle(adj, t1, t2)

    def test_presented_endo_on_every_roster_pair(self, adj, spaces):
        for N, space in spaces.items():
            for t1 in space.raw:
                for t2 in space.elements:
                    assert (it.presented_endo(adj, t1, t2.coords)
                            == _presented_endo_oracle(adj, t1, t2.coords))

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_sn_action_matches_map_route(self, adj, spaces, data):
        N = data.draw(st.sampled_from([2, 3]))
        perm = tuple(data.draw(st.permutations(range(N))))
        t = data.draw(st.sampled_from(spaces[N].raw))
        moved, expected = it.sn_action(adj, N, perm, t), _sn_action_oracle(adj, N, perm, t)
        assert moved.coords == expected.coords and moved.f == expected.f
        assert moved.degree == N and moved.witness is t.witness

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 3), st.data())
    def test_sn_action_on_random_even_tensors(self, adj, roster, N, data):
        perm = tuple(data.draw(st.permutations(range(N))))
        coords = random_even_tensor(adj, N, random.Random(data.draw(st.integers(0, 10**6))))
        t = _column_tensor(adj, N, coords, roster.wA)
        moved, expected = it.sn_action(adj, N, perm, t), _sn_action_oracle(adj, N, perm, t)
        assert moved.coords == expected.coords and moved.f == expected.f

    def test_sn_action_keeps_its_moved_indices_per_permutation(self, roster, spaces):
        fresh = it.build_adjoint(roster.rs)
        t = next(u for u in spaces[3].raw if u.coords)
        first = it.sn_action(fresh, 3, (2, 0, 1), t)
        memo = fresh._moved[(3, (2, 0, 1))]
        # Only the coordinates were moved: the memo holds their indices, and f is not built.
        assert set(memo) == set(t.coords) and set(fresh._moved) == {(3, (2, 0, 1))}
        assert "f" not in vars(first) and first.source is t.f
        again = it.sn_action(fresh, 3, (2, 0, 1), t)
        assert fresh._moved[(3, (2, 0, 1))] is memo and set(memo) == set(t.coords)
        assert again.coords == first.coords
        expected = _sn_action_oracle(fresh, 3, (2, 0, 1), t)
        assert first.f == expected.f and "f" in vars(first) and first.f is first.f
        other = it.sn_action(fresh, 3, (1, 2, 0), t)
        assert set(fresh._moved) == {(3, (2, 0, 1)), (3, (1, 2, 0))}
        expected = _sn_action_oracle(fresh, 3, (1, 2, 0), t)
        assert (other.coords, other.f) == (expected.coords, expected.f)

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([2, 3, 4]), st.data())
    def test_a_chain_of_moves_pairs_as_the_eager_tensor(self, adj, spaces, casimir_products,
                                                       N, data):
        pool = casimir_products if N == 4 else [t for t in spaces[N].raw if t.coords]
        t, other = data.draw(st.sampled_from(pool)), data.draw(st.sampled_from(pool))
        chain = data.draw(st.lists(st.permutations(range(N)), min_size=1, max_size=3))
        moved, composed = t, tuple(range(N))
        for perm in chain:
            moved = it.sn_action(adj, N, tuple(perm), moved)
            composed = tuple(perm[s] for s in composed)
        pmap = oracles.sn_action_map(adj, N, composed)
        eager = it.PresentedTensor(N, pmap.apply(t.coords), pmap @ t.f, t.witness)
        t2 = random_even_tensor(adj, N, random.Random(data.draw(st.integers(0, 10**6))))
        for x, y in ((moved, other), (other, moved)):
            assert it.modified_form(adj, x, y) == it.modified_form(
                adj, eager if x is moved else x, eager if y is moved else y)
        for t3 in (other.coords, t2):
            assert it.presented_endo(adj, moved, t3) == it.presented_endo(adj, eager, t3)
        assert it.classical_gram(adj, [moved], [other.coords, t2]) == it.classical_gram(
            adj, [eager], [other.coords, t2])
        # The forms pulled their covectors back: none of them built the moved map.
        assert "f" not in vars(moved)
        assert moved.coords == eager.coords and moved.f == eager.f

    @pytest.mark.parametrize("perms", [((1, 3, 0, 2), (1, 0, 2, 3)),
                                       ((2, 0, 3, 1), (0, 1, 2, 3))])
    def test_degree_four_casimir_products(self, adj, casimir_products, perms):
        # Casimir (x) t moved so that the two slot pairings differ: a non-zero pairing.
        x, y = (it.sn_action(adj, 4, p, t) for p, t in zip(perms, casimir_products))
        for p, t, moved in zip(perms, casimir_products, (x, y)):
            expected = _sn_action_oracle(adj, 4, p, t)
            assert moved.coords == expected.coords and moved.f == expected.f
        endo = it.presented_endo(adj, x, y.coords)
        assert endo.entries and endo == _presented_endo_oracle(adj, x, y.coords)

    @pytest.mark.parametrize("route", [it.presented_endo, _presented_endo_oracle])
    def test_presented_endo_rejects_odd_or_out_of_range_t2(self, adj, spaces, route):
        t1 = spaces[2].elements[0]
        par = adj.module.space.parities
        odd = next(a for a in range(adj.gdim) if par[a])
        with pytest.raises(ValueError):
            route(adj, t1, {odd * adj.gdim: F(1)})
        with pytest.raises(ValueError):
            route(adj, t1, {adj.gdim ** 2: F(1)})

    @pytest.mark.parametrize("route", [it.sn_action, _sn_action_oracle])
    def test_sn_action_rejects_bad_input(self, adj, spaces, route):
        t = spaces[2].elements[0]
        for perm in ((0, 0), (0, 2), (1,)):
            with pytest.raises(ValueError):
                route(adj, 2, perm, t)
        with pytest.raises(ValueError):
            route(adj, 3, (0, 2, 1), t)


class TestSymmetricGroup:
    def test_identity_and_transposition(self, adj, basis_pos):
        ident = it.permutation_map(adj, 2, (0, 1))
        assert ident == sl.identity(adj.power(2).space)
        swap = it.permutation_map(adj, 2, (1, 0))
        assert swap == sl.super_permutation(adj.module.space, adj.module.space)
        e1, f1 = basis_pos[(0, 1)], basis_pos[(1, 0)]
        image = swap.apply({e1 * adj.gdim + f1: F(1)})
        assert image == {f1 * adj.gdim + e1: F(1)}  # both factors even: plain swap

    def test_orthogonality(self, adj, spaces):
        for N in (2, 3):
            elems = spaces[N].elements
            gram = [[it.modified_form(adj, a, b) for b in elems] for a in elems]
            for perm in permutations(range(N)):
                moved = [it.sn_action(adj, N, perm, t) for t in elems]
                after = [[it.modified_form(adj, a, b) for b in moved] for a in moved]
                assert after == gram

    def test_action_is_g_linear(self, adj):
        power = adj.power(3)
        for perm in ((1, 0, 2), (2, 0, 1)):
            pmap = it.permutation_map(adj, 3, perm)
            assert pmap == oracles.sn_action_map(adj, 3, perm)
            assert rm._check_g_linear(pmap, power, power)


class TestFunctorialAdjoint:
    def test_adjoint_identity_for_extended_form(self, adj):
        rng = random.Random(23)
        G = it.permutation_map(adj, 3, (2, 0, 1))
        Gstar = it.form_adjoint(adj, G, 3, 3)
        for _ in range(5):
            t1 = random_even_tensor(adj, 3, rng)
            t2 = random_even_tensor(adj, 3, rng)
            lhs = it.extended_form(adj, G.apply(t1), 3, t2, 3)
            rhs = it.extended_form(adj, t1, 3, Gstar.apply(t2), 3)
            assert lhs == rhs

    def test_adjoint_identity_for_modified_form(self, adj, spaces):
        G = sl.column_map(adj.power(2).space, it.casimir_coords(adj)) @ it.pairing_map(adj)
        G = sl.SuperMap(adj.power(2).space, adj.power(2).space, 0, dict(G.entries))
        Gstar = it.form_adjoint(adj, G, 2, 2)
        elems = spaces[2].elements
        for x in elems:
            moved = it.PresentedTensor(2, G.apply(x.coords), G @ x.f, x.witness)
            for y in elems:
                pulled = it.presented_tensor(adj, 2, y.witness, Gstar @ y.f)
                assert it.modified_form(adj, moved, y) == it.modified_form(adj, x, pulled)


def test_classical_form_vanishes_wrapper(adj, spaces):
    even, _ = it.invariant_tensors(adj, 2)
    t = spaces[2].elements[0]
    assert it.classical_form_vanishes(adj, t, even[0])


def test_sn_action_wrapper(adj, spaces):
    t = spaces[2].elements[0]
    moved = it.sn_action(adj, 2, (1, 0), t)
    assert it.is_invariant(adj, 2, moved.coords)
    assert it.modified_form(adj, moved, moved) == it.modified_form(adj, t, t)


@pytest.fixture(scope="module")
def adj31(rs31):
    return it.build_adjoint(rs31)


class TestOtherAlgebra:
    """sl(3|1) at the degree-2 cap: the reachable subspace can be trivial."""

    def test_form_inverse(self, adj31):
        space = adj31.module.space
        assert adj31.b_inv @ adj31.b == sl.identity(space)
        assert adj31.b @ adj31.b_inv == sl.identity(sl.dual_space(space))

    def test_invariants_even(self, adj31):
        even, odd = it.invariant_tensors(adj31, 2, cap=2)
        assert odd == [] and len(even) == 1
        assert it.is_invariant(adj31, 2, it.casimir_coords(adj31))

    def test_reachable_subspace_vanishes_for_small_probe(self, rs31, adj31):
        from supertrace.rootdata import weight

        K = rm.kac_module(rs31, weight(0, 0, 1))
        space = it.it_space(adj31, 2, [rm.trivial_witness(K)])
        assert space.raw and not space.elements  # maps exist, images all vanish

    def test_invariant_functionals_on_probe(self, rs31, adj31):
        # Cross-check of the solver on a known one-dimensional Hom space: the
        # only invariant functional on V (x) V* is the right evaluation, whose
        # value on the coevaluation is sdim(V) = 0.
        from supertrace.rootdata import weight

        K = rm.kac_module(rs31, weight(0, 0, 1))
        VV = rm.tensor_module(K, rm.dual_module(K))
        funcs = rm.hom_space(VV, rm.trivial_module(rs31), 0)
        assert len(funcs) == 1
        evr = sl.ev_right(K.space)
        key = next(iter(evr.entries))
        scale = F(evr.entries[key]) / funcs[0].entries[key]
        assert scale * funcs[0] == sl.SuperMap(VV.space, sl.UNIT, 0, dict(evr.entries))
        assert sl.scalar_of(sl.ev_right(K.space) @ sl.coev(K.space)) == 0


# -- reachable tensors by adjunction, against the generic solve --------------------

def _span(vectors):
    reducer = RowReducer()
    for v in vectors:
        reducer.add(v)
    return reducer


def _same_span(xs, ys):
    sx, sy = _span(xs), _span(ys)
    return len(sx) == len(sy) and all(sx.contains(y) for y in ys) and all(sy.contains(x) for x in xs)


def _flat_entries(f):
    return {r * f.domain.dim + c: v for (r, c), v in f.entries.items()}


@pytest.fixture(scope="module")
def adjunction_cases(roster, adj, rs31, adj31):
    K = rm.kac_module(rs31, weight(0, 0, 1))
    cases = {("sl21", w.V.name, N): (adj, w) for w in (roster.wA, roster.wB_via_A)
             for N in (1, 2, 3)}
    cases.update({("sl31", K.name, N): (adj31, rm.trivial_witness(K)) for N in (1, 2)})
    return cases


@pytest.fixture(scope="module")
def routes():
    """Per case: both it_space results, and whether they agree."""
    return {}


def _both_routes(routes, key, adj, w):
    if key not in routes:
        routes[key] = (it.it_space(adj, key[2], [w]), oracles.it_space_generic(adj, key[2], [w]))
    return routes[key]


def _routes_agree(routes, key, adj, w):
    """Hom dimension, reachable dimension, span of the maps and of the tensors."""
    if ("agree", key) not in routes:
        got, want = _both_routes(routes, key, adj, w)
        routes[("agree", key)] = (
            len(got.raw) == len(want.raw),
            len(got.elements) == len(want.elements),
            _same_span([_flat_entries(t.f) for t in got.raw],
                       [_flat_entries(t.f) for t in want.raw]),
            _same_span([t.coords for t in got.raw if t.coords],
                       [t.coords for t in want.raw if t.coords]),
        )
    return routes[("agree", key)]


class TestAdjunctionRoute:
    """it_space through Hom(V, g^(x)N (x) V) against the generic Hom(V (x) V*, g^(x)N) solve."""

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_matches_generic_solve(self, adjunction_cases, routes, data):
        key = data.draw(st.sampled_from(sorted(adjunction_cases)))
        assert _routes_agree(routes, key, *adjunction_cases[key]) == (True, True, True, True)

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_presenting_maps_are_g_linear(self, adjunction_cases, routes, data):
        key = data.draw(st.sampled_from(sorted(adjunction_cases)))
        adj_, w = adjunction_cases[key]
        got, _ = _both_routes(routes, key, adj_, w)
        N, V = key[2], w.V
        vv = rm.tensor_module(V, rm.dual_module(V))
        t = data.draw(st.sampled_from(got.raw))
        assert t.f.parity == 0 and t.f.domain == vv.space
        assert rm._check_g_linear(t.f, vv, adj_.power(N))
        assert t.coords == t.f.apply({i * V.dim + i: 1 for i in range(V.dim)})  # f(coev(1))

    def test_sl31_small_probe_reaches_nothing_at_degree_two(self, adjunction_cases, routes):
        key = next(k for k in adjunction_cases if k[0] == "sl31" and k[2] == 2)
        got, want = _both_routes(routes, key, *adjunction_cases[key])
        assert got.raw and not got.elements
        assert len(want.raw) == len(got.raw) and not want.elements

    def test_degree_four(self, roster, adj):
        # Both raw sets are bases of the Hom space: equal counts and coordinate
        # spans here; the maps' spans and g-linearity are compared at degree <= 3.
        got = it.it_space(adj, 4, [roster.wA])
        want = oracles.it_space_generic(adj, 4, [roster.wA])
        assert len(got.raw) == len(want.raw) == 86
        assert len(got.elements) == len(want.elements) == 9
        assert _same_span([t.coords for t in got.raw if t.coords],
                          [t.coords for t in want.raw if t.coords])
        V = roster.wA.V
        vv = rm.tensor_module(V, rm.dual_module(V))
        for t in got.raw[::40]:
            assert rm._check_g_linear(t.f, vv, adj.power(4))

    def test_parity_shifted_probe_presents_the_negated_tensors(self, roster, adj):
        # op K(0,1) is certified with an odd d; its tensors are -1 times those of K(0,1).
        for N in (2, 3):
            a, d = it.it_space(adj, N, [roster.wA]), it.it_space(adj, N, [roster.wD])
            assert len(a.raw) == len(d.raw) and len(a.elements) == len(d.elements) > 0
            for s, t in zip(a.raw, d.raw):
                assert t.coords == {k: -v for k, v in s.coords.items()}
            assert _same_span([t.coords for t in d.elements], [t.coords for t in a.elements])
            gram_a = it.modified_gram(adj, list(a.elements), list(a.elements))
            assert any(any(row) for row in gram_a)
            assert it.modified_gram(adj, list(d.elements), list(d.elements)) == gram_a
            assert it.modified_gram(adj, list(a.elements), list(d.elements)) == [
                [-x for x in row] for row in gram_a]

    def test_probe_that_is_not_a_kac_module_raises(self, roster, adj):
        for w in (roster.wC, rm.witness_dsum(roster.wA, roster.wA)):
            assert w.V.kac_vector is None
            with pytest.raises(ValueError, match="not a certified Kac module"):
                it.it_space(adj, 2, [roster.wA, w])


@pytest.fixture(scope="module")
def replay_cases(roster, adj, rs31, adj31):
    """The certified probes of sl(2|1) at degrees 1-3 and sl(3|1) K(0,0,1/2) at degrees 1-2."""
    K = _sl31_kac(rs31, (0, 0, F(1, 2)))
    cases = {("sl21", name, N): (adj, getattr(roster, name))
             for name in ("wA", "wB_via_A", "wD") for N in (1, 2, 3)}
    cases.update({("sl31", K.name, N): (adj31, rm.trivial_witness(K)) for N in (1, 2)})
    return cases


_REPLAYS = {}


def _replay_case(key, adj_, w):
    """it_space's tensors for one probe, its maps assembled at once, and the replay's word
    coordinates C with the reducer of the word search they were read from: the search runs
    on a copy of the probe, whose ``kac_words`` are not kept yet."""
    if key not in _REPLAYS:
        N, V = key[2], w.V
        reducers = []

        class Recording(RowReducer):
            def __init__(self):
                super().__init__()
                reducers.append(self)

        target = rm.FactorwiseAction((adj_.module,) * N + (V,))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rm, "RowReducer", Recording)
            replays, coeffs = rm._replay(dataclasses.replace(V), target, 0)
        _REPLAYS[key] = (it.it_space(adj_, N, [w]), oracles.presenting_maps_at_once(adj_, N, w),
                         coeffs, reducers, len(replays))
    return _REPLAYS[key]


class TestDeferredPresentations:
    """it_space reads coordinates off the replay and assembles a presenting map on first read."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_deferred_maps_match_the_assembly_at_once(self, replay_cases, data):
        key = data.draw(st.sampled_from(sorted(replay_cases)))
        adj_, w = replay_cases[key]
        space, eager, coeffs, reducers, count = _replay_case(key, adj_, w)
        assert len(space.raw) == len(eager) == count
        if not eager:
            return
        i = data.draw(st.integers(0, len(eager) - 1))
        t, want = space.raw[i], eager[i]
        # The coordinates are the column sum of the map, read before the map exists.
        assert t.coords == it.presented_tensor(adj_, key[2], w, want).coords
        assert t.source == want and list(t.source.entries.items()) == list(want.entries.items())
        assert t.f is t.source
        # C is read off the rows of the word search; the oracle solves for each unit vector.
        (reducer,) = reducers
        assert len(reducer) == w.V.dim
        assert list(coeffs.items()) == list(
            oracles.unit_coords_by_solves(reducer, range(w.V.dim)).items())

    def test_replay_cases_are_not_empty(self, replay_cases):
        counts = {key: _replay_case(key, *case)[4] for key, case in replay_cases.items()}
        assert all(counts[("sl21", name, N)] for name in ("wA", "wB_via_A", "wD") for N in (1, 2, 3))
        assert any(n for key, n in counts.items() if key[0] == "sl31")

    def test_it_space_assembles_only_what_is_read(self, roster, adj, monkeypatch):
        assemble, calls = it._assembled, []
        monkeypatch.setattr(it, "_assembled", lambda *a: calls.append(1) or assemble(*a))
        space = it.it_space(adj, 3, [roster.wA])
        assert len(space.raw) == 17 and not calls
        assert all("source" not in vars(t) and "f" not in vars(t) for t in space.raw)
        t = space.raw[0]
        first = t.f
        assert len(calls) == 1 and t.source is first and t.f is first
        assert len(calls) == 1 and "_build" not in vars(t)
        copy = dataclasses.replace(space.raw[1], coords=dict(space.raw[1].coords))
        assert len(calls) == 2 and copy.source is space.raw[1].source
        assert all("source" not in vars(u) for u in space.raw[2:])
        with pytest.raises(AttributeError):
            space.raw[2].other

    def test_moving_a_raw_tensor_assembles_nothing(self, roster, adj, monkeypatch):
        assemble, calls = it._assembled, []
        monkeypatch.setattr(it, "_assembled", lambda *a: calls.append(1) or assemble(*a))
        t = next(u for u in it.it_space(adj, 3, [roster.wA]).raw if u.coords)
        once = it.sn_action(adj, 3, (1, 2, 0), t)
        twice = it.sn_action(adj, 3, (1, 0, 2), once)
        assert not calls and all("source" not in vars(u) for u in (t, once, twice))
        # The first read of a moved source is the input's own map, so the orbit shares one row index.
        source = twice.source
        assert len(calls) == 1 and source is once.source is t.source
        assert all("_build" not in vars(u) for u in (t, once, twice))
        expected = _sn_action_oracle(adj, 3, (0, 2, 1), t)
        assert twice.perm == (0, 2, 1) and (twice.coords, twice.f) == (expected.coords, expected.f)

    def test_repr_of_a_raw_tensor_assembles_nothing(self, roster, adj, monkeypatch):
        assemble, calls = it._assembled, []
        monkeypatch.setattr(it, "_assembled", lambda *a: calls.append(1) or assemble(*a))
        t = next(u for u in it.it_space(adj, 3, [roster.wA]).raw if u.coords)
        text = repr(t)
        assert text.startswith("PresentedTensor(degree=3, coords=") and "source" not in text
        assert not calls and "source" not in vars(t) and "_build" in vars(t)

    def test_a_tensors_run_assembles_five_of_thirty_three(self, monkeypatch):
        from supertrace import suites

        assemble, calls, span, spaces = it._assembled, [], it.it_space, []
        monkeypatch.setattr(it, "_assembled", lambda *a: calls.append(1) or assemble(*a))
        monkeypatch.setattr(it, "it_space", lambda *a: spaces.append(span(*a)) or spaces[-1])
        report = suites.run_verification(["tensors"], max_degree=3)
        assert report["pass"] and report["failed"] == 0
        # The 3 elements, one duplicate pair's second map and one it_sum partner at lam = 3/2.
        assert sum(len(space.raw) for space in spaces) == 33
        assert len(calls) == 5


_SL31_KAC = {}


def _sl31_kac(rs31, coords):
    if coords not in _SL31_KAC:
        _SL31_KAC[coords] = rm.kac_module(rs31, weight(*coords))
    return _SL31_KAC[coords]


class TestFactorwiseAction:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 4), st.sampled_from("ef"), st.integers(0, 1), st.data())
    def test_power_matches_generator_matrices(self, adj, N, kind, i, data):
        coords = random_even_tensor(adj, N, random.Random(data.draw(st.integers(0, 10**6))))
        gen = getattr(adj.module, kind)[i]
        action = rm.FactorwiseAction((adj.module,) * N)
        assert action.apply(kind, i, coords) == oracles.power_action_apply(adj, N, gen, coords)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from("ef"), st.integers(0, 1), st.booleans(), st.data())
    def test_mixed_factors_match_the_tensor_module(self, roster, kind, i, transpose, data):
        factors = (roster.A, roster.std, roster.B)
        action = rm.FactorwiseAction(factors, transpose)
        mod = rm.tensor_module(rm.tensor_module(roster.A, roster.std), roster.B)
        x = getattr(mod, kind)[i]
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        vec = {rng.randrange(mod.dim): F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(4)}
        vec = {k: v for k, v in vec.items() if v}
        if transpose:  # the plain transpose, no super signs
            x = sl.SuperMap(x.domain, x.codomain, x.parity,
                            {(j, r): v for (r, j), v in x.entries.items()})
        assert action.apply(kind, i, vec) == x.apply(vec)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([(1, 0, F(1, 2)), (0, 0, F(-3, 2))]), st.booleans(),
           st.sampled_from("ef"), st.integers(0, 2), st.booleans(), st.data())
    def test_fractional_factors_match_the_tensor_module(self, rs31, coords, std_first, kind, i,
                                                        transpose, data):
        # a_s = 1/2 or -3/2 puts Fractions into the weights and e_s, so the action clears
        # denominators; the tensor module's matrices act on Fractions throughout.
        K, std = _sl31_kac(rs31, coords), rm.standard_module(rs31)
        assert any(type(v) is not int for v in K.e[rs31.s].entries.values())
        factors = (std, K) if std_first else (K, std)
        mod = rm.tensor_module(*factors)
        x = getattr(mod, kind)[i]
        if transpose:  # the plain transpose, no super signs
            x = sl.SuperMap(x.domain, x.codomain, x.parity,
                            {(j, r): v for (r, j), v in x.entries.items()})
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        vec = {rng.randrange(mod.dim): F(rng.choice([-7, -2, 1, 3]), rng.choice([1, 2, 3, 5]))
               for _ in range(rng.randint(1, 6))}
        got = rm.FactorwiseAction(factors, transpose).apply(kind, i, vec)
        assert got == x.apply(vec)
        assert all(type(v) is int or v.denominator > 1 for v in got.values())

    @pytest.mark.parametrize("parity", [0, 1])
    def test_indices_by_weight(self, roster, parity):
        factors = (roster.A, roster.std, roster.B)
        mod = rm.tensor_module(rm.tensor_module(roster.A, roster.std), roster.B)
        action = rm.FactorwiseAction(factors)
        for wt in set(mod.basis_weights):
            assert action.indices(wt, parity) == [
                j for j, w in enumerate(mod.basis_weights)
                if w == wt and mod.space.parities[j] == parity]


# -- form adjoints and Grams on coordinates ----------------------------------------


def _contraction_insertion(adj):
    """g (x) g -> g (x) g: contract with the form, insert the Casimir."""
    space = adj.power_space(2)
    G = sl.column_map(space, it.casimir_coords(adj)) @ it.pairing_map(adj)
    return sl.SuperMap(space, space, 0, dict(G.entries))


def _casimir_insertion(adj):
    """g -> g^(x)3, x |-> Casimir (x) x."""
    cas = sl.column_map(adj.power_space(2), it.casimir_coords(adj))
    return sl.tensor_map(cas, sl.identity(adj.module.space))


class TestClosedFormSigns:
    """_permuter puts each factor straight into its slot with one Koszul sign; the oracle
    composes the adjacent super swaps that bubble-sort the permutation."""

    @pytest.mark.parametrize("algebra, N", [("sl21", 4), ("sl31", 1), ("sl31", 2), ("sl31", 3)])
    def test_every_permutation_matches_the_adjacent_swaps(self, adj, adj31, algebra, N):
        fresh = dataclasses.replace(adj if algebra == "sl21" else adj31)  # no kept moves
        for perm in permutations(range(N)):
            move = it._permuter(fresh, N, perm)
            want = oracles.sn_action_map(fresh, N, perm).entries
            assert {(move(c)[0], c): move(c)[1] for c in range(fresh.gdim ** N)} == want


class TestFormAdjoint:
    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_permutations_match_the_map_route(self, adj, data):
        N = data.draw(st.sampled_from([1, 2, 3]))
        perm = tuple(data.draw(st.permutations(range(N))))
        G = it.permutation_map(adj, N, perm)
        assert G == oracles.sn_action_map(adj, N, perm)
        assert it.form_adjoint(adj, G, N, N) == oracles.adjoint_via_form(adj, G, N, N)

    def test_contraction_insertion_matches_the_map_route(self, adj):
        G = _contraction_insertion(adj)
        assert it.form_adjoint(adj, G, 2, 2) == oracles.adjoint_via_form(adj, G, 2, 2)

    def test_degree_changing_map_matches_the_map_route(self, adj):
        G = _casimir_insertion(adj)
        Gstar = it.form_adjoint(adj, G, 1, 3)
        assert Gstar.domain == adj.power_space(3) and Gstar.codomain == adj.module.space
        assert Gstar == oracles.adjoint_via_form(adj, G, 1, 3)

    def test_adjoint_of_a_permutation_is_not_built_from_the_inverse(self, adj):
        # The adjoint is read off the form: with b scaled, G* moves by the scale ratio.
        import dataclasses

        G = it.permutation_map(adj, 2, (1, 0))
        scaled = dataclasses.replace(adj, b=2 * adj.b)
        assert it.form_adjoint(scaled, G, 2, 2) == 4 * it.form_adjoint(adj, G, 2, 2)

    @pytest.mark.parametrize("parity", [0, 1])
    def test_a_sparse_degree_four_map_matches_the_map_route(self, adj, parity):
        rng, par = random.Random(40 + parity), adj.power_space(4).parities
        ent = {}
        while len(ent) < 12:
            r, c = rng.randrange(len(par)), rng.randrange(len(par))
            if par[r] == par[c] ^ parity:
                ent[(r, c)] = F(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 3))
        G = sl.SuperMap(adj.power_space(4), adj.power_space(4), parity, ent)
        assert it.form_adjoint(adj, G, 4, 4) == oracles.adjoint_via_form(adj, G, 4, 4)

    def test_shape_mismatch_raises(self, adj):
        with pytest.raises(ValueError):
            it.form_adjoint(adj, _contraction_insertion(adj), 1, 2)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), degrees=st.tuples(st.integers(1, 3), st.integers(1, 3)),
           parity=st.sampled_from([0, 1]))
    def test_random_maps_match_the_map_route(self, adj, data, degrees, parity):
        # Sparse homogeneous G: g^(x)M -> g^(x)N, on a copy with empty memos and on adj's kept ones.
        M, N = degrees
        src, dst = adj.power_space(M).parities, adj.power_space(N).parities
        keys = data.draw(st.lists(st.tuples(st.integers(0, len(dst) - 1), st.integers(0, len(src) - 1))
                                  .filter(lambda k: dst[k[0]] == src[k[1]] ^ parity), max_size=12))
        ent = {k: data.draw(st.fractions(-5, 5, max_denominator=4)) for k in keys}
        G = sl.SuperMap(adj.power_space(M), adj.power_space(N), parity, ent)
        want = oracles.adjoint_via_form(adj, G, M, N)
        assert it.form_adjoint(dataclasses.replace(adj), G, M, N) == want
        assert it.form_adjoint(adj, G, M, N) == want


class TestKeptForm:
    """b~_N kept per degree on AdjointData: the per-tensor walk, the counts, the copies."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_dual_coords_is_the_walk(self, adj, adj31, data):
        a, top = data.draw(st.sampled_from([(adj, 4), (adj31, 3)]))
        N = data.draw(st.integers(1, top))
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        if data.draw(st.booleans()):
            t = random_even_tensor(a, N, rng)
        else:  # any parity, fractional coefficients
            t = {rng.randrange(a.gdim ** N): F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(5)}
        want = oracles.dual_coords_by_walk(a, N, t)
        assert it.dual_coords(dataclasses.replace(a), N, t) == want  # empty memos
        assert it.dual_coords(a, N, t) == want  # memos kept from earlier examples

    def test_composite_is_composed_once_per_degree(self, adj, monkeypatch):
        fresh, chain, calls = dataclasses.replace(adj), it._iota_chain, []
        monkeypatch.setattr(it, "_iota_chain", lambda a, N: calls.append(N) or chain(a, N))
        rng = random.Random(5)
        for N in (2, 3, 2, 3, 2):
            t1, t2 = random_even_tensor(adj, N, rng), random_even_tensor(adj, N, rng)
            assert it.pairing_as_composite(fresh, t1, t2, N) == it.extended_form(adj, t1, N, t2, N)
        assert calls == [2, 3]

    def test_identity_walk_runs_once_per_degree(self, adj, monkeypatch):
        fresh, walk, walks = dataclasses.replace(adj), it._partner_walk, []
        b_partners = it._partners(adj, adj.b)
        assert b_partners != it._partners(adj, adj.b_inv)

        def counted(a, N, partners):
            walks.append((N, partners == b_partners))
            return walk(a, N, partners)

        monkeypatch.setattr(it, "_partner_walk", counted)
        rng = random.Random(6)
        G = it.permutation_map(adj, 2, (1, 0))
        for N in (2, 3, 2, 3):
            it.dual_coords(fresh, N, random_even_tensor(adj, N, rng))
            it.form_adjoint(fresh, G, 2, 2)
        assert [N for N, of_b in walks if of_b] == [2, 3]
        assert [N for N, of_b in walks if not of_b] == [2]  # b~_2^-1 is walked once, then kept

    def test_replace_starts_with_empty_memos(self, adj):
        # Filled memos at N = 2 must not reach a copy with b scaled by 2.
        t = random_even_tensor(adj, 2, random.Random(7))
        phi, composite = it.dual_coords(adj, 2, t), it.dualizing_map(adj, 2)
        scaled = dataclasses.replace(adj, b=2 * adj.b)
        assert it.dual_coords(scaled, 2, t) == {r: 4 * v for r, v in phi.items()}
        assert it.dualizing_map(scaled, 2) == 4 * composite

    def test_replace_starts_without_the_kept_inverse(self, adj):
        # b~_2^-1 kept on adj must not reach a copy whose b_inv is scaled by 1/2.
        G = it.permutation_map(adj, 2, (1, 0))
        Gstar, inverse = it.form_adjoint(adj, G, 2, 2), adj.form_columns(2, inverse=True)
        scaled = dataclasses.replace(adj, b=2 * adj.b, b_inv=F(1, 2) * adj.b_inv)
        assert scaled._forms == {} and scaled._composites == {}
        assert scaled.form_columns(2, inverse=True) == [[(r, v / 4) for r, v in col] for col in inverse]
        assert it.form_adjoint(scaled, G, 2, 2) == Gstar  # the scales cancel: 4 * 1/4

    def test_second_composite_pairing_does_not_regroup(self, adj, monkeypatch):
        fresh, group, grouped = dataclasses.replace(adj), sl.mat_columns, []
        monkeypatch.setattr(sl, "mat_columns", lambda e, **k: grouped.append(e) or group(e, **k))
        rng = random.Random(8)
        for _ in range(2):
            t1, t2 = random_even_tensor(adj, 3, rng), random_even_tensor(adj, 3, rng)
            assert it.pairing_as_composite(fresh, t1, t2, 3) == it.extended_form(adj, t1, 3, t2, 3)
        composite = it.dualizing_map(fresh, 3).entries
        assert sum(e is composite for e in grouped) == 1

    def test_orbit_builds_the_source_row_index_once(self, adj, spaces, monkeypatch):
        t = spaces[3].elements[0]
        orbit = [it.sn_action(adj, 3, perm, t) for perm in permutations(range(3))]
        want = [[it.modified_form(adj, x, y) for y in orbit] for x in orbit]
        t = dataclasses.replace(t, source=dataclasses.replace(t.source))  # no kept row index yet
        orbit = [it.sn_action(adj, 3, perm, t) for perm in permutations(range(3))]
        group, grouped = sl.mat_columns, []
        monkeypatch.setattr(sl, "mat_columns", lambda e, **k: grouped.append(e) or group(e, **k))
        assert it.modified_gram(adj, orbit, orbit) == want
        assert sum(e is t.source.entries for e in grouped) == 1


class TestGramsDualizeOncePerColumn:
    def test_modified_gram_equals_pairwise_forms(self, adj, spaces, monkeypatch):
        rows = list(spaces[2].raw[:4]) + list(spaces[3].elements)
        cols = list(spaces[2].elements) + list(spaces[3].raw[:3])
        pairwise = [[it.modified_form(adj, x, y) for y in cols] for x in rows]
        calls = []
        walk = it.dual_coords
        monkeypatch.setattr(it, "dual_coords", lambda *a, **k: calls.append(1) or walk(*a, **k))
        assert it.modified_gram(adj, rows, cols) == pairwise
        assert len(calls) == len(cols)

    def test_classical_gram_equals_pairwise_routes(self, adj, spaces, monkeypatch):
        even, _ = it.invariant_tensors(adj, 3)
        rng = random.Random(24)
        cols = even + [random_even_tensor(adj, 3, rng) for _ in range(3)]
        rows = list(spaces[3].raw[:5])
        pairwise = [[(it.extended_form(adj, x.coords, 3, t2, 3),
                      sl.supertrace(it.presented_endo(adj, x, t2))) for t2 in cols] for x in rows]
        calls = []
        walk = it.dual_coords
        monkeypatch.setattr(it, "dual_coords", lambda *a, **k: calls.append(1) or walk(*a, **k))
        assert it.classical_gram(adj, rows, cols) == pairwise
        assert len(calls) == len(rows) + len(cols)

    @pytest.mark.parametrize("bad", ["odd", "outside"])
    def test_each_pairing_rejects_an_odd_or_outside_tensor(self, adj, spaces, bad):
        # The same ValueError from presented_endo, modified_gram and classical_gram.
        t1 = spaces[2].elements[0]
        odd = next(a for a in range(adj.gdim) if adj.module.space.parities[a])
        coords = {odd * adj.gdim: F(1)} if bad == "odd" else {adj.gdim ** 2: F(1)}
        calls = (lambda: it.presented_endo(adj, t1, coords),
                 lambda: it.modified_gram(adj, [t1], [dataclasses.replace(t1, coords=coords)]),
                 lambda: it.classical_gram(adj, [t1], [coords]))
        for call in calls:
            with pytest.raises(ValueError, match="not on an even basis tensor"):
                call()

    def test_classical_gram_of_no_rows_is_empty(self, adj):
        even, _ = it.invariant_tensors(adj, 3)
        assert it.classical_gram(adj, [], even[:1]) == []

    def test_classical_gram_rejects_mixed_degrees(self, adj, spaces):
        with pytest.raises(ValueError):
            it.classical_gram(adj, [spaces[2].elements[0], spaces[3].elements[0]], [])
