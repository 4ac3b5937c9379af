import random
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import rand_map
from supertrace import superlin as sl
from supertrace.exactnum import exact


def spaces_strategy():
    return st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=3).map(
        lambda ps: sl.SuperSpace(tuple(ps))
    )


class TestTensorSpace:
    def test_even_times_even(self):
        assert sl.tensor_space(sl.super_space(1, 0), sl.super_space(1, 0)) == sl.super_space(1, 0)

    def test_balanced_square(self):
        V = sl.SuperSpace((0, 1))
        VV = sl.tensor_space(V, V)
        assert (VV.dim, VV.dim_even, VV.dim_odd, VV.sdim) == (4, 2, 2, 0)

    def test_standard_square(self):
        V = sl.super_space(2, 1)
        VV = sl.tensor_space(V, V)
        assert (VV.dim, VV.dim_even, VV.dim_odd) == (9, 5, 4)


class TestTensorMap:
    def test_even_maps_give_plain_kronecker(self):
        rng = random.Random(0)
        U = sl.super_space(2, 0)
        f = rand_map(rng, U, U, 0)
        g = rand_map(rng, U, U, 0)
        t = sl.tensor_map(f, g)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for l in range(2):
                        assert t.entry(i * 2 + k, j * 2 + l) == f.entry(i, j) * g.entry(k, l)

    def test_odd_swap_sign(self):
        V = sl.SuperSpace((0, 1))
        swap = sl.SuperMap(V, V, 1, {(0, 1): F(1), (1, 0): F(1)})
        t = sl.tensor_map(sl.identity(V), swap)
        # Columns over the odd first factor pick up the Koszul -1.
        assert t.entry(1 * 2 + 1, 1 * 2 + 0) == -1
        assert t.entry(1 * 2 + 0, 1 * 2 + 1) == -1
        assert t.entry(0 * 2 + 1, 0 * 2 + 0) == 1
        assert t.entry(0 * 2 + 0, 0 * 2 + 1) == 1

    def test_interchange_failure_of_symmetry(self):
        rng = random.Random(1)
        V = sl.super_space(1, 1)
        for _ in range(5):
            f = rand_map(rng, V, V, 1)
            g = rand_map(rng, V, V, 1)
            idv = sl.identity(V)
            lhs = sl.tensor_map(idv, g) @ sl.tensor_map(f, idv)
            rhs = sl.tensor_map(f, idv) @ sl.tensor_map(idv, g)
            assert lhs == -1 * rhs

    def test_interchange_composition_sign(self):
        rng = random.Random(2)
        V = sl.super_space(2, 1)
        for pf, pg, pf2, pg2 in ((0, 0, 0, 0), (1, 1, 0, 0), (0, 1, 1, 0), (1, 0, 0, 1)):
            f = rand_map(rng, V, V, pf)
            g = rand_map(rng, V, V, pg)
            f2 = rand_map(rng, V, V, pf2)
            g2 = rand_map(rng, V, V, pg2)
            sign = -1 if (pg and pf2) else 1
            assert sl.tensor_map(f, g) @ sl.tensor_map(f2, g2) == sign * sl.tensor_map(f @ f2, g @ g2)


class TestPermutation:
    def test_even_point(self):
        U = sl.super_space(1, 0)
        assert sl.super_permutation(U, U).entry(0, 0) == 1

    def test_odd_point(self):
        U = sl.super_space(0, 1)
        assert sl.super_permutation(U, U).entry(0, 0) == -1

    def test_involution(self):
        V = sl.super_space(2, 1)
        assert sl.super_permutation(V, V) @ sl.super_permutation(V, V) == sl.identity(
            sl.tensor_space(V, V)
        )


class TestDuality:
    def test_transpose_of_identity(self):
        V = sl.super_space(2, 2)
        assert sl.super_transpose(sl.identity(V)) == sl.identity(sl.dual_space(V))

    def test_even_transpose_is_plain(self):
        rng = random.Random(3)
        V = sl.super_space(2, 1)
        f = rand_map(rng, V, V, 0)
        ft = sl.super_transpose(f)
        assert all(ft.entry(j, i) == f.entry(i, j) for i in range(3) for j in range(3))

    def test_odd_transpose_antihomomorphism(self):
        rng = random.Random(4)
        V = sl.super_space(2, 1)
        for _ in range(5):
            f = rand_map(rng, V, V, 1)
            g = rand_map(rng, V, V, 1)
            lhs = sl.super_transpose(f @ g)
            rhs = -1 * (sl.super_transpose(g) @ sl.super_transpose(f))
            assert lhs == rhs

    def test_double_dual_conjugation(self):
        rng = random.Random(5)
        U = sl.super_space(1, 2)
        V = sl.super_space(2, 1)
        for parity in (0, 1):
            f = rand_map(rng, U, V, parity)
            fdd = sl.super_transpose(sl.super_transpose(f))
            assert fdd @ oracles.double_dual_iso(U) == oracles.double_dual_iso(V) @ f

    def test_evaluation_loop_is_sdim(self):
        for ne, no in ((2, 1), (3, 3), (0, 2)):
            V = sl.super_space(ne, no)
            assert sl.scalar_of(sl.ev_right(V) @ sl.coev(V)) == ne - no

    def test_zigzags(self):
        V = sl.super_space(2, 1)
        dv = sl.dual_space(V)
        left = sl.tensor_map(sl.identity(V), sl.ev(V)) @ sl.tensor_map(sl.coev(V), sl.identity(V))
        right = sl.tensor_map(sl.ev(V), sl.identity(dv)) @ sl.tensor_map(sl.identity(dv), sl.coev(V))
        assert left == sl.identity(V)
        assert right == sl.identity(dv)


class TestTraces:
    def test_supertrace_of_identity(self):
        assert sl.supertrace(sl.identity(sl.super_space(2, 1))) == 1
        assert sl.supertrace(sl.identity(sl.super_space(3, 3))) == 0

    def test_cyclicity(self):
        rng = random.Random(6)
        V = sl.super_space(2, 1)
        for _ in range(5):
            fe, ge = rand_map(rng, V, V, 0), rand_map(rng, V, V, 0)
            fo, go = rand_map(rng, V, V, 1), rand_map(rng, V, V, 1)
            assert sl.supertrace(fe @ ge) == sl.supertrace(ge @ fe)
            assert sl.supertrace(fo @ go) == -sl.supertrace(go @ fo)

    def test_partial_trace_of_identity(self):
        U = sl.super_space(2, 1)
        V = sl.super_space(1, 2)
        big = sl.identity(sl.tensor_space(U, V))
        assert sl.partial_supertrace(big, U, V) == V.sdim * sl.identity(U)

    def test_partial_trace_over_odd_line(self):
        U = sl.super_space(2, 1)
        line = sl.super_space(0, 1)
        big = sl.identity(sl.tensor_space(U, line))
        assert sl.partial_supertrace(big, U, line) == -1 * sl.identity(U)

    def test_partial_trace_consistency(self):
        rng = random.Random(7)
        U = sl.super_space(2, 1)
        VV = sl.tensor_space(U, U)
        for _ in range(20):
            f = rand_map(rng, VV, VV, rng.choice((0, 1)))
            assert sl.supertrace(f) == sl.supertrace(sl.partial_supertrace(f, U, U))

    def test_partial_trace_equals_duality_composite(self):
        rng = random.Random(8)
        U = sl.super_space(1, 1)
        V = sl.super_space(2, 1)
        big_space = sl.tensor_space(U, V)
        for parity in (0, 1):
            f = rand_map(rng, big_space, big_space, parity)
            composite = (
                sl.tensor_map(sl.identity(U), sl.ev_right(V))
                @ sl.tensor_map(f, sl.identity(sl.dual_space(V)))
                @ sl.tensor_map(sl.identity(U), sl.coev(V))
            )
            assert sl.partial_supertrace(f, U, V) == composite


class TestParityShift:
    def test_shift_statistics(self):
        V = sl.super_space(2, 1)
        flipped, sigma = sl.parity_shift(V)
        assert (flipped.dim_even, flipped.dim_odd) == (1, 2)
        assert sigma.parity == sl.ODD
        assert flipped.sdim == -V.sdim

    def test_double_shift_is_even_identity(self):
        V = sl.super_space(2, 1)
        flipped, sigma = sl.parity_shift(V)
        _, sigma2 = sl.parity_shift(flipped)
        back = sigma2 @ sigma
        assert back.parity == 0
        assert back.entries == sl.identity(V).entries


class TestHomogeneity:
    def test_inhomogeneous_entries_rejected(self):
        V = sl.super_space(1, 1)
        with pytest.raises(ValueError):
            sl.SuperMap(V, V, 0, {(0, 1): F(1)})

    def test_mixed_parity_addition_rejected(self):
        V = sl.super_space(1, 1)
        even = sl.identity(V)
        odd = sl.SuperMap(V, V, 1, {(0, 1): F(1)})
        with pytest.raises(ValueError):
            even + odd

    @settings(max_examples=30, deadline=None)
    @given(spaces_strategy(), spaces_strategy(), st.integers(0, 1), st.randoms())
    def test_operations_preserve_homogeneity(self, U, V, parity, pyrng):
        rng = random.Random(pyrng.randint(0, 10**6))
        f = rand_map(rng, U, V, parity)
        # Constructors validate; these must not raise.
        sl.super_transpose(f)
        sl.tensor_map(f, sl.identity(U))
        sl.tensor_map(sl.identity(V), f)


def test_generalized_partial_trace_matches_duality_route():
    rng = random.Random(9)
    A = sl.super_space(1, 1)
    B = sl.super_space(2, 1)
    C = sl.super_space(1, 2)
    dom = sl.tensor_space(A, C)
    cod = sl.tensor_space(B, C)
    for parity in (0, 1):
        h = rand_map(rng, dom, cod, parity)
        composite = (
            sl.tensor_map(sl.identity(B), sl.ev_right(C))
            @ sl.tensor_map(h, sl.identity(sl.dual_space(C)))
            @ sl.tensor_map(sl.identity(A), sl.coev(C))
        )
        assert sl.partial_supertrace_hom(h, A, C, B) == composite


# -- the sparse kernel against naive oracles ---------------------------------------


def _mat_mul(x: dict, y: dict) -> dict:
    """Reference product: every entry pair, zeros popped as they appear."""
    out = {}
    for (a, b), u in x.items():
        for (p, q), v in y.items():
            if b == p:
                w = out.get((a, q), F(0)) + u * v
                if w:
                    out[(a, q)] = w
                else:
                    out.pop((a, q), None)
    return out


def _mat_scomm(x: dict, px: int, y: dict, py: int) -> dict:
    sign = -1 if (px and py) else 1
    out = dict(_mat_mul(x, y))
    for key, v in _mat_mul(y, x).items():
        w = out.get(key, F(0)) - sign * v
        if w:
            out[key] = w
        else:
            out.pop(key, None)
    return out


# Few indices and values of one magnitude, so products and sums often cancel.
small_fracs = st.sampled_from([F(0), F(1), F(-1), F(1, 2), F(-1, 2), F(2)])
sparse_mats = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), small_fracs, max_size=10
)


def _canonical(v) -> bool:
    """Whole values are ints; the others are Fractions with denominator > 1."""
    return type(v) is int or (type(v) is F and v.denominator > 1)


# Ints and whole Fractions side by side, so canonical forms meet non-canonical ones.
MIXED_VALUES = [0, 1, -1, 2, F(0), F(1), F(-1), F(4, 2), F(1, 2), F(-1, 2), F(3, 2)]
mixed_mats = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), st.sampled_from(MIXED_VALUES), max_size=10
)


def _fractions(x: dict) -> dict:
    """The same sparse matrix with every value a Fraction: the oracles' inputs."""
    return {k: F(v) for k, v in x.items()}


def _mixed_map(rng, U, V, parity):
    """A homogeneous map whose entries are drawn from MIXED_VALUES."""
    ent = {(i, j): rng.choice(MIXED_VALUES)
           for i in range(V.dim) for j in range(U.dim)
           if (V.parities[i] + U.parities[j]) % 2 == parity}
    return sl.SuperMap(U, V, parity, ent)


def _tensor_map(f, g) -> dict:
    """Reference Koszul tensor product, dense over all index pairs, in Fractions.

    (f (x) g)[(i, k), (j, l)] = (-1)^{p(g) p(domain_j)} f[i, j] g[k, l].
    """
    out = {}
    for i in range(f.codomain.dim):
        for j in range(f.domain.dim):
            for k in range(g.codomain.dim):
                for l in range(g.domain.dim):
                    sign = F(-1) if g.parity and f.domain.parities[j] else F(1)
                    v = sign * F(f.entry(i, j)) * F(g.entry(k, l))
                    if v:
                        out[(i * g.codomain.dim + k, j * g.domain.dim + l)] = v
    return out


class TestSparseKernel:
    @settings(max_examples=200, deadline=None)
    @given(sparse_mats, sparse_mats)
    def test_mat_mul_matches_oracle(self, x, y):
        out = sl.mat_mul(x, y)
        assert out == _mat_mul(x, y)
        assert all(out.values())

    @settings(max_examples=200, deadline=None)
    @given(sparse_mats, st.integers(0, 1), sparse_mats, st.integers(0, 1))
    def test_mat_scomm_matches_oracle(self, x, px, y, py):
        out = sl.mat_scomm(x, px, y, py)
        assert out == _mat_scomm(x, px, y, py)
        assert all(out.values())

    def test_commutator_cancels(self):
        x = {(0, 1): F(1), (1, 0): F(1)}
        assert sl.mat_scomm(x, 0, x, 0) == {}
        assert sl.mat_scomm(x, 1, x, 1) == {(0, 0): F(2), (1, 1): F(2)}

    def test_nonzero(self):
        assert sl._nonzero({1: F(0), 2: F(3), 3: 0}) == {2: F(3)}

    def test_nonzero_makes_values_canonical(self):
        out = sl._nonzero({1: F(4, 2), 2: F(-1, 2), 3: -1, 4: F(0)})
        assert out == {1: 2, 2: F(-1, 2), 3: -1} and all(map(_canonical, out.values()))
        with pytest.raises((AttributeError, TypeError)):  # a float is never rounded
            sl._nonzero({1: 0.5})

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 4), st.sampled_from(MIXED_VALUES)), max_size=12))
    def test_summed_matches_plain_loop(self, pairs):
        want = {}
        for k, v in pairs:  # the oracle: plain Fraction sums, zeros popped at the end
            want[k] = want.get(k, F(0)) + F(v)
        want = {k: v for k, v in want.items() if v != 0}
        out = sl._summed(iter(pairs))
        assert out == want
        assert all(out.values()) and all(map(_canonical, out.values()))
        assert all(type(exact(v)) is type(v) for v in out.values())
        half = len(pairs) // 2  # a start dict takes the first half's sums
        assert sl._summed(pairs[half:], sl._summed(pairs[:half])) == want

    def test_summed_cancels_and_refuses_floats(self):
        assert sl._summed([(1, F(1, 2)), (2, 3), (1, F(-1, 2)), (2, -1)]) == {2: 2}
        with pytest.raises((AttributeError, TypeError)):  # a float is never rounded
            sl._summed([(1, 1), (1, 0.5)])

    @settings(max_examples=200, deadline=None)
    @given(mixed_mats, st.dictionaries(st.integers(0, 3), st.sampled_from(MIXED_VALUES)))
    def test_apply_is_mat_mul_on_one_column(self, x, vec):
        space = sl.super_space(4, 0)
        out = sl.SuperMap._of(space, space, 0, x).apply(vec)
        column = sl.mat_mul(x, {(j, 0): c for j, c in vec.items()})
        assert out == {i: v for (i, _), v in column.items()}
        assert all(map(_canonical, out.values()))
        flipped = {(j, i): v for (i, j), v in x.items()}
        assert sl.mat_columns(x, transpose=True) == sl.mat_columns(flipped)

    @settings(max_examples=200, deadline=None)
    @given(mixed_mats, mixed_mats)
    def test_mat_mul_on_mixed_operands(self, x, y):
        out = sl.mat_mul(x, y)
        assert out == _mat_mul(_fractions(x), _fractions(y))
        assert all(_canonical(v) for v in out.values())

    @settings(max_examples=200, deadline=None)
    @given(mixed_mats, st.integers(0, 1), mixed_mats, st.integers(0, 1))
    def test_mat_scomm_on_mixed_operands(self, x, px, y, py):
        out = sl.mat_scomm(x, px, y, py)
        assert out == _mat_scomm(_fractions(x), px, _fractions(y), py)
        assert all(_canonical(v) for v in out.values())

    @settings(max_examples=60, deadline=None)
    @given(spaces_strategy(), spaces_strategy(), spaces_strategy(), spaces_strategy(),
           st.integers(0, 1), st.integers(0, 1), st.randoms(use_true_random=False))
    def test_tensor_map_on_mixed_operands(self, U, V, X, Y, p, q, rnd):
        rng = random.Random(rnd.randint(0, 10**6))
        f, g = _mixed_map(rng, U, V, p), _mixed_map(rng, X, Y, q)
        t = sl.tensor_map(f, g)
        assert t.entries == _tensor_map(f, g)
        assert all(_canonical(v) for v in t.entries.values())


def _unit_map(rng, U, V, parity):
    """A homogeneous map with entries +-1, so sums and products cancel often."""
    ent = {
        (i, j): F(rng.choice((-1, 1)))
        for i in range(V.dim)
        for j in range(U.dim)
        if (V.parities[i] + U.parities[j]) % 2 == parity and rng.random() < 0.6
    }
    return sl.SuperMap(U, V, parity, ent)


def _assert_kernel_result(r):
    assert r == sl.SuperMap(r.domain, r.codomain, r.parity, dict(r.entries))
    assert all(r.entries.values())
    assert all(_canonical(v) for v in r.entries.values())


class TestKernelResults:
    @settings(max_examples=60, deadline=None)
    @given(spaces_strategy(), spaces_strategy(), spaces_strategy(),
           st.integers(0, 1), st.integers(0, 1), st.randoms(use_true_random=False))
    def test_results_are_valid_maps(self, U, V, W, p, q, rnd):
        rng = random.Random(rnd.randint(0, 10**6))
        f, f2 = _unit_map(rng, U, V, p), _unit_map(rng, U, V, p)
        g = _unit_map(rng, V, W, q)
        c = rng.choice((F(0), F(-1), F(2, 3)))
        results = [g @ f, f + f2, f - f2, f + (-1) * f, c * f, -f,
                   sl.tensor_map(f, g), sl.super_transpose(f)]
        h = _unit_map(rng, sl.tensor_space(U, W), sl.tensor_space(V, W), p)
        results.append(sl.partial_supertrace_hom(h, U, W, V))
        for r in results:
            _assert_kernel_result(r)
        assert (f + (-1) * f).is_zero()

    def test_out_of_range_entry_rejected(self):
        V = sl.super_space(1, 1)
        with pytest.raises(ValueError):
            sl.SuperMap(V, V, 0, {(2, 0): F(1)})

    def test_public_constructor_converts_and_drops_zeros(self):
        V = sl.super_space(2, 0)
        m = sl.SuperMap(V, V, 0, {(0, 0): 1, (1, 1): 0})
        assert m.entries == {(0, 0): F(1)} and _canonical(m.entries[(0, 0)])
        m = sl.SuperMap(V, V, 0, {(0, 0): F(6, 3), (1, 1): F(1, 2), (0, 1): F(0)})
        assert m.entries == {(0, 0): 2, (1, 1): F(1, 2)}
        assert all(_canonical(v) for v in m.entries.values())

    @pytest.mark.parametrize("bad", [0.1, 1.0, 0.0, "1/2", 1j, Decimal("0.5")], ids=repr)
    def test_inexact_entries_and_scalars_raise_type_error(self, bad):
        V = sl.super_space(1, 1)
        with pytest.raises(TypeError):
            sl.SuperMap(V, V, 0, {(0, 0): bad})
        with pytest.raises(TypeError):
            bad * sl.identity(V)
