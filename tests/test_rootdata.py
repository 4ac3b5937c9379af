import json
import random
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from supertrace import rootdata
from supertrace.exactnum import HSeries, q_bracket
from supertrace.rootdata import (
    AtypicalWeightError,
    Root,
    RootDataError,
    RootSystem,
    Weight,
    build_root_system,
    weight,
)


class TestBuild:
    def test_sl21_roots(self, rs21):
        assert [r.coeffs for r in rs21.pos_even] == [(1, 0)]
        assert sorted(r.coeffs for r in rs21.pos_odd) == [(0, 1), (1, 1)]
        assert rs21.s == 1
        assert rs21.rho == (F(0), F(-1))  # rho = -alpha_2

    def test_odd_root_counts(self):
        for m, n in ((2, 1), (3, 1), (3, 2), (1, 2)):
            rs = build_root_system("sl", m, n)
            assert len(rs.pos_odd) == m * n
            s = rs.s
            assert all(r.coeffs[s] == 1 for r in rs.pos_odd)

    def test_sl31_counts(self, rs31):
        assert len(rs31.pos_even) == 3
        assert len(rs31.pos_odd) == 3

    def test_equal_dims_rejected(self):
        with pytest.raises(RootDataError):
            build_root_system("sl", 2, 2)

    def test_rho_halves(self, rs31):
        for even in (True, False):
            roots = rs31.pos_even if even else rs31.pos_odd
            target = rs31.rho0 if even else rs31.rho1
            acc = [F(0)] * rs31.rank
            for r in roots:
                acc = [a + c for a, c in zip(acc, r.coeffs)]
            assert tuple(x / 2 for x in acc) == target
        assert rs31.rho == tuple(a - b for a, b in zip(rs31.rho0, rs31.rho1))

    def test_rho_pairs_with_simple_roots(self, rs31):
        for i in range(rs31.rank):
            unit = [0] * rs31.rank
            unit[i] = 1
            assert 2 * rs31.form_rr(rs31.rho, unit) == rs31.gram(i, i)

    def test_osp22_cartan(self):
        rs = build_root_system("osp2", 1)
        assert rs.cartan.a == ((0, 1), (-1, 2))
        assert rs.cartan.d == (2, -2)
        assert len(rs.pos_even) == 1 and len(rs.pos_odd) == 2

    def test_osp26_counts(self):
        rs = build_root_system("osp2", 3)
        assert len(rs.pos_even) == 9  # n^2
        assert len(rs.pos_odd) == 6  # 2n
        assert rs.s == 0


class TestEpsilonDelta:
    """Roots listed as epsilon-delta vectors: ``_assemble`` against the hand enumeration."""

    ALGEBRAS = ([("sl", m, n) for m in range(1, 6) for n in range(1, 6) if m != n]
                + [("osp2", n) for n in range(1, 7)])

    @pytest.mark.parametrize("args", ALGEBRAS, ids=lambda a: "".join(map(str, a)))
    def test_roots_and_cartan_match_the_hand_enumeration(self, args):
        rs = build_root_system(*args)
        by_hand = oracles.sl_roots_by_hand if args[0] == "sl" else oracles.osp2_roots_by_hand
        roots, cartan = by_hand(*args[1:])
        assert [(r.coeffs, r.parity) for r in rs.pos_even] == [x for x in roots if x[1] == 0]
        assert [(r.coeffs, r.parity) for r in rs.pos_odd] == [x for x in roots if x[1] == 1]
        assert rs.cartan.a == cartan

    def test_peel_refuses_a_remainder_and_a_leftover(self):
        osp22 = [(1, -1), (0, 2)]  # eps - delta_1, 2 delta_1
        assert rootdata._peel(osp22, (1, 1)) == (1, 1)
        with pytest.raises(RootDataError, match="not an integral combination"):
            rootdata._peel(osp22, (0, 1))  # delta_1: a remainder on the pivot of 2 delta_1
        sl21 = [(1, -1, 0), (0, 1, -1)]
        with pytest.raises(RootDataError, match="not an integral combination"):
            rootdata._peel(sl21, (1, 0, 0))  # eps_1: a leftover on delta_1

    def test_assemble_refuses_a_non_integral_cartan_entry(self):
        simple = [(1, -1, 0), (0, 1, -1)]
        with pytest.raises(RootDataError, match="non-integral"):
            rootdata._assemble("sl", 2, 1, [1, 1, -1], [2, -1], simple, simple)

    def test_osp2_refuses_a_second_dimension(self):
        assert build_root_system("osp2", 2).n == 4
        with pytest.raises(RootDataError, match="one dimension"):
            build_root_system("osp2", 2, 4)


class TestForm:
    def test_isotropic_odd_root(self, rs21):
        alpha2 = rs21.pos_odd[-1]
        assert rs21.form(alpha2, alpha2) == 0

    def test_rho_against_highest_root(self, rs21):
        theta = next(r for r in rs21.pos_odd if r.coeffs == (1, 1))
        assert rs21.form_rr(rs21.rho, theta.coeffs) == 1

    def test_symmetry(self, rs31):
        rng = random.Random(9)
        for _ in range(10):
            x = [rng.randint(-3, 3) for _ in range(rs31.rank)]
            y = [rng.randint(-3, 3) for _ in range(rs31.rank)]
            assert rs31.form_rr(x, y) == rs31.form_rr(y, x)

    def test_weight_root_coordinate_roundtrip(self, rs31):
        rng = random.Random(10)
        for _ in range(5):
            w = weight(*(F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(rs31.rank)))
            coords = rs31.weight_to_root_coords(w)
            assert rs31.root_to_weight(coords) == w

    def test_weight_weight_pairing(self, rs21):
        w = rs21.root_to_weight(rs21.rho)
        assert rs21.form(w, w) == rs21.form_rr(rs21.rho, rs21.rho)


class TestWeightLength:
    METHODS = (
        "mod_sdim", "qmod_sdim", "is_typical", "atypicality_factors",
        "is_dominant_finite", "weight_to_root_coords",
    )

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("coords", [(0, 1, 5), (1,), ()])
    def test_wrong_length_rejected(self, rs21, method, coords):
        with pytest.raises(RootDataError):
            getattr(rs21, method)(weight(*coords))

    def test_wrong_length_in_pairings(self, rs21):
        root = rs21.pos_odd[0]
        with pytest.raises(RootDataError):
            rs21.pairing_with_rho_shift(weight(0, 1, 5), root)
        with pytest.raises(RootDataError):
            rs21.form(weight(1), root)
        with pytest.raises(RootDataError):
            rs21.form(weight(0, 1), weight(0, 1, 0))


class TestInexactWeights:
    @pytest.mark.parametrize("x", [0.1, 0.5, Decimal("0.5"), 1j], ids=repr)
    def test_inexact_coordinates_refused(self, x):
        with pytest.raises(TypeError):
            weight(0, x)
        with pytest.raises(TypeError):
            Weight((x, 0))

    def test_exact_coordinates_accepted(self, rs21):
        assert weight(1, F(1, 2)) == weight(1, "1/2") == Weight((1, F(1, 2)))
        assert weight("-3/4", 2).a == (F(-3, 4), F(2))
        assert rs21.mod_sdim(weight(0, "1/2")) == rs21.mod_sdim(weight(0, F(1, 2)))


class TestTypicality:
    def test_sl21_one_parameter_family(self, rs21):
        for a in (F(1), F(2), F(-3), F(1, 2), F(-5, 3)):
            assert rs21.is_typical(weight(0, a))
        assert not rs21.is_typical(weight(0, 0))
        assert not rs21.is_typical(weight(0, -1))

    def test_sl21_general_atypical_locus(self, rs21):
        for a1 in (0, 1, 2, 5):
            atypical = {
                a for a in range(-8, 8) if not rs21.is_typical(weight(a1, a))
            }
            assert atypical == {0, -a1 - 1}

    def test_sl31_example(self, rs31):
        assert not rs31.is_typical(weight(0, 0, -2))
        assert rs31.is_typical(weight(0, 0, F(1, 3)))

    def test_dominance(self, rs21, rs31):
        assert rs21.is_dominant_finite(weight(3, F(7, 2)))
        assert not rs21.is_dominant_finite(weight(-1, 0))
        assert rs31.is_dominant_finite(weight(0, 2, -5))
        assert not rs31.is_dominant_finite(weight(0, F(1, 2), 0))


class TestModifiedDimension:
    def test_smallest_cases(self, rs21, rs31):
        assert rs21.mod_sdim(weight(0, 1)) == F(1, 2)
        assert rs31.mod_sdim(weight(0, 0, 2)) == F(1, 24)

    def test_general_sl21_formula(self, rs21):
        # Independent oracle: (a1+1) / (a (a + a1 + 1)).
        rng = random.Random(11)
        for _ in range(15):
            a1 = rng.randint(0, 4)
            a = F(rng.randint(-9, 9), rng.randint(1, 5))
            if a == 0 or a == -a1 - 1:
                continue
            expect = F(a1 + 1) / (a * (a + a1 + 1))
            assert rs21.mod_sdim(weight(a1, a)) == expect
        assert rs21.mod_sdim(weight(1, 1)) == F(2, 3)

    def test_closed_form_sl_n1(self):
        for n in (2, 3, 4):
            rs = build_root_system("sl", n, 1)
            for a in (F(1), F(2), F(7), F(1, 2), F(-7, 3), F(5, 4), F(-9, 2), F(11), F(3, 7), F(-13, 5)):
                lam = weight(*([0] * (n - 1) + [a]))
                expect = F(1)
                for i in range(n):
                    expect /= a + i
                assert rs.mod_sdim(lam) == expect

    def test_atypical_rejected(self, rs21):
        with pytest.raises(AtypicalWeightError):
            rs21.mod_sdim(weight(0, 0))

    def test_pole_set_equals_atypical_locus(self, rs21):
        # Scan a 1-parameter family: vanishing odd factors and is_typical agree.
        for a1 in (0, 1, 2):
            t = F(-4)
            while t <= 4:
                w = weight(a1, t)
                pole = any(v == 0 for v in rs21.atypicality_factors(w))
                assert pole == (not rs21.is_typical(w))
                if not rs21.is_typical(w):
                    assert t.denominator == 1
                t += F(1, 3)


class TestDeformedDimension:
    def test_smallest_series(self, rs21):
        series = rs21.qmod_sdim(weight(0, 1), 4)
        assert series.coeffs == (F(1, 2), 0, F(-5, 48), 0, F(53, 3840))

    def test_series_against_bracket_oracle(self, rs21):
        # Long division of explicitly assembled bracket factors.
        order = 8
        lam = weight(1, F(3, 2))
        v = len(rs21.pos_even) + len(rs21.pos_odd)
        num = HSeries.one(order + v)
        den = HSeries.one(order + v)
        for alpha in rs21.pos_even:
            num = num * q_bracket(rs21.pairing_with_rho_shift(lam, alpha), order + v)
            den = den * q_bracket(rs21.form_rr(rs21.rho, alpha.coeffs), order + v)
        for alpha in rs21.pos_odd:
            den = den * q_bracket(rs21.pairing_with_rho_shift(lam, alpha), order + v)
        shift = [F(0)] * (order + v + 1)
        shift[len(rs21.pos_odd)] = F(1)
        num = num * HSeries.from_coeffs(shift, order=order + v)
        assert rs21.qmod_sdim(lam, order) == num.divide(den)

    def test_classical_limit_and_parity(self, rs21, rs31):
        systems = {
            "sl21": (rs21, [weight(0, a) for a in (1, 2, F(1, 2))] + [weight(1, 1), weight(2, F(-7, 3))]),
            "sl31": (rs31, [weight(0, 0, a) for a in (1, F(5, 2))] + [weight(1, 0, 2)]),
            "osp22": (build_root_system("osp2", 1), [weight(a, b) for a, b in ((1, 1), (F(1, 2), 1), (3, 1), (-2, 0))]),
        }
        for rs, weights in systems.values():
            for lam in weights:
                series = rs.qmod_sdim(lam, 6)
                assert series.constant_term == rs.mod_sdim(lam)
                assert all(series.coeffs[k] == 0 for k in range(1, 7, 2))

    def test_atypical_rejected(self, rs21):
        with pytest.raises(AtypicalWeightError):
            rs21.qmod_sdim(weight(0, -1), 4)


class TestSerialization:
    def test_json_roundtrip(self, rs21):
        data = json.loads(rs21.to_json())
        assert data["family"] == "sl"
        assert data["cartan_matrix"] == [[2, -1], [-1, 0]]
        assert data["pos_odd"] == [[1, 1], [0, 1]]
        assert data["rho"] == ["0", "-1"]


class TestOsp24:
    def test_cartan(self):
        rs = build_root_system("osp2", 2)
        assert rs.cartan.a == ((0, 1, 0), (-1, 2, -2), (0, -1, 2))
        assert rs.cartan.d == (1, -1, -2)
        assert len(rs.pos_even) == 4 and len(rs.pos_odd) == 4

    def test_classical_limit_family(self):
        rs = build_root_system("osp2", 2)
        count = 0
        for a1 in (F(1, 2), 1, 2, F(-3, 2), 5, -1, F(7, 3), 3, -2, F(9, 4), 4):
            lam = weight(a1, 1, 0)
            if not rs.is_typical(lam):
                continue
            series = rs.qmod_sdim(lam, 4)
            assert series.constant_term == rs.mod_sdim(lam)
            assert series.coeffs[1] == 0 == series.coeffs[3]
            count += 1
        assert count >= 8

    def test_weight_root_coordinate_roundtrip(self):
        rs = build_root_system("osp2", 2)
        rng = random.Random(24)
        for _ in range(10):
            coords = tuple(F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(rs.rank))
            assert rs.weight_to_root_coords(rs.root_to_weight(coords)) == coords
            w = weight(*(F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(rs.rank)))
            assert rs.root_to_weight(rs.weight_to_root_coords(w)) == w


class TestKeptRhoPairings:
    """<rho, alpha> is kept per positive root on each RootSystem (``rho_pairings``)."""

    ALGEBRAS = [("sl", 2, 1), ("sl", 3, 1), ("sl", 3, 2), ("osp2", 2)]

    def test_kept_once_per_positive_root(self):
        for args in self.ALGEBRAS:
            rs = build_root_system(*args)
            assert rs.rho_pairings is rs.rho_pairings
            assert set(rs.rho_pairings) == {a.coeffs for a in rs.pos_even + rs.pos_odd}

    def test_a_root_that_is_not_positive_pairs_through_the_form(self):
        rs = build_root_system("sl", 3, 1)
        w = weight(1, F(1, 2), 2)
        for alpha in rs.pos_even + rs.pos_odd:
            negative = Root(tuple(-c for c in alpha.coeffs), alpha.parity)
            assert negative.coeffs not in rs.rho_pairings
            want = oracles.pairing_with_rho_shift_by_form(rs, w, negative)
            assert rs.pairing_with_rho_shift(w, negative) == want
            assert want == -rs.form_wr(w, alpha.coeffs) - rs.rho_pairings[alpha.coeffs]

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(ALGEBRAS), st.data())
    def test_pairings_match_the_form_route(self, args, data):
        rs = build_root_system(*args)
        coord = st.one_of(st.integers(-3, 3), st.fractions(-5, 5, max_denominator=4))
        w = weight(*(data.draw(coord) for _ in range(rs.rank)))
        for root in rs.pos_even + rs.pos_odd:
            assert rs.pairing_with_rho_shift(w, root) == oracles.pairing_with_rho_shift_by_form(rs, w, root)
        factors = rs.atypicality_factors(w)
        assert factors == oracles.atypicality_factors_by_form(rs, w)
        if all(factors):
            assert rs.mod_sdim(w) == oracles.mod_sdim_by_form(rs, w)
        else:
            for route in (rs.mod_sdim, lambda w: oracles.mod_sdim_by_form(rs, w)):
                with pytest.raises(AtypicalWeightError):
                    route(w)

    def test_typicality_and_dimensions_walk_no_form(self, monkeypatch):
        rs = build_root_system("sl", 3, 1)
        lam = weight(1, 0, F(1, 2))
        want = (rs.is_typical(lam), rs.mod_sdim(lam), rs.qmod_sdim(lam, 3))

        def walked(*args):
            raise AssertionError("form_rr walked")

        monkeypatch.setattr(RootSystem, "form_rr", walked)
        assert (rs.is_typical(lam), rs.mod_sdim(lam), rs.qmod_sdim(lam, 3)) == want
