import dataclasses
import random
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_combination, rand_map
from supertrace import mtrace as mt
from supertrace import repmod as rm
from supertrace import superlin as sl
from supertrace.rootdata import weight
from supertrace.suites import run_verification


@pytest.fixture(scope="module")
def shifted(roster):
    return rm.parity_shift_module(roster.A), rm.witness_parity_shift(roster.wA)


class TestBracket:
    def test_identity_through_trivial_witness(self, roster):
        assert mt.bracket(sl.identity(roster.A.space), roster.wA) == 1

    def test_scaling(self, roster):
        assert mt.bracket(2 * sl.identity(roster.A.space), roster.wA) == 2

    def test_odd_endomorphism_gives_zero(self, roster, shifted):
        D, wD = shifted
        A = roster.A
        S = rm.direct_sum_module(A, D)
        wS = rm.witness_dsum(roster.wA, wD)
        ent = {}
        for (i, j), v in rm.sigma_map(A).entries.items():
            ent[(i + A.dim, j)] = v
        for (i, j), v in rm.sigma_inverse(A).entries.items():
            ent[(i, j + A.dim)] = v
        f_odd = sl.SuperMap(S.space, S.space, sl.ODD, ent)
        assert mt.bracket(f_odd, wS) == 0
        assert mt.modified_trace(f_odd, wS) == 0

    def test_g_linearity_actions_are_built_once_per_witness(self, roster, monkeypatch):
        w, built, cls = dataclasses.replace(roster.wA), [], rm.FactorwiseAction
        monkeypatch.setattr(rm, "FactorwiseAction", lambda *a, **k: built.append(a) or cls(*a, **k))
        for c in (1, 2, 3):
            assert mt.bracket(c * sl.identity(w.V.space), w) == c
        assert len(built) == 2  # the transposed action and the scaled one, on the first bracket

    def test_non_g_linear_input_rejected(self, roster):
        rng = random.Random(13)
        bad = rand_map(rng, roster.A.space, roster.A.space, 0)
        with pytest.raises(mt.BracketError):
            mt.bracket(bad, roster.wA)


class TestModifiedTrace:
    def test_identity_values(self, roster):
        assert mt.modified_trace(sl.identity(roster.A.space), roster.wA) == F(1, 2)
        assert mt.modified_trace(sl.identity(roster.B.space), roster.wB) == F(2, 3)
        # A whole value is the canonical int, as everywhere else.
        whole = mt.modified_trace(2 * sl.identity(roster.A.space), roster.wA)
        assert type(whole) is int and whole == 1

    def test_d_is_computed_once_per_witness(self, roster, monkeypatch):
        w, calls = dataclasses.replace(roster.wB), []
        mod_sdim = type(roster.rs).mod_sdim
        monkeypatch.setattr(type(roster.rs), "mod_sdim",
                            lambda rs, lam: calls.append(lam) or mod_sdim(rs, lam))
        idb = sl.identity(roster.B.space)
        assert [mt.modified_trace(idb, w) for _ in range(2)] == [F(2, 3)] * 2
        assert calls == [w.V0.highest_weight]

    def test_witness_independence(self, roster):
        idb = sl.identity(roster.B.space)
        assert mt.modified_trace(idb, roster.wB) == mt.modified_trace(idb, roster.wB_via_A)

    def test_scalar_rule_on_typical_irreducible(self, roster):
        # str'(c Id) = c d(V) through any witness.
        d = roster.rs.mod_sdim(weight(1, 1))
        for w in (roster.wB, roster.wB_via_A):
            assert mt.modified_trace(F(-7, 3) * sl.identity(roster.B.space), w) == F(-7, 3) * d


class TestTraceProperties:
    def test_cyclicity_odd_pair(self, roster, shifted):
        D, wD = shifted
        sig, sig_inv = rm.sigma_map(roster.A), rm.sigma_inverse(roster.A)
        lhs = mt.modified_trace(sig @ sig_inv, wD)
        rhs = -mt.modified_trace(sig_inv @ sig, roster.wA)
        assert lhs == rhs == -F(1, 2)

    def test_factorization(self, roster):
        ids = sl.identity(roster.std.space)
        ida = sl.identity(roster.A.space)
        assert mt.modified_trace(sl.tensor_map(ida, ids), roster.wC) == F(1, 2)

    def test_partial_trace_identity_case(self, roster):
        # ptr of the identity rescales by sdim(std) = 1.
        f = sl.identity(roster.C.space)
        lhs = mt.modified_trace(f, roster.wC)
        rhs = mt.modified_trace(
            sl.partial_supertrace(f, roster.A.space, roster.std.space), roster.wA
        )
        assert lhs == rhs == F(1, 2)

    def test_vanishing_supertrace_on_end_bases(self, roster):
        for V, w in ((roster.A, roster.wA), (roster.B, roster.wB), (roster.C, roster.wC)):
            for fmap in rm.hom_space(V, V, None):
                assert mt.classical_str_is_zero(w, fmap)

    def test_supertrace_negative_control(self, roster):
        rng = random.Random(14)
        control = rand_map(rng, roster.A.space, roster.A.space, 0)
        assert sl.supertrace(control) != 0


class TestConjugationOperators:
    def test_psi_sharp_of_identity(self, roster):
        A = roster.A.space
        S = roster.std.space
        ident = sl.identity(sl.tensor_space(A, S))
        # With U = V' and V = U' swapped slots, tau . Id . tau = Id.
        assert mt.psi_sharp(ident, (A, S), (A, S)) == sl.identity(sl.tensor_space(S, A))

    def test_psi_sharp_involution(self, roster):
        rng = random.Random(15)
        A, S = roster.A.space, roster.std.space
        dom = sl.tensor_space(A, S)
        cod = sl.tensor_space(S, A)
        for _ in range(5):
            h = rand_map(rng, dom, cod, 0)
            once = mt.psi_sharp(h, (A, S), (S, A))
            twice = mt.psi_sharp(once, (S, A), (A, S))
            assert twice == h

    def test_invariance_even_operators(self, roster):
        rng = random.Random(16)
        A, wA = roster.A, roster.wA
        AA = rm.tensor_module(A, A)
        basis = rm.hom_space(AA, AA, 0)
        assert len(basis) >= 2
        ida = sl.identity(A.space)
        for _ in range(4):
            h = rand_combination(basis, rng)
            f = F(rng.randint(1, 5)) * ida
            g = F(rng.randint(1, 5)) * ida
            left, right = mt.trace_invariance_sides(h, A, A, A, A, f, g, wA, wA)
            assert left == right

    def test_invariance_odd_psi_odd_f(self, roster, shifted):
        rng = random.Random(17)
        A, wA = roster.A, roster.wA
        D, wD = shifted
        AD = rm.tensor_module(A, D)
        AA = rm.tensor_module(A, A)
        basis = rm.hom_space(AD, AA, 1)
        assert basis
        sig = rm.sigma_map(A)
        nonzero = 0
        for _ in range(4):
            h = rand_combination(basis, rng)
            f = F(rng.randint(1, 5)) * sig
            g = F(rng.randint(1, 5)) * sl.identity(A.space)
            left, right = mt.trace_invariance_sides(h, A, D, A, A, f, g, wA, wD)
            assert left == right
            nonzero += left != 0
        assert nonzero  # the sign really was exercised on nonzero values


def test_verify_trace_properties_report():
    report = run_verification(["trace"])
    assert report["pass"] is True
    ids = {c["check"] for c in report["checks"]}
    assert "trace.witness-independence" in ids and "trace.partial-trace-property" in ids


def test_cyclicity_with_inverse_isomorphisms(roster):
    # An isomorphic copy of K(0|1) obtained by rescaling the basis; the pair
    # (P, P^{-1}) is a mutually inverse even g-linear isomorphism pair.
    A = roster.A
    scale = [F(1), F(2), F(-3), F(5, 7)]
    P = sl.SuperMap(A.space, A.space, 0, {(i, i): scale[i] for i in range(A.dim)})
    P_inv = sl.SuperMap(A.space, A.space, 0, {(i, i): 1 / scale[i] for i in range(A.dim)})
    conj = lambda x: P @ x @ P_inv
    copy = rm.GModule(
        A.rs, A.space,
        tuple(conj(x) for x in A.e), tuple(conj(x) for x in A.f), "K(0,1)-copy", A.highest_weight,
    )
    rm.verify_relations(copy)
    w_copy = rm.trivial_witness(copy)
    lhs = mt.modified_trace(P @ P_inv, w_copy)   # Id on the copy
    rhs = mt.modified_trace(P_inv @ P, roster.wA)  # Id on the original
    assert lhs == rhs == F(1, 2)


def _bracket_by_composite(f, w):
    """The composite form of bracket: ptr_W of the V0 (x) W endomorphism beta . f . alpha."""
    reduced = sl.partial_supertrace(w.beta @ f @ w.alpha, w.V0.space, w.w_space)
    c = F(0) if f.parity == sl.ODD else reduced.entry(0, 0)
    if reduced.entries != {(i, i): c for i in range(w.V0.dim) if c}:
        raise mt.BracketError("not proportional to the identity")
    return c


class TestBracketContraction:
    @pytest.fixture(scope="class")
    def witnesses(self, roster, shifted):
        wS = rm.witness_dsum(roster.wA, shifted[1])
        return [roster.wA, roster.wB, roster.wB_via_A, roster.wC, roster.wD, wS,
                rm.witness_tensor(roster.wB_via_A, roster.std)]

    @pytest.fixture(scope="class")
    def ends(self, witnesses):
        return {id(w): {p: rm.hom_space(w.V, w.V, p) for p in (0, 1)} for w in witnesses}

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_composite(self, witnesses, ends, data):
        w = data.draw(st.sampled_from(witnesses))
        parity = data.draw(st.sampled_from([0, 1]))
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        basis = ends[id(w)][parity]
        if basis and data.draw(st.booleans()):
            f = rand_combination(basis, rng)
        else:  # not g-linear: both forms must agree on the scalar or both raise
            f = rand_map(rng, w.V.space, w.V.space, parity)
        # The contraction alone is compared: g-linearity is not checked (a patch, not a fixture,
        # since hypothesis reruns the body).
        with mock.patch.object(mt, "_check_g_linear", return_value=True):
            try:
                want = _bracket_by_composite(f, w)
            except mt.BracketError:
                with pytest.raises(mt.BracketError):
                    mt.bracket(f, w)
                return
            assert mt.bracket(f, w) == want


def _bracket_tables_uncached(w):
    """B and alpha's signed rows of ``bracket``, re-keyed from the witness maps on every call."""
    dw, par = w.w_space.dim, w.w_space.parities
    B = {(row // dw, a * dw + row % dw): b for (row, a), b in w.beta.entries.items()}
    rows = {}
    for (k, col), v in w.alpha.entries.items():
        rows.setdefault(k, []).append((col % dw, col // dw, -v if par[col % dw] else v))
    return B, {k: sorted(row) for k, row in rows.items()}


def _bracket_uncached(f, w):
    """``bracket`` with its tables rebuilt for the call: B . F, F[(a,u), j] = +-(f . alpha)[a, (j,u)]."""
    B, rows = _bracket_tables_uncached(w)
    F_ = {}
    for (a, k), v in f.entries.items():
        for u, j, x in rows.get(k, ()):
            key = (a * w.w_space.dim + u, j)
            F_[key] = F_.get(key, 0) + v * x
    reduced = sl.mat_mul(B, F_)
    c = 0 if f.parity else reduced.get((0, 0), 0)
    if reduced != {(i, i): c for i in range(w.V0.dim) if c}:
        raise mt.BracketError("not proportional to the identity")
    return c


class TestBracketTablesKeptPerWitness:
    @pytest.fixture(scope="class")
    def witnesses(self, roster, shifted):
        # One witness of each construction: ideal_witness, witness_dsum, witness_parity_shift.
        return [roster.wB_via_A, rm.witness_dsum(roster.wA, shifted[1]), roster.wD]

    def test_tables_equal_the_uncached_route(self, witnesses):
        for w in witnesses:
            B, rows = _bracket_tables_uncached(w)
            assert w.beta_keyed == B
            assert {k: sorted(row) for k, row in w.alpha_rows.items()} == rows

    def test_values_equal_the_uncached_route(self, witnesses):
        rng = random.Random(17)
        with mock.patch.object(mt, "_check_g_linear", return_value=True):  # the contraction alone
            for w in witnesses:
                for parity in (0, 1):
                    for f in rm.hom_space(w.V, w.V, parity) + [rand_map(rng, w.V.space, w.V.space, parity)]:
                        f = rand_combination([f], rng)
                        try:
                            want = _bracket_uncached(f, w)
                        except mt.BracketError:
                            with pytest.raises(mt.BracketError):
                                mt.bracket(f, w)
                            continue
                        assert mt.bracket(f, w) == want == _bracket_by_composite(f, w)

    def test_tables_are_built_once_per_witness(self, witnesses, monkeypatch):
        calls = []
        for name in ("beta_keyed", "alpha_rows"):
            prop = rm.IdealWitness.__dict__[name]
            monkeypatch.setattr(prop, "func",
                                lambda w, func=prop.func, name=name: calls.append(name) or func(w))
        for w in witnesses:
            fresh = dataclasses.replace(w)
            ident = sl.identity(fresh.V.space)
            one = _bracket_uncached(ident, w)
            for c in (1, 2, F(-1, 3)):
                assert mt.bracket(c * ident, fresh) == c * one
        assert sorted(calls) == sorted(["alpha_rows", "beta_keyed"] * len(witnesses))
