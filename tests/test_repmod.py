import json
import os
import random
import tempfile
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supertrace import repmod as rm
from supertrace import superlin as sl
from supertrace.rootdata import AtypicalWeightError, weight


@pytest.fixture(scope="module")
def std(rs21):
    return rm.standard_module(rs21)


@pytest.fixture(scope="module")
def K01(roster):
    return roster.A


@pytest.fixture(scope="module")
def K11(roster):
    return roster.B


class TestStandardModule:
    def test_h2_matrix(self, std):
        assert std.h[1].entries == {(1, 1): F(1), (2, 2): F(1)}

    def test_highest_weight(self, std):
        assert std.highest_weight == weight(1, 0)
        assert all(not e.apply({0: F(1)}) for e in std.e)

    def test_sdim(self, std):
        assert std.sdim == 1

    def test_relations_fail_loudly(self, rs21, std):
        broken = rm.GModule(
            rs21, std.space, std.e, std.e, std.h, std.basis_weights, "broken"
        )
        with pytest.raises(rm.ModuleRelationError):
            rm.verify_relations(broken)


class TestConstructions:
    def test_tensor_relations_hold(self, rs21, std):
        rm.tensor_module(std, std)  # construction verifies and would raise

    def test_dual_of_dual_weights(self, K01):
        dd = rm.dual_module(rm.dual_module(K01))
        assert sorted(dd.basis_weights) == sorted(K01.basis_weights)

    def test_sdim_multiplicative(self, std, K01):
        t = rm.tensor_module(std, rm.dual_module(std))
        assert t.sdim == std.sdim * std.sdim
        assert rm.tensor_module(K01, std).sdim == K01.sdim * std.sdim

    def test_tensor_weight_additivity(self, K01, std):
        t = rm.tensor_module(K01, std)
        k = 0
        for wv in K01.basis_weights:
            for ww in std.basis_weights:
                assert t.basis_weights[k] == tuple(a + b for a, b in zip(wv, ww))
                k += 1

    def test_parity_shift_sigma_is_g_linear(self, K01):
        shifted = rm.parity_shift_module(K01)
        sigma = rm.sigma_map(K01)
        assert rm._check_g_linear(sigma, K01, shifted)
        back = rm.sigma_inverse(K01) @ sigma
        assert back.parity == 0 and back == sl.identity(K01.space)

    def test_direct_sum(self, K01, std):
        s = rm.direct_sum_module(K01, std)
        assert s.dim == K01.dim + std.dim
        assert s.sdim == K01.sdim + std.sdim


class TestKacModules:
    def test_smallest(self, K01):
        assert K01.dim == 4
        assert K01.sdim == 0
        assert K01.space.parities == (0, 1, 1, 0)
        assert sorted(w[1] for w in K01.basis_weights) == [1, 1, 2, 2]
        assert K01.basis_weights[0] == (0, 1)

    def test_highest_weight_is_singular(self, K01):
        assert all(not e.apply({0: F(1)}) for e in K01.e)

    def test_dimension_formula(self, rs21, rs31, K11):
        assert K11.dim == 2 ** 2 * 2
        cases = [
            (rs21, weight(2, F(1, 2)), 3),
            (rs21, weight(3, 1), 4),
            (rs31, weight(0, 0, 2), 1),
            (rs31, weight(1, 0, 1), 3),
            (rs31, weight(0, 1, F(5, 2)), 3),
        ]
        for rs, lam, dim_v0 in cases:
            mod = rm.kac_module(rs, lam)
            assert mod.dim == 2 ** (rs.m * rs.n) * dim_v0
            assert mod.sdim == 0
            assert mod.highest_weight == lam

    def test_atypical_rejected(self, rs21):
        with pytest.raises(AtypicalWeightError):
            rm.kac_module(rs21, weight(0, 0))

    def test_non_dominant_rejected(self, rs21):
        with pytest.raises(ValueError):
            rm.kac_module(rs21, weight(-1, 1))

    def test_rectangular_block(self):
        from supertrace.rootdata import build_root_system

        rs23 = build_root_system("sl", 2, 3)
        mod = rm.kac_module(rs23, weight(1, F(7, 3), 0, 1))
        assert mod.dim == 2 ** 6 * 2 * 3  # sl(2) doublet x sl(3) triplet


class TestHomSpaces:
    def test_standard_module_is_schur(self, std):
        even = rm.hom_space(std, std, 0)
        assert len(even) == 1
        assert (F(1) / even[0].entry(0, 0)) * even[0] == sl.identity(std.space)
        assert rm.hom_space(std, std, 1) == []

    def test_g_linearity_of_solutions(self, roster):
        C = roster.C
        for fmap in rm.hom_space(C, C, None):
            assert rm._check_g_linear(fmap, C, C)

    def test_coevaluation_is_invariant(self, rs21, K01):
        kk = rm.tensor_module(K01, rm.dual_module(K01))
        inv = rm.invariant_vectors(kk, 0)
        assert len(inv) >= 1
        coev_vec = {i * K01.dim + i: F(1) for i in range(K01.dim)}
        from supertrace.linalg import RowReducer

        span = RowReducer()
        for v in inv:
            span.add(v)
        assert span.contains(coev_vec)

    def test_parity_shift_hom_spaces(self, std):
        shifted = rm.parity_shift_module(std)
        assert rm.hom_space(std, shifted, 0) == []
        assert len(rm.hom_space(std, shifted, 1)) == 1


class TestIrreducibility:
    def test_irreducible_modules(self, std, K01, K11):
        assert rm.is_irreducible(std)
        assert rm.is_irreducible(K01)
        assert rm.is_irreducible(K11)

    def test_reducible_tensor(self, roster):
        assert not rm.is_irreducible(roster.C)

    def test_singular_vectors_of_typical_kac(self, K01):
        vecs = rm.singular_vectors(K01)
        assert len(vecs) == 1 and set(vecs[0]) == {0}


class TestWitnesses:
    def test_trivial(self, K01):
        w = rm.trivial_witness(K01)
        assert w.alpha @ w.beta == sl.identity(K01.space)

    def test_search_through_other_core(self, K01, K11, roster):
        w = roster.wB_via_A
        assert w.V0 is roster.A
        assert w.alpha @ w.beta == sl.identity(K11.space)
        proj = w.beta @ w.alpha
        assert proj @ proj == proj  # idempotent splitting of V0 (x) W

    def test_tensor_closure(self, roster):
        w = rm.witness_tensor(roster.wA, roster.std)
        assert w.alpha @ w.beta == sl.identity(roster.C.space)
        assert w.V.dim == 12

    def test_dsum_closure(self, roster):
        w = rm.witness_dsum(roster.wA, roster.wA)
        assert w.alpha @ w.beta == sl.identity(w.V.space)

    def test_nested_stacks(self, roster, rs21):
        rng = random.Random(12)
        w = roster.wA
        for _ in range(3):
            choice = rng.choice(("tensor", "dsum"))
            if choice == "tensor":
                w = rm.witness_tensor(w, roster.std)
            else:
                w = rm.witness_dsum(w, w)
            assert w.alpha @ w.beta == sl.identity(w.V.space)
            if w.V.dim > 150:
                break

    def test_parity_shift_witness(self, roster):
        w = rm.witness_parity_shift(roster.wA)
        assert w.alpha @ w.beta == sl.identity(w.V.space)
        assert w.V.space.parities == tuple((p + 1) % 2 for p in roster.A.space.parities)

    def test_trivial_module_not_witnessed(self, rs21, K01):
        with pytest.raises(rm.WitnessNotFoundError):
            rm.ideal_witness(rm.trivial_module(rs21), K01)

    def test_atypical_probe_observation(self, rs21, std, K01):
        # The defining module has an atypical highest weight; whether it splits
        # through K(0|1) with the canonical W is recorded, not asserted.
        try:
            rm.ideal_witness(std, K01)
            outcome = "witnessed"
        except rm.WitnessNotFoundError:
            outcome = "not witnessed"
        assert outcome in ("witnessed", "not witnessed")


class TestSerialization:
    def test_roundtrip(self, rs21, K11, tmp_path):
        path = tmp_path / "k11.jsonl"
        rm.save_gmodule(K11, str(path))
        loaded = rm.load_gmodule(rs21, str(path))
        assert loaded.basis_weights == K11.basis_weights
        assert loaded.space == K11.space
        for a, b in zip(loaded.gens(), K11.gens()):
            assert a == b
        assert loaded.highest_weight == K11.highest_weight

    def test_corruption_detected(self, rs21, K01, tmp_path):
        path = tmp_path / "k01.jsonl"
        rm.save_gmodule(K01, str(path))
        text = path.read_text().replace('"entries": [[0', '"entries": [[3', 1)
        path.write_text(text)
        with pytest.raises(rm.ModuleIntegrityError):
            rm.load_gmodule(rs21, str(path))

    def test_swapped_cache_file_rejected(self, rs21, tmp_path):
        import shutil

        for lam in (weight(0, 1), weight(1, 1)):
            rm.cached_kac_module(rs21, lam, str(tmp_path))
        shutil.copy(rm.kac_cache_path(str(tmp_path), rs21, weight(1, 1)),
                    rm.kac_cache_path(str(tmp_path), rs21, weight(0, 1)))
        with pytest.raises(rm.ModuleIntegrityError, match=r"K\(1,1\)"):
            rm.cached_kac_module(rs21, weight(0, 1), str(tmp_path))
        assert rm.cached_kac_module(rs21, weight(1, 1), str(tmp_path)).dim == 8

    def test_cache_reuse(self, rs21, tmp_path):
        first = rm.cached_kac_module(rs21, weight(0, 2), str(tmp_path))
        cache_file = rm.kac_cache_path(str(tmp_path), rs21, weight(0, 2))
        import os

        assert os.path.exists(cache_file)
        second = rm.cached_kac_module(rs21, weight(0, 2), str(tmp_path))
        assert second.basis_weights == first.basis_weights
        assert all(a == b for a, b in zip(second.gens(), first.gens()))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10**20)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from(["1/0", "x", "", "module", "generator", "e", "1/2"]) | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6,
)


def _leaf_slots(node):
    """(container, key) for every scalar inside a parsed JSON record."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _leaf_slots(value)
        else:
            yield node, key


@st.composite
def corrupt_cache_text(draw, lines):
    """A saved module file after one corruption, and whether it may still load as itself."""
    kind = draw(st.sampled_from(["truncate", "reorder", "version", "non-object", "field", "leaf"]))
    if kind == "truncate":
        text = "\n".join(lines) + "\n"
        return text[:draw(st.integers(0, len(text) - 1))], True
    if kind == "reorder":
        return "\n".join(draw(st.permutations(lines))), True
    records = [json.loads(line) for line in lines]
    k = draw(st.integers(0, len(records) - 1))
    if kind == "version":
        records[0]["version"] = draw(JSON_VALUES.filter(lambda v: v != rm.CONSTRUCTION_VERSION))
    elif kind == "non-object":
        records[k] = draw(JSON_VALUES.filter(lambda v: not isinstance(v, dict)))
    elif kind == "field":
        records[k][draw(st.sampled_from(sorted(records[k])))] = draw(JSON_VALUES)
    else:
        parent, key = draw(st.sampled_from(list(_leaf_slots(records[k]))))
        parent[key] = draw(JSON_VALUES)
    return "\n".join(json.dumps(r) for r in records), False


class TestLoaderFuzz:
    """A corrupt cache file raises ModuleIntegrityError and nothing else."""

    @pytest.fixture(scope="class")
    def saved_lines(self, K01):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "k01.jsonl")
            rm.save_gmodule(K01, path)
            with open(path) as fh:
                return fh.read().splitlines()

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_only_integrity_errors(self, rs21, K01, saved_lines, data):
        text, whole = data.draw(corrupt_cache_text(saved_lines))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "k01.jsonl")
            with open(path, "w") as fh:
                fh.write(text)
            try:
                mod = rm.load_gmodule(rs21, path)
            except rm.ModuleIntegrityError:
                return
        if whole:  # a truncation or reordering that kept every record intact
            assert mod.gens() == K01.gens() and mod.basis_weights == K01.basis_weights

    @pytest.mark.parametrize("line", ["", "[1, 2]", "null", '"module"', "{\"record\": "])
    def test_bad_header_line(self, rs21, saved_lines, tmp_path, line):
        path = tmp_path / "k01.jsonl"
        path.write_text("\n".join([line] + saved_lines[1:]) + "\n")
        with pytest.raises(rm.ModuleIntegrityError):
            rm.load_gmodule(rs21, str(path))

    @pytest.mark.parametrize("line", ["[1, 2]", "null", "3", '{"record": "generator"'])
    def test_bad_generator_line(self, rs21, saved_lines, tmp_path, line):
        path = tmp_path / "k01.jsonl"
        path.write_text("\n".join(saved_lines[:-1] + [line]) + "\n")
        with pytest.raises(rm.ModuleIntegrityError):
            rm.load_gmodule(rs21, str(path))


@pytest.fixture(scope="module")
def rs12():
    from supertrace.rootdata import build_root_system

    return build_root_system("sl", 1, 2)


class TestMirrorBlockOrder:
    """sl(1|2): the odd simple root comes first and the gl(1) factor is trivial."""

    def test_root_data(self, rs12):
        assert rs12.s == 0
        assert rs12.cartan.a == ((0, 1), (-1, 2))
        assert [r.coeffs for r in rs12.pos_odd] == [(1, 0), (1, 1)]

    def test_kac_with_fractional_free_coordinate(self, rs12):
        lam = weight(F(5, 2), 1)
        K = rm.kac_module(rs12, lam)
        assert K.dim == 2 ** 2 * 2 and K.sdim == 0
        assert rm.is_irreducible(K)

    def test_cross_witness_between_fractional_weights(self, rs12):
        from supertrace import mtrace as mt

        K = rm.kac_module(rs12, weight(F(5, 2), 1))
        K2 = rm.kac_module(rs12, weight(F(7, 2), 1))
        w = rm.ideal_witness(K2, K)
        ident = sl.identity(K2.space)
        assert mt.modified_trace(ident, w) == rs12.mod_sdim(weight(F(7, 2), 1)) == F(8, 21)


def test_hom_spaces_match_invariants_of_tensor_with_dual(roster):
    # dim Hom(U, V) agrees with dim Inv(V (x) U*) in both parities: morphism
    # spaces are invariant vectors of internal-hom modules.
    pairs = [
        (roster.std, roster.std),
        (roster.A, roster.A),
        (roster.C, roster.C),
        (roster.A, roster.B),
        (roster.std, rm.parity_shift_module(roster.std)),
    ]
    for U, V in pairs:
        internal = rm.tensor_module(V, rm.dual_module(U), check=False)
        for parity in (0, 1):
            assert len(rm.hom_space(U, V, parity)) == len(
                rm.invariant_vectors(internal, parity)
            )
