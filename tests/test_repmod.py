import dataclasses
import functools
import json
import os
import random
import tempfile
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from supertrace import repmod as rm
from supertrace.linalg import RowReducer, nullspace
from supertrace import superlin as sl
from supertrace.exactnum import cleared, exact
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
        broken = rm.GModule(rs21, std.space, std.e, std.e, "broken")
        with pytest.raises(rm.ModuleRelationError):
            rm.verify_relations(broken)


def test_h_revalidates_to_an_equal_map(roster):
    # GModule.h is built unchecked: even diagonal maps are homogeneous by construction.
    for M in (roster.std, roster.A, roster.C, roster.D, rm.trivial_module(roster.rs),
              _kac(3, 1, (1, 0, F(1, 2)))):
        assert len(M.h) == M.rs.rank
        for h in M.h:
            assert h.parity == 0 and sl.SuperMap(h.domain, h.codomain, 0, h.entries) == h


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

    @pytest.mark.parametrize("parity", [2, -1, "0"])
    def test_parity_outside_zero_one_none_raises(self, std, K01, parity):
        for U in (std, K01):  # the generic route and the Kac route
            with pytest.raises(ValueError):
                rm.hom_space(U, std, parity)
        with pytest.raises(ValueError):
            rm.invariant_vectors(std, parity)

    def test_factorwise_action_needs_a_factor(self):
        with pytest.raises(ValueError):
            rm.FactorwiseAction(())

    def test_factorwise_action_refuses_h(self, K01):
        # The h_i are read off [e_i, f_i]; the action applies only the series it signs right.
        with pytest.raises(ValueError, match="not 'h'"):
            rm.FactorwiseAction((K01, K01)).apply("h", 1, {5: 1})


class TestIrreducibility:
    def test_irreducible_modules(self, std, K01, K11):
        assert oracles.is_irreducible(std)
        assert oracles.is_irreducible(K01)
        assert oracles.is_irreducible(K11)

    def test_reducible_tensor(self, roster):
        assert not oracles.is_irreducible(roster.C)

    def test_singular_vectors_of_typical_kac(self, K01):
        vecs = oracles.singular_vectors(K01)
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


def _saved_records(mod, path):
    """The parsed records of ``mod`` saved at ``path``."""
    rm.save_gmodule(mod, str(path))
    return [json.loads(line) for line in path.read_text().splitlines()]


def _write_records(path, records):
    path.write_text("\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n")


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

    def test_a_failed_write_leaves_no_temporary_file(self, K01, tmp_path, monkeypatch):
        def refused(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refused)
        with pytest.raises(OSError, match="disk full"):
            rm.save_gmodule(K01, str(tmp_path / "cache" / "k01.jsonl"))
        assert list((tmp_path / "cache").iterdir()) == []

    def test_corruption_detected(self, rs21, K01, tmp_path):
        path = tmp_path / "k01.jsonl"
        rm.save_gmodule(K01, str(path))
        text = path.read_text().replace('"entries": [[0', '"entries": [[3', 1)
        path.write_text(text)
        with pytest.raises(rm.ModuleIntegrityError):
            rm.load_gmodule(rs21, str(path))

    def test_denominator_only_change_detected(self, rs31, tmp_path):
        # 7/2 -> 7/3 in e_s moves the diagonal of [e_s, f_s], so the weights read off it
        # move too: h_s's weight gaps across x_1, the first generator checked that meets
        # the moved basis vectors, fail before any [e_i, f_j] relation is reached.
        path = tmp_path / "k.jsonl"
        rm.save_gmodule(_kac(3, 1, (1, 0, F(1, 2))), str(path))
        assert rm.load_gmodule(rs31, str(path)).name == "K(1,0,1/2)"
        lines = path.read_text().splitlines()
        k, rec = next((k, r) for k, r in enumerate(map(json.loads, lines))
                      if r.get("series") == "e" and r["index"] == rs31.s)
        entry = next(e for e in rec["entries"] if e[2] == "7/2")
        entry[2] = "7/3"
        lines[k] = json.dumps(rec, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(rm.ModuleIntegrityError, match=rf"\[h_{rs31.s}, x_1\] relation failed"):
            rm.load_gmodule(rs31, str(path))

    @pytest.mark.parametrize("field", ["highest_weight"])
    @pytest.mark.parametrize("bad", ["1.5", "x", "1/2.5", "", 1, "decimal"])
    def test_weight_that_rat_str_never_writes_is_rejected(self, rs21, K01, tmp_path, field, bad):
        # The highest weight is read as the entries are: an int literal or p/q, nothing else,
        # not even the right value in decimal.
        path = tmp_path / "k01.jsonl"
        rm.save_gmodule(K01, str(path))
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        wt = header[field]
        wt[0] = str(float(F(wt[0]))) if bad == "decimal" else bad
        path.write_text("\n".join([json.dumps(header, sort_keys=True)] + lines[1:]) + "\n")
        with pytest.raises(rm.ModuleIntegrityError, match="corrupt module record"):
            rm.load_gmodule(rs21, str(path))

    def test_files_hold_e_and_f_only_and_version_1_is_refused(self, rs21, K01, tmp_path):
        path = tmp_path / "k01.jsonl"
        rm.save_gmodule(K01, str(path))
        header, *records = map(json.loads, path.read_text().splitlines())
        assert header["version"] == rm.CONSTRUCTION_VERSION == 2 and "weights" not in header
        assert [(r["series"], r["index"]) for r in records] == [(k, i) for k in "ef" for i in (0, 1)]
        assert ".v2." in rm.kac_cache_path(str(tmp_path), rs21, K01.highest_weight)
        path.write_bytes(oracles.v1_bytes(K01))
        with pytest.raises(rm.ModuleIntegrityError, match="unsupported module record"):
            rm.load_gmodule(rs21, str(path))

    def test_generator_index_outside_the_rank_is_refused(self, rs21, K01, tmp_path):
        path = tmp_path / "k01.jsonl"
        records = _saved_records(K01, path)
        _write_records(path, records + [dict(records[1], index=5)])
        with pytest.raises(rm.ModuleIntegrityError, match="stray or repeated record e_5"):
            rm.load_gmodule(rs21, str(path))

    def test_repeated_generator_record_is_refused(self, rs21, K01, tmp_path):
        path = tmp_path / "k01.jsonl"
        records = _saved_records(K01, path)
        _write_records(path, records + [records[1]])
        with pytest.raises(rm.ModuleIntegrityError, match="stray or repeated record e_0"):
            rm.load_gmodule(rs21, str(path))

    def test_swapped_generator_parities_are_refused(self, rs21, std, tmp_path):
        # Zero maps satisfy every relation at either parity, but an action reads the generator
        # parities off its first factor: with e_0 odd and e_1 even the trivial module loses
        # the one invariant of C (x) std (x) std*.
        trivial = rm.trivial_module(rs21)
        swapped = dataclasses.replace(trivial, e=(trivial.e[1], trivial.e[0]))
        assert len(rm.invariant_vectors((trivial, std, std.dual))) == 1
        assert len(rm.invariant_vectors((swapped, std, std.dual))) == 0
        path = tmp_path / "trivial.jsonl"
        records = _saved_records(trivial, path)
        e0, e1 = records[1:3]
        assert (e0["series"], e0["index"], e1["series"], e1["index"]) == ("e", 0, "e", 1)
        e0["parity"], e1["parity"] = e1["parity"], e0["parity"]
        _write_records(path, records)
        with pytest.raises(rm.ModuleIntegrityError, match="e_i and f_i must be odd exactly at i = 1"):
            rm.load_gmodule(rs21, str(path))
        with pytest.raises(rm.ModuleRelationError, match="odd exactly at i = 1"):
            rm.verify_relations(swapped)

    def test_highest_weight_of_the_wrong_length_is_refused(self, rs21, K01, tmp_path):
        path = tmp_path / "k01.jsonl"
        header, *records = _saved_records(K01, path)
        _write_records(path, [dict(header, highest_weight=["0", "1", "5"])] + records)
        with pytest.raises(rm.ModuleIntegrityError, match="3 coordinates; rank is 2"):
            rm.load_gmodule(rs21, str(path))

    def test_weights_load_as_written(self, rs31, tmp_path):
        K = _kac(3, 1, (1, 0, F(1, 2)))
        path = tmp_path / "k.jsonl"
        rm.save_gmodule(K, str(path))
        loaded = rm.load_gmodule(rs31, str(path))
        assert loaded.basis_weights == K.basis_weights and loaded.highest_weight == K.highest_weight
        assert any(type(x) is F for wt in loaded.basis_weights for x in wt)

    def test_swapped_cache_file_rejected(self, rs21, tmp_path):
        import shutil

        for lam in (weight(0, 1), weight(1, 1)):
            rm.cached_kac_module(rs21, lam, str(tmp_path))
        shutil.copy(rm.kac_cache_path(str(tmp_path), rs21, weight(1, 1)),
                    rm.kac_cache_path(str(tmp_path), rs21, weight(0, 1)))
        with pytest.raises(rm.ModuleIntegrityError, match=r"K\(1,1\)"):
            rm.cached_kac_module(rs21, weight(0, 1), str(tmp_path))
        assert rm.cached_kac_module(rs21, weight(1, 1), str(tmp_path)).dim == 8

    @pytest.mark.parametrize("wrong", ["std(2|1)(+)C(1|0)", "op(K(0,1))"])
    def test_cache_file_that_is_not_the_kac_module_rejected(self, rs21, tmp_path, wrong):
        # Saved as K(0,1) with its highest weight, both have dim 4 = dim K(0,1) and relations
        # that hold; the first has no certified d, the second an odd one.
        lam = weight(0, 1)
        std, C, K = rm.standard_module(rs21), rm.trivial_module(rs21), rm.kac_module(rs21, lam)
        mod = rm.direct_sum_module(std, C) if wrong.startswith("std") else rm.parity_shift_module(K)
        assert mod.dim == 4 and mod.name == wrong
        rm.save_gmodule(dataclasses.replace(mod, name="K(0,1)", highest_weight=lam),
                        rm.kac_cache_path(str(tmp_path), rs21, lam))
        with pytest.raises(rm.ModuleIntegrityError, match=r"not a certified K\(0,1\)"):
            rm.cached_kac_module(rs21, lam, str(tmp_path))

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
        assert oracles.is_irreducible(K)

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
        internal = rm.tensor_module(V, rm.dual_module(U))
        for parity in (0, 1):
            assert len(rm.hom_space(U, V, parity)) == len(
                rm.invariant_vectors(internal, parity)
            )


# -- verify_relations against the commutator form ---------------------------------


def _relations_by_commutators(mod):
    """The commutator form of verify_relations: every [h_i, x_j] as a matrix identity, with
    ``GModule.h`` the diagonal of each [e_i, f_i]."""
    r = mod.rs.rank
    for i in range(r):
        for j in range(r):
            lhs = oracles.scomm(mod.e[i], mod.f[j])
            rhs = mod.h[i] if i == j else sl.zero_map(mod.space, mod.space)
            if lhs != rhs and not (lhs.is_zero() and rhs.is_zero()):
                raise rm.ModuleRelationError("[e_i, f_j] relation failed")
            a_ij = mod.rs.cartan.a[i][j]
            he = oracles.scomm(mod.h[i], mod.e[j]) - a_ij * mod.e[j]
            hf = oracles.scomm(mod.h[i], mod.f[j]) + a_ij * mod.f[j]
            if not he.is_zero() or not hf.is_zero():
                raise rm.ModuleRelationError("[h_i, x_j] relation failed")


def _with_generator(mod, series, idx, new):
    gens = {"e": list(mod.e), "f": list(mod.f)}
    gens[series][idx] = new
    return rm.GModule(mod.rs, mod.space, tuple(gens["e"]), tuple(gens["f"]), mod.name,
                      mod.highest_weight)


class TestRelationCheck:
    @pytest.fixture(scope="class")
    def modules(self, roster):
        return [roster.std, roster.A, roster.B, roster.C, roster.D]

    def test_certified_modules_pass_both_forms(self, modules):
        for mod in modules:
            rm.verify_relations(mod)
            _relations_by_commutators(mod)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_wrong_weight_entry_raises_in_both_forms(self, modules, data):
        mod = data.draw(st.sampled_from(modules))
        series = data.draw(st.sampled_from(["e", "f"]))
        j = data.draw(st.integers(0, mod.rs.rank - 1))
        x = getattr(mod, series)[j]
        sign = 1 if series == "e" else -1
        root = [sign * mod.rs.cartan.a[i][j] for i in range(mod.rs.rank)]
        wts, par = mod.basis_weights, mod.space.parities
        wrong = [(a, b) for a in range(mod.dim) for b in range(mod.dim)
                 if par[a] == (par[b] + x.parity) % 2
                 and [wa - wb for wa, wb in zip(wts[a], wts[b])] != root]
        a, b = data.draw(st.sampled_from(wrong))
        value = data.draw(st.sampled_from([F(1), F(-2), F(3, 5)]))
        ent = dict(x.entries)
        ent[(a, b)] = ent.get((a, b), 0) + value
        broken = _with_generator(mod, series, j, sl.SuperMap(mod.space, mod.space, x.parity, ent))
        with pytest.raises(rm.ModuleRelationError, match=rf"\[h_\d+, x_{j}\] relation failed"):
            rm.verify_relations(broken)
        with pytest.raises(rm.ModuleRelationError):
            _relations_by_commutators(broken)

    @pytest.mark.parametrize("shape", [(2, 1, (1, F(1, 2))), (3, 1, (1, 0, F(-2, 3)))],
                             ids=["sl21-K(1,1/2)", "sl31-K(1,0,-2/3)"])
    def test_weight_gaps_with_fractional_weights(self, shape):
        # verify_relations compares weight gaps in ints, each coordinate scaled
        # by the lcm of its denominators; a fractional a_s exercises the scaling.
        from supertrace.rootdata import build_root_system

        m, n, coords = shape
        rs = build_root_system("sl", m, n)
        K = rm.kac_module(rs, weight(*coords))
        assert any(x.denominator > 1 for x in K.basis_weights[0])
        rm.verify_relations(K)
        for j, x in enumerate(K.e):
            root = [rs.cartan.a[i][j] for i in range(rs.rank)]
            a, b = next((a, b) for a in range(K.dim) for b in range(K.dim)
                        if K.space.parities[a] == (K.space.parities[b] + x.parity) % 2
                        and [wa - wb for wa, wb in zip(K.basis_weights[a], K.basis_weights[b])]
                        != root)
            broken = sl.SuperMap(K.space, K.space, x.parity, {**x.entries, (a, b): 1})
            with pytest.raises(rm.ModuleRelationError, match=rf"\[h_\d+, x_{j}\] relation failed"):
                rm.verify_relations(_with_generator(K, "e", j, broken))

    @pytest.fixture(scope="class")
    def fractional_kacs(self):
        from supertrace.rootdata import build_root_system

        return [rm.kac_module(build_root_system("sl", m, n), weight(*coords)) for m, n, coords in
                ((2, 1, (1, F(1, 2))), (3, 1, (1, 0, F(-2, 3))), (3, 2, (0, 0, F(1, 3), 1)))]

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_rescaled_entry_breaks_e_f_in_both_forms(self, fractional_kacs, data):
        # The support is kept.  When the weights, read off the diagonals of the [e_i, f_i],
        # are kept too, every weight gap holds and only [e_i, f_j] can fail; when the
        # rescaled entry meets its transposed partner they move, and a weight gap fails first.
        K = data.draw(st.sampled_from(fractional_kacs))
        series = data.draw(st.sampled_from(["e", "f"]))
        j = data.draw(st.integers(0, K.rs.rank - 1))
        x = getattr(K, series)[j]
        # Rescaling entry (a, b) by c adds (c - 1) x_ab [E_ab, y] to the commutator with each y
        # of the other series: nonzero unless no y has an entry in row b or in column a.
        partners = K.f if series == "e" else K.e
        rows = {p for y in partners for p, _ in y.entries}
        cols = {q for y in partners for _, q in y.entries}
        a, b = data.draw(st.sampled_from(sorted((a, b) for a, b in x.entries
                                                if b in rows or a in cols)))
        c = data.draw(st.sampled_from([F(-1), F(2), F(1, 2), F(-3, 4), F(5, 3)]))
        ent = {**x.entries, (a, b): c * x.entries[(a, b)]}
        broken = _with_generator(K, series, j, sl.SuperMap(K.space, K.space, x.parity, ent))
        kept = broken.basis_weights == K.basis_weights
        failing = r"\[e_\d+, f_\d+\]" if kept else r"\[h_\d+, x_\d+\]"
        with pytest.raises(rm.ModuleRelationError, match=failing + " relation failed"):
            rm.verify_relations(broken)
        with pytest.raises(rm.ModuleRelationError):
            _relations_by_commutators(broken)


# -- Hom spaces by Frobenius reciprocity ----------------------------------------------


def _flat_span(maps):
    reducer = RowReducer()
    for m in maps:
        reducer.add({i * m.domain.dim + j: v for (i, j), v in m.entries.items()})
    return reducer


def _same_span(got, want):
    reducer = _flat_span(want)
    return len(got) == len(want) == len(reducer) and all(
        reducer.contains({i * m.domain.dim + j: v for (i, j), v in m.entries.items()})
        for m in got
    )


_KAC = {}


def _kac(m, n, coords):
    """A cached Kac module of sl(m|n)."""
    from supertrace.rootdata import build_root_system

    key = (m, n, coords)
    if key not in _KAC:
        _KAC[key] = rm.kac_module(build_root_system("sl", m, n), weight(*coords))
    return _KAC[key]


def _v0w(w):
    """V0 (x) W of a witness built as a module, for the oracles that need one."""
    return functools.reduce(rm.tensor_module, (w.V0,) + w.W)


# Typical finite-dominant weights: natural a_i (i != s) and a half-integer a_s.
SL21_WEIGHTS = st.tuples(st.integers(0, 2), st.sampled_from([F(-3, 2), F(1, 2), F(5, 2)]))
SL31_WEIGHTS = st.tuples(st.sampled_from([(0, 0), (1, 0), (0, 1)]),
                         st.sampled_from([F(-5, 2), F(1, 2), F(3, 2)])).map(lambda t: (*t[0], t[1]))


@st.composite
def kac_hom_pair(draw):
    """(U, V) with a Kac module or its parity shift on at least one side.

    The other side is Kac or op Kac, K (x) std, std or the same module.
    """
    m = draw(st.sampled_from([2, 3]))
    weights = SL21_WEIGHTS if m == 2 else SL31_WEIGHTS
    K, K2 = (_kac(m, 1, draw(weights)) for _ in "KK")
    K, K2 = (rm.parity_shift_module(X) if draw(st.booleans()) else X for X in (K, K2))
    std = rm.standard_module(K.rs)
    other = draw(st.sampled_from(["kac", "kac(x)std", "std", "same"]))
    if other == "same":
        other = K
    elif other == "kac":
        other = K2
    elif other == "std":
        other = std
    else:
        other = rm.tensor_module(K2, std)
    return (K, other) if draw(st.booleans()) else (other, K)


class TestReciprocityRoute:
    @settings(max_examples=40, deadline=None)
    @given(pair=kac_hom_pair(), parity=st.sampled_from([0, 1, None]))
    def test_matches_generic_solve(self, pair, parity):
        U, V = pair
        assert U.kac_vector is not None or V.kac_vector is not None
        got = rm.hom_space(U, V, parity)
        want = [m for p in ((0, 1) if parity is None else (parity,))
                for m in oracles.hom_by_equations(U, V, p)]
        if U.kac_vector is None:  # an uncertified domain takes the generic route
            assert got == want
        else:
            assert _same_span(got, want)
        for fmap in got:
            assert fmap.domain == U.space and fmap.codomain == V.space
            assert parity is None or fmap.parity == parity
            assert rm._check_g_linear(fmap, U, V)

    @pytest.mark.parametrize("m, n, coords", [(2, 1, (1, F(1, 2))), (2, 1, (0, 1)),
                                              (3, 1, (1, 0, F(-2, 3))), (3, 2, (0, 0, F(1, 3), 1))])
    def test_skipping_spanned_weight_spaces_keeps_the_words(self, m, n, coords):
        # Replayed into K itself from d, image k is word k of the search; C is read off its rows.
        # Hom(K, K (x) std (x) std*) holds the coevaluation, Hom(K, op K) the odd sigma.
        K = _kac(m, n, coords)
        d = K.kac_vector
        std = rm.standard_module(K.rs)
        assert K.kac_words == oracles.kac_words_unskipped(K)
        for target, parity, singular in ((rm.FactorwiseAction((K,)), 0, [{d: 1}]),
                                         (rm.FactorwiseAction((K, std, rm.dual_module(std))), 0, None),
                                         (rm.FactorwiseAction((rm.parity_shift_module(K),)), 1, None)):
            (replays, (C, den)), want = (rm._replay(K, target, parity, singular),
                                         oracles.replay_unskipped(K, target, parity, singular))
            # Each image is (ints, den) and C comes cleared; divided out, both are the Fraction replay.
            assert replays and [[{i: F(x, d) for i, x in ints.items()} for ints, d in images]
                                for images in replays] == want[0]
            assert {key: F(c, den) for key, c in C.items()} == want[1]
            assert all(len(images) == K.dim for images in replays)

    @pytest.mark.parametrize("m, n, coords", [(2, 1, (1, F(1, 2))), (2, 1, (0, 1)),
                                              (3, 1, (1, 0, F(1, 2))), (3, 2, (0, 0, F(1, 3), 1))])
    def test_maps_equal_the_fraction_replay(self, m, n, coords):
        # The int replay over one denominator gives the maps of the Fraction replay, entry for entry:
        # End(K), the odd sigma into op K and the coevaluation into K (x) std (x) std*.
        K = _kac(m, n, coords)
        std = rm.standard_module(K.rs)
        for V, parity in ((K, 0), (rm.parity_shift_module(K), 1),
                          (rm.tensor_module(rm.tensor_module(K, std), rm.dual_module(std)), 0)):
            got, want = rm.hom_space(K, V, parity), oracles.hom_by_fraction_replay(K, V, parity)
            assert got and got == want
            assert [list(f.entries.items()) for f in got] == [list(f.entries.items()) for f in want]

    def test_the_word_search_skips_spanned_weight_spaces(self, monkeypatch):
        K = dataclasses.replace(_kac(3, 1, (1, 0, F(-2, 3))))  # no words kept yet
        counts = {"f": 0}
        real = rm.FactorwiseAction.apply

        def counted(self, kind, i, vec):
            counts[kind] = counts.get(kind, 0) + 1
            return real(self, kind, i, vec)

        monkeypatch.setattr(rm.FactorwiseAction, "apply", counted)
        words = K.kac_words
        skipped = counts["f"]
        counts["f"] = 0
        assert oracles.kac_words_unskipped(K) == words
        assert skipped < counts["f"]

    def test_kac_domain_and_codomain_in_a_witness(self, roster):
        # The alpha maps land in the certified module by the generic route,
        # the beta maps leave it by reciprocity.
        B = roster.B
        w = roster.wB_via_A
        V0W = _v0w(w)
        assert B.kac_vector == 0 and V0W.kac_vector is None
        assert rm.hom_space(V0W, B, 0) == oracles.hom_by_equations(V0W, B, 0)
        assert _same_span(rm.hom_space(B, V0W, 0), oracles.hom_by_equations(B, V0W, 0))

    def test_end_of_kac_module_is_the_identity(self, roster):
        for K in (roster.A, roster.B, _kac(3, 1, (1, 0, F(1, 2)))):
            assert rm.hom_space(K, K, 0) == [sl.identity(K.space)]
            assert rm.hom_space(K, K, 1) == []

    def test_odd_highest_weight_vector(self, roster):
        # A parity-shifted Kac module with its highest weight recorded is
        # certified too; d is odd and every map picks up the odd signs.
        D = roster.D
        shifted = rm.GModule(D.rs, D.space, D.e, D.f, D.name, roster.A.highest_weight)
        assert shifted.space.parities[shifted.kac_vector] == 1
        for U, V in ((shifted, roster.A), (roster.A, shifted), (shifted, roster.C),
                     (roster.C, shifted)):
            for parity in (0, 1):
                got, want = rm.hom_space(U, V, parity), oracles.hom_by_equations(U, V, parity)
                if U is roster.C:  # an uncertified domain takes the generic route
                    assert got == want
                else:
                    assert _same_span(got, want)
                assert all(rm._check_g_linear(m, U, V) for m in got)

    def test_certificate_negatives_take_the_generic_route(self, roster, monkeypatch):
        A, C = roster.A, roster.C
        wrong_weight = rm.GModule(A.rs, A.space, A.e, A.f, "K(0,1)?", weight(0, 2))
        typical_c = rm.GModule(C.rs, C.space, C.e, C.f, C.name, weight(1, 1))
        negatives = [
            typical_c,  # recorded weight (1,1) is typical, but dim 12 is not dim K(1,1) = 8
            C,  # a tensor product records no highest weight
            rm.dual_module(A),
            wrong_weight,  # no basis vector has the recorded weight
            rm.trivial_module(A.rs),  # atypical
        ]
        assert roster.rs.is_typical(weight(1, 1))
        expected = {id(U): (rm.hom_space(U, U, 0), rm.hom_space(U, roster.std, 1))
                    for U in negatives}

        def no_route(*args):
            raise AssertionError("the reciprocity route ran on an uncertified module")

        monkeypatch.setattr(rm, "_replay", no_route)
        for U in negatives:
            assert U.kac_vector is None
            assert (rm.hom_space(U, U, 0), rm.hom_space(U, roster.std, 1)) == expected[id(U)]
            assert expected[id(U)][0] == oracles.hom_by_equations(U, U, 0)

    def test_words_that_do_not_span_raise(self, roster):
        # f_s loses its entry y_0 v -> y_1 y_0 v.  The weights read off [e_i, f_i] move on
        # those two vectors, but d keeps its weight and the certificate, and no word reaches
        # the bottom vector.
        A, s = roster.A, roster.rs.s
        f = list(A.f)
        f[s] = sl.SuperMap(A.space, A.space, 1, {k: v for k, v in A.f[s].entries.items()
                                                 if k != (3, 1)})
        fake = rm.GModule(A.rs, A.space, A.e, tuple(f), "fake", A.highest_weight)
        assert fake.kac_vector == 0
        with pytest.raises(rm.ModuleRelationError, match="span 2 of 4"):
            rm.hom_space(fake, A, 0)


# -- generic Hom spaces: invariants of V (x) U* ---------------------------------


@st.composite
def generic_module(draw, roster):
    """A roster module, or a tensor product, direct sum or parity shift of roster modules.

    None is certified: a Kac module or its parity shift (D, op B) takes the
    reciprocity route, and ``kac_hom_pair`` draws those.
    """
    std, A, B, C, D = roster.std, roster.A, roster.B, roster.C, roster.D
    kind = draw(st.sampled_from(["base", "tensor", "dsum", "shift"]))
    if kind == "base":
        return draw(st.sampled_from([std, rm.dual_module(std), C]))
    if kind == "tensor":
        X = draw(st.sampled_from([std, rm.dual_module(std), A, B, D]))
        return rm.tensor_module(X, draw(st.sampled_from([std, rm.dual_module(std), A, D])))
    if kind == "dsum":
        return rm.direct_sum_module(*(draw(st.sampled_from([std, A, B, C, D])) for _ in "XY"))
    return rm.parity_shift_module(draw(st.sampled_from([std, C])))


class TestGenericHom:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), parity=st.sampled_from([0, 1]))
    def test_basis_equals_the_equation_oracle(self, roster, data, parity):
        U, V = data.draw(generic_module(roster)), data.draw(generic_module(roster))
        assert U.kac_vector is None and V.kac_vector is None
        got = rm.hom_space(U, V, parity)
        assert got == oracles.hom_by_equations(U, V, parity)
        assert all(rm._check_g_linear(m, U, V) for m in got)

    def test_end_of_kac_tensor_std(self, roster):
        # The visiting order of FactorwiseAction.apply decides this basis.
        KS = rm.tensor_module(roster.B, roster.std)
        for parity in (0, 1):
            assert rm.hom_space(KS, KS, parity) == oracles.hom_by_equations(KS, KS, parity)

    def test_fractional_factors_equal_the_equation_oracle(self):
        # K(1,0,1/2) (x) std of sl(3|1): the kill rows are scaled by the action's
        # denominator 2, and the basis is still the oracle's, entry for entry.
        K = _kac(3, 1, (1, 0, F(1, 2)))
        KS = rm.tensor_module(K, rm.standard_module(K.rs))
        for parity in (0, 1):
            assert rm.hom_space(KS, KS, parity) == oracles.hom_by_equations(KS, KS, parity)

    def test_invariant_vectors_are_the_hom_columns_from_the_trivial_module(self, roster,
                                                                          monkeypatch):
        mods = [rm.tensor_module(roster.std, rm.dual_module(roster.std)),
                rm.tensor_module(roster.A, rm.dual_module(roster.A)), roster.C]
        triv = rm.trivial_module(roster.rs)
        want = [[{i: v for (i, _), v in m.entries.items()}
                 for p in (0, 1) for m in oracles.hom_by_equations(triv, V, p)] for V in mods]

        def no_call(*args, **kwargs):
            raise AssertionError("invariant_vectors went through a Hom solve")

        monkeypatch.setattr(rm, "hom_space", no_call)
        monkeypatch.setattr(rm, "trivial_module", no_call)
        assert [rm.invariant_vectors(V) for V in mods] == want
        assert len(want[0]) == 1 and len(want[1]) == 1


# -- witnesses on the factorwise action -------------------------------------------


_SIDES = []


def _sides(rs21):
    """(side, module): a module or a tuple of factors, and the module the oracle sees.

    Built without the roster, whose witnesses go through the check under test.
    """
    if not _SIDES:
        std, A, B = rm.standard_module(rs21), _kac(2, 1, (0, 1)), _kac(2, 1, (1, 1))
        C, D = rm.tensor_module(A, std), rm.parity_shift_module(A)
        W = rm.tensor_module(rm.dual_module(A), B)  # (A, W) is V0 (x) W of B via A, dim 128
        for side in (std, rm.dual_module(std), A, B, C, D, (A, std), (std, D), (D, std, A),
                     (A, W)):
            factors = side if isinstance(side, tuple) else (side,)
            _SIDES.append((side, functools.reduce(rm.tensor_module, factors)))
    return _SIDES


def _mutant(data, m, deltas=(1, -1, 2, F(1, 2), F(-3, 4))):
    """m with one entry of its parity changed by a nonzero amount."""
    U, V = m.domain, m.codomain
    j = data.draw(st.integers(0, U.dim - 1))
    i = data.draw(st.sampled_from([i for i in range(V.dim)
                                   if V.parities[i] == (U.parities[j] + m.parity) % 2]))
    delta = data.draw(st.sampled_from(deltas))
    return m + sl.SuperMap(U, V, m.parity, {(i, j): delta})


_FRACTIONAL = {}


def _fractional_cases():
    """Name -> (map, src, dst, oracle src, oracle dst) on modules with Fraction entries.

    On sl(3|1): Id of V = K(1,0,1/2) and of V0 = K(0,0,-3/2), the witness alpha
    of V through V0, whose entries are +-1/7, and its beta, each on the three
    factors (V0, V0*, V) that ``make_witness`` checks, and Id_std (x) coev_V0,
    which leaves a side with integer matrices for one whose e_s has denominator 2.
    On sl(2|1): alpha and beta of the witness of K(1,1/2) through K(0,3/2).
    """
    if not _FRACTIONAL:
        V, V0 = _kac(3, 1, (1, 0, F(1, 2))), _kac(3, 1, (0, 0, F(-3, 2)))
        std, dual = rm.standard_module(V.rs), rm.dual_module(V0)
        w = rm.ideal_witness(V, V0)
        assert any(type(v) is not int for v in w.alpha.entries.values())
        coev = sl.tensor_map(sl.identity(std.space), sl.coev(V0.space))
        _FRACTIONAL.update({
            "Id_V": (sl.identity(V.space), V, V, V, V),
            "Id_V0": (sl.identity(V0.space), V0, V0, V0, V0),
            "coev": (coev, std, (std, V0, dual), std,
                     rm.tensor_module(rm.tensor_module(std, V0), dual)),
        })
        w21 = rm.ideal_witness(_kac(2, 1, (1, F(1, 2))), _kac(2, 1, (0, F(3, 2))))
        for prefix, w in (("", w), ("sl21 ", w21)):
            factors, V0W = (w.V0,) + w.W, _v0w(w)
            assert len(factors) == 3
            _FRACTIONAL[prefix + "alpha"] = (w.alpha, factors, w.V, V0W, w.V)
            _FRACTIONAL[prefix + "beta"] = (w.beta, w.V, factors, w.V, V0W)
    return _FRACTIONAL


class TestFactorwiseGLinearity:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), parity=st.sampled_from([0, 1]), mutate=st.booleans(),
           onto_own_module=st.booleans())
    def test_agrees_with_the_product_oracle(self, rs21, data, parity, mutate, onto_own_module):
        (src, U), (dst, V) = (data.draw(st.sampled_from(_sides(rs21))) for _ in "UV")
        if onto_own_module:  # a nonzero Hom space from a tuple side onto its module, or back
            own = (U, U)
            (src, U), (dst, V) = data.draw(st.sampled_from([((src, U), own), (own, (src, U))]))
        assume(U.dim * V.dim <= 2048)
        m = sl.zero_map(U.space, V.space, parity)
        for basis_map in rm.hom_space(U, V, parity):
            m = m + data.draw(st.sampled_from([1, -2, F(1, 3)])) * basis_map
        if mutate:
            m = _mutant(data, m)
        verdict = rm._check_g_linear(m, src, dst)
        assert verdict == oracles.g_linear_by_products(m, U, V) == oracles.g_linear_two_sided(m, src, dst)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), parity=st.sampled_from([0, 1]))
    def test_random_sparse_maps_agree_with_both_oracles(self, rs21, data, parity):
        # Mostly not g-linear: a few random entries of one parity, or none (the zero map is).
        (src, U), (dst, V) = (data.draw(st.sampled_from(_sides(rs21))) for _ in "UV")
        assume(U.dim * V.dim <= 2048)
        m = sl.zero_map(U.space, V.space, parity)
        for _ in range(data.draw(st.integers(0, 3))):
            m = _mutant(data, m)
        verdict = rm._check_g_linear(m, src, dst)
        assert verdict == oracles.g_linear_by_products(m, U, V) == oracles.g_linear_two_sided(m, src, dst)

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_witness_maps_and_their_mutants(self, roster, data):
        # alpha leaves the factors (V0, V0*, V) of dim 128 for dim 8, and beta enters them.
        w = roster.wB_via_A
        V0W, factors = _v0w(w), (w.V0,) + w.W
        for m, src, dst, U, V in ((w.alpha, factors, w.V, V0W, w.V),
                                  (w.beta, w.V, factors, w.V, V0W)):
            assert rm._check_g_linear(m, src, dst) and oracles.g_linear_by_products(m, U, V)
            assert oracles.g_linear_two_sided(m, src, dst)
            bad = _mutant(data, m)
            verdict = rm._check_g_linear(bad, src, dst)
            assert verdict == oracles.g_linear_by_products(bad, U, V)
            assert verdict == oracles.g_linear_two_sided(bad, src, dst)

    @pytest.mark.parametrize("case", ["Id_V", "Id_V0", "alpha", "beta", "coev", "sl21 alpha",
                                      "sl21 beta"])
    @settings(max_examples=8, deadline=None)
    @given(data=st.data(), c=st.sampled_from([F(2, 3), F(-7, 2), F(1, 7), 5]))
    def test_fractional_modules_agree_with_the_product_oracle(self, case, data, c):
        m, src, dst, U, V = _fractional_cases()[case]
        m = c * m
        assert rm._check_g_linear(m, src, dst) and oracles.g_linear_by_products(m, U, V)
        assert oracles.g_linear_two_sided(m, src, dst)
        # One entry moved by 1/7 adds a rank-one map, never g-linear with a simple side of dim > 1.
        bad = _mutant(data, m, deltas=(F(1, 7),))
        assert not rm._check_g_linear(bad, src, dst)
        assert not oracles.g_linear_by_products(bad, U, V)
        assert not oracles.g_linear_two_sided(bad, src, dst)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), parity=st.sampled_from([0, 1]), mutate=st.booleans())
    def test_a_witness_keeps_the_actions_on_its_endomorphisms(self, roster, data, parity, mutate):
        w = data.draw(st.sampled_from([roster.wA, roster.wB, roster.wB_via_A]))
        V = w.V
        m = sl.zero_map(V.space, V.space, parity)
        for basis_map in rm.hom_space(V, V, parity):
            m = m + data.draw(st.sampled_from([1, -2, F(1, 3)])) * basis_map
        if mutate:
            m = _mutant(data, m)
        verdict = rm._check_g_linear(m, V, V, w.endo_actions)
        assert verdict == rm._check_g_linear(m, V, V) == oracles.g_linear_by_products(m, V, V)
        rows, cols = w.endo_actions
        assert w.endo_actions is w.endo_actions and (rows.transpose, cols.transpose) == (True, False)
        assert (rows.places, cols.places) == ([1], [V.dim])
        assert "endo_actions" not in vars(dataclasses.replace(w))

    def test_odd_maps_on_both_sides_of_a_tensor_product(self, rs21):
        A, std = _kac(2, 1, (0, 1)), rm.standard_module(rs21)
        D = rm.parity_shift_module(A)
        sig = sl.tensor_map(rm.sigma_map(A), sl.identity(std.space))
        assert sig.parity == sl.ODD
        assert rm._check_g_linear(sig, (A, std), (D, std))
        assert rm._check_g_linear(sl.tensor_map(rm.sigma_inverse(A), sl.identity(std.space)),
                                  (D, std), (A, std))

    def test_one_series_alone_does_not_decide(self, rs21):
        # 1 -> v is g-linear only if v is invariant: the top vector of std is
        # killed by every e_i but not the f_i, the bottom one the other way round.
        std, triv = rm.standard_module(rs21), rm.trivial_module(rs21)
        for k in (0, std.dim - 1):
            m = sl.SuperMap(triv.space, std.space, std.space.parities[k], {(k, 0): 1})
            assert not rm._check_g_linear(m, triv, std)
            assert not oracles.g_linear_by_products(m, triv, std)

    def test_a_map_off_the_spaces_of_its_sides_raises(self, rs21):
        # The check indexes rows and columns by dimension, so it must not run on other spaces.
        A, std = _kac(2, 1, (0, 1)), rm.standard_module(rs21)
        D = rm.parity_shift_module(A)  # same dimension as A, other parities
        ident, sig = sl.identity(A.space), sl.tensor_map(rm.sigma_map(A), sl.identity(std.space))
        for m, src, dst in ((ident, D, A), (ident, A, D), (ident, (A, std), A), (ident, A, (A, std)),
                            (sig, (D, std), (D, std)), (sig, (A, std), (A, std)),
                            (sig, (std, A), (D, std))):
            with pytest.raises(ValueError, match="does not run between"):
                rm._check_g_linear(m, src, dst)
        assert rm._check_g_linear(ident, A, A) and rm._check_g_linear(sig, (A, std), (D, std))


def _witness_case(name):
    """(V, V0); the roster's A = K(0,1), B = K(1,1) and D = op(A), built without its witnesses."""
    K = _kac
    op = rm.parity_shift_module
    return {
        "B via A": (K(2, 1, (1, 1)), K(2, 1, (0, 1))),
        "B via K(0,2)": (K(2, 1, (1, 1)), K(2, 1, (0, 2))),
        "sl31 K(1,0,1/2) via K(0,0,-3/2)": (K(3, 1, (1, 0, F(1, 2))), K(3, 1, (0, 0, F(-3, 2)))),
        "sl31 K(0,1,5/2) via K(0,0,7/2)": (K(3, 1, (0, 1, F(5, 2))), K(3, 1, (0, 0, F(7, 2)))),
        "sl12 K(7/2,1) via K(5/2,1)": (K(1, 2, (F(7, 2), 1)), K(1, 2, (F(5, 2), 1))),
        "D via A": (op(K(2, 1, (0, 1))), K(2, 1, (0, 1))),
        "op B via A": (op(K(2, 1, (1, 1))), K(2, 1, (0, 1))),
        "sl31 op K(1,0,1/2) via K(0,0,-3/2)": (op(K(3, 1, (1, 0, F(1, 2)))),
                                               K(3, 1, (0, 0, F(-3, 2)))),
        "sl12 op K(7/2,1) via K(5/2,1)": (op(K(1, 2, (F(7, 2), 1))), K(1, 2, (F(5, 2), 1))),
    }[name]


class TestWitnessOracle:
    @pytest.mark.parametrize("name", ["B via A", "B via K(0,2)", "sl31 K(1,0,1/2) via K(0,0,-3/2)",
                                      "sl31 K(0,1,5/2) via K(0,0,7/2)",
                                      "sl12 K(7/2,1) via K(5/2,1)", "D via A", "op B via A",
                                      "sl31 op K(1,0,1/2) via K(0,0,-3/2)",
                                      "sl12 op K(7/2,1) via K(5/2,1)"])
    def test_alpha_and_beta_equal_the_module_route(self, name):
        V, V0 = _witness_case(name)
        d = V.kac_vector
        odd = name == "D via A" or "op" in name.split()
        assert d is not None and V.space.parities[d] == odd
        w = rm.ideal_witness(V, V0)
        alpha, beta = oracles.ideal_witness_by_modules(V, V0)
        assert w.alpha == alpha and w.beta == beta
        assert w.alpha.entries == alpha.entries and w.beta.entries == beta.entries
        want = oracles.beta_by_fraction_replay(V, V0)
        assert w.beta == want and list(w.beta.entries.items()) == list(want.entries.items())

    @pytest.mark.parametrize("which", ["std", "trivial"])
    def test_unwitnessed_modules_raise_on_both_routes(self, rs21, which):
        V = rm.standard_module(rs21) if which == "std" else rm.trivial_module(rs21)
        for search in (rm.ideal_witness, oracles.ideal_witness_by_modules):
            with pytest.raises(rm.WitnessNotFoundError):
                search(V, _kac(2, 1, (0, 1)))

    def test_no_product_module_is_built(self, roster, monkeypatch):
        calls = []
        build = rm.tensor_module

        def record(X, Y):
            out = build(X, Y)
            calls.append((X, Y))
            return out

        monkeypatch.setattr(rm, "tensor_module", record)
        K = _kac(3, 1, (1, 0, F(1, 2)))
        made = [rm.ideal_witness(K, _kac(3, 1, (0, 0, F(-3, 2)))), rm.trivial_witness(roster.A)]
        made += [rm.witness_tensor(made[1], roster.std), rm.witness_dsum(made[1], made[1]),
                 rm.witness_parity_shift(made[1]), rm.witness_parity_shift(made[0])]
        assert [len(w.W) for w in made] == [2, 1, 2, 1, 1, 2]
        # Only V (x) std: W is kept as factors, and a one-factor W is its own product.
        assert calls == [(roster.A, roster.std)]
        calls.clear()
        # A direct sum needs one module: each W of two factors is folded, and nothing else.
        rm.witness_dsum(made[2], made[2])
        assert calls == [made[2].W] * 2


class TestMakeWitnessSpaces:
    @pytest.mark.parametrize("name,side", [("alpha", "domain"), ("alpha", "codomain"),
                                           ("beta", "domain"), ("beta", "codomain")])
    def test_mismatch_raises_before_any_g_linearity_work(self, roster, monkeypatch, name, side):
        w = roster.wB_via_A
        m = getattr(w, name)
        grown = lambda S: sl.SuperSpace(S.parities + (0,))
        if side == "domain":
            dom, cod = grown(m.domain), m.codomain
        else:
            dom, cod = m.domain, grown(m.codomain)
        maps = {"alpha": w.alpha, "beta": w.beta, name: sl.SuperMap(dom, cod, 0, m.entries)}

        def no_check(*args):
            raise AssertionError("g-linearity checked before the spaces")

        monkeypatch.setattr(rm, "_check_g_linear", no_check)
        with pytest.raises(ValueError, match=f"{name} has the wrong {side}"):
            rm.make_witness(w.V, w.V0, w.W, maps["alpha"], maps["beta"])

    def test_a_parity_shifted_w_of_the_same_dimension_raises(self, roster):
        w = roster.wB_via_A
        with pytest.raises(ValueError, match="alpha has the wrong domain"):
            rm.make_witness(w.V, w.V0, w.W[:-1] + (rm.parity_shift_module(w.W[-1]),),
                            w.alpha, w.beta)

    def test_matching_spaces_pass(self, roster):
        w = roster.wB_via_A
        assert rm.make_witness(w.V, w.V0, w.W, w.alpha, w.beta).alpha == w.alpha


class TestWitnessesHeldAsFactors:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_closure_chains_recertify_and_bracket_as_the_composite(self, roster, data):
        from supertrace import mtrace as mt

        starts = [roster.wA, roster.wB_via_A]  # trivial_witness(K(0,1)), ideal_witness(K(1,1), K(0,1))
        w = data.draw(st.sampled_from(starts))
        for step in data.draw(st.lists(st.sampled_from(["tensor std", "shift", "dsum"]), max_size=3)):
            if step == "tensor std":
                w = rm.witness_tensor(w, roster.std)
            elif step == "shift":
                w = rm.witness_parity_shift(w)
            else:  # with a witness of the same core
                w = rm.witness_dsum(w, data.draw(st.sampled_from(starts)))
            again = rm.make_witness(w.V, w.V0, w.W, w.alpha, w.beta)
            assert again.W == w.W and again.w_space == w.w_space
        f = data.draw(st.sampled_from([1, F(-2, 3)])) * sl.identity(w.V.space)
        reduced = sl.partial_supertrace(w.beta @ f @ w.alpha, w.V0.space, w.w_space)
        assert reduced == mt.bracket(f, w) * sl.identity(w.V0.space)

    def test_w_is_a_tuple_of_factors_over_the_same_algebra(self, roster):
        w = roster.wA
        with pytest.raises(TypeError):
            rm.make_witness(w.V, w.V0, w.W[0], w.alpha, w.beta)
        other = rm.trivial_module(_kac(3, 1, (1, 0, F(1, 2))).rs)
        assert other.space == w.W[0].space and other.rs != w.V.rs
        with pytest.raises(ValueError, match="same algebra"):
            rm.make_witness(w.V, w.V0, (other,), w.alpha, w.beta)


# -- one certificate gates every typical-module route -------------------------------


@st.composite
def witnessed_kac_case(draw):
    """(K(lam), a certified core K(mu)) of sl(2|1), sl(3|1) or sl(1|2); mu may equal lam."""
    shape = draw(st.sampled_from([(2, 1), (3, 1), (1, 2)]))
    a_s = st.sampled_from([F(-3, 2), F(1, 2), F(5, 2), F(7, 2)])
    if shape == (2, 1):
        lam, mu = draw(SL21_WEIGHTS), (0, draw(a_s))
    elif shape == (3, 1):  # a dim-8 core keeps V0 (x) W small
        lam, mu = draw(SL31_WEIGHTS), (0, 0, draw(a_s))
    else:
        lam, mu = (draw(a_s), draw(st.integers(0, 1))), (draw(a_s), 1)
    return _kac(*shape, lam), _kac(*shape, mu)


class TestKeptFacts:
    """The Kac certificate and the f-word basis are computed once per module and kept."""

    def test_once_per_module_in_a_tensors_run(self, monkeypatch):
        from collections import Counter

        from supertrace.suites import run_verification

        runs = {}
        for name in ("kac_vector", "kac_words"):
            body, counter = getattr(rm.GModule, name).func, runs.setdefault(name, Counter())

            def counted(mod, body=body, counter=counter):
                counter[mod] += 1
                return body(mod)

            prop = functools.cached_property(counted)
            prop.__set_name__(rm.GModule, name)
            monkeypatch.setattr(rm.GModule, name, prop)
        assert run_verification(["tensors"])["pass"]
        assert set(runs["kac_vector"].values()) == set(runs["kac_words"].values()) == {1}
        assert sorted(mod.name for mod in runs["kac_words"]) == ["K(0,1)", "K(1,1)"]
        assert set(runs["kac_words"]) <= set(runs["kac_vector"])

    def test_a_gated_core_runs_no_word_search(self, roster):
        K = dataclasses.replace(roster.A)
        rm.ideal_witness(roster.B, K)
        rm.trivial_witness(K)
        assert K.kac_vector == 0 and "kac_words" not in vars(K)

    def test_replace_and_parity_shift_start_with_empty_memos(self, roster):
        A = roster.A
        assert A.kac_vector == 0 and A.kac_words
        assert dataclasses.replace(A, highest_weight=None).kac_vector is None
        op = rm.parity_shift_module(A)
        assert op.kac_vector == 0 and op.space.parities[op.kac_vector] == 1
        assert A.space.parities[A.kac_vector] == 0

    def test_words_of_an_uncertified_module_raise(self, roster):
        with pytest.raises(ValueError, match="not a certified Kac module"):
            roster.C.kac_words

    def test_cleared_keeps_every_generator_table(self, roster):
        for M in (roster.A, roster.C, roster.D):
            tables = M.cleared
            assert set(tables) == {(kind, i) for kind in "ef" for i in range(M.rs.rank)}
            for (kind, i), (ints, den, by_col, by_row) in tables.items():
                assert (ints, den) == cleared(getattr(M, kind)[i].entries)
                assert (by_col, by_row) == (sl.mat_columns(ints), sl.mat_columns(ints, True))
            assert M.cleared is tables
        K = dataclasses.replace(roster.A)
        assert not {"cleared", "basis_weights", "dual", "kac_vector", "kac_words"} & set(vars(K))
        assert K.cleared == roster.A.cleared and K.cleared is not roster.A.cleared


class TestCoreGate:
    def test_a_tensor_product_is_not_a_core(self, roster):
        # K(0,1) (x) std used to carry the typical weight (1,1): str'(Id) came out 2/3, not 1/2.
        with pytest.raises(ValueError, match="not a certified Kac module"):
            rm.trivial_witness(roster.C)

    @settings(max_examples=20, deadline=None)
    @given(case=witnessed_kac_case())
    def test_make_witness_accepts_the_trivial_witness(self, case):
        # trivial_witness checks the core alone: Id . Id = Id and Id is g-linear on any module.
        for K in case:
            w = rm.trivial_witness(K)
            assert w.V is w.V0 is K and w.alpha == w.beta == sl.identity(K.space)
            assert len(w.W) == 1 and w.W[0].dim == w.w_space.dim == 1
            again = rm.make_witness(w.V, w.V0, w.W, w.alpha, w.beta)
            assert (again.W, again.alpha, again.beta) == (w.W, w.alpha, w.beta)

    def test_an_odd_highest_weight_vector_is_not_a_core(self, roster, monkeypatch):
        D = roster.D
        d = D.kac_vector
        assert d is not None and D.space.parities[d] == 1

        def no_check(*args):
            raise AssertionError("g-linearity checked before the core")

        monkeypatch.setattr(rm, "_check_g_linear", no_check)
        ident = sl.identity(D.space)
        with pytest.raises(ValueError, match="even highest weight vector"):
            rm.make_witness(D, D, (rm.trivial_module(D.rs),), ident, ident)

    def test_ideal_witness_checks_the_core_before_any_solve(self, roster, monkeypatch):
        def no_solve(*args):
            raise AssertionError("a singular solve ran before the core was checked")

        monkeypatch.setattr(rm, "_singular", no_solve)
        with pytest.raises(ValueError, match="not a certified Kac module"):
            rm.ideal_witness(roster.B, roster.C)

    def test_an_uncertified_module_is_not_searched(self, roster, monkeypatch):
        def no_solve(*args):
            raise AssertionError("a singular solve ran on an uncertified module")

        monkeypatch.setattr(rm, "_singular", no_solve)
        for V in (roster.C, rm.dual_module(roster.A), roster.std):
            with pytest.raises(rm.WitnessNotFoundError, match="no search ran"):
                rm.ideal_witness(V, roster.A)

    @settings(max_examples=15, deadline=None)
    @given(case=witnessed_kac_case())
    def test_identity_of_kac_and_op_kac_has_plus_and_minus_mod_sdim(self, case):
        from supertrace import mtrace as mt

        K, core = case
        lam = K.highest_weight
        for V, sign in ((K, 1), (rm.parity_shift_module(K), -1)):
            w = rm.ideal_witness(V, core)
            assert w.V0 is core
            if V is not core:  # else the trivial witness, alpha = Id
                ev = sl.tensor_map(sl.ev_right(core.space), sl.identity(V.space))
                scale = F(w.alpha.entry(0, 0)) / ev.entry(0, 0)
                assert scale and w.alpha == scale * ev
            assert mt.modified_trace(sl.identity(V.space), w) == sign * K.rs.mod_sdim(lam)


def _singular_vectors_by_scan(V):
    """The entry-scanning form of singular_vectors."""
    by_weight = {}
    for i in range(V.dim):
        by_weight.setdefault(V.basis_weights[i], []).append(i)
    out = []
    for cols in by_weight.values():
        rows = {}
        for gidx, x in enumerate(V.e):
            for t, j in enumerate(cols):
                for (i2, j2), v in x.entries.items():
                    if j2 == j:
                        rows.setdefault((gidx, i2), {})[t] = v
        out += [{cols[t]: v for t, v in vec.items()} for vec in nullspace(rows.values(), len(cols))]
    return out


def test_singular_vectors_match_the_scan(roster):
    for V in (roster.std, roster.A, roster.B, roster.C, rm.tensor_module(roster.A, roster.A)):
        assert oracles.singular_vectors(V) == _singular_vectors_by_scan(V)


# sha256 of the version-1 module file bytes (``oracles.v1_bytes``) of Kac modules built
# before their commutator chains were memoized: the memoized induction must give the same
# e, f and weights.
KAC_DIGESTS = {
    (2, 1, (0, 1)): "cde6e604de052f9d0beb2d012c78456339cd2dd69cd52ebb9c49f46d4fd9e768",
    (2, 1, (1, 1)): "d24560fee53e9924af8aa6fffc41e6e84a3efcb6345473edcc2c8eb86651785d",
    (3, 1, (1, 0, F(1, 2))): "2e52916493a9b043f093f6730412aa608ac7c75016d04a75495f4b504a8bdc3e",
    (3, 2, (1, 0, F(1, 2), 0)): "23696952726a717e2cafcfb68bf2d4198fd7af0919c31ff9a0cb0e6f052d2c6e",
}


@pytest.mark.parametrize("key", sorted(KAC_DIGESTS, key=str), ids=str)
def test_kac_module_bytes_are_pinned(key):
    import hashlib

    from supertrace.rootdata import build_root_system

    m, n, coords = key
    K = rm.kac_module(build_root_system("sl", m, n), weight(*coords))
    assert hashlib.sha256(oracles.v1_bytes(K)).hexdigest() == KAC_DIGESTS[key]


# sha256 of the version-1 module file bytes (``oracles.v1_bytes``) of the defining and
# adjoint modules, taken while each constructor still wrote out its own weights and matrices.
STD_ADJ_DIGESTS = {
    ("std", 2, 1): "c8f6125723f095417c7238f8f3032c6dafcb5c950f943f96d2564ba5649df515",
    ("adj", 2, 1): "8316dfe52edecb0c082c41ea28110b85b6d3b76940fec19b2cb1335aa3d8b667",
    ("std", 3, 1): "80d3df135563571b4effe1b9bda1ef82561c5d41a8e6adcebf92bf67534bdc39",
    ("adj", 3, 1): "002050d8f0492a439565826fc3d4d92b5069112ff2797c25f4ef9499badbcc58",
    ("std", 3, 2): "f98572442c83310d2d9d75fd5863022743e8b7a67962a4fb6cc3fdce6842bbe5",
    ("adj", 3, 2): "0b9566b94b7e51fde62bb5ce5c42be7ffb20bf93be54c3d94d27a20b5ebb7566",
}


def _std_or_adj(kind, m, n):
    from supertrace.invtensor import build_adjoint
    from supertrace.rootdata import build_root_system

    rs = build_root_system("sl", m, n)
    return rm.standard_module(rs) if kind == "std" else build_adjoint(rs).module


@pytest.mark.parametrize("key", sorted(STD_ADJ_DIGESTS), ids=str)
def test_std_and_adjoint_bytes_are_pinned(key):
    import hashlib

    assert hashlib.sha256(oracles.v1_bytes(_std_or_adj(*key))).hexdigest() == STD_ADJ_DIGESTS[key]


@pytest.mark.parametrize("key", sorted(STD_ADJ_DIGESTS), ids=str)
def test_std_and_adjoint_weights_match_the_formulas(key):
    from supertrace.rootdata import build_root_system

    kind, m, n = key
    rs = build_root_system("sl", m, n)
    formula = oracles.std_weights(rs) if kind == "std" else oracles.adjoint_weights(rs)
    assert _std_or_adj(*key).basis_weights == formula


@st.composite
def module_with_rule_weights(draw):
    """(module, weights): a std, adjoint or Kac module of sl(2|1) or sl(3|1) (fractional a_s
    included) under up to two duals, tensors, direct sums and parity shifts, with its basis
    weights by the closed formulas and ``oracles.WEIGHT_RULES``."""
    from supertrace.invtensor import build_adjoint
    from supertrace.rootdata import build_root_system

    m = draw(st.sampled_from([2, 3]))
    rs = build_root_system("sl", m, 1)
    kacs = [(1, F(1, 2)), (0, 1), (2, F(-3, 2))] if m == 2 else [(1, 0, F(1, 2)), (0, 0, F(-2, 3))]
    bases = [(rm.standard_module(rs), oracles.std_weights(rs))]
    bases += [(_kac(m, 1, coords), oracles.kac_weights(rs, weight(*coords))) for coords in kacs]
    small = [pair for pair in bases if pair[0].dim <= 8]
    bases.append((build_adjoint(rs).module, oracles.adjoint_weights(rs)))
    V, wts = draw(st.sampled_from(bases))
    for kind in draw(st.lists(st.sampled_from(sorted(oracles.WEIGHT_RULES)), max_size=2)):
        if kind in ("dual", "shift"):
            build = rm.dual_module if kind == "dual" else rm.parity_shift_module
            V, wts = build(V), oracles.WEIGHT_RULES[kind](wts)
        else:
            U, wu = draw(st.sampled_from(small if kind == "tensor" else bases))
            build = rm.tensor_module if kind == "tensor" else rm.direct_sum_module
            V, wts = build(V, U), oracles.WEIGHT_RULES[kind](wts, wu)
    return V, wts


@settings(max_examples=40, deadline=None)
@given(module_with_rule_weights())
def test_derived_weights_follow_the_construction_rules(case):
    V, wts = case
    assert V.basis_weights == wts
    assert all(type(x) is type(exact(x)) for wt in V.basis_weights for x in wt)


@settings(max_examples=40, deadline=None)
@given(module_with_rule_weights())
def test_derived_modules_satisfy_the_relations(case):
    # Duals, tensors, sums and shifts are built unchecked: each must be a representation.
    rm.verify_relations(case[0])


# Small typical weights: a_i in {0, 1} off the odd index (sl(3|2) kept below
# dim 256), and a rational a_s.
_SMALL_KAC = st.one_of(
    st.tuples(st.just((2, 1)), st.tuples(st.integers(0, 2))),
    st.tuples(st.just((3, 1)), st.tuples(st.integers(0, 1), st.integers(0, 1))),
    st.tuples(st.just((3, 2)), st.tuples(st.integers(0, 1), st.just(0), st.just(0))),
)


@settings(max_examples=12, deadline=None)
@given(_SMALL_KAC, st.fractions(-3, 3, max_denominator=3))
def test_kac_weights_match_the_formula(shape, a_s):
    from hypothesis import assume

    from supertrace.rootdata import build_root_system

    (m, n), others = shape
    rs = build_root_system("sl", m, n)
    coords = list(others)
    coords.insert(rs.s, a_s)
    lam = weight(*coords)
    assume(rs.is_typical(lam))
    K = rm.kac_module(rs, lam)
    assert K.basis_weights == oracles.kac_weights(rs, lam)
    assert all(type(x) is type(exact(x)) for wt in K.basis_weights for x in wt)


# The largest natural coordinate drawn off the odd index, per sl(m|n): most
# draws stay at dim <= 256.
_CHAIN_ALGEBRAS = {(2, 1): 3, (1, 2): 3, (3, 1): 2, (1, 3): 2, (3, 2): 1, (2, 3): 1}


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_kac_generators_match_the_commutator_chains(data):
    from supertrace.rootdata import build_root_system

    m, n = data.draw(st.sampled_from(sorted(_CHAIN_ALGEBRAS)))
    rs = build_root_system("sl", m, n)
    coords = [data.draw(st.integers(0, _CHAIN_ALGEBRAS[m, n])) for _ in range(rs.rank - 1)]
    # A non-integer a_s with natural coordinates elsewhere is typical.
    coords.insert(rs.s, data.draw(st.sampled_from(
        [F(p, q) for q in (2, 3) for p in range(-7, 8) if p % q])))
    lam = weight(*coords)
    assume(rm._kac_dim(rs, lam) <= 256)
    K = rm.kac_module(rs, lam)
    e, f, h = oracles.kac_generators_by_chains(rs, lam)
    for got, want in zip(K.e + K.f + K.h, e + f + h):
        assert got.parity == want.parity and got.entries == want.entries


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_kac_generators_survive_revalidation(data):
    # kac_module builds its generators unvalidated; the public constructor must accept each as is.
    from supertrace.rootdata import build_root_system

    m, n = data.draw(st.sampled_from([(2, 1), (3, 1), (3, 2)]))
    rs = build_root_system("sl", m, n)
    coords = [data.draw(st.integers(0, _CHAIN_ALGEBRAS[m, n])) for _ in range(rs.rank - 1)]
    coords.insert(rs.s, data.draw(st.sampled_from(
        [F(p, q) for q in (2, 3) for p in range(-7, 8) if p % q])))
    lam = weight(*coords)
    assume(rm._kac_dim(rs, lam) <= 256)
    for g in rm.kac_module(rs, lam).gens():
        assert sl.SuperMap(g.domain, g.codomain, g.parity, g.entries) == g


def test_generic_hom_builds_the_dual_once(roster, monkeypatch):
    U = rm.tensor_module(roster.std, roster.A)  # uncertified: the generic route
    V = rm.tensor_module(roster.A, roster.std)
    want = [oracles.hom_by_equations(U, V, p) for p in (0, 1)]
    built, dual = [], rm.dual_module
    monkeypatch.setattr(rm, "dual_module", lambda *a, **k: built.append(a[0]) or dual(*a, **k))
    assert [rm.hom_space(U, V, p) for p in (0, 1)] == want
    assert rm.hom_space(U, V, 0) == want[0]
    assert built == [U]
