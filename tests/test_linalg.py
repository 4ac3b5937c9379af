import random
from fractions import Fraction as F
from math import gcd
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from supertrace import linalg
from supertrace.linalg import RowReducer, nullspace

# -- reference oracles --------------------------------------------------------
#
# The eliminators the library used before its single integer RREF core: a
# nullspace that rescans every remaining row at each pivot, and a Fraction row
# reducer that keeps separate combination rows.


def _ref_int_row(row: dict) -> dict[int, int]:
    items = [(j, F(v)) for j, v in row.items() if v != 0]
    if not items:
        return {}
    lcm = 1
    for _, v in items:
        d = v.denominator
        lcm = lcm // gcd(lcm, d) * d
    ints = {j: int(v * lcm) for j, v in items}
    g = 0
    for v in ints.values():
        g = gcd(g, v)
    if g > 1:
        ints = {j: v // g for j, v in ints.items()}
    return ints


def reference_nullspace(rows, ncols: int) -> list[dict[int, F]]:
    work = [r for r in (_ref_int_row(row) for row in rows) if r]
    # (pivot_col, row) pairs; rows are fully reduced against each other.
    pivots: list[tuple[int, dict[int, int]]] = []
    while work:
        # Cheapest remaining row, then its smallest-magnitude entry as pivot.
        ri = min(range(len(work)), key=lambda i: len(work[i]))
        row = work.pop(ri)
        pc = min(row, key=lambda j: (abs(row[j]), j))
        pv = row[pc]

        def eliminate(other: dict[int, int]) -> dict[int, int]:
            ov = other.get(pc)
            if not ov:
                return other
            new = {}
            for j, v in other.items():
                w = v * pv - row.get(j, 0) * ov
                if w:
                    new[j] = w
            for j, v in row.items():
                if j not in other:
                    w = -v * ov
                    if w:
                        new[j] = w
            g = 0
            for v in new.values():
                g = gcd(g, v)
            if g > 1:
                new = {j: v // g for j, v in new.items()}
            return new

        pivots = [(c, eliminate(r)) for c, r in pivots]
        work = [r for r in (eliminate(r) for r in work) if r]
        pivots.append((pc, row))

    pivot_cols = {c for c, _ in pivots}
    basis = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        vec: dict[int, F] = {free: F(1)}
        for c, row in pivots:
            a = row.get(free)
            if a:
                vec[c] = F(-a, row[c])
        basis.append(vec)
    return basis


class ReferenceRowReducer:
    def __init__(self):
        self.rows: list[dict[int, F]] = []
        self.combos: list[dict[int, F]] = []
        self.pivot_of_row: list[int] = []
        self._naccepted = 0

    def __len__(self) -> int:
        return len(self.rows)

    def _reduce(self, vec: dict) -> tuple[dict[int, F], dict[int, F]]:
        v = {j: F(x) for j, x in vec.items() if x != 0}
        combo: dict[int, F] = {}
        for row, cmb, pc in zip(self.rows, self.combos, self.pivot_of_row):
            coef = v.get(pc)
            if not coef:
                continue
            factor = coef / row[pc]
            for j, x in row.items():
                w = v.get(j, F(0)) - factor * x
                if w:
                    v[j] = w
                else:
                    v.pop(j, None)
            for j, x in cmb.items():
                w = combo.get(j, F(0)) - factor * x
                if w:
                    combo[j] = w
                else:
                    combo.pop(j, None)
        return v, combo

    def add(self, vec: dict) -> bool:
        idx = self._naccepted
        self._naccepted += 1
        v, combo = self._reduce(vec)
        if not v:
            self._naccepted -= 1
            return False
        combo[idx] = F(1)
        self.rows.append(v)
        self.combos.append(combo)
        self.pivot_of_row.append(min(v, key=lambda j: (abs(v[j]) != 1, j)))
        return True

    def contains(self, vec: dict) -> bool:
        v, _ = self._reduce(vec)
        return not v

    def coords(self, vec: dict) -> dict[int, F]:
        v, combo = self._reduce(vec)
        if v:
            raise ValueError("vector is not in the span")
        return {j: -x for j, x in combo.items()}


def dense_nullity(rows, ncols):
    mat = [[F(r.get(j, 0)) for j in range(ncols)] for r in rows]
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][c] != 0:
                f = mat[i][c] / mat[rank][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return ncols - rank


def test_nullspace_matches_dense_reference():
    rng = random.Random(42)
    for _ in range(300):
        nr, nc = rng.randint(1, 9), rng.randint(1, 9)
        rows = [
            {j: rng.randint(-4, 4) for j in range(nc) if rng.random() < 0.6}
            for _ in range(nr)
        ]
        basis = nullspace([dict(r) for r in rows], nc)
        assert len(basis) == dense_nullity(rows, nc)
        for vec in basis:
            for r in rows:
                assert sum(F(r.get(j, 0)) * x for j, x in vec.items()) == 0


def test_nullspace_rational_entries():
    rows = [{0: F(1, 2), 1: F(-1, 3)}, {0: F(3, 2), 1: F(-1, 1), 2: F(0)}]
    basis = nullspace([dict(r) for r in rows], 3)
    assert len(basis) == 2
    for vec in basis:
        for row in rows:
            assert sum(row.get(j, F(0)) * x for j, x in vec.items()) == 0


def test_nullspace_of_empty_matrix_is_everything():
    assert len(nullspace([], 4)) == 4


def test_row_reducer_coords_roundtrip():
    rng = random.Random(7)
    reducer = RowReducer()
    vectors = []
    while len(vectors) < 5:
        v = {j: F(rng.randint(-3, 3)) for j in range(8) if rng.random() < 0.7}
        if reducer.add(dict(v)):
            vectors.append(v)
    combo = {}
    weights = [F(3), F(-1, 2), F(0), F(5), F(2, 7)]
    for w, v in zip(weights, vectors):
        for j, x in v.items():
            combo[j] = combo.get(j, F(0)) + w * x
    coords = reducer.coords(combo)
    assert all(coords.get(i, F(0)) == w for i, w in enumerate(weights))


def test_row_reducer_rejects_dependent_and_detects_outside():
    reducer = RowReducer()
    assert reducer.add({0: 1, 1: 2})
    assert not reducer.add({0: 2, 1: 4})
    assert reducer.contains({0: -3, 1: -6})
    assert not reducer.contains({1: 1})
    try:
        reducer.coords({2: 1})
    except ValueError:
        pass
    else:
        raise AssertionError("coords outside the span must raise")


# -- the integer RREF core against the oracles ---------------------------------

NCOLS = 7
entries = st.fractions(min_value=-5, max_value=5, max_denominator=4)
sparse_rows = st.lists(
    st.dictionaries(st.integers(0, NCOLS - 1), entries, max_size=4), max_size=9
)


@st.composite
def systems(draw):
    """Sparse rational rows, with repeated and rescaled rows mixed in."""
    rows = draw(sparse_rows)
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        src = draw(st.sampled_from(rows))
        c = draw(entries.filter(bool))
        rows.append({j: c * v for j, v in src.items()})
    return draw(st.permutations(rows))


def same_span(a, b) -> bool:
    span = ReferenceRowReducer()
    for v in a:
        span.add(v)
    return len(span) == len(a) and all(span.contains(v) for v in b) and len(a) == len(b)


@settings(max_examples=100, deadline=None)
@given(systems())
def test_nullspace_matches_oracle(rows):
    basis = nullspace([dict(r) for r in rows], NCOLS)
    oracle = reference_nullspace([dict(r) for r in rows], NCOLS)
    assert len(basis) == len(oracle) == dense_nullity(rows, NCOLS)
    assert same_span(oracle, basis)
    for vec in basis:
        assert all(sum(F(r.get(j, 0)) * x for j, x in vec.items()) == 0 for r in rows)


@settings(max_examples=100, deadline=None)
@given(systems(), sparse_rows, st.lists(entries, min_size=9, max_size=9))
def test_row_reducer_matches_oracle(added, probes, weights):
    reducer, oracle = RowReducer(), ReferenceRowReducer()
    accepted = []
    for v in added:
        took = reducer.add(dict(v))
        assert took == oracle.add(dict(v))
        if took:
            accepted.append(v)
    assert len(reducer) == len(oracle) == len(accepted)
    combo = {}
    for w, v in zip(weights, accepted):
        for j, x in v.items():
            combo[j] = combo.get(j, F(0)) + w * x
    for vec in probes + [combo]:
        inside = oracle.contains(vec)
        assert reducer.contains(vec) == inside
        if inside:
            assert reducer.coords(vec) == oracle.coords(vec)


# -- canonical outputs ----------------------------------------------------------

mixed_entries = st.one_of(st.integers(-5, 5), entries)
mixed_rows = st.lists(
    st.dictionaries(st.integers(0, NCOLS - 1), mixed_entries, max_size=4), max_size=9
)


def is_canonical(v) -> bool:
    """Whole values are ints; the others are Fractions with denominator > 1."""
    return type(v) is int or (type(v) is F and v.denominator > 1)


@settings(max_examples=100, deadline=None)
@given(mixed_rows, st.lists(mixed_entries, min_size=9, max_size=9))
def test_outputs_are_canonical_and_match_the_fraction_oracle(rows, weights):
    as_fractions = [{j: F(v) for j, v in r.items()} for r in rows]
    basis = nullspace([dict(r) for r in rows], NCOLS)
    assert same_span(reference_nullspace(as_fractions, NCOLS), basis)
    assert all(is_canonical(x) for vec in basis for x in vec.values())
    reducer, oracle = RowReducer(), ReferenceRowReducer()
    accepted = []
    for r, fr in zip(rows, as_fractions):
        took = reducer.add(dict(r))
        assert took == oracle.add(fr)
        if took:
            accepted.append(fr)
    combo = {}
    for w, v in zip(weights, accepted):
        for j, x in v.items():
            combo[j] = combo.get(j, 0) + w * x
    coords = reducer.coords(combo)
    assert coords == oracle.coords(combo)
    assert all(is_canonical(x) for x in coords.values())


# -- unit vectors read off the stored rows ---------------------------------------


@settings(max_examples=100, deadline=None)
@given(systems(), st.lists(st.integers(0, NCOLS - 1), max_size=NCOLS))
def test_unit_coords_match_per_unit_solves(rows, units):
    # Rows, then some unit vectors; when every column is spanned, each e_j is read off its row.
    reducer = RowReducer()
    accepted = [v for v in [*rows, *({j: 1} for j in units)] if reducer.add(dict(v))]
    spanned = [j for j in range(NCOLS) if reducer.contains({j: 1})]
    if len(spanned) < len(reducer):  # some stored row holds a column that is no pivot
        with pytest.raises(ValueError, match="do not span"):
            reducer.unit_coords()
        return
    got = reducer.unit_coords()
    assert list(got.items()) == list(oracles.unit_coords_by_solves(reducer, spanned).items())
    assert all(is_canonical(c) for c in got.values())
    for j in spanned:
        combo = {}
        for k, v in enumerate(accepted):
            for i, x in v.items():
                combo[i] = combo.get(i, 0) + got.get((k, j), 0) * x
        assert {i: x for i, x in combo.items() if x} == {j: 1}


def test_unit_coords_of_a_full_basis():
    reducer = RowReducer()
    for v in ({0: 2, 1: 1}, {0: 1, 1: 1}, {2: F(1, 3)}):
        assert reducer.add(v)
    assert reducer.unit_coords() == {(0, 0): 1, (1, 0): -1, (0, 1): -1, (1, 1): 2, (2, 2): 3}
    assert oracles.unit_coords_by_solves(reducer, range(3)) == reducer.unit_coords()


@settings(max_examples=150, deadline=None)
@given(systems(), st.lists(st.integers(0, NCOLS - 1), max_size=NCOLS))
def test_index_updates_leave_the_set_difference_state(rows, units):
    # A row stream, then unit vectors: the same rows, index, unit coordinates and kernel.
    new, old = RowReducer(), oracles.SetDifferenceRowReducer()
    for v in [*rows, *({j: 1} for j in units)]:
        assert new.add(dict(v)) == old.add(dict(v))
        assert new._rows == old._rows and new._holders == old._holders
    try:
        want = old.unit_coords()
    except ValueError:
        with pytest.raises(ValueError, match="do not span"):
            new.unit_coords()
    else:
        assert list(new.unit_coords().items()) == list(want.items())
    with patch.object(linalg, "RowReducer", oracles.SetDifferenceRowReducer):
        want = nullspace([dict(r) for r in rows], NCOLS)
    got = nullspace([dict(r) for r in rows], NCOLS)
    assert [list(v.items()) for v in got] == [list(v.items()) for v in want]
