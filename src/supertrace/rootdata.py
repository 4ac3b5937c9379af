"""Root data for sl(m|n) (m != n) and osp(2|2n) with the distinguished Borel.

Carries the Cartan matrix (A, s) with symmetrizers d_i, the positive even and
odd roots in simple-root coordinates, the rho vectors, the bilinear form on
weight space, typicality, and the modified superdimension together with its
h-series deformation.

Coordinate systems: each family lists its roots once as integer vectors over
eps_i, delta_j, and ``_assemble`` derives their simple-root coordinates (where
roots live), parities and the Cartan matrix.  Weights are stored as the
evaluation vector a_i = lambda(h_i).  These pair via
<lambda, alpha_i> = d_i * a_i, and the Gram matrix (d_i a_ij) pairs roots with
roots.  Indices are 0-based throughout (the odd simple root is index s).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .exactnum import HSeries, exact, q_bracket, rat_str
from .linalg import RowReducer


class AtypicalWeightError(ValueError):
    """Raised when an operation defined only on typical weights meets an atypical one."""


class RootDataError(ValueError):
    """Invalid family parameters or internally inconsistent Cartan data."""


@dataclass(frozen=True)
class SuperCartanData:
    """Cartan matrix A with the odd-generator index s and symmetrizers d."""

    rank: int
    a: tuple[tuple[int, ...], ...]
    s: int
    d: tuple[int, ...]

    def __post_init__(self):
        r = self.rank
        if len(self.a) != r or any(len(row) != r for row in self.a):
            raise RootDataError("Cartan matrix shape mismatch")
        if not 0 <= self.s < r:
            raise RootDataError("odd index out of range")
        if any(di not in (1, -1, 2, -2) for di in self.d):
            raise RootDataError("symmetrizers must lie in {+-1, +-2}")
        for i in range(r):
            for j in range(r):
                if self.d[i] * self.a[i][j] != self.d[j] * self.a[j][i]:
                    raise RootDataError("(d_i a_ij) is not symmetric")


@dataclass(frozen=True)
class Root:
    """A positive root in simple-root coordinates; parity = coeff of alpha_s mod 2."""

    coeffs: tuple[int, ...]
    parity: int


@dataclass(frozen=True)
class Weight:
    """A weight in evaluation coordinates a_i = lambda(h_i).

    Each coordinate must be an int or a Fraction (``exactnum.exact``); a float
    raises TypeError rather than being rounded.
    """

    a: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(Fraction(exact(x)) for x in self.a))

    def __str__(self):
        return "(" + ",".join(rat_str(x) for x in self.a) + ")"


def weight(*coords) -> Weight:
    if len(coords) == 1 and isinstance(coords[0], (tuple, list)):
        coords = tuple(coords[0])
    return Weight(tuple(Fraction(c) if isinstance(c, str) else c for c in coords))


@dataclass(frozen=True)
class RootSystem:
    family: str
    m: int
    n: int
    cartan: SuperCartanData
    pos_even: tuple[Root, ...]
    pos_odd: tuple[Root, ...]
    rho0: tuple[Fraction, ...]
    rho1: tuple[Fraction, ...]
    rho: tuple[Fraction, ...]

    @property
    def rank(self) -> int:
        return self.cartan.rank

    @property
    def s(self) -> int:
        return self.cartan.s

    def gram(self, i: int, j: int) -> int:
        return self.cartan.d[i] * self.cartan.a[i][j]

    def _check_weight(self, w: Weight) -> None:
        if len(w.a) != self.rank:
            raise RootDataError(f"weight {w} has {len(w.a)} coordinates; rank is {self.rank}")

    # -- the bilinear form -------------------------------------------------

    def form_rr(self, x, y) -> Fraction:
        """Form of two vectors in simple-root coordinates."""
        total = Fraction(0)
        for i, xi in enumerate(x):
            if xi == 0:
                continue
            for j, yj in enumerate(y):
                if yj:
                    total += Fraction(xi) * Fraction(yj) * self.gram(i, j)
        return total

    def form_wr(self, w: Weight, y) -> Fraction:
        """Form of a weight (a-coordinates) with a root-coordinate vector."""
        self._check_weight(w)
        return sum(
            (Fraction(yj) * self.cartan.d[j] * w.a[j] for j, yj in enumerate(y) if yj),
            Fraction(0),
        )

    def form(self, x, y) -> Fraction:
        """Symmetric bilinear form; arguments may be Root, Weight, or coord tuples."""
        xr = x.coeffs if isinstance(x, Root) else x
        yr = y.coeffs if isinstance(y, Root) else y
        if isinstance(x, Weight) and isinstance(y, Weight):
            return self.form_wr(x, self.weight_to_root_coords(y))
        if isinstance(x, Weight):
            return self.form_wr(x, yr)
        if isinstance(y, Weight):
            return self.form_wr(y, xr)
        return self.form_rr(xr, yr)

    def root_to_weight(self, coeffs) -> Weight:
        """Convert simple-root coordinates to evaluation coordinates."""
        a = []
        for i in range(self.rank):
            pairing = sum(
                (Fraction(cj) * self.gram(j, i) for j, cj in enumerate(coeffs) if cj),
                Fraction(0),
            )
            a.append(pairing / self.cartan.d[i])
        return Weight(tuple(a))

    def weight_to_root_coords(self, w: Weight) -> tuple[Fraction, ...]:
        """Invert root_to_weight (the Gram matrix is invertible for m != n)."""
        self._check_weight(w)
        reducer = RowReducer()
        for j in range(self.rank):
            reducer.add({i: self.gram(j, i) for i in range(self.rank)})
        coords = reducer.coords({i: self.cartan.d[i] * w.a[i] for i in range(self.rank)})
        return tuple(coords.get(j, Fraction(0)) for j in range(self.rank))

    # -- typicality and dimensions -----------------------------------------

    @cached_property
    def rho_pairings(self) -> dict[tuple[int, ...], Fraction]:  # <rho, alpha> by positive alpha's coeffs
        return {a.coeffs: self.form_rr(self.rho, a.coeffs) for a in self.pos_even + self.pos_odd}

    def pairing_with_rho_shift(self, w: Weight, root: Root) -> Fraction:
        """<lambda + rho, alpha> for a weight lambda and a root alpha; kept for a positive alpha."""
        rho = self.rho_pairings.get(root.coeffs)
        return self.form_wr(w, root.coeffs) + (self.form_rr(self.rho, root.coeffs) if rho is None else rho)

    def is_typical(self, w: Weight) -> bool:
        return all(self.pairing_with_rho_shift(w, a) != 0 for a in self.pos_odd)

    def atypicality_factors(self, w: Weight) -> list[Fraction]:
        """The values <lambda+rho, alpha> over the odd positive roots."""
        return [self.pairing_with_rho_shift(w, a) for a in self.pos_odd]

    def is_dominant_finite(self, w: Weight) -> bool:
        """True iff a_i is a non-negative integer for every i != s."""
        self._check_weight(w)
        for i, ai in enumerate(w.a):
            if i == self.s:
                continue
            if ai.denominator != 1 or ai < 0:
                return False
        return True

    def mod_sdim(self, w: Weight) -> Fraction:
        """The modified superdimension of the typical module with highest weight w."""
        value = Fraction(1)
        for alpha in self.pos_even:
            denom = self.rho_pairings[alpha.coeffs]
            if denom == 0:
                raise RootDataError(
                    "<rho, alpha> vanished on an even positive root; Cartan data corrupt"
                )
            value *= self.pairing_with_rho_shift(w, alpha) / denom
        for alpha in self.pos_odd:
            factor = self.pairing_with_rho_shift(w, alpha)
            if factor == 0:
                raise AtypicalWeightError(
                    f"weight {w} is atypical (vanishing odd factor)"
                )
            value /= factor
        return value

    def qmod_sdim(self, w: Weight, order: int = 8) -> HSeries:
        """The h-deformed modified superdimension, as a truncated series.

        The even-root bracket ratio times h^{#odd roots} over the odd-root
        brackets; each bracket q^x - q^{-x} vanishes to first order in h, so
        the division cancels a shared valuation of #even + #odd roots.  The
        constant term recovers mod_sdim.
        """
        if order < 0:
            raise ValueError("order must be non-negative")
        if not self.is_typical(w):
            raise AtypicalWeightError(f"weight {w} is atypical")
        v = len(self.pos_even) + len(self.pos_odd)
        work = order + v
        num = HSeries.one(work)
        den = HSeries.one(work)
        for alpha in self.pos_even:
            num = num * q_bracket(self.pairing_with_rho_shift(w, alpha), work)
            den = den * q_bracket(self.rho_pairings[alpha.coeffs], work)
        for alpha in self.pos_odd:
            den = den * q_bracket(self.pairing_with_rho_shift(w, alpha), work)
        h_power = {len(self.pos_odd): Fraction(1)}
        num = num * HSeries(
            work,
            tuple(h_power.get(k, Fraction(0)) for k in range(work + 1)),
        )
        return num.divide(den)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "m": self.m,
            "n": self.n,
            "rank": self.rank,
            "odd_index": self.s,
            "cartan_matrix": [list(row) for row in self.cartan.a],
            "symmetrizers": list(self.cartan.d),
            "pos_even": [list(r.coeffs) for r in self.pos_even],
            "pos_odd": [list(r.coeffs) for r in self.pos_odd],
            "rho0": [rat_str(x) for x in self.rho0],
            "rho1": [rat_str(x) for x in self.rho1],
            "rho": [rat_str(x) for x in self.rho],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def build_root_system(family: str, m: int, n: int | None = None) -> RootSystem:
    """Construct the distinguished-Borel root system for sl(m|n) or osp(2|2n).

    For the osp family pass the symplectic half-rank alone (osp(2|2n) is
    ``build_root_system("osp2", n)``); a second dimension raises RootDataError.
    """
    if family == "sl":
        if n is None:
            raise RootDataError("sl requires both m and n")
        return _build_sl(m, n)
    if family == "osp2":
        if n is not None:
            raise RootDataError("osp2 takes one dimension n, for osp(2|2n)")
        return _build_osp2(m)
    raise RootDataError(f"unknown family {family!r} (expected 'sl' or 'osp2')")


def _half_sum(roots: tuple[Root, ...], rank: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(sum(root.coeffs[i] for root in roots), 2) for i in range(rank))


def _vec(size: int, *terms: tuple[int, int]) -> tuple[int, ...]:
    """The epsilon-delta vector with coefficient c on coordinate k for each (k, c) in terms."""
    v = [0] * size
    for k, c in terms:
        v[k] += c
    return tuple(v)


def _peel(simple: list[tuple[int, ...]], v: tuple[int, ...]) -> tuple[int, ...]:
    """Simple-root coordinates of v, peeled off coordinate by coordinate (simple root i first
    touches coordinate i); RootDataError when v is no integral combination of the simple roots."""
    rest, coeffs = list(v), []
    for i, alpha in enumerate(simple):
        c = rest[i] // alpha[i]
        if c:
            rest = [x - c * y for x, y in zip(rest, alpha)]
        coeffs.append(c)
    if any(rest):  # a remainder on a pivot, or a leftover past the last one
        raise RootDataError(f"{v} is not an integral combination of the simple roots")
    return tuple(coeffs)


def _assemble(family, m, n, signature, d, simple, pos) -> RootSystem:
    """The root system of integer epsilon-delta data, derived once for every family.

    ``signature`` is the form's sign on each coordinate (+1 on the eps_i, -1 on
    the delta_j), ``d`` the symmetrizers, ``simple`` and ``pos`` the simple and
    positive roots.  The Cartan matrix is the simple roots' Gram divided by d;
    a root is odd when it has nonzero coordinates of both signs, and the one
    odd simple root is alpha_s; positive roots keep the order of ``pos``.
    """
    gram = [[sum(s * x * y for s, x, y in zip(signature, a, b)) for b in simple] for a in simple]
    if any(g % di for row, di in zip(gram, d) for g in row):
        raise RootDataError("non-integral Cartan matrix entry")

    def parity(v) -> int:
        return int(len({s for s, x in zip(signature, v) if x}) == 2)

    r, s = len(simple), next(i for i, alpha in enumerate(simple) if parity(alpha))
    a = tuple(tuple(g // di for g in row) for row, di in zip(gram, d))
    cartan = SuperCartanData(r, a, s, tuple(d))
    roots = [Root(_peel(simple, v), parity(v)) for v in pos]
    pos_even = tuple(root for root in roots if root.parity == 0)
    pos_odd = tuple(root for root in roots if root.parity == 1)
    rho0, rho1 = _half_sum(pos_even, r), _half_sum(pos_odd, r)
    rho = tuple(x - y for x, y in zip(rho0, rho1))
    rs = RootSystem(family, m, n, cartan, pos_even, pos_odd, rho0, rho1, rho)
    for i in range(r):
        # <rho, alpha_i> = <alpha_i, alpha_i>/2 must hold for the distinguished data.
        if rs.form_rr(rs.rho, _vec(r, (i, 1))) * 2 != rs.gram(i, i):
            raise RootDataError("rho consistency check failed")
    return rs


def _build_sl(m: int, n: int) -> RootSystem:
    if m < 1 or n < 1:
        raise RootDataError("sl(m|n) requires m, n >= 1")
    if m == n:
        raise RootDataError("sl(m|n) requires m != n (singular Cartan matrix)")
    size = m + n  # eps_1 .. eps_m, delta_1 .. delta_n
    simple = [_vec(size, (k, 1), (k + 1, -1)) for k in range(size - 1)]
    pos = [_vec(size, (i, 1), (j, -1)) for i in range(size) for j in range(i + 1, size)]
    return _assemble("sl", m, n, [1] * m + [-1] * n, [1] * m + [-1] * (n - 1), simple, pos)


def _build_osp2(n: int) -> RootSystem:
    if n < 1:
        raise RootDataError("osp(2|2n) requires n >= 1")
    size = n + 1  # eps, delta_1 .. delta_n
    # eps - delta_1, delta_k - delta_{k+1}, 2 delta_n
    simple = [_vec(size, (k, 1), (k + 1, -1)) for k in range(n)] + [_vec(size, (n, 2))]
    pos = []
    for i in range(1, size):
        pos += [_vec(size, (i, 1), (j, c)) for j in range(i + 1, size) for c in (-1, 1)]
        pos.append(_vec(size, (i, 2)))  # delta_i -+ delta_j, then 2 delta_i
    pos += [_vec(size, (0, 1), (i, c)) for i in range(1, size) for c in (-1, 1)]  # eps -+ delta_i
    d = [2 if n == 1 else 1] + [-1] * (n - 1) + [-2]
    return _assemble("osp2", 2, 2 * n, [1] + [-1] * n, d, simple, pos)
