"""The modified supertrace on the ideal generated by typical modules.

Given a witnessed splitting alpha: V0 (x) W -> V, beta: V -> V0 (x) W with
alpha . beta = Id_V, the partial supertrace of beta . f . alpha over the W
factor is an even invariant endomorphism of the typical irreducible V0, hence
an exact scalar c; the modified trace of f is d(V0) * c, with
d(V0) = mod_sdim(V0) kept on the witness (``IdealWitness.d``).  Odd g-linear
endomorphisms force c = 0 on parity grounds, which is checked rather than
assumed.
"""

from __future__ import annotations

from fractions import Fraction

from . import superlin as sl
from .exactnum import exact
from .repmod import GModule, IdealWitness, _check_g_linear
from .superlin import SuperMap


class BracketError(AssertionError):
    """ptr(beta . f . alpha) failed to be an exact multiple of the identity."""


def bracket(f: SuperMap, w: IdealWitness) -> Fraction:
    """The scalar c with ptr(beta . f . alpha) = c Id, f a g-linear endomorphism of the witnessed V."""
    if f.domain != w.V.space or f.codomain != w.V.space:
        raise ValueError("map is not an endomorphism of the witnessed module")
    if not _check_g_linear(f, w.V, w.V, w.endo_actions):
        raise BracketError("bracket input is not g-linear")
    # ptr_W(beta . f . alpha) = B . F, with B[i, (a,u)] = beta[(i,u), a] and F[(a,u), j] =
    # (-1)^{p(u)} (f . alpha)[a, (j,u)], (a,u) keyed a dim W + u: B and alpha's signed rows
    # are kept on the witness, and neither V0 (x) W nor W is formed, as a map or a module.
    F = sl._summed(((a * w.w_space.dim + u, j), v * x) for (a, k), v in f.entries.items()
                   for u, j, x in w.alpha_rows.get(k, ()))
    reduced = sl.mat_mul(w.beta_keyed, F)
    # An odd multiple of the even identity must vanish identically.
    c = 0 if f.parity == sl.ODD else reduced.get((0, 0), 0)
    if reduced != {(i, i): c for i in range(w.V0.dim) if c}:
        raise BracketError(
            "ptr(beta . f . alpha) is not proportional to the identity; "
            "the input is not g-linear or the witness is invalid"
        )
    return c


def modified_trace(f: SuperMap, w: IdealWitness) -> Fraction:
    """d(V0) times the bracket scalar, canonical (``exact``); independent of the witness."""
    return exact(w.d * bracket(f, w))


def classical_str_is_zero(w: IdealWitness, f: SuperMap) -> bool:
    """Whether the genuine supertrace of f vanishes (it must on witnessed modules)."""
    bracket(f, w)  # validates g-linearity and the witness route
    return sl.supertrace(f) == 0


def psi_sharp(
    h: SuperMap,
    dom_factors: tuple[sl.SuperSpace, sl.SuperSpace],
    cod_factors: tuple[sl.SuperSpace, sl.SuperSpace],
) -> SuperMap:
    """Conjugate a map A (x) B -> C (x) D by super permutations on both sides.

    Returns tau_{C,D} . h . tau_{B,A}: B (x) A -> D (x) C.
    """
    A, B = dom_factors
    C, D = cod_factors
    if h.domain != sl.tensor_space(A, B) or h.codomain != sl.tensor_space(C, D):
        raise ValueError("factorizations do not match the map")
    return sl.super_permutation(C, D) @ h @ sl.super_permutation(B, A)


def psi_apply(h: SuperMap, U: GModule, V: GModule, f: SuperMap) -> SuperMap:
    """The operator f |-> ptr(h . (Id_U (x) f)) attached to h: U (x) V' -> V (x) U'.

    For f: U' -> V' this produces a map U -> V (the conjugation action of h on
    Hom spaces, realized through the generalized partial supertrace).
    """
    idu = sl.identity(U.space)
    inner = h @ sl.tensor_map(idu, f)
    return sl.partial_supertrace_hom(inner, U.space, f.domain, V.space)


def trace_invariance_sides(
    h: SuperMap,
    U: GModule,
    Vp: GModule,
    V: GModule,
    Up: GModule,
    f: SuperMap,
    g: SuperMap,
    w_V: IdealWitness,
    w_Vp: IdealWitness,
) -> tuple[Fraction, Fraction]:
    """Both sides of the invariance identity for the modified trace.

    Left: str'_V(Psi(f) . g).  Right: (-1)^{p(Psi) p(f)} str'_{V'}(f . Psi#(g)),
    where Psi is the operator attached to h: U (x) V' -> V (x) U', f: U' -> V'
    and g: V -> U are g-linear, and V, V' carry witnesses.
    """
    left_endo = psi_apply(h, U, V, f) @ g
    # Psi#(g) = ptr(h^# . (Id_{V'} (x) g)): the operator attached to h^#: V' (x) U -> U' (x) V.
    hsharp = psi_sharp(h, (U.space, Vp.space), (V.space, Up.space))
    right_endo = f @ psi_apply(hsharp, Vp, Up, g)
    left = modified_trace(left_endo, w_V)
    right = modified_trace(right_endo, w_Vp)
    sign = -1 if (h.parity and f.parity) else 1
    return left, sign * right
