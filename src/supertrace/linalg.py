"""Exact linear algebra over the rationals.

Every solve in the library goes through one eliminator, ``RowReducer``: an
incremental reduced row echelon form over the integers.  Rows are sparse
{column: int} dicts over non-negative columns, with denominators cleared and
the content divided out, so nothing is ever rounded.

An incoming row is reduced only against the pivot rows whose pivot columns
it touches; the stored rows are fully reduced, so one pass clears every pivot
column.  If anything is left, its pivot is the entry of smallest magnitude
(ties go to the larger column), and that column is then eliminated from the
earlier rows that hold it, found through a column -> rows index.  Since
a . old - b . row can gain or lose a column only where the new row has one,
the index of each updated row is refreshed over the new row's columns alone.

A vector passed to ``add`` carries a tag column -1-k, k being its acceptance
index.  Row operations act on the tags too, so a reduced row records which
combination of accepted vectors it is: ``coords`` reads the combination off
the tags, and ``unit_coords`` every unit vector's off the stored rows.
``nullspace`` inserts its rows untagged, shortest first, and reads one
kernel vector per free column off the pivot rows.  All return canonical
scalars (``exactnum.exact``): ints where whole, else Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .exactnum import cleared, ratio


def _primitive(row: dict[int, int]) -> dict[int, int]:
    g = gcd(*row.values())
    return {j: v // g for j, v in row.items()} if g > 1 else row


def _int_row(row: dict) -> dict[int, int]:
    """Clear denominators (``exactnum.cleared``) and divide by the content, dropping zeros."""
    return _primitive(cleared({j: v for j, v in row.items() if v})[0])


def _eliminate(row: dict[int, int], pivot_row: dict[int, int], col: int) -> dict[int, int]:
    """Clear ``col`` from ``row`` with a multiple of ``pivot_row``."""
    g = gcd(pivot_row[col], row[col])
    a, b = pivot_row[col] // g, row[col] // g
    out = dict(row) if a == 1 else {j: a * v for j, v in row.items()}
    for j, v in pivot_row.items():
        w = out.get(j, 0) - b * v
        if w:
            out[j] = w
        else:
            del out[j]
    return _primitive(out)


class RowReducer:
    """Incremental exact row reduction with coordinate tracking.

    Vectors are {index: value} dicts (int or Fraction values) over an implicit
    ambient space.  Each accepted vector extends the span; ``coords``
    expresses further vectors in terms of the vectors previously accepted (in
    acceptance order).
    """

    def __init__(self):
        self._rows: dict[int, dict[int, int]] = {}  # pivot column -> reduced row
        self._holders: dict[int, set[int]] = {}  # free column -> pivots of rows holding it

    def __len__(self) -> int:
        return len(self._rows)

    def _reduce(self, row: dict[int, int]) -> dict[int, int]:
        for c in [c for c in row if c in self._rows]:
            row = _eliminate(row, self._rows[c], c)
        return row

    def _insert(self, row: dict[int, int]) -> bool:
        row = self._reduce(row)
        free = [j for j in row if j >= 0]
        if not free:
            return False
        pc = min(free, key=lambda j: (abs(row[j]), -j))
        for q in self._holders.pop(pc, ()):
            old = self._rows[q]
            new = self._rows[q] = _eliminate(old, row, pc)
            # In a old - b row a column appears or cancels only where row has one.
            for j in free:
                if j in new:
                    self._holders.setdefault(j, set()).add(q)
                elif j in old and j != pc:
                    self._holders[j].discard(q)
        self._rows[pc] = row
        for j in free:
            if j != pc:
                self._holders.setdefault(j, set()).add(pc)
        return True

    def _tagged(self, vec: dict) -> dict[int, int]:
        return _int_row({**vec, -1 - len(self): 1})

    def add(self, vec: dict) -> bool:
        """Add a vector; returns True if it enlarged the span."""
        return self._insert(self._tagged(vec))

    def contains(self, vec: dict) -> bool:
        return all(j < 0 for j in self._reduce(_int_row(vec)))

    def coords(self, vec: dict) -> dict[int, Fraction]:
        """Express ``vec`` over the accepted vectors; raises if out of span."""
        row = self._reduce(self._tagged(vec))
        if any(j >= 0 for j in row):
            raise ValueError("vector is not in the span")
        den = row.pop(-1 - len(self))
        return {-1 - j: ratio(-t, den) for j, t in row.items()}

    def unit_coords(self) -> dict[tuple[int, int], Fraction]:
        """Each pivot column's unit vector over the accepted vectors, as {(k, j): c}, j ascending.

        No solve: when no stored row holds a free column (ValueError otherwise), the
        row with pivot j is a e_j plus its tags t_k, so e_j = sum_k (t_k / a) vec_k.
        """
        out = {}
        for j in sorted(self._rows):
            row = self._rows[j]
            for c, t in row.items():
                if c >= 0 and c != j:
                    raise ValueError("the accepted vectors do not span their columns")
                if c < 0:
                    out[(-1 - c, j)] = ratio(t, row[j])
        return out


def nullspace(rows, ncols: int) -> list[dict[int, Fraction]]:
    """Basis of the right kernel of the sparse matrix given by ``rows``.

    ``rows`` is an iterable of {column: value} dicts (values int or Fraction).
    Returns kernel vectors as {column: value} dicts of canonical scalars, one
    per free column, normalized so the free coordinate equals 1.
    """
    reducer = RowReducer()
    for row in sorted(filter(None, map(_int_row, rows)), key=len):
        reducer._insert(row)
    basis = []
    for free in range(ncols):
        if free in reducer._rows:
            continue
        vec = {free: 1}
        for p in reducer._holders.get(free, ()):
            row = reducer._rows[p]
            vec[p] = ratio(-row[free], row[p])
        basis.append(vec)
    return basis
