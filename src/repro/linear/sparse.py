"""Exact linear programming on a sparse, fraction-free simplex tableau.

Phase 2 of the paper's method reduces class satisfiability to the existence
of particular solutions of a homogeneous system of linear disequations
(Theorem 3.3), decided "using linear programming techniques" (Theorem 4.3).
Floating-point LP cannot be trusted to distinguish ``x > 0`` from ``x = 0``
— the very distinction the method hinges on — so this module solves

    maximize    c · x
    subject to  A x ≤ b,   x ≥ 0

exactly, with each row of ``A`` a sparse ``{column: coefficient}`` dict.

``Ψ_S`` is extremely sparse: acceptability couples each compound
attribute/relation only to its endpoint classes, and every ``Natt``/``Nrel``
entry touches one compound-class column plus its summands.  So the tableau
is kept **sparse and integer**:

* each row is a ``{column: int}`` dict whose basic column has a positive
  coefficient; the canonical (unit-basic) row is the stored row divided by
  that coefficient, and the right-hand side is scaled alongside;
* a column index (``column → set of row ids``) lets a pivot touch only the
  rows actually containing the entering column;
* pivoting is fraction-free in the Bareiss style — rows update by integer
  cross-multiplication ``row_i·p - a_ic·row_r`` followed by **one** gcd
  normalization per updated row, instead of a gcd per arithmetic operation.

Rows with a negative right-hand side are negated and get an artificial
column, so the starting basis is the identity.  Phase 1 maximizes minus the
sum of the artificials, drives those still basic out, and drops the rest;
Phase 2 prices the real objective.  The max-support LP of the support
computation has ``b ≥ 0`` throughout, so it starts from the slack basis and
skips Phase 1.  Bland's rule guarantees termination, and every iteration
ticks the ambient :class:`~repro.core.budget.Budget`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Optional, Sequence

from ..core.budget import current_budget
from ..core.errors import LinearSystemError

__all__ = ["LpResult", "solve_lp", "OPTIMAL", "UNBOUNDED", "INFEASIBLE",
           "SparseTableau", "solve_max_support_sparse"]

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class LpResult:
    """Outcome of an LP solve.

    ``solution`` and ``objective`` are exact rationals, present only for
    ``status == OPTIMAL``.  ``pivots`` counts the tableau pivots performed
    across both phases — the arithmetic work metric the observability bus
    reports as ``lp.pivots``.
    """

    status: str
    objective: Optional[Fraction] = None
    solution: Optional[tuple[Fraction, ...]] = None
    pivots: int = 0


class SparseTableau:
    """A sparse, fraction-free simplex tableau for ``max c·x, Ax ≤ b, x ≥ 0``.

    ``rows`` and ``rhs`` are integer; ``objective`` maps columns to their
    (integer or rational) costs.  Columns
    ``0 .. n_structural-1`` are structural, ``n_structural + i`` is row
    ``i``'s slack, and the columns after those are the artificials of the
    rows with a negative right-hand side.  :meth:`solve` runs both phases;
    :meth:`solution` reads the structural values at the final basis.
    """

    def __init__(self, rows: Sequence[dict[int, int]], rhs: Sequence[int],
                 objective: Mapping[int, object], n_structural: int):
        m = len(rows)
        if len(rhs) != m:
            raise LinearSystemError(
                f"{m} constraint rows but {len(rhs)} right-hand sides")
        self.n_structural = n_structural
        self.objective = objective
        self.num: list[dict[int, int]] = []
        self.rhs: list[int] = []
        #: The positive factor each row was scaled by since it was last
        #: normalized: only its divisors can be common to the whole row.
        self.den: list[int] = [1] * m
        self.basis: list[int] = []
        self.cols: dict[int, set[int]] = {}
        self.artificial: set[int] = set()
        for i, (row, bound) in enumerate(zip(rows, rhs)):
            stored = {j: v for j, v in row.items() if v}
            stored[n_structural + i] = 1  # the slack column
            if bound < 0:
                stored = {j: -v for j, v in stored.items()}
                bound = -bound
                artificial = n_structural + m + len(self.artificial)
                stored[artificial] = 1
                self.artificial.add(artificial)
                self.basis.append(artificial)
            else:
                self.basis.append(n_structural + i)
            self.num.append(stored)
            self.rhs.append(bound)
            for j in stored:
                self.cols.setdefault(j, set()).add(i)
        #: Reduced costs, scaled to integers: only their signs and ratios
        #: matter, and ``pivot`` keeps both.  ``obj_den`` plays the role
        #: of ``den`` for this row.
        self.obj: dict[int, int] = {}
        self.obj_den = 1
        self.pivots = 0

    # ------------------------------------------------------------------
    @staticmethod
    def _normalize(row: dict[int, int], rhs: int,
                   den: int) -> tuple[int, int]:
        """Divide the whole row, its right-hand side and its scale factor
        ``den`` by their gcd; returns the new ``(rhs, den)``.

        One normalization per row per pivot keeps entries at the size of
        (scaled) minors — the fraction-free analogue of Bareiss division —
        without paying a gcd on every multiply.
        """
        g = gcd(den, rhs)
        for value in row.values():
            if g == 1:
                return rhs, den
            g = gcd(g, value)
        if g > 1:
            for j in row:
                row[j] //= g
            return rhs // g, den // g
        return rhs, den

    def _price(self, costs: Mapping[int, object]) -> None:
        """Set the reduced costs ``c_j - c_B·B⁻¹A_j`` of ``costs`` (ints or
        Fractions) at the current basis."""
        reduced = {j: v for j, v in costs.items() if v}
        for i, var in enumerate(self.basis):
            cost = costs.get(var)
            if cost:
                row = self.num[i]
                factor = Fraction(cost, row[var])
                for j, value in row.items():
                    reduced[j] = reduced.get(j, 0) - factor * value
        scale = lcm(*(value.denominator for value in reduced.values()))
        self.obj = {j: int(value * scale)
                    for j, value in reduced.items() if value}
        self.obj_den = 1

    def pivot(self, r: int, c: int) -> None:
        row_r = self.num[r]
        if row_r[c] < 0:
            # Only Phase 1 pivots on a negative entry, when it drives an
            # artificial out of a row at zero; negating keeps the basic
            # coefficient positive.
            for j in row_r:
                row_r[j] = -row_r[j]
            self.rhs[r] = -self.rhs[r]
        prc = row_r[c]
        rhs_r = self.rhs[r]
        for i in list(self.cols[c]):
            if i == r:
                continue
            row_i = self.num[i]
            nic = row_i[c]
            # row_i ← row_i·prc − nic·row_r, touching only row_i's nonzeros
            # plus row_r's support.
            for j in row_i:
                row_i[j] *= prc
            for j, vrj in row_r.items():
                delta = nic * vrj
                cur = row_i.get(j)
                if cur is None:
                    row_i[j] = -delta
                    self.cols.setdefault(j, set()).add(i)
                else:
                    new = cur - delta
                    if new:
                        row_i[j] = new
                    else:
                        del row_i[j]
                        self.cols[j].discard(i)
            self.rhs[i], self.den[i] = self._normalize(
                row_i, self.rhs[i] * prc - nic * rhs_r, self.den[i] * prc)
        oc = self.obj.get(c)
        if oc:
            obj = self.obj
            for j in obj:
                obj[j] *= prc
            for j, vrj in row_r.items():
                delta = oc * vrj
                cur = obj.get(j)
                if cur is None:
                    obj[j] = -delta
                else:
                    new = cur - delta
                    if new:
                        obj[j] = new
                    else:
                        del obj[j]
            g = self.obj_den * prc
            for value in obj.values():
                if g == 1:
                    break
                g = gcd(g, value)
            self.obj_den = self.obj_den * prc
            if g > 1:
                self.obj_den //= g
                for j in obj:
                    obj[j] //= g
        self.basis[r] = c
        self.pivots += 1

    def _iterate(self) -> str:
        """Primal simplex with Bland's rule until optimal or unbounded.

        Entering: the smallest column with positive reduced cost.
        Leaving: the minimum-ratio row, ties broken toward the smallest
        basic variable; ratios compare by integer cross-multiplication.
        Each iteration ticks the ambient budget, so deadlines and step
        bounds interrupt long pivot sequences.
        """
        tick = current_budget().tick
        while True:
            tick()
            entering = min(
                (j for j, v in self.obj.items() if v > 0), default=-1)
            if entering < 0:
                return OPTIMAL
            leaving = -1
            best_num = best_den = 0  # best ratio = best_num / best_den
            for i in self.cols.get(entering, ()):  # only rows with the column
                coeff = self.num[i][entering]
                if coeff <= 0:
                    continue
                if leaving < 0:
                    better = True
                else:
                    lhs = self.rhs[i] * best_den
                    rhs = best_num * coeff
                    better = lhs < rhs or (lhs == rhs
                                           and self.basis[i]
                                           < self.basis[leaving])
                if better:
                    leaving, best_num, best_den = i, self.rhs[i], coeff
            if leaving < 0:
                return UNBOUNDED
            self.pivot(leaving, entering)

    def solve(self) -> str:
        """Run Phase 1 (when a row has an artificial) and Phase 2; return
        ``OPTIMAL``, ``UNBOUNDED`` or ``INFEASIBLE``."""
        if self.artificial:
            self._price({a: -1 for a in self.artificial})
            self._iterate()  # bounded above by zero, so always optimal
            if any(self.rhs[i] for i, var in enumerate(self.basis)
                   if var in self.artificial):
                return INFEASIBLE
            for i, var in enumerate(self.basis):
                if var in self.artificial:
                    entering = min((j for j in self.num[i]
                                    if j not in self.artificial), default=-1)
                    if entering >= 0:
                        self.pivot(i, entering)
            # Non-basic artificials stay at zero from here on.  A row whose
            # artificial is still basic has no other entry: it is redundant
            # and no pivot touches it.
            for artificial in self.artificial - set(self.basis):
                for i in self.cols.pop(artificial, ()):
                    del self.num[i][artificial]
        self._price(self.objective)
        return self._iterate()

    def solution(self) -> list[Fraction]:
        """Structural-variable values at the current (optimal) basis."""
        values = [Fraction(0)] * self.n_structural
        for i, var in enumerate(self.basis):
            if var < self.n_structural:
                values[var] = Fraction(self.rhs[i], self.num[i][var])
        return values


def _integer_row(row: Mapping[int, object], bound) -> tuple[dict[int, int], int]:
    """A rational row and its right-hand side scaled to integers."""
    scale = lcm(bound.denominator, *(v.denominator for v in row.values()))
    return {j: int(v * scale) for j, v in row.items()}, int(bound * scale)


def solve_lp(c: Sequence, rows: Sequence[Mapping[int, object]],
             b: Sequence, *, maximize: bool = True) -> LpResult:
    """Solve ``max (or min) c·x  s.t.  rows·x ≤ b, x ≥ 0`` exactly.

    ``rows`` are sparse ``{column: coefficient}`` dicts over the columns
    ``0 .. len(c)-1``.  Costs, coefficients and right-hand sides are
    coerced to :class:`~fractions.Fraction`, and each row is scaled to
    integers for the tableau.  Returns an :class:`LpResult` whose status is
    one of ``optimal``, ``unbounded``, ``infeasible``.
    """
    n = len(c)
    if len(b) != len(rows):
        raise LinearSystemError(
            f"{len(rows)} constraint rows but {len(b)} right-hand sides")
    int_rows: list[dict[int, int]] = []
    int_rhs: list[int] = []
    for row, bound in zip(rows, b):
        if any(not 0 <= j < n for j in row):
            raise LinearSystemError(
                f"constraint row names column(s) outside 0..{n - 1}: "
                f"{sorted(row)}")
        int_row, int_bound = _integer_row(
            {j: Fraction(v) for j, v in row.items()}, Fraction(bound))
        int_rows.append(int_row)
        int_rhs.append(int_bound)
    cost = [Fraction(v) for v in c]
    sign = 1 if maximize else -1
    tableau = SparseTableau(int_rows, int_rhs,
                            {j: sign * v for j, v in enumerate(cost)}, n)
    status = tableau.solve()
    if status != OPTIMAL:
        return LpResult(status, pivots=tableau.pivots)
    solution = tuple(tableau.solution())
    objective = sum((v * x for v, x in zip(cost, solution)), Fraction(0))
    return LpResult(OPTIMAL, objective, solution, tableau.pivots)


def solve_max_support_sparse(groups, rows) -> tuple[list[Fraction], int]:
    """The max-support LP over grouped columns.

    ``groups`` from :func:`~repro.linear.backends.grouped_columns`, ``rows``
    as sparse ``{group: Fraction}`` dicts ``≤ 0``.  Maximizes ``Σ t_g``
    subject to the rows, ``t_g ≤ x_g`` and ``t_g ≤ 1``; returns
    ``(group x-values, pivot count)``.  Every right-hand side is
    nonnegative, so the tableau skips Phase 1.
    """
    k = len(groups)
    int_rows: list[dict[int, int]] = []
    rhs: list[int] = []
    for row in rows:
        int_rows.append(_integer_row(row, 0)[0])
        rhs.append(0)
    for g in range(k):
        int_rows.append({g: -1, k + g: 1})   # t_g - x_g ≤ 0
        rhs.append(0)
        int_rows.append({k + g: 1})          # t_g ≤ 1
        rhs.append(1)
    tableau = SparseTableau(int_rows, rhs, {k + g: 1 for g in range(k)},
                            2 * k)
    status = tableau.solve()
    if status != OPTIMAL:
        raise LinearSystemError(
            f"max-support LP ended with status {status}; it is feasible at "
            "zero and bounded, this cannot happen")
    return tableau.solution()[:k], tableau.pivots
