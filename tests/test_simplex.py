"""Unit tests for the exact sparse simplex, cross-checked against scipy.

``solve_lp`` takes sparse ``{column: coefficient}`` rows; the cases below
are written densely for readability and converted by :func:`sparse`.
"""

import random
from fractions import Fraction

import pytest

from repro.core.errors import LinearSystemError
from repro.linear.sparse import INFEASIBLE, OPTIMAL, UNBOUNDED
from repro.linear.sparse import solve_lp as solve_sparse_lp


def sparse(rows):
    """Dense rows → the ``{column: coefficient}`` dicts ``solve_lp`` takes."""
    return [{j: value for j, value in enumerate(row) if value}
            for row in rows]


def solve_lp(c, a_ub, b_ub, **kwargs):
    return solve_sparse_lp(c, sparse(a_ub), b_ub, **kwargs)


class TestBasicSolves:
    def test_trivial_maximum(self):
        # max x s.t. x ≤ 5
        result = solve_lp([1], [[1]], [5])
        assert result.status == OPTIMAL
        assert result.objective == 5
        assert result.solution == (Fraction(5),)

    def test_two_variable_vertex(self):
        # max x + y s.t. x + 2y ≤ 4, 3x + y ≤ 6  → vertex (8/5, 6/5).
        result = solve_lp([1, 1], [[1, 2], [3, 1]], [4, 6])
        assert result.status == OPTIMAL
        assert result.objective == Fraction(14, 5)
        assert result.solution == (Fraction(8, 5), Fraction(6, 5))

    def test_minimization(self):
        # min x + y s.t. -x - y ≤ -2 (i.e. x + y ≥ 2).
        result = solve_lp([1, 1], [[-1, -1]], [-2], maximize=False)
        assert result.status == OPTIMAL
        assert result.objective == 2

    def test_unbounded(self):
        result = solve_lp([1], [[-1]], [0])
        assert result.status == UNBOUNDED

    def test_infeasible(self):
        # x ≤ -1 with x ≥ 0.
        result = solve_lp([1], [[1]], [-1])
        assert result.status == INFEASIBLE

    def test_degenerate_zero_objective(self):
        result = solve_lp([0, 0], [[1, 1]], [3])
        assert result.status == OPTIMAL
        assert result.objective == 0

    def test_equality_via_two_inequalities(self):
        # x = 2y through x - 2y ≤ 0 and 2y - x ≤ 0, maximize x with x ≤ 10.
        result = solve_lp([1, 0], [[1, -2], [-1, 2], [1, 0]], [0, 0, 10])
        assert result.status == OPTIMAL
        assert result.solution[0] == 10
        assert result.solution[1] == 5

    def test_fractional_data(self):
        result = solve_lp([Fraction(1, 3)], [[Fraction(2, 7)]], [Fraction(1, 2)])
        assert result.status == OPTIMAL
        assert result.solution[0] == Fraction(7, 4)

    def test_row_width_mismatch_rejected(self):
        # A sparse row naming a column beyond ``c`` is the mismatch here.
        with pytest.raises(LinearSystemError):
            solve_sparse_lp([1, 1], [{2: 1}], [1])

    def test_rhs_length_mismatch_rejected(self):
        with pytest.raises(LinearSystemError):
            solve_lp([1], [[1]], [1, 2])


class TestHomogeneousSystems:
    """The shape Ψ_S produces: A x ≤ 0, feasible at the origin."""

    def test_origin_always_feasible(self):
        result = solve_lp([0, 0], [[1, -1], [-1, 1]], [0, 0])
        assert result.status == OPTIMAL

    def test_ratio_conflict_forces_zero(self):
        # x = y and x = 3y (cone form) plus box x ≤ 1: only x = y = 0.
        rows = [[1, -1], [-1, 1], [1, -3], [-1, 3], [1, 0], [0, 1]]
        rhs = [0, 0, 0, 0, 1, 1]
        result = solve_lp([1, 1], rows, rhs)
        assert result.status == OPTIMAL
        assert result.objective == 0

    def test_consistent_ratio_scales(self):
        # x = 2y with x ≤ 1: optimum x = 1, y = 1/2.
        rows = [[1, -2], [-1, 2], [1, 0]]
        result = solve_lp([1, 1], rows, [0, 0, 1])
        assert result.status == OPTIMAL
        assert result.solution == (Fraction(1), Fraction(1, 2))


class TestAgainstScipy:
    """Randomized differential test against scipy's HiGHS solver."""

    @pytest.mark.parametrize("seed,maximize", [
        pytest.param(seed, maximize, id=f"{seed}" if maximize else f"{seed}-min")
        for seed in range(25) for maximize in (True, False)])
    def test_random_bounded_lps(self, seed, maximize):
        scipy_linprog = pytest.importorskip("scipy.optimize").linprog
        rng = random.Random(seed)
        n = rng.randint(1, 5)
        m = rng.randint(1, 6)
        c = [rng.randint(-4, 4) for _ in range(n)]
        a_ub = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        b_ub = [rng.randint(-2, 6) for _ in range(m)]
        # Add a box to keep the problem bounded.
        for j in range(n):
            row = [0] * n
            row[j] = 1
            a_ub.append(row)
            b_ub.append(10)

        exact = solve_lp(c, a_ub, b_ub, maximize=maximize)
        sign = -1 if maximize else 1
        reference = scipy_linprog([sign * v for v in c], A_ub=a_ub, b_ub=b_ub,
                                  bounds=[(0, None)] * n, method="highs")
        if exact.status == INFEASIBLE:
            assert not reference.success
        else:
            assert exact.status == OPTIMAL
            assert reference.success
            assert abs(float(exact.objective) - sign * reference.fun) < 1e-6
