"""Experiment "LP backends": the sparse fraction-free exact core at scale.

Ψ_S is extremely sparse — every disequation couples one compound-class
column to its entry's summands — and the sparse fraction-free simplex
(backend ``"exact-sparse"``) touches only nonzeros and keeps integer rows.
The bar asserted here and re-checked in CI: on the 10x-scaled ratio-cluster
series its wall-clock stays under the quadratic envelope in |Ψ_S|.
"""

import pytest

from benchlib import is_subquadratic, render_table, timed
from repro.core.cardinality import Card
from repro.core.formulas import Lit
from repro.core.schema import Attr, ClassDef, Schema, inv
from repro.expansion.expansion import build_expansion
from repro.linear.support import acceptable_support
from repro.linear.system import build_system

#: The 10x-scaled row (the committed Theorem 4.3 series stops at 32
#: clusters).
SCALED_CLUSTERS = 320


def ratio_cluster(index: int, fan: int) -> list[ClassDef]:
    """One cluster: |B| = fan · |A| via exact cardinalities."""
    a, b = f"A{index}", f"B{index}"
    return [
        ClassDef(a, isa=~Lit(b),
                 attributes=[Attr(f"link{index}", Card(fan, fan), b)]),
        ClassDef(b, attributes=[Attr(inv(f"link{index}"), Card(1, 1), a)]),
    ]


def schema_with_clusters(n: int) -> Schema:
    classes = []
    for i in range(n):
        classes.extend(ratio_cluster(i, fan=2 + (i % 3)))
    return Schema(classes)


@pytest.mark.experiment("lp-backends")
def test_sparse_scales_to_the_10x_row(benchmark):
    """The 10x-scaled Ψ_S row stays polynomial for the sparse core."""
    def measure():
        rows = []
        for n_clusters in (32, 96, SCALED_CLUSTERS):
            system = build_system(build_expansion(
                schema_with_clusters(n_clusters)))
            seconds, result = timed(
                lambda s=system: acceptable_support(s, backend="exact-sparse"))
            assert result.support  # every cluster is satisfiable
            rows.append((n_clusters, system.size(), seconds))
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    print()
    print(render_table(
        "LP backends — sparse exact on the 10x-scaled series",
        ["clusters", "|Psi_S|", "seconds"], rows))
    sizes = [float(r[1]) for r in rows]
    times = [max(r[2], 1e-5) for r in rows]
    assert is_subquadratic(sizes, times, slack=4.0), (
        "sparse LP time must stay under the quadratic envelope "
        f"{list(zip(sizes, times))}")
