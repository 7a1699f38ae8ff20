"""Property-based tests for structural invariants across the library.

These complement the oracle cross-checks in ``test_oracle_crosscheck.py``:
rather than validating verdicts, they validate *invariants* — round trips,
soundness of the preselection tables, validity of synthesized models and
rational witnesses — on hypothesis-generated inputs.
"""

from fractions import Fraction

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.parser.parser import parse_schema
from repro.parser.printer import render_schema
from repro.reasoner.implication import implied_disjoint, implied_subsumption
from repro.reasoner.satisfiability import Reasoner
from repro.semantics.checker import is_model
from repro.synthesis.builder import synthesize_model

from tests.strategies import CLASS_NAMES, rich_schemas  # noqa: E402


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rich_schemas())
def test_parser_printer_round_trip(schema):
    """render → parse is the identity on the AST."""
    assert parse_schema(render_schema(schema)) == schema


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rich_schemas(), st.sampled_from(CLASS_NAMES))
def test_synthesized_models_are_valid(schema, target):
    """Whenever the reasoner says satisfiable, synthesis must deliver a
    model that the independent checker accepts and that populates the
    target."""
    reasoner = Reasoner(schema)
    if not reasoner.is_satisfiable(target):
        return
    report = synthesize_model(reasoner, target=target, max_objects=20_000)
    assert is_model(report.interpretation, schema)
    assert report.interpretation.class_ext(target)


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rich_schemas())
def test_preselection_tables_are_sound(schema):
    """Everything the tables derive must be a logical consequence."""
    from repro.expansion.tables import build_tables

    tables = build_tables(schema)
    reasoner = Reasoner(schema)
    for c1 in CLASS_NAMES:
        for c2 in CLASS_NAMES:
            if c1 != c2 and tables.are_disjoint(c1, c2):
                assert implied_disjoint(reasoner, c1, c2)
            if tables.includes(c1, c2):
                assert implied_subsumption(reasoner, c1, c2) or c1 == c2
    for name in tables.empty_classes:
        assert not reasoner.is_satisfiable(name)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rich_schemas())
def test_exact_witness_satisfies_every_disequation(schema):
    """The stored rational witness is a genuine solution of Ψ_S."""
    from repro.expansion.expansion import build_expansion
    from repro.linear.support import acceptable_support

    result = acceptable_support(build_expansion(schema), backend="exact-sparse")
    for constraint in result.system.constraints:
        total = sum((coeff * result.solution[var]
                     for var, coeff in constraint.coefficients), Fraction(0))
        assert total <= 0, constraint.origin
    # Acceptability: positive compounds have positive endpoints.
    for index, value in result.solution.items():
        if value > 0:
            for endpoint in result.system.endpoints_of(index):
                assert result.solution[endpoint] > 0


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(1, 3), st.integers(2, 3), st.integers(0, 100))
def test_hierarchy_closed_form_matches_enumeration(depth, branching, seed):
    """Section 4.4's closed form equals the general enumeration on
    generated hierarchies."""
    from repro.expansion.enumerate import naive_compound_classes
    from repro.expansion.graph import hierarchy_compound_classes
    from repro.workloads.generators import hierarchy_schema

    schema = hierarchy_schema(depth, branching, seed=seed)
    closed = hierarchy_compound_classes(schema)
    assert closed is not None
    if len(schema.class_symbols) <= 13:
        assert set(closed) == set(naive_compound_classes(schema))
    assert len(closed) == len(schema.class_symbols) + 1


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rich_schemas(), st.sampled_from(CLASS_NAMES), st.sampled_from(CLASS_NAMES))
def test_subsumption_is_transitive_on_satisfiables(schema, a, b):
    """Sanity of the implication layer: subsumption composes."""
    reasoner = Reasoner(schema)
    for c in CLASS_NAMES:
        if (implied_subsumption(reasoner, a, b)
                and implied_subsumption(reasoner, b, c)):
            assert implied_subsumption(reasoner, a, c)
