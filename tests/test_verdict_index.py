"""The support's verdict index against the scan it replaces.

Every warm verdict reads :meth:`SupportResult.class_mask` /
:meth:`SupportResult.realizes`, an index over the supported compound
classes built once per support.  The reference is the old per-call scan:
every ``Ψ_S`` unknown that is a compound class and lies in the support.
The index must agree with it on fresh, artifact-rehydrated and
delta-recompiled supports, under both enumeration strategies; must not
touch ``PsiSystem.unknowns`` once built; and must give every thread the
same answers when many race the first verdicts of one reasoner.
"""

import os
import pickle
import random
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.formulas import TOP, Clause, Formula, Lit
from repro.core.schema import ClassDef, Schema
from repro.engine import EngineConfig, Pipeline
from repro.linear.system import PsiSystem
from repro.reasoner.satisfiability import Reasoner
from repro.workloads.generators import clustered_schema

from .strategies import CLASS_NAMES, formulas as isa_formulas, rich_schemas

#: A class symbol no generated schema mentions: its mask is always 0.
ABSENT = "Omega"

CONFIGS = {name: EngineConfig(strategy=name)
           for name in ("naive", "strategic")}

query_literals = st.builds(Lit, st.sampled_from(CLASS_NAMES + (ABSENT,)),
                           st.booleans())
# min_size=0 on clauses draws the empty clause (``false``); on formulas,
# the empty conjunction (``TOP``).
query_clauses = st.lists(query_literals, min_size=0, max_size=3).map(
    lambda ls: Clause(tuple(ls)))
query_formulas = st.lists(query_clauses, min_size=0, max_size=3).map(
    lambda cs: Formula(tuple(cs)))


def scanned(result):
    """The supported compound classes by a full scan of ``Ψ_S``."""
    return [unknown for index, unknown in enumerate(result.system.unknowns)
            if index in result.support and isinstance(unknown, frozenset)]


def assert_index_matches_scan(result, names, formulas):
    supported = scanned(result)
    assert list(result.supported_compound_classes()) == supported
    for name in names:
        assert (result.class_mask(name) != 0) == \
            any(name in members for members in supported), name
        assert list(result.compound_classes_in(result.class_mask(name))) \
            == [members for members in supported if name in members]
    for formula in formulas + [TOP, Formula((Clause(()),))]:
        assert result.realizes(formula) == \
            any(formula.satisfied_by(members) for members in supported), \
            formula
        assert list(result.compound_classes_in(
            result.formula_mask(formula))) == \
            [members for members in supported
             if formula.satisfied_by(members)], formula


def rehydrated(pipeline):
    """The pipeline's compiled snapshot, through pickle, rebuilt."""
    _ = pipeline.support
    artifact = pickle.loads(pickle.dumps(pipeline.compile()))
    rebuilt = Pipeline.from_artifact(artifact)
    assert "support" in rebuilt._artifacts  # SupportSnapshot.to_result
    return rebuilt


def supports(schema, edited, config):
    """Fresh, rehydrated and delta-revised pipelines for ``schema``."""
    fresh = Pipeline(schema, config)
    yield "fresh", fresh
    yield "rehydrated", rehydrated(Pipeline(schema, config))
    old = Pipeline(edited, config)
    _ = old.support
    yield "delta", old.revise(schema)


@pytest.mark.parametrize("strategy", sorted(CONFIGS))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(schema=rich_schemas(), rewritten=isa_formulas,
       formulas=st.lists(query_formulas, min_size=1, max_size=6))
def test_index_matches_scan(strategy, schema, rewritten, formulas):
    config = CONFIGS[strategy]
    target = schema.class_definitions[0]
    edited = Schema([ClassDef(target.name, rewritten, target.attributes,
                              target.participates)]
                    + list(schema.class_definitions[1:]),
                    list(schema.relation_definitions))
    for label, pipeline in supports(schema, edited, config):
        result = pipeline.support
        assert_index_matches_scan(result, CLASS_NAMES + (ABSENT,), formulas)
        reasoner = Reasoner.from_pipeline(pipeline)
        supported = scanned(result)
        for name in sorted(schema.class_symbols):
            assert reasoner.is_satisfiable(name) == \
                any(name in members for members in supported), (label, name)


@pytest.mark.parametrize("seed", range(3))
def test_database_type_inference_matches_scan(seed):
    """``implied_classes``/``admissible_classes`` read the masks; the
    reference intersects/unites the scanned compounds extending the
    object's classes."""
    from itertools import combinations

    from repro.semantics.database import Database

    schema = clustered_schema(2, 3, seed=seed)
    supported = scanned(Pipeline(schema).support)
    names = sorted(schema.class_symbols)
    db = Database(schema)
    for size in range(3):
        for current in combinations(names, size):
            obj = db.insert(current, *current)
            extending = [m for m in supported if set(current) <= m]
            implied = (frozenset.intersection(*extending) if extending
                       else frozenset()) - set(current)
            admissible = frozenset().union(*extending) - set(current)
            assert db.implied_classes(obj) == implied, current
            assert db.admissible_classes(obj) == admissible, current


@pytest.mark.parametrize("seed", range(4))
def test_delta_merged_support_carries_the_index(seed):
    """A clustered edit takes the block-merge path (``merge_support``)."""
    config = CONFIGS["strategic"]
    rng = random.Random(seed)
    old = clustered_schema(4, 3, seed=seed)
    defs = list(old.class_definitions)
    target = rng.choice(defs)
    anchor = sorted(target.mentioned_classes() - {target.name}
                    or old.class_symbols - {target.name})[0]
    new = Schema([ClassDef(d.name, Formula((Clause((Lit(anchor, False),)),)))
                  if d.name == target.name else d for d in defs])
    previous = Pipeline(old, config)
    _ = previous.support
    pipeline = previous.revise(new)
    result = pipeline.support
    assert pipeline.delta_stats["mode"] == "delta"
    assert pipeline.delta_stats["support_blocks_reused"] > 0
    names = sorted(new.class_symbols)
    formulas = [Formula((Clause((Lit(a),)), Clause((Lit(b, False),))))
                for a, b in zip(names, reversed(names))]
    assert_index_matches_scan(result, names, formulas)


@pytest.mark.parametrize("strategy", sorted(CONFIGS))
def test_warm_verdicts_do_not_touch_unknowns(strategy, monkeypatch):
    schema = clustered_schema(2, 3, seed=5)
    names = sorted(schema.class_symbols)
    reasoner = Reasoner(schema, config=CONFIGS[strategy])
    formulas = [Lit(a) & ~Lit(b) for a, b in zip(names, names[1:])]
    if strategy == "strategic":
        # Stay inside one cluster: a cross-cluster negative answer is
        # decided on an augmented schema, which builds a new Ψ_S.
        formulas = [f for f in formulas
                    if reasoner.enumeration_complete_for(f.classes())]
    expected = ([reasoner.is_satisfiable(name) for name in names],
                [reasoner.is_formula_satisfiable(f) for f in formulas])

    def forbidden(self):
        raise AssertionError("a warm verdict read PsiSystem.unknowns")

    monkeypatch.setattr(PsiSystem, "unknowns", property(forbidden))
    again = ([reasoner.is_satisfiable(name) for name in names],
             [reasoner.is_formula_satisfiable(f) for f in formulas])
    assert again == expected


def test_system_views_are_frozen_once():
    system = Pipeline(clustered_schema(2, 2, seed=0)).system
    assert system.unknowns is system.unknowns
    assert system.constraints is system.constraints
    assert isinstance(system.unknowns, tuple)


def test_threads_racing_first_verdicts_agree():
    """Service workers share one reasoner; its first verdicts build the
    support and the index while other threads already read them."""
    schema = clustered_schema(3, 3, seed=11)
    names = sorted(schema.class_symbols)
    formulas = [Lit(a) & Lit(b) for a, b in zip(names, names[3:])]
    reference = Reasoner(schema)
    expected = ([reference.is_satisfiable(name) for name in names],
                [reference.is_formula_satisfiable(f) for f in formulas])

    shared = Reasoner(schema)
    workers = 2 * (os.cpu_count() or 1) + 4  # more threads than cores
    start = threading.Barrier(workers)
    answers: list = [None] * workers
    errors: list = []

    def work(slot):
        try:
            start.wait(timeout=30)
            answers[slot] = (
                [shared.is_satisfiable(name) for name in names],
                [shared.is_formula_satisfiable(f) for f in formulas])
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(slot,), daemon=True)
                   for slot in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert all(answer == expected for answer in answers)
