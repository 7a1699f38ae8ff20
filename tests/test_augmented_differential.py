"""Augmented queries through the one incremental rebuild path.

``Reasoner.augmented_with(cdef)`` answers "this schema plus one query
class" by revising the live pipeline (``Pipeline.revise``): compound
classes, expansion rows and solved ``Ψ_S`` blocks of untouched clusters
are reused, the merged cluster is re-enumerated.  Implication,
placement and cross-cluster formula verdicts all reach it.  This suite
checks, per probe class, that the revised reasoner, a cold build of
``schema.with_class(cdef)`` and ``strategy="naive"`` agree on every class
— the probe included — for four probe shapes:

* ``isa`` — the probe's isa part is a random formula over the schema;
* ``attribute`` — the probe also constrains an existing attribute;
* ``inverse`` — the same through ``inv`` of an existing attribute;
* ``participation`` — the probe participates in a relation role.

Attribute and inverse probes link the probe to classes of other
definitions through a shared attribute end, the case the Theorem 4.6
schema graph once dropped: before ``G_S`` had its attribute-end arcs,
the seeds in ``PINNED`` (found by scanning seeds 0–3999) had the
strategic enumeration miss a compound class of the probe, and the
counterexample probe below read unsatisfiable.
"""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.cardinality import Card
from repro.core.formulas import Clause, Formula, Lit
from repro.core.schema import (Attr, AttrRef, ClassDef, Part, RelationDef,
                               RoleClause, RoleLiteral)
from repro.engine.config import EngineConfig
from repro.parser.parser import parse_schema
from repro.reasoner.satisfiability import Reasoner
from repro.workloads.generators import hierarchy_schema, random_schema

SHAPES = ("isa", "attribute", "inverse", "participation")
CARDS = (Card(0, 1), Card(1, 1), Card(1, 2), Card(0, None))
STRATEGIES = ("strategic", "auto")
#: Probe seeds on which the schema graph without attribute-end arcs made
#: ``strategic`` and ``auto`` disagree with ``naive``.
PINNED = (862, 1810, 2278, 2602)


def probe_case(seed: int):
    """``(schema, probe definition)`` for ``seed``: a
    ``random_schema(4–6, p_attribute=0.6)`` plus one binary relation
    typed by two of its classes, and a fresh probe class of shape
    ``SHAPES[seed % 4]``."""
    rng = random.Random(seed)
    schema = random_schema(4 + seed % 3, seed=seed, p_attribute=0.6)
    names = sorted(schema.class_symbols)
    schema = schema.with_relation(RelationDef("Rel", ("u", "v"), [
        RoleClause(RoleLiteral("u", rng.choice(names))),
        RoleClause(RoleLiteral("v", rng.choice(names)))]))

    def literal():
        return Lit(rng.choice(names), positive=rng.random() < 0.7)

    isa = Formula(tuple(
        Clause(tuple(literal() for _ in range(rng.randint(1, 2))))
        for _ in range(rng.randint(1, 2))))
    shape = SHAPES[seed % len(SHAPES)]
    attributes, participates = (), ()
    attribute_names = sorted(schema.attribute_symbols)
    if shape in ("attribute", "inverse") and attribute_names:
        ref = AttrRef(rng.choice(attribute_names), shape == "inverse")
        # Half the time the filler is the attribute's own definer: the
        # probe then reaches that definer's fillers only through the
        # shared attribute end.
        definer = next(cdef.name for cdef in schema.class_definitions
                       if any(spec.ref.name == ref.name
                              for spec in cdef.attributes))
        filler = Lit(definer) if rng.random() < 0.5 else literal()
        attributes = (Attr(ref, rng.choice(CARDS), filler),)
    elif shape == "participation":
        participates = (Part("Rel", rng.choice(("u", "v")),
                             rng.choice(CARDS)),)
    return schema, ClassDef("__Probe", isa, attributes, participates)


def verdicts(reasoner: Reasoner) -> dict:
    return {name: reasoner.is_satisfiable(name)
            for name in sorted(reasoner.schema.class_symbols)}


def check_probe(seed: int) -> None:
    schema, probe = probe_case(seed)
    augmented = schema.with_class(probe)
    reference = verdicts(Reasoner(augmented,
                                  config=EngineConfig(strategy="naive")))
    for strategy in STRATEGIES:
        config = EngineConfig(strategy=strategy)
        base = Reasoner(schema, config=config)
        _ = base.support  # a built expansion is what revise reuses
        revised = base.augmented_with(probe)
        assert revised.pipeline.delta.added_classes == {probe.name}
        assert verdicts(revised) == reference, (seed, strategy, "revised")
        cold = Reasoner(augmented, config=config)
        assert verdicts(cold) == reference, (seed, strategy, "cold")


@pytest.mark.parametrize("seed", range(48))
def test_augmented_matches_cold_and_naive(seed):
    check_probe(seed)


@pytest.mark.parametrize("seed", PINNED)
def test_pinned_attribute_end_probes(seed):
    check_probe(seed)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
@example(PINNED[0])
def test_augmented_matches_cold_and_naive_sampled(seed):
    check_probe(seed)


def test_counterexample_probe():
    """B: a : (0,1) C; C: isa not B; probe A: (inv a) : (1,1) B.  A is
    satisfiable (o1 ∈ B, o2 ∈ A ∩ C, a(o1, o2)), which needs the
    compound class {A, C} — reachable only through the target end of
    ``a``."""
    schema = parse_schema("""
        class B attributes a : (0, 1) C endclass
        class C isa not B endclass
    """)
    probe = ClassDef("A", attributes=[Attr(AttrRef("a", True), Card(1, 1),
                                           Lit("B"))])
    for strategy in STRATEGIES + ("naive",):
        base = Reasoner(schema, config=EngineConfig(strategy=strategy))
        _ = base.support
        assert base.augmented_with(probe).is_satisfiable("A"), strategy


def test_probe_shapes_all_occur():
    shapes = set()
    for seed in range(8):
        _, probe = probe_case(seed)
        shapes.add("participation" if probe.participates
                   else "inverse" if any(spec.ref.inverse
                                         for spec in probe.attributes)
                   else "attribute" if probe.attributes else "isa")
    assert shapes == set(SHAPES)


@pytest.mark.parametrize("seed", range(2))
def test_hierarchy_base_matches_naive(seed):
    """Under ``auto`` a §4.4 hierarchy enumerates by the closed form; a
    probe that breaks the hierarchy shape revises from those compound
    classes, one that keeps it builds cold — both must match ``naive``."""
    rng = random.Random(seed)
    schema = hierarchy_schema(2, 2, with_attributes=True, seed=seed)
    names = sorted(schema.class_symbols)
    base = Reasoner(schema, config=EngineConfig(strategy="auto"))
    _ = base.support
    assert base.pipeline.is_hierarchy()
    modes = set()
    for _ in range(8):
        isa = Formula(tuple(
            Clause(tuple(Lit(rng.choice(names), positive=rng.random() < 0.6)
                         for _ in range(rng.randint(1, 2))))
            for _ in range(rng.randint(1, 2))))
        probe = ClassDef("__Probe", isa)
        revised = base.augmented_with(probe)
        modes.add(revised.pipeline.delta_stats["mode"])
        naive = Reasoner(schema.with_class(probe),
                         config=EngineConfig(strategy="naive"))
        assert verdicts(revised) == verdicts(naive), (seed, str(isa))
    assert "delta" in modes


def test_reuse_engages_on_a_built_strategic_base():
    schema, probe = probe_case(1)
    base = Reasoner(schema, config=EngineConfig(strategy="strategic"))
    _ = base.support
    stats = base.augmented_with(probe).pipeline.delta_stats
    assert stats["mode"] == "delta"
    assert stats["clusters_rebuilt"] >= 1
