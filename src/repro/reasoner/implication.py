"""Logical implication and schema classification.

A schema ``S`` logically implies a property when every model of ``S``
satisfies it (Section 2.3).  All the implications below reduce to
membership tests over the supported compound classes: an object of a model
lies in exactly one compound class, the supported compound classes are
exactly the ones some model populates, and — by closure of acceptable
solutions under addition — one model populates all of them at once.

* ``S ⊨ C isa F``  ⇔  every supported compound class containing ``C``
  realizes ``F``;
* ``S ⊨ C1, C2 disjoint``  ⇔  no supported compound class contains both;
* implied attribute-cardinality bounds are read off ``Natt`` restricted to
  the supported compound classes.

:func:`classify` computes the full implied subsumption preorder — the
inheritance-computation application the paper names in Section 2.3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.cardinality import Card, INFINITY
from ..core.errors import ReasoningError
from ..core.formulas import FormulaLike, Lit, as_formula
from ..core.schema import AttrRef
from .satisfiability import Reasoner

__all__ = ["implies_isa", "implied_disjoint", "implied_subsumption",
           "implied_equivalence", "implied_attribute_bounds",
           "implied_attribute_filler", "implied_participation_bounds",
           "implied_role_constraint", "implies_class_definition",
           "Classification", "classify"]


def _check_class(reasoner: Reasoner, name: str) -> None:
    if name not in reasoner.schema.class_symbols:
        raise ReasoningError(f"class {name!r} does not occur in the schema")


def implies_isa(reasoner: Reasoner, class_name: str,
                formula: FormulaLike) -> bool:
    """``S ⊨ class_name isa formula``.

    Decided clause-wise: the formula is implied iff for each clause ``γ``
    the literal conjunction ``class_name ∧ ¬γ`` is unsatisfiable — a
    formula-satisfiability query, which handles cross-cluster formulas
    correctly (see :meth:`Reasoner.is_formula_satisfiable`).
    """
    from ..core.formulas import Clause, Formula

    _check_class(reasoner, class_name)
    formula = as_formula(formula)
    unknown = formula.classes() - reasoner.schema.class_symbols
    if unknown:
        raise ReasoningError(
            f"formula mentions classes outside the schema: {sorted(unknown)}")
    for clause in formula:
        units = [Clause((Lit(class_name),))]
        units.extend(Clause((Lit(lit.name, not lit.positive),))
                     for lit in clause)
        if reasoner.is_formula_satisfiable(Formula(tuple(units))):
            return False
    return True


def implied_subsumption(reasoner: Reasoner, sub: str, sup: str) -> bool:
    """``S ⊨ sub isa sup`` for plain class symbols.

    Note that an unsatisfiable ``sub`` is subsumed by everything.
    """
    return implies_isa(reasoner, sub, Lit(sup))


def implied_equivalence(reasoner: Reasoner, c1: str, c2: str) -> bool:
    """Mutual subsumption: the two classes coincide in every model."""
    return (implied_subsumption(reasoner, c1, c2)
            and implied_subsumption(reasoner, c2, c1))


def implied_disjoint(reasoner: Reasoner, c1: str, c2: str) -> bool:
    """``S ⊨ c1 ∧ c2`` has no instance in any model."""
    _check_class(reasoner, c1)
    _check_class(reasoner, c2)
    return not reasoner.is_formula_satisfiable(Lit(c1) & Lit(c2))


def implied_attribute_bounds(reasoner: Reasoner, class_name: str,
                             ref: AttrRef) -> Optional[Card]:
    """The tightest cardinality interval ``S`` implies for the number of
    ``ref``-links of an instance of ``class_name``.

    Derived from ``Natt`` over supported compound classes: an instance in
    compound class ``C̄`` may carry any link count allowed by
    ``C̄ ⇒ ref : (u, v)`` — capped at 0 when no consistent supported partner
    exists — so the implied bounds are the hull over the compound classes
    ``class_name`` can inhabit.  Returns None when ``class_name`` is
    unsatisfiable (every bound holds vacuously).
    """
    _check_class(reasoner, class_name)
    expansion = reasoner.expansion
    support = reasoner.support
    supported = support.supported_compound_classes()
    hull: Optional[Card] = None
    for members in support.compound_classes_in(
            support.class_mask(class_name)):
        card = expansion.natt.get((members, ref), Card(0, INFINITY))
        if not _has_supported_partner(reasoner, members, ref, supported):
            card = Card(0, 0)
        hull = card if hull is None else hull.widen(card)
    return hull


def _has_supported_partner(reasoner: Reasoner, members: frozenset,
                           ref: AttrRef,
                           supported: tuple[frozenset, ...]) -> bool:
    """Can an instance of compound class ``members`` carry a ``ref``-link in
    some model?

    Materialized compound attributes (those a binding ``Natt`` entry made
    part of ``Ψ_S``) must themselves be supported; non-materialized ones are
    unconstrained, so supported endpoints suffice — their consistency is
    checked on the fly.
    """
    from ..expansion.compound import (
        CompoundAttribute,
        is_consistent_compound_attribute,
    )

    expansion = reasoner.expansion
    if ref.inverse:
        materialized = expansion.attributes_with_right(ref.name, members)
        seen = {c.left for c in materialized}
    else:
        materialized = expansion.attributes_with_left(ref.name, members)
        seen = {c.right for c in materialized}
    if any(reasoner.support.is_supported(c) for c in materialized):
        return True
    for partner in supported:
        if partner in seen:
            continue  # materialized and found unsupported above
        if ref.inverse:
            candidate = CompoundAttribute(ref.name, partner, members)
        else:
            candidate = CompoundAttribute(ref.name, members, partner)
        if is_consistent_compound_attribute(reasoner.schema, candidate,
                                            endpoints_consistent=True):
            return True
    return False


def implied_attribute_filler(reasoner: Reasoner, class_name: str,
                             ref: AttrRef, formula) -> bool:
    """``S ⊨`` every ``ref``-filler of an instance of ``class_name`` is in
    ``formula``.

    Decided clause-wise: a clause ``γ`` fails iff some model contains an
    instance of ``class_name`` with a ``ref``-link to an object satisfying
    ``¬γ`` (the conjunction of the negated literals).  When the touched
    classes sit in one cluster, the supported compound-attribute pairs
    answer directly; otherwise the query is decided on an augmented schema
    with a fresh subclass of ``class_name`` that *forces* such a link —
    reducing to plain class satisfiability, which is always correct.
    """
    from ..core.formulas import Clause, Formula, as_formula

    _check_class(reasoner, class_name)
    formula = as_formula(formula)
    unknown = formula.classes() - reasoner.schema.class_symbols
    if unknown:
        raise ReasoningError(
            f"formula mentions classes outside the schema: {sorted(unknown)}")
    for clause in formula:
        negated = Formula(tuple(
            Clause((Lit(lit.name, not lit.positive),)) for lit in clause))
        touched = clause.classes() | {class_name}
        if reasoner.enumeration_complete_for(touched):
            if _enumerated_bad_partner(reasoner, class_name, ref, negated):
                return False
        elif _augmented_bad_link(reasoner, class_name, ref, negated):
            return False
    return True


def _enumerated_bad_partner(reasoner: Reasoner, class_name: str,
                            ref: AttrRef, negated) -> bool:
    """Is there a populatable pair whose filler side satisfies ``negated``?"""
    from ..expansion.compound import (
        CompoundAttribute,
        is_consistent_compound_attribute,
    )

    expansion = reasoner.expansion
    support = reasoner.support
    partners = support.compound_classes_in(support.formula_mask(negated))
    materialized = set(expansion.compound_attributes.get(ref.name, ()))
    for members in support.compound_classes_in(
            support.class_mask(class_name)):
        for partner in partners:
            if ref.inverse:
                candidate = CompoundAttribute(ref.name, partner, members)
            else:
                candidate = CompoundAttribute(ref.name, members, partner)
            if candidate in materialized:
                if reasoner.support.is_supported(candidate):
                    return True
            elif is_consistent_compound_attribute(
                    reasoner.schema, candidate, endpoints_consistent=True):
                return True
    return False


def _augmented_bad_link(reasoner: Reasoner, class_name: str, ref: AttrRef,
                        negated) -> bool:
    """Cross-cluster case: can an instance of ``class_name`` carry a
    ``ref``-link whose filler satisfies ``negated``?

    A fresh subclass forcing at least one such link is satisfiable exactly
    when some model realizes the bad link (per-pair link distribution is
    free, so one bad link implies an all-bad-links object at some scale).
    """
    from ..core.cardinality import Card
    from ..core.schema import AttributeSpec, ClassDef

    name = reasoner.fresh_class_name("QueryLink")
    probe = ClassDef(
        name, isa=Lit(class_name),
        attributes=[AttributeSpec(ref, Card(1, None), negated)])
    return reasoner.augmented_with(probe).is_satisfiable(name)


def implies_class_definition(reasoner: Reasoner, cdef) -> bool:
    """``S ⊨ δ`` for a whole class definition ``δ`` (Section 2.3).

    A definition is implied when every model of the schema satisfies it:
    the isa part, every attribute spec (filler typing *and* cardinality
    interval), and every participation spec.
    """
    from ..core.schema import ClassDef

    if not isinstance(cdef, ClassDef):
        raise ReasoningError(f"expected a ClassDef, got {cdef!r}")
    name = cdef.name
    _check_class(reasoner, name)
    if not reasoner.is_satisfiable(name):
        return True  # vacuously: the class has no instances in any model
    if not implies_isa(reasoner, name, cdef.isa):
        return False
    for spec in cdef.attributes:
        bounds = implied_attribute_bounds(reasoner, name, spec.ref)
        if bounds is None or not bounds.refines(spec.card):
            return False
        if not implied_attribute_filler(reasoner, name, spec.ref, spec.filler):
            return False
    for spec in cdef.participates:
        bounds = implied_participation_bounds(
            reasoner, name, spec.relation, spec.role)
        if bounds is None or not bounds.refines(spec.card):
            return False
    return True


def _possible_compound_relations(reasoner: Reasoner, relation: str):
    """Compound relations that some model can make nonempty.

    Materialized ones (part of ``Ψ_S``) must be supported; non-materialized
    ones are unconstrained, so consistency over supported endpoint compound
    classes suffices.  Enumerates ``|supported|^arity`` candidates — fine
    for API use on moderate schemas.
    """
    from itertools import product as _product

    from ..expansion.compound import (
        CompoundRelation,
        is_consistent_compound_relation,
    )

    expansion = reasoner.expansion
    rdef = reasoner.schema.relation(relation)
    materialized = set(expansion.compound_relations.get(relation, ()))
    supported = reasoner.supported_compound_classes()
    for combo in _product(supported, repeat=rdef.arity):
        candidate = CompoundRelation(relation, dict(zip(rdef.roles, combo)))
        if candidate in materialized:
            if reasoner.support.is_supported(candidate):
                yield candidate
        elif is_consistent_compound_relation(reasoner.schema, candidate,
                                             endpoints_consistent=True):
            yield candidate


def implied_participation_bounds(reasoner: Reasoner, class_name: str,
                                 relation: str, role: str) -> Optional[Card]:
    """The tightest interval ``S`` implies for the number of tuples of
    ``relation`` an instance of ``class_name`` occurs in at ``role``.

    The analogue of :func:`implied_attribute_bounds` for relation
    participation; None when ``class_name`` is unsatisfiable.
    """
    _check_class(reasoner, class_name)
    if role not in reasoner.schema.relation(relation).roles:
        raise ReasoningError(
            f"relation {relation} has no role {role!r}")
    expansion = reasoner.expansion
    support = reasoner.support
    possible = list(_possible_compound_relations(reasoner, relation))
    hull: Optional[Card] = None
    for members in support.compound_classes_in(
            support.class_mask(class_name)):
        card = expansion.nrel.get((members, relation, role),
                                  Card(0, INFINITY))
        if not any(candidate[role] == members for candidate in possible):
            card = Card(0, 0)
        hull = card if hull is None else hull.widen(card)
    return hull


def implied_role_constraint(reasoner: Reasoner, relation: str, role: str,
                            formula) -> bool:
    """``S ⊨`` every tuple of ``relation`` has its ``role`` component in
    ``formula``.

    Clause-wise like :func:`implied_attribute_filler`: clause ``γ`` fails
    iff some model has a tuple whose ``role`` component satisfies ``¬γ``.
    The enumeration over populatable compound relations decides it when the
    touched classes share a cluster; otherwise a fresh probe class
    satisfying ``¬γ`` and forced to participate in ``relation[role]``
    reduces the question to class satisfiability.
    """
    from ..core.cardinality import Card
    from ..core.formulas import Clause, Formula, as_formula
    from ..core.schema import ClassDef, ParticipationSpec

    formula = as_formula(formula)
    unknown = formula.classes() - reasoner.schema.class_symbols
    if unknown:
        raise ReasoningError(
            f"formula mentions classes outside the schema: {sorted(unknown)}")
    rdef = reasoner.schema.relation(relation)
    if role not in rdef.roles:
        raise ReasoningError(f"relation {relation} has no role {role!r}")

    possible = None
    for clause in formula:
        negated = Formula(tuple(
            Clause((Lit(lit.name, not lit.positive),)) for lit in clause))
        touched = clause.classes() | rdef.mentioned_classes()
        if reasoner.enumeration_complete_for(touched):
            if possible is None:
                possible = list(_possible_compound_relations(reasoner, relation))
            if any(negated.satisfied_by(candidate[role])
                   for candidate in possible):
                return False
        else:
            name = reasoner.fresh_class_name("QueryRole")
            probe = ClassDef(
                name, isa=negated,
                participates=[ParticipationSpec(relation, role, Card(1, None))])
            if reasoner.augmented_with(probe).is_satisfiable(name):
                return False
    return True


@dataclass(frozen=True)
class Classification:
    """The implied subsumption structure of a schema.

    ``subsumptions`` holds every implied pair ``(sub, sup)`` with
    ``sub ≠ sup`` over satisfiable classes; ``equivalence_groups`` the
    induced classes of mutually subsuming names; ``unsatisfiable`` the names
    with no possible instance.
    """

    subsumptions: frozenset[tuple[str, str]]
    equivalence_groups: tuple[tuple[str, ...], ...]
    unsatisfiable: tuple[str, ...]

    def parents(self, name: str) -> list[str]:
        """Direct (non-transitive) implied superclasses of ``name``."""
        ups = {sup for sub, sup in self.subsumptions if sub == name}
        direct = set(ups)
        for sup in ups:
            direct -= {higher for lower, higher in self.subsumptions
                       if lower == sup and higher in direct and higher != sup}
        return sorted(direct)

    def __str__(self) -> str:
        lines = [f"{len(self.subsumptions)} implied subsumptions"]
        for sub, sup in sorted(self.subsumptions):
            lines.append(f"  {sub} isa {sup}")
        if self.unsatisfiable:
            lines.append("unsatisfiable: " + ", ".join(self.unsatisfiable))
        return "\n".join(lines)


def classify(reasoner: Reasoner) -> Classification:
    """Compute all implied subsumptions between class symbols.

    Complexity: one mask test per class pair — ``sub ⊑ sup`` iff every
    supported compound class containing ``sub`` contains ``sup`` — over
    the support's verdict index, shared across all queries.
    """
    names = sorted(reasoner.schema.class_symbols)
    masks = {name: reasoner.support.class_mask(name) for name in names}
    unsatisfiable = tuple(name for name in names if not masks[name])

    subsumptions: set[tuple[str, str]] = set()
    for sub in names:
        if not masks[sub]:
            continue  # unsatisfiable classes subsume vacuously; skip noise
        for sup in names:
            if sub != sup and not masks[sub] & ~masks[sup]:
                subsumptions.add((sub, sup))

    groups: list[tuple[str, ...]] = []
    seen: set[str] = set()
    for name in names:
        if name in seen or not masks[name]:
            continue
        group = [name] + [other for other in names
                          if other != name
                          and (name, other) in subsumptions
                          and (other, name) in subsumptions]
        if len(group) > 1:
            groups.append(tuple(sorted(group)))
            seen.update(group)
    return Classification(frozenset(subsumptions), tuple(groups), unsatisfiable)
