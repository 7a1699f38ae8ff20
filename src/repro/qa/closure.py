"""The schema's implication closure, compiled for query rewriting.

One :class:`ClosureIndex` holds every implication the rewriter consumes,
precomputed from the reasoner's supported compound classes so that
rewriting any number of queries shares the single Phase-1/Phase-2 build:

* ``subclasses`` — the implied subsumption preorder of
  :func:`repro.reasoner.implication.classify`, inverted (atom
  *specialization*: an asserted ``D`` certainly is a ``C`` when
  ``D ⊑ C``);
* ``mandatory_relations`` / ``mandatory_attributes`` — (class, link)
  pairs whose implied lower cardinality bound is ≥ 1 (atom
  *elimination*: ``C(x)`` certainly has a ``works_for``-tuple, so an
  unbound relation atom on ``x`` follows from ``C(x)`` alone);
* ``role_fillers`` — named classes every tuple of a relation puts its
  role filler in (*domain/range specialization*: an asserted
  ``works_for`` tuple certainly makes its ``emp`` filler a ``Person``).

The index is a plain picklable value object: it optionally rides inside
:class:`~repro.engine.artifact.CompiledSchema` (artifact v3) so service
replicas and CLI runs skip the closure computation on artifact-cache
hits.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.budget import current_budget
from ..core.cardinality import Card, INFINITY
from ..core.schema import AttrRef
from ..core.formulas import Lit
from ..reasoner.implication import (
    _has_supported_partner,
    _possible_compound_relations,
    classify,
    implied_role_constraint,
)
from ..reasoner.satisfiability import Reasoner

__all__ = ["ClosureIndex", "build_closure_index"]

#: Relations whose compound-relation candidate space exceeds this are left
#: out of the closure (sound: the rewriter just derives fewer facts).
RELATION_ENUMERATION_CAP = 50_000


@dataclass(frozen=True)
class ClosureIndex:
    """The precompiled implication facts driving query rewriting."""

    satisfiable: frozenset[str]
    unsatisfiable: tuple[str, ...]
    #: class → its implied proper subclasses (satisfiable ones only).
    subclasses: dict[str, frozenset[str]]
    #: class → sorted ``(relation, role)`` pairs with implied lower ≥ 1.
    mandatory_relations: dict[str, tuple[tuple[str, str], ...]]
    #: class → attribute refs with implied lower ≥ 1.
    mandatory_attributes: dict[str, tuple[AttrRef, ...]]
    #: ``(relation, role)`` → named classes every filler certainly has.
    role_fillers: dict[tuple[str, str], frozenset[str]]
    #: relation → declared role order (for synthesizing probe atoms).
    relation_roles: dict[str, tuple[str, ...]]

    def summary(self) -> dict:
        """Size counters for logs and ``/metrics``-adjacent introspection."""
        return {
            "satisfiable": len(self.satisfiable),
            "unsatisfiable": len(self.unsatisfiable),
            "subsumptions": sum(len(subs) for subs
                                in self.subclasses.values()),
            "mandatory_relations": sum(len(pairs) for pairs
                                       in self.mandatory_relations.values()),
            "mandatory_attributes": sum(len(refs) for refs
                                        in self.mandatory_attributes.values()),
            "role_fillers": sum(len(classes) for classes
                                in self.role_fillers.values()),
        }


def build_closure_index(reasoner: Reasoner) -> ClosureIndex:
    """Compile the rewriting closure from a (built) reasoner pipeline.

    Every fact is read off the supported compound classes — the same
    source :mod:`repro.reasoner.implication` answers one-off queries
    from — so soundness matches the implication API.  Cooperative
    budgets are ticked throughout (exit 75 via
    :class:`~repro.core.errors.BudgetExceeded`).
    """
    tick = current_budget().tick
    tracer = reasoner.tracer
    schema = reasoner.schema
    with tracer.span("qa.closure_build"):
        classification = classify(reasoner)
        satisfiable = frozenset(schema.class_symbols) \
            - set(classification.unsatisfiable)
        subclasses: dict[str, frozenset[str]] = {}
        for sub, sup in classification.subsumptions:
            subclasses.setdefault(sup, frozenset())
            subclasses[sup] = subclasses[sup] | {sub}
        tick(len(classification.subsumptions) + len(schema.class_symbols))

        support = reasoner.support
        containing = {name: support.compound_classes_in(
                          support.class_mask(name))
                      for name in satisfiable}

        mandatory_attributes = _mandatory_attributes(
            reasoner, containing, tick)
        mandatory_relations, role_fillers = _relation_facts(
            reasoner, containing, tick)

        index = ClosureIndex(
            satisfiable=satisfiable,
            unsatisfiable=classification.unsatisfiable,
            subclasses=subclasses,
            mandatory_relations=mandatory_relations,
            mandatory_attributes=mandatory_attributes,
            role_fillers=role_fillers,
            relation_roles={rdef.name: tuple(rdef.roles)
                            for rdef in schema.relation_definitions},
        )
    for key, value in index.summary().items():
        tracer.add(f"qa.closure_{key}", value)
    return index


def _mandatory_attributes(reasoner: Reasoner, containing: dict,
                          tick) -> dict[str, tuple[AttrRef, ...]]:
    """Attribute refs whose implied lower bound is ≥ 1 per class.

    The hull logic of
    :func:`~repro.reasoner.implication.implied_attribute_bounds`, run for
    every declared ref at once: the implied lower bound is the minimum
    over the supported compound classes the class inhabits.
    """
    expansion = reasoner.expansion
    supported = reasoner.supported_compound_classes()
    declared_refs: set[AttrRef] = set()
    for cdef in reasoner.schema.class_definitions:
        declared_refs.update(spec.ref for spec in cdef.attributes)
    result: dict[str, tuple[AttrRef, ...]] = {}
    for name, members_list in containing.items():
        mandatory: list[AttrRef] = []
        for ref in sorted(declared_refs, key=lambda r: (r.name, r.inverse)):
            lower = None
            for members in members_list:
                tick()
                card = expansion.natt.get((members, ref),
                                          Card(0, INFINITY))
                if card.lower == 0:
                    lower = 0
                    break
                if not _has_supported_partner(reasoner, members, ref,
                                              supported):
                    lower = 0
                    break
                lower = card.lower if lower is None \
                    else min(lower, card.lower)
            if lower is not None and lower >= 1:
                mandatory.append(ref)
        if mandatory:
            result[name] = tuple(mandatory)
    return result


def _relation_facts(reasoner: Reasoner, containing: dict, tick):
    """Mandatory participations and certain role fillers, per relation.

    One ``_possible_compound_relations`` enumeration per relation is
    shared by both fact families (the API functions recompute it per
    query).  Relations whose candidate space exceeds
    :data:`RELATION_ENUMERATION_CAP` are skipped — sound, the rewriter
    simply derives fewer facts — and counted on the tracer.
    """
    expansion = reasoner.expansion
    schema = reasoner.schema
    n_supported = len(reasoner.supported_compound_classes())
    mandatory: dict[str, list[tuple[str, str]]] = {}
    role_fillers: dict[tuple[str, str], frozenset[str]] = {}
    for rdef in schema.relation_definitions:
        if n_supported ** rdef.arity > RELATION_ENUMERATION_CAP:
            reasoner.tracer.add("qa.closure_relations_skipped")
            continue
        possible = list(_possible_compound_relations(reasoner, rdef.name))
        tick(max(len(possible), 1))
        for role in rdef.roles:
            at_role = [candidate[role] for candidate in possible]
            populatable = set(at_role)
            # Mandatory participation: implied lower bound ≥ 1.
            for name, members_list in containing.items():
                lower = None
                for members in members_list:
                    tick()
                    if members not in populatable:
                        lower = 0
                        break
                    card = expansion.nrel.get((members, rdef.name, role),
                                              Card(0, INFINITY))
                    if card.lower == 0:
                        lower = 0
                        break
                    lower = card.lower if lower is None \
                        else min(lower, card.lower)
                if lower is not None and lower >= 1:
                    mandatory.setdefault(name, []).append((rdef.name, role))
            # Certain role fillers.  The enumerated candidates are a
            # subset of the realizable ones, so "in every candidate" is
            # only a prefilter; survivors are confirmed either by a
            # complete enumeration or by implied_role_constraint's probe
            # fallback (strategic enumeration may miss cross-cluster
            # compounds).
            if possible:
                mentioned = rdef.mentioned_classes()
                fillers = set()
                for name in containing:
                    if not all(name in members for members in at_role):
                        continue
                    tick()
                    if reasoner.enumeration_complete_for(
                            mentioned | {name}) \
                            or implied_role_constraint(
                                reasoner, rdef.name, role, Lit(name)):
                        fillers.add(name)
                if fillers:
                    role_fillers[(rdef.name, role)] = frozenset(fillers)
    return ({name: tuple(sorted(pairs)) for name, pairs
             in mandatory.items()}, role_fillers)


def closure_for_pipeline(pipeline) -> ClosureIndex:
    """The closure index of a pipeline, via a reasoner façade."""
    return build_closure_index(Reasoner.from_pipeline(pipeline))


__all__ += ["closure_for_pipeline", "RELATION_ENUMERATION_CAP"]
