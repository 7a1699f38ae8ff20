"""Inclusion and disjointness tables — the preselection step of Section 4.3.

The paper proposes two data structures filled during a *preselection* pass:

* an **inclusion table** storing pairs ``(C1, C2)`` such that ``C1`` is
  necessarily included in ``C2`` in every model;
* a **disjointness table** storing pairs that are disjoint in every model.

Criterion (a): derive inclusion/disjointness that *logically follows* from
the isa parts.  Complete deduction is NP-complete, so — as the paper
suggests, citing [Dal92]'s tractable fragments — we use a sound,
polynomial, incomplete procedure with two strength levels:

* ``deduction="unit"`` — unit-clause propagation: a unit clause ``(D)`` in
  the isa of ``C`` yields ``C ⊑ D``, a unit ``(¬D)`` yields disjointness,
  closed transitively.
* ``deduction="binary"`` (default) — additionally resolves **two-literal
  clauses** against already-derived literals: from ``C ⊑ D``, a clause
  ``(L1 ∨ L2)`` in the isa of ``D``, and a derived ``¬L1``, conclude
  ``L2`` — iterated to a fixpoint (the Krom-fragment closure).

The tables prune the compound-class enumeration: every entry removes the
quarter of candidate compound classes violating it.  Inclusions are stored
per class (the closure); a disjointness entry is read off two closures when
asked (:meth:`SchemaTables.are_disjoint`) rather than filled for every pair.
"""

from __future__ import annotations

from typing import AbstractSet, Iterable

from ..core.formulas import Lit
from ..core.schema import Schema

__all__ = ["SchemaTables", "build_tables"]


class SchemaTables:
    """Preselection tables: derived inclusions, disjointnesses, empty classes.

    For every class ``C`` the closure computes ``implied(C)`` — literals
    true of every instance of ``C``.  ``superclasses(C)`` is its positive
    part; ``are_disjoint(C1, C2)`` holds when the closures clash;
    ``empty_classes`` holds classes whose own closure is contradictory.
    """

    def __init__(self, schema: Schema, deduction: str = "binary"):
        if deduction not in ("unit", "binary"):
            raise ValueError(f"unknown deduction level {deduction!r}")
        self._schema = schema
        self._deduction = deduction
        symbols = sorted(schema.class_symbols)
        self._symbols = symbols

        # implied[C], literals that hold for every instance of C, kept as
        # its positive part up[C] and negative part neg[C] (class names).
        up: dict[str, set[str]] = {name: {name} for name in symbols}
        neg: dict[str, set[str]] = {name: set() for name in symbols}
        # Short clauses per class: units seed directly, binaries resolve.
        unit_up: dict[str, set[str]] = {name: set() for name in symbols}
        unit_neg: dict[str, set[str]] = {name: set() for name in symbols}
        binaries: dict[str, list[tuple[Lit, Lit]]] = {
            name: [] for name in symbols}
        for name in symbols:
            for clause in schema.definition(name).isa:
                if len(clause) == 1:
                    lit = clause.literals[0]
                    (unit_up if lit.positive else unit_neg)[name].add(lit.name)
                elif len(clause) == 2 and deduction == "binary":
                    first, second = clause.literals
                    binaries[name].append((first, second))

        changed = True
        while changed:
            changed = False
            for name in symbols:
                pos, negs = up[name], neg[name]
                before = len(pos) + len(negs)
                for other in list(pos):
                    # Inherit the closure of every implied superclass.
                    pos |= unit_up[other]
                    pos |= up[other]
                    negs |= unit_neg[other]
                    negs |= neg[other]
                    # Resolve its binary clauses against derived negations.
                    for first, second in binaries[other]:
                        if first.name in (negs if first.positive else pos):
                            (pos if second.positive else negs).add(second.name)
                        if second.name in (negs if second.positive else pos):
                            (pos if first.positive else negs).add(first.name)
                if len(pos) + len(negs) != before:
                    changed = True

        self._up = {name: frozenset(names) for name, names in up.items()}
        self._neg = {name: frozenset(names) for name, names in neg.items()}

        self._empty: set[str] = set()
        for name in symbols:
            if self._up[name] & self._neg[name]:
                self._empty.add(name)
        # A class included in an empty class is itself empty.
        for name in symbols:
            if self._up[name] & self._empty:
                self._empty.add(name)

    def _clash(self, c1: str, c2: str) -> bool:
        """Do the closures of ``c1`` and ``c2`` contradict each other?

        The disjointness table is read through this test on demand, never
        materialized: two ``isdisjoint`` tests per asked pair cost less
        than filling all ``O(|C|²)`` pairs up front, most of which no
        consumer asks about."""
        empty = frozenset()
        return not (self._up.get(c1, empty).isdisjoint(
                        self._neg.get(c2, empty))
                    and self._up.get(c2, empty).isdisjoint(
                        self._neg.get(c1, empty)))

    # ------------------------------------------------------------------
    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def deduction(self) -> str:
        return self._deduction

    def implied_literals(self, name: str) -> frozenset[Lit]:
        """Every literal the closure derives for instances of ``name``."""
        if name not in self._up:
            return frozenset((Lit(name),))
        return frozenset(
            [Lit(other) for other in self._up[name]]
            + [Lit(other, positive=False) for other in self._neg[name]])

    def superclasses(self, name: str) -> frozenset[str]:
        """Classes that provably include ``name`` (reflexive)."""
        return self._up.get(name, frozenset((name,)))

    def includes(self, sub: str, sup: str) -> bool:
        """True when the table proves ``sub ⊑ sup``."""
        return sup in self.superclasses(sub)

    def are_disjoint(self, c1: str, c2: str) -> bool:
        """True when the table proves ``c1`` and ``c2`` share no instance."""
        if c1 == c2:
            return c1 in self._empty
        return self._clash(c1, c2)

    @property
    def empty_classes(self) -> frozenset[str]:
        """Classes refuted outright by the closure."""
        return frozenset(self._empty)

    @property
    def disjoint_pairs(self) -> frozenset[frozenset[str]]:
        """Every provably disjoint pair of distinct classes."""
        symbols = self._symbols
        return frozenset(
            frozenset((c1, c2))
            for i, c1 in enumerate(symbols) for c2 in symbols[i + 1:]
            if self._clash(c1, c2))

    def why_empty(self, name: str) -> str | None:
        """A human-readable derivation of why ``name`` is provably empty.

        Names the contradicting pair from the closure; None when the table
        has no refutation for ``name``.
        """
        if name not in self._empty:
            return None
        conflicting = sorted(self._up[name] & self._neg[name])
        if conflicting:
            witness = conflicting[0]
            includer = next(
                (anc for anc in sorted(self._up[name])
                 if witness in self._neg.get(anc, frozenset()) and anc != name),
                None)
            via = f" via {includer}" if includer else ""
            return (f"{name} provably implies both {witness} and "
                    f"not {witness}{via}")
        ancestor = next(iter(sorted(self._up[name] & self._empty - {name})),
                        None)
        if ancestor:
            return f"{name} is included in the provably empty class {ancestor}"
        return f"{name} is refuted by propagation over the isa parts"

    # ------------------------------------------------------------------
    # Pruning interface for the enumerator
    # ------------------------------------------------------------------
    def closure(self, members: AbstractSet[str]) -> frozenset[str]:
        """All classes a compound class containing ``members`` must contain."""
        result: set[str] = set()
        for name in members:
            result.update(self.superclasses(name))
        return frozenset(result)

    def admissible(self, members: Iterable[str]) -> bool:
        """False when ``members`` hits an empty class, misses a forced
        superclass, or contains a provably disjoint pair — such a compound
        class cannot be consistent."""
        member_list = list(members)
        member_set = set(member_list)
        for name in member_list:
            if name in self._empty:
                return False
            if not self.superclasses(name) <= member_set:
                return False
        for i, c1 in enumerate(member_list):
            for c2 in member_list[i + 1:]:
                if c1 != c2 and self._clash(c1, c2):
                    return False
        return True


def build_tables(schema: Schema, deduction: str = "binary") -> SchemaTables:
    """Run the preselection pass and return the filled tables."""
    return SchemaTables(schema, deduction)
