"""Bounded-exhaustive strategy invariance over a canonical schema family.

The hypothesis suites in ``test_oracle_crosscheck.py`` sample schemas; a
counterexample there shows up only when the sampler happens to draw it
(the Theorem 4.6 graph defect survived that way from the start of the
project).  This suite enumerates instead: every schema of a small,
canonical family over one attribute ``a`` is decided by

* ``strategy="naive"`` (all compound classes, the reference),
* ``strategy="strategic"`` and ``strategy="auto"`` (cluster-confined
  enumeration over ``G_S``, §4.4 closed form where it applies),
* the brute-force oracle of :mod:`repro.semantics.bruteforce` (models of
  at most two objects),

and every class verdict must agree: the three strategies exactly, the
oracle one-sidedly (a small model it finds certifies satisfiability).

Family: classes ``A``, ``B`` (and ``C``); each definition is an isa part
(nothing, or ``not`` another class) plus at most one attribute spec
(``a`` or ``inv a``, cardinality ``(0,1)`` or ``(1,1)``, one positive
filler class).  Schemas equal up to renaming the classes are decided once.
"""

from itertools import permutations, product

from repro.core.cardinality import Card
from repro.core.formulas import Clause, Formula, Lit
from repro.core.schema import Attr, AttrRef, ClassDef, Schema
from repro.engine.config import EngineConfig
from repro.parser.parser import parse_schema
from repro.parser.printer import render_schema
from repro.reasoner.satisfiability import Reasoner
from repro.semantics.bruteforce import brute_force_find_model

STRATEGIES = ("naive", "strategic", "auto")
CARDS = (Card(0, 1), Card(1, 1))
ORACLE_SIZE = 2


def class_specs(name, names, self_filler):
    """Every ``(isa target, attribute)`` choice of one definition: the
    isa target is None or a class the definition negates; the attribute
    is None or ``(inverse, card index, filler)``."""
    others = [other for other in names if other != name]
    fillers = list(names) if self_filler else others
    isas = [None] + others
    attributes = [None] + [(inverse, card, filler)
                           for inverse in (False, True)
                           for card in range(len(CARDS))
                           for filler in fillers]
    return list(product(isas, attributes))


def canonical(specs, names):
    """The least renaming of ``{name: spec}`` — one key per isomorphism
    class of schemas."""
    keys = []
    for image in permutations(names):
        rename = dict(zip(names, image))
        keys.append(tuple(sorted(
            (rename[name],
             "" if isa is None else rename[isa],
             () if attr is None else (attr[0], attr[1], rename[attr[2]]))
            for name, (isa, attr) in specs.items())))
    return min(keys)


def build(specs) -> Schema:
    definitions = []
    for name, (isa, attr) in sorted(specs.items()):
        formula = (Formula((Clause((Lit(isa, positive=False),)),))
                   if isa is not None else Formula(()))
        attributes = ()
        if attr is not None:
            inverse, card, filler = attr
            attributes = (Attr(AttrRef("a", inverse), CARDS[card],
                               Lit(filler)),)
        definitions.append(ClassDef(name, formula, attributes))
    return Schema(definitions)


def family(names, self_filler):
    """The canonical representatives of the family over ``names``."""
    seen = set()
    for choice in product(*(class_specs(name, names, self_filler)
                            for name in names)):
        specs = dict(zip(names, choice))
        key = canonical(specs, names)
        if key not in seen:
            seen.add(key)
            yield build(specs)


def disagreements(schema: Schema) -> list[str]:
    """Every verdict of ``schema`` that breaks strategy invariance or
    contradicts a small model the oracle finds."""
    verdicts = {strategy: Reasoner(schema, config=EngineConfig(
                    strategy=strategy))
                for strategy in STRATEGIES}
    found = []
    for name in sorted(schema.class_symbols):
        by_strategy = {strategy: reasoner.is_satisfiable(name)
                       for strategy, reasoner in verdicts.items()}
        if len(set(by_strategy.values())) != 1:
            found.append(f"{name}: {by_strategy}")
        elif (not by_strategy["naive"] and brute_force_find_model(
                schema, name, max_size=ORACLE_SIZE) is not None):
            found.append(f"{name}: every strategy says unsatisfiable, the "
                         f"oracle finds a model")
    return found


def check_family(names, self_filler):
    failures = []
    count = 0
    for schema in family(names, self_filler):
        count += 1
        for line in disagreements(schema):
            failures.append(f"{line}\n{render_schema(schema)}")
    assert not failures, (f"{len(failures)} disagreement(s) over {count} "
                          "schemas; first:\n" + failures[0])
    return count


def test_two_class_family():
    """Two classes, self-fillers allowed: 171 schemas up to renaming."""
    assert check_family(("A", "B"), self_filler=True) == 171


def test_three_class_family():
    """Three classes, fillers among the other classes: 3,303 schemas up to
    renaming.  Contains the Theorem 4.6 counterexample below."""
    assert check_family(("A", "B", "C"), self_filler=False) == 3303


def test_theorem_46_counterexample_is_in_the_family():
    """A: (inv a) : (1,1) B; B: a : (0,1) C; C: isa not B.  A is
    satisfiable (o1 ∈ B, o2 ∈ A ∩ C, a(o1, o2)); a schema graph linking
    classes only within one definition splits {A,B} | {C} and never
    enumerates the compound class {A, C}."""
    schema = parse_schema("""
        class A attributes (inv a) : (1, 1) B endclass
        class B attributes a : (0, 1) C endclass
        class C isa not B endclass
    """)
    specs = {"A": (None, (True, 1, "B")), "B": (None, (False, 0, "C")),
             "C": ("B", None)}
    assert build(specs) == schema
    assert not disagreements(schema)
    for strategy in STRATEGIES:
        reasoner = Reasoner(schema, config=EngineConfig(strategy=strategy))
        assert reasoner.is_satisfiable("A"), strategy
