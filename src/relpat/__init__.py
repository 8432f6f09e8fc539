"""Relational pattern languages: patterns whose variables are tied by word relations.

Core surface: parse/print of pattern text, the nine relation predicates,
exact membership solving, bounded-language oracles, the polynomial
non-erasing equivalence decider, 3-SAT reduction generators, and the
counter-automaton / universal-Turing-machine encoding toolkit.
"""

from .core import (
    Alphabet,
    BudgetExceededError,
    Constraint,
    Mode,
    PatternSyntaxError,
    RelationalPattern,
    Substitution,
    parse_document,
    parse_relational_pattern,
    print_relational_pattern,
)
from .relations import (
    LengthProfile,
    RelationKind,
    is_letter_antisymmetric_equivalence,
    length_profile,
    parikh_vector,
    primitive_root,
    relation_holds,
)
from .matcher import count_witnesses, match, solve_system
from .semantics import (
    BoundedLanguage,
    apply,
    bounded_equal,
    bounded_included,
    enumerate_language,
    inclusion_counterexample,
    is_valid,
)
from .equivalence import (
    EquivalencePreconditionError,
    MixedRelationKindsError,
    VariablePartition,
    closure,
    ne_equivalent,
)
from .reductions import (
    CnfFormula,
    ReductionInstance,
    ReductionVariant,
    generate,
    read_dimacs,
    sat_brute_force,
    verify_reduction,
    write_dimacs,
)
from .machines import (
    CaConfiguration,
    EncodingParams,
    TapeUtm,
    TwoCounterAutomaton,
    UtmConfiguration,
    ca_encode,
    ca_find_accepting_run,
    ca_step,
    ca_validate,
    parse_automaton,
    print_automaton,
    utm_delta,
    utm_encode_computation,
    utm_encode_config,
    utm_run,
    utm_step,
    utm_validate,
)
from .inclusion import (
    PredicatePair,
    PredicateTriple,
    SigmaAssignment,
    SimplePredicate,
    build_alpha_A,
    build_alpha_prop6,
    build_beta_A,
    build_beta_prop6,
    build_predicates,
    good_form,
    good_structure,
    predicate_satisfied,
    satisfied_predicates,
    simple_predicate_holds,
    simple_to_triple,
)

__version__ = "0.1.0"
