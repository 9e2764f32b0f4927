"""Synchronizing data words for register automata.

A workbench around one question: is there a data word sending every
configuration (location plus register valuation over an infinite data
domain) of a register automaton to one single configuration?  Deterministic
automata get a complete decision procedure with witnesses; nondeterministic
ones get exact length-bounded search; the hard-instance families and
reductions behind the known lower bounds are generated programmatically;
and a brute-force oracle cross-checks everything at desk scale.
"""

from .ra import (
    TRUE,
    Acceptance,
    And,
    Constraint,
    Diagnostic,
    Eq,
    Not,
    RegisterAutomaton,
    ResourceCapError,
    StructuralError,
    Transition,
    TrueC,
    complete_with_sink,
    conj,
    disj,
    eval_constraint,
    is_complete,
    is_deterministic,
    mk_transition,
    neq,
    or_,
    validate,
)
from .semantics import (
    FRESH,
    AbstractConfigSet,
    Engine,
    abstract_initial,
    abstract_post,
    abstract_run,
    choice_of_word,
    instantiate_choice_word,
    is_synchronized,
    post_config,
    post_set,
    word_data,
)
from .dra import (
    Dfa,
    InconclusiveError,
    NotShrinkable,
    ShrinkResult,
    dfa_synchronizing_word,
    dra1_decide,
    inequality_update_check,
    pairwise_merge_word,
    shrink_word,
    synchronizing_word_dra,
)
from .nra import (
    BudgetExhausted,
    NoneWithinBound,
    SearchBudget,
    Witness,
    accepts,
    bounded_sync_search,
    bounded_universality_witness,
    nonemptiness_witness,
)
from .gadgets import (
    ackermann,
    gen_chain_dra,
    gen_counter_nra,
    gen_tower_nra,
    reduce_nonempty_to_sync_dra,
    reduce_nonuniv_to_sync,
    reduce_sync_to_nonuniv,
    tower,
)
from .oracle import (
    OracleParams,
    oracle_is_synchronizing,
    oracle_min_data_efficiency,
    oracle_min_length,
    oracle_post,
    oracle_search,
)
from .dsl import (
    DslError,
    SourceDocument,
    format_guard,
    parse_automaton,
    parse_guard,
    serialize_automaton,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
