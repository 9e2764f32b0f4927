"""The benchmark's single client: one query in, one verdict out.

Each call goes through regsync's public API exactly as a caller holding DSL
text would: parse, then decide.  Nothing is cached between queries.  Calls
go through the module attributes (`dsl.parse_automaton`, not a local import)
so that the tracer's rebinding sees them.
"""

from __future__ import annotations

from dataclasses import dataclass

from regsync import dra, dsl, nra, semantics


@dataclass(frozen=True)
class Verdict:
    """`decided` is False for a budget-exhausted or inconclusive query.

    `result` is the query's answer: a word or None (sync-dra), a search
    outcome (sync-bounded, universality, nonempty), a bool (accepts) or an
    abstract configuration set (run).  `dra1` is dra1_decide's answer for
    one-register sync-dra queries, else None.
    """

    decided: bool
    result: object
    dra1: object = None


def execute(query) -> Verdict:
    aut = dsl.parse_automaton(query.text)
    kind = query.kind
    if kind == "sync-dra":
        try:
            word = dra.synchronizing_word_dra(aut, max_nodes=query.max_nodes)
        except dra.InconclusiveError as err:
            # Without its traceback: the frames hold the search's tables.
            return Verdict(False, err.with_traceback(None))
        return Verdict(True, word, dra.dra1_decide(aut) if aut.registers == 1 else None)
    if kind == "sync-bounded":
        budget = nra.SearchBudget(query.bound, max_nodes=query.max_nodes)
        out = nra.bounded_sync_search(aut, budget, bfs=query.bfs)
    elif kind == "universality":
        out = nra.bounded_universality_witness(aut, query.bound, query.max_nodes, bfs=query.bfs)
    elif kind == "nonempty":
        out = nra.nonemptiness_witness(aut, query.bound, query.max_nodes)
    elif kind == "accepts":
        return Verdict(True, nra.accepts(aut, query.word))
    elif kind == "run":
        return Verdict(True, semantics.abstract_run(aut, semantics.choice_of_word(query.word)))
    else:
        raise ValueError(f"unknown query kind {kind!r}")
    return Verdict(not isinstance(out, nra.BudgetExhausted), out)
