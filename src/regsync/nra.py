"""Exact bounded search for nondeterministic RAs.

Length-bounded synchronization and universality both track a canonical
abstract configuration set and explore choice words; freshness suffices as
the only non-seen datum per step (data outside all seen data and register
contents are interchangeable up to bijection), so the search is exact within
its bounds: NoneWithinBound is a proof of absence, not a heuristic.  Both
run the one breadth-first search of `semantics._search_bfs`, carry a set as
an int bitmask over the configurations the Engine interns, and test their
goals on masks.  The search drops a set when it already kept a subset of it
with the same word data count: the abstract post is monotone and both goals
are closed under nonempty subsets, so the pruning is exact, and every
witness is the lexicographically least shortest one.  The same premise lets
a step on the last layer, which is never expanded, stop as soon as its
partial successor is nonempty and fails the goal; such a set is dropped
unstored.

Membership (`accepts`) needs no abstraction.  Every transition leaving the
initial location updates all registers, so the existential initial valuation
only decides which transitions the first letter may fire, and it may fire
each one; after that letter every register holds a word datum, and the rest
of the word is a concrete walk over configuration sets.  The walk forgets
each datum after the last letter that reads it (`semantics.DEAD` takes its
place): a guard compares registers with the input only, so data the word
has finished with act alike, and valuations that differ only in them
merge.  Membership reads only the final locations, so it stays exact.

The general synchronization problem for NRAs is undecidable, so only
bounded-exact and budget-limited modes exist here.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .ra import RegisterAutomaton, StructuralError, is_complete
from .semantics import (
    DEAD,
    INITIAL_VALUATIONS,
    PARTITIONS,
    Engine,
    _Budget,
    _Exhausted,
    _grouped,
    _search_bfs,
    bfs_path,
    check_letters,
    choice_of_word,
    engine_for,
    instantiate_choice_word,
    pattern_of,
)


@dataclass(frozen=True)
class SearchBudget:
    max_length: int
    max_distinct_data: Optional[int] = None
    max_nodes: Optional[int] = None  # None: semantics.DEFAULT_MAX_NODES

    def __post_init__(self):
        if self.max_distinct_data is not None and self.max_distinct_data < 0:
            raise ValueError(f"max_distinct_data must be >= 0, got {self.max_distinct_data}")


# Search statistics: `explored` moves expanded, `queued` sets (for
# non-emptiness, states) added to the dedup table, `pruned` sets dropped
# by subsumption.  A bounded sync or universality search stores the root,
# the sets it finds above the last layer, and a witness found on the last
# layer; it does not store the last layer's other sets.


@dataclass(frozen=True)
class Witness:
    choice_word: tuple
    word: tuple
    explored: int = 0
    queued: int = 0
    pruned: int = 0


@dataclass(frozen=True)
class NoneWithinBound:
    explored: int = 0
    queued: int = 0
    pruned: int = 0


@dataclass(frozen=True)
class BudgetExhausted:
    explored: int
    queued: int = 0
    pruned: int = 0


def _search(eng: Engine, configs, goal, budget: SearchBudget, empty_word: bool):
    """The outcome of the pruned breadth-first search from the set `configs`
    for a set of interned ids satisfying `goal`; `empty_word` lets the empty
    word be the witness."""
    tick = _Budget(budget.max_nodes)
    root = eng.mask_root(configs)
    try:
        path = () if empty_word and goal(root) else _search_bfs(
            eng, root, 0, goal, budget.max_length, budget.max_distinct_data, tick)
    except _Exhausted:
        return BudgetExhausted(tick.spent, tick.queued, tick.pruned)
    if path is None:
        return NoneWithinBound(tick.spent, tick.queued, tick.pruned)
    cword = tuple(path)
    return Witness(cword, instantiate_choice_word(cword, range(len(cword))), tick.spent,
                   tick.queued, tick.pruned)


def bounded_sync_search(aut: RegisterAutomaton, budget: SearchBudget, bfs: bool = True):
    """Witness iff some data word of length <= max_length (and distinct data
    <= max_distinct_data when set) synchronizes; NoneWithinBound is exact.
    The witness is the lexicographically least shortest one.  `bfs` is
    ignored: every bounded search is breadth-first."""
    if not is_complete(aut):
        raise StructuralError("bounded_sync_search needs a complete automaton")
    if budget.max_length < 1:
        raise ValueError("synchronizing words are nonempty; max_length must be >= 1")
    eng = engine_for(aut)
    root = [(loc, values) for loc in range(eng.n_locations)
            for values in INITIAL_VALUATIONS[eng.k]]
    return _search(eng, root, eng.mask_synchronized, budget, empty_word=False)


def bounded_universality_witness(aut: RegisterAutomaton, bound: int,
                                 max_nodes: Optional[int] = None, bfs: bool = True):
    """The lexicographically least shortest data word of length <= bound
    outside the language, or NoneWithinBound (= universal up to the bound).
    The initial valuation is existential: the root carries every register
    partition at the initial location.  `bfs` is ignored, as in
    bounded_sync_search."""
    if aut.acceptance is None:
        raise ValueError("bounded_universality_witness needs acceptance structure")
    if bound < 0:
        raise ValueError(f"bound must be >= 0, got {bound}")
    eng = engine_for(aut)  # validates, including the initial-update rule
    accepting = aut.acceptance.accepting

    def rejected(mask: int) -> bool:
        # no id at an accepting location
        return not any(mask & eng.location_masks[loc] for loc in accepting)

    initial = aut.acceptance.initial
    root = [(initial, values) for values in INITIAL_VALUATIONS[eng.k]]
    return _search(eng, root, rejected, SearchBudget(bound, None, max_nodes),
                   empty_word=True)


def accepts(aut: RegisterAutomaton, word) -> bool:
    """Membership: does some run over the data word `word` end in an
    accepting location?

    The initial valuation is existential, and validation makes every
    transition leaving the initial location update all registers, so the
    first datum can meet every atom assignment there and the first letter
    fires every transition of its initial cell, each landing with all
    registers holding that datum.  From then on nothing is symbolic, and the
    rest of the word is a concrete set walk (`Engine.walk`) that forgets
    each datum after the last letter reading it.  Only the final locations
    are read, so forgetting is exact (see the module docstring).
    """
    if aut.acceptance is None:
        raise ValueError("accepts needs acceptance structure")
    eng = engine_for(aut)  # validates, including the initial-update rule
    word = tuple(word)
    check_letters(aut, word)
    acc = aut.acceptance
    if not word:
        return acc.initial in acc.accepting
    (letter, datum), rest = word[0], word[1:]
    last = {d: position for position, (_, d) in enumerate(rest)}
    values = (datum if datum in last else DEAD,) * eng.k
    start = _grouped((target, values) for _, _, target in eng.table[acc.initial][letter])
    accepting = sum(1 << loc for loc in acc.accepting)
    return any(locs & accepting for locs in eng.walk(start, rest, last).values())


def nonemptiness_witness(aut: RegisterAutomaton, bound: int,
                         max_nodes: Optional[int] = None):
    """An accepted data word of length <= bound, or NoneWithinBound.

    Single-run reachability: a run's future depends only on its location and
    the equality pattern of its registers, so states are (location, pattern)
    pairs and the search saturates on at most |L| * Bell(k) states.  Each
    state keeps the concrete run that first reached it: its valuation, its
    next fresh datum and its depth.  The roots instantiate their patterns
    with small naturals (the initial valuation is existential), and a move
    inputs each distinct register datum, then the fresh one.  Successors
    are tested by equality only, so the concrete run lists them in the
    pattern's order, and the witness is the word of the run that found the
    accepting state.
    """
    if aut.acceptance is None:
        raise ValueError("nonemptiness_witness needs acceptance structure")
    if bound < 0:
        raise ValueError(f"bound must be >= 0, got {bound}")
    eng = engine_for(aut)
    acc = aut.acceptance
    tick = _Budget(max_nodes)

    # One root per equality pattern, each block b read as the natural b
    roots = [(acc.initial, rgs) for rgs in PARTITIONS[aut.registers]]
    parents = dict.fromkeys(roots)
    runs = {root: (root[1], len(set(root[1])), 0) for root in roots}

    def witness(state):
        word = tuple(bfs_path(parents, state)[1])
        return Witness(choice_of_word(word), word, tick.spent, len(parents))

    if acc.initial in acc.accepting:
        return witness(roots[0])
    queue = deque(roots)
    while queue:
        state = queue.popleft()
        valuation, fresh, depth = runs[state]
        if depth >= bound:
            continue
        inputs = list(dict.fromkeys(valuation)) + [fresh]  # in pattern-code order
        for letter in range(eng.n_letters):
            for datum in inputs:
                if not tick.tick():
                    return BudgetExhausted(tick.spent, len(parents))
                for tgt, nv in eng.post_config((state[0], valuation), letter, datum):
                    nxt = (tgt, pattern_of(nv))
                    if nxt in parents:
                        continue
                    parents[nxt] = (state, (letter, datum))
                    if tgt in acc.accepting:
                        return witness(nxt)
                    runs[nxt] = (nv, fresh + (datum == fresh), depth + 1)
                    queue.append(nxt)
    return NoneWithinBound(tick.spent, len(parents))
