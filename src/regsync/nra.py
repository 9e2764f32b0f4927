"""Exact bounded search for nondeterministic RAs.

Length-bounded synchronization and universality both track a canonical
abstract configuration set and explore choice words; freshness suffices as
the only non-seen datum per step (data outside all seen data and register
contents are interchangeable up to bijection), so the search is exact within
its bounds: NoneWithinBound is a proof of absence, not a heuristic.

The general synchronization problem for NRAs is undecidable, so only
bounded-exact and budget-limited modes exist here.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

from .ra import RegisterAutomaton, StructuralError, is_complete
from .semantics import (
    FRESH,
    AbstractConfigSet,
    Engine,
    _partitions,
    bfs_path,
    choice_of_word,
    engine_for,
    instantiate_choice_word,
    is_synchronized,
)

ENV_MAX_NODES = "REGSYNC_MAX_NODES"
DEFAULT_MAX_NODES = 1_000_000


def default_max_nodes() -> int:
    value = os.environ.get(ENV_MAX_NODES)
    return int(value) if value else DEFAULT_MAX_NODES


@dataclass(frozen=True)
class SearchBudget:
    max_length: int
    max_distinct_data: Optional[int] = None
    max_nodes: Optional[int] = None  # None: REGSYNC_MAX_NODES or 1e6


@dataclass(frozen=True)
class Witness:
    choice_word: tuple
    word: tuple
    explored: int = 0


@dataclass(frozen=True)
class NoneWithinBound:
    explored: int = 0


@dataclass(frozen=True)
class BudgetExhausted:
    explored: int


SearchOutcome = object  # Witness | NoneWithinBound | BudgetExhausted


def _witness(path, explored: int) -> Witness:
    cword = tuple(path)
    return Witness(cword, instantiate_choice_word(cword, range(len(cword))), explored)


class _Budget:
    __slots__ = ("left", "spent")

    def __init__(self, max_nodes: int):
        self.left = max_nodes
        self.spent = 0

    def tick(self) -> bool:
        self.spent += 1
        self.left -= 1
        return self.left >= 0


def _moves(eng: Engine, aset: AbstractConfigSet, max_data: Optional[int]):
    choices = list(range(aset.word_data_count))
    if max_data is None or aset.word_data_count < max_data:
        choices.append(FRESH)
    return [(letter, choice) for letter in range(eng.n_letters) for choice in choices]


def _search_bfs(eng: Engine, root: AbstractConfigSet, goal: Callable, budget: SearchBudget,
                min_depth: int):
    tick = _Budget(budget.max_nodes if budget.max_nodes is not None else default_max_nodes())
    if min_depth == 0 and goal(root):
        return _witness((), tick.spent)
    parents = {root: None}
    queue = deque([(root, 0)])
    while queue:
        aset, depth = queue.popleft()
        if depth >= budget.max_length:
            continue
        for letter, choice in _moves(eng, aset, budget.max_distinct_data):
            if not tick.tick():
                return BudgetExhausted(tick.spent)
            nxt = eng.abstract_post(aset, letter, choice)
            if nxt in parents:
                continue
            parents[nxt] = (aset, (letter, choice))
            if depth + 1 >= min_depth and goal(nxt):
                return _witness(bfs_path(parents, nxt)[1], tick.spent)
            queue.append((nxt, depth + 1))
    return NoneWithinBound(tick.spent)


class _Exhausted(Exception):
    pass


def _search_iddfs(eng: Engine, root: AbstractConfigSet, goal: Callable, budget: SearchBudget,
                  min_depth: int):
    """Iterative deepening; memo keeps the best remaining depth per state so a
    revisit is pruned only when an earlier visit had at least as much depth
    left."""
    tick = _Budget(budget.max_nodes if budget.max_nodes is not None else default_max_nodes())
    if min_depth == 0 and goal(root):
        return _witness((), tick.spent)

    def dls(aset, remaining, memo, path):
        if memo.get(aset, -1) >= remaining:
            return None
        memo[aset] = remaining
        if remaining == 0:
            return None
        for letter, choice in _moves(eng, aset, budget.max_distinct_data):
            if not tick.tick():
                raise _Exhausted
            nxt = eng.abstract_post(aset, letter, choice)
            path.append((letter, choice))
            if len(path) >= min_depth and goal(nxt):
                return list(path)
            hit = dls(nxt, remaining - 1, memo, path)
            if hit is not None:
                return hit
            path.pop()
        return None

    try:
        for limit in range(max(min_depth, 1), budget.max_length + 1):
            hit = dls(root, limit, {}, [])
            if hit is not None:
                return _witness(hit, tick.spent)
    except _Exhausted:
        return BudgetExhausted(tick.spent)
    return NoneWithinBound(tick.spent)


def bounded_sync_search(aut: RegisterAutomaton, budget: SearchBudget, bfs: bool = False):
    """Witness iff some data word of length <= max_length (and distinct data
    <= max_distinct_data when set) synchronizes; NoneWithinBound is exact."""
    if not is_complete(aut):
        raise StructuralError("bounded_sync_search needs a complete automaton")
    if budget.max_length < 1:
        raise ValueError("synchronizing words are nonempty; max_length must be >= 1")
    eng = engine_for(aut)
    search = _search_bfs if bfs else _search_iddfs
    return search(eng, eng.abstract_initial(), is_synchronized, budget, min_depth=1)


def _universality_root(eng: Engine, initial: int) -> AbstractConfigSet:
    """abstract_initial restricted to `initial`: every register partition there."""
    configs = eng.abstract_initial().configs
    return AbstractConfigSet(tuple(c for c in configs if c[0] == initial), 0)


def bounded_universality_witness(aut: RegisterAutomaton, bound: int,
                                 max_nodes: Optional[int] = None, bfs: bool = False):
    """A data word of length <= bound outside the language, or NoneWithinBound
    (= universal up to the bound).  The initial valuation is existential:
    the root carries every register partition at the initial location."""
    if aut.acceptance is None:
        raise ValueError("bounded_universality_witness needs acceptance structure")
    eng = engine_for(aut)  # validates, including the initial-update rule
    accepting = aut.acceptance.accepting

    def rejected(aset: AbstractConfigSet) -> bool:
        return all(loc not in accepting for loc, _ in aset.configs)

    budget = SearchBudget(bound, None, max_nodes)
    search = _search_bfs if bfs else _search_iddfs
    root = _universality_root(eng, aut.acceptance.initial)
    return search(eng, root, rejected, budget, min_depth=0)


def accepts(aut: RegisterAutomaton, word) -> bool:
    """Membership simulation: does some run over `word` reach acceptance?

    Tracks the set of abstract configurations reachable from the initial
    location (initial valuation existential, hence all register partitions
    at the root) along the word's choice structure.
    """
    if aut.acceptance is None:
        raise ValueError("accepts needs acceptance structure")
    eng = engine_for(aut)
    root = _universality_root(eng, aut.acceptance.initial)
    aset = eng.abstract_run(choice_of_word(word), start=root)
    accepting = aut.acceptance.accepting
    return any(loc in accepting for loc, _ in aset.configs)


def nonemptiness_witness(aut: RegisterAutomaton, bound: int,
                         max_nodes: Optional[int] = None):
    """An accepted data word of length <= bound, or NoneWithinBound.

    Single-run reachability: a run's future depends only on its location and
    the equality pattern of its registers, so states are (location, pattern)
    pairs and the search saturates on at most |L| * Bell(k) states.
    """
    if aut.acceptance is None:
        raise ValueError("nonemptiness_witness needs acceptance structure")
    eng = engine_for(aut)
    acc = aut.acceptance
    k = aut.registers
    tick = _Budget(max_nodes if max_nodes is not None else default_max_nodes())

    roots = [(acc.initial, rgs) for rgs in _partitions(k)]  # pairwise distinct
    parents = dict.fromkeys(roots)
    queue = deque(roots)
    hit = roots[0] if acc.initial in acc.accepting else None
    depth_of = dict.fromkeys(roots, 0)
    while queue and hit is None:
        state = queue.popleft()
        loc, pattern = state
        depth = depth_of[state]
        if depth >= bound:
            continue
        inputs = [("eq", c) for c in sorted(set(pattern))] + [("fresh", k)]
        for letter in range(eng.n_letters):
            for kind, value in inputs:
                if not tick.tick():
                    return BudgetExhausted(tick.spent)
                datum = value if kind == "eq" else k  # k differs from all pattern codes
                for tgt, nv in eng.post_config((loc, pattern), letter, datum):
                    nxt = (tgt, _pattern_of(nv))
                    if nxt in parents:
                        continue
                    parents[nxt] = (state, ((letter, kind, value), nxt))
                    depth_of[nxt] = depth + 1
                    if tgt in acc.accepting:
                        hit = nxt
                        break
                    queue.append(nxt)
                if hit is not None:
                    break
            if hit is not None:
                break
    if hit is None:
        return NoneWithinBound(tick.spent)

    root, trail = bfs_path(parents, hit)
    word = _replay_run(eng, root, trail)
    return Witness(choice_of_word(word), word, tick.spent)


def _pattern_of(values) -> tuple:
    mapping = {}
    out = []
    for v in values:
        if v not in mapping:
            mapping[v] = len(mapping)
        out.append(mapping[v])
    return tuple(out)


def _replay_run(eng: Engine, root, trail) -> tuple:
    """Rebuild a concrete accepted word along a (location, pattern) path.

    The initial valuation instantiates the root pattern with small naturals
    (it is existentially quantified); each 'eq' step inputs the value of a
    register carrying the recorded pattern code, each 'fresh' step a new
    natural.  Among the nondeterministic successors, any one matching the
    recorded next (location, pattern) state keeps the path valid.
    """
    loc, pattern = root
    valuation = pattern
    fresh = len(set(pattern))
    word = []
    for (letter, kind, value), (next_loc, next_pattern) in trail:
        if kind == "eq":
            datum = valuation[pattern.index(value)]
        else:
            datum = fresh
            fresh += 1
        word.append((letter, datum))
        chosen = None
        for tgt, nv in eng.post_config((loc, valuation), letter, datum):
            if tgt == next_loc and _pattern_of(nv) == next_pattern:
                chosen = (tgt, nv)
                break
        if chosen is None:
            raise RuntimeError("internal error: nonemptiness replay diverged")
        loc, valuation = chosen
        pattern = _pattern_of(valuation)
    return tuple(word)
