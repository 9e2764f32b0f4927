"""Synchronizing-word decision and construction for deterministic RAs.

Pipeline: (1) a per-location reachability check for "all registers can be
updated through transitions firable while the input is fresh", which is
necessary for synchronization; (2) a shrink phase collapsing the infinite
initial set L x D^k to a finite residual over at most k data, certified by
the abstract semantics: each round cleans one location's dirty
configurations with the subsumption-pruned breadth-first search over
interned masks that the bounded NRA searches also run
(`semantics._search_bfs`), under one node budget for all rounds, then
replays the whole abstract set along the word found; (3) iterated pairwise
merging over a canonical 2k+1-datum pool, sound because any mergeable pair
is mergeable within such a pool.  A pair holds at most 2k data and every
datum it does not hold acts alike, so the pair graph is unchanged by any
bijection of the pool: each merge is a breadth-first search over pairs up
to that bijection, under a per-call node budget.  Also houses the classical
DFA pairwise algorithm and the 1-register decision procedure via the DFA
reduction over a 3-datum pool.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .ra import RegisterAutomaton, StructuralError, is_complete, is_deterministic
from .semantics import (
    SUBMASK_UNIONS,
    Engine,
    _Budget,
    _Exhausted,
    _search_bfs,
    _ungrouped,
    bfs_path,
    check_configs,
    engine_for,
    instantiate_choice_word,
    pattern_of,
)


class InconclusiveError(RuntimeError):
    """Search budget exhausted without an answer either way; `phase` names
    the search that ran out: "shrink" or "merge"."""

    def __init__(self, message: str, explored: int, phase: str):
        super().__init__(message)
        self.explored = explored
        self.phase = phase


@dataclass(frozen=True)
class ShrinkResult:
    word: tuple  # data word over {0..k-1}
    residual: frozenset  # post(L x D^k, word), valuations over data(word)


@dataclass(frozen=True)
class NotShrinkable:
    location: int


def _require_dra(aut: RegisterAutomaton) -> None:
    if not is_deterministic(aut):
        raise StructuralError("automaton is not deterministic")
    if not is_complete(aut):
        raise StructuralError("automaton is not complete")


def inequality_update_check(aut: RegisterAutomaton) -> list:
    """Per location: can a path of transitions firable with the input fresh
    (all atoms false) cumulatively update every register?"""
    return _update_reachability(aut, generalized=False)


def _update_reachability(aut: RegisterAutomaton, generalized: bool) -> list:
    """Reachability over (location, updated-register-set) pairs.

    In generalized mode a transition is usable when its guard is satisfiable
    under some assignment touching only already-updated registers (a token
    whose remaining registers hold pairwise-distinct fresh data can realize
    exactly those); this is the exact necessity condition for k >= 2, of
    which the all-atoms-false check is the k = 1 special case.
    """
    k = aut.registers
    full = (1 << k) - 1
    # down[up]: the mask of the assignments a transition may be fired under
    # once the registers in up were updated; sigma = 0 alone when not
    # generalized
    down = SUBMASK_UNIONS[k] if generalized else (1,) * (1 << k)
    edges = [[(mask, sum(1 << r for r in update), target)
              for cell in row for mask, update, target in cell]
             for row in aut.compiled.table]
    out = []
    for start in range(len(aut.locations)):
        seen = {(start, 0)}
        queue = deque(seen)
        ok = k == 0
        while queue and not ok:
            loc, up = queue.popleft()
            for gm, upm, target in edges[loc]:
                if not gm & down[up]:
                    continue
                state = (target, up | upm)
                if state[1] == full:
                    ok = True
                    break
                if state not in seen:
                    seen.add(state)
                    queue.append(state)
        out.append(ok)
    return out


def shrink_word(aut: RegisterAutomaton, max_nodes: Optional[int] = None):
    """A data word with at most k distinct data whose abstract post from
    L x D^k contains no symbolic value, or NotShrinkable(location).

    Iterates the per-location strategy of the shrink argument: while some
    location's configurations retain symbolic values, search breadth-first
    for an extension (drawing on at most k data overall) that cleans every
    descendant of that location's dirty configurations; determinism makes
    the extensions compose.  The abstract post maps each configuration on
    its own, so those dirty configurations alone are the search state: each
    round runs the pruned mask search of the bounded NRA searches
    (`semantics._search_bfs`, no length bound) from their interned mask,
    and "clean" is closed under subsets, so the pruning is exact.  The
    whole set is then replayed along the extension found, one
    `Engine.abstract_post` per move.  Exhausting the finite extension space
    proves no shrink word exists.  One node budget spans all rounds;
    spending more than `max_nodes` (None: semantics.DEFAULT_MAX_NODES) raises
    InconclusiveError.
    """
    budget = _Budget(max_nodes)
    _require_dra(aut)
    eng = engine_for(aut)
    k = aut.registers
    reach = _update_reachability(aut, generalized=True)
    for loc, ok in enumerate(reach):
        if not ok:
            return NotShrinkable(loc)
    current = eng.abstract_initial()

    def clean(mask: int) -> bool:
        return not mask & eng.dirty_mask

    choices = []
    # Every round ticks the budget at least once, so the loop terminates
    # even if partial cleans keep re-dirtying locations (worst case it ends
    # in InconclusiveError rather than spinning).
    while True:
        dirty = [(values, locs) for values, locs in current.groups.items()
                 if any(v < 0 for v in values)]
        if not dirty:
            break
        dirty_locs = 0
        for _, locs in dirty:
            dirty_locs |= locs
        loc0 = (dirty_locs & -dirty_locs).bit_length() - 1  # the least dirty location
        root = eng.mask_root((loc0, values) for values, locs in dirty if locs >> loc0 & 1)
        try:
            path = _search_bfs(eng, root, current.word_data_count, clean, None, k, budget)
        except _Exhausted:
            raise InconclusiveError(f"shrink search exceeded {budget.limit} nodes",
                                    budget.spent, "shrink") from None
        if path is None:
            # The finite extension space is exhausted: no word over <= k data
            # cleans this location, hence no shrink word and no sync word.
            return NotShrinkable(loc0)
        choices.extend(path)
        for letter, choice in path:
            current = eng.abstract_post(current, letter, choice)
    word = instantiate_choice_word(tuple(choices), range(k))
    residual = frozenset(_ungrouped(current.groups))
    return ShrinkResult(word, residual)


def pairwise_merge_word(aut: RegisterAutomaton, q1, q2, pool,
                        max_nodes: Optional[int] = None) -> Optional[tuple]:
    """Shortest word over alphabet x pool merging the two configurations.

    Breadth-first over pairs of configurations up to a bijection of the
    pool: two pairs are one node when a renaming of data maps one onto the
    other, and a step reads either a datum the pair holds or the first pool
    datum it does not (every unheld datum acts alike).  Inputs are expanded
    in (letter, pool position) order, so among shortest merging words the
    lexicographically least is returned.  None when the merged diagonal is
    unreachable, which is a proof that the pair cannot be merged at all when
    |pool| = 2k+1 and both configurations' data lie in the pool.  Queuing
    more than `max_nodes` (None: semantics.DEFAULT_MAX_NODES) unmerged nodes
    raises InconclusiveError.
    """
    _require_dra(aut)
    pool = list(pool)
    k = aut.registers
    if len(pool) != 2 * k + 1 or len(set(pool)) != len(pool):
        raise ValueError(f"pool must hold 2k+1 = {2 * k + 1} distinct data")
    check_configs(aut, (q1, q2))
    for _, values in (q1, q2):
        if any(d not in pool for d in values):
            raise ValueError(f"configuration data {values} not within the pool")
    return _merge(engine_for(aut), q1, q2, pool, max_nodes)


def _orbit_key(pair) -> tuple:
    """Equal for two unordered pairs exactly when a bijection of the data maps
    one onto the other: the least, over both orderings, of the flat tuple of
    the two locations and the values renumbered in first-occurrence order.
    Locations compare first, so only a pair at one location needs both."""
    (loc_a, values_a), (loc_b, values_b) = pair
    if loc_a > loc_b:
        loc_a, values_a, loc_b, values_b = loc_b, values_b, loc_a, values_a
    key = (loc_a, loc_b, *pattern_of(values_a + values_b))
    if loc_a != loc_b:
        return key
    return min(key, (loc_a, loc_b, *pattern_of(values_b + values_a)))


def _merge(eng: Engine, q1, q2, pool, max_nodes: Optional[int]) -> Optional[tuple]:
    budget = _Budget(max_nodes)
    if q1 == q2:
        return ()
    key = _orbit_key((q1, q2))
    parents = {key: None}
    queue = deque([((q1, q2), key)])
    while queue:
        pair, key = queue.popleft()
        held = {d for _, values in pair for d in values}
        free = next(d for d in pool if d not in held)
        data = [d for d in pool if d in held or d == free]
        for letter in range(eng.n_letters):
            for datum in data:
                c1 = eng.post_config(pair[0], letter, datum)[0]
                c2 = eng.post_config(pair[1], letter, datum)[0]
                if c1 == c2:
                    return tuple(bfs_path(parents, key)[1]) + ((letter, datum),)
                nxt = (c1, c2)
                nkey = _orbit_key(nxt)
                if nkey in parents:
                    continue
                if not budget.tick():
                    raise InconclusiveError(
                        f"merge search exceeded {budget.limit} nodes", budget.spent, "merge")
                parents[nkey] = (key, (letter, datum))
                queue.append((nxt, nkey))
    return None


def synchronizing_word_dra(aut: RegisterAutomaton,
                           max_nodes: Optional[int] = None) -> Optional[tuple]:
    """A synchronizing data word with at most 2k+1 distinct data, or None.

    Shrink phase over data {0..k-1}, then pairwise merging over {0..2k},
    each merge a search over pairs up to data bijection.  `max_nodes`
    (None: semantics.DEFAULT_MAX_NODES) bounds the shrink search and,
    separately, each merge call; past it the search raises
    InconclusiveError naming its phase.

    The word synchronizes by construction: the shrink replay computes the
    exact abstract post of the shrink word, which holds no symbolic value,
    and each merge word is replayed concretely from there, until one
    configuration is left.  An empty word (k = 0 and one location) becomes
    one letter, after which a complete DRA is still at one configuration.
    """
    shrink = shrink_word(aut, max_nodes)  # checks that `aut` is a DRA
    if isinstance(shrink, NotShrinkable):
        return None
    eng = engine_for(aut)
    k = aut.registers
    pool = list(range(2 * k + 1))
    word = list(shrink.word)
    configs = sorted(shrink.residual)
    while len(configs) > 1:
        merged = _merge(eng, configs[0], configs[1], pool, max_nodes)
        if merged is None:
            return None
        word.extend(merged)
        configs = sorted(eng.post_set(configs, merged))
    if not word:
        if not aut.alphabet:
            return None
        word.append((0, 0))
    return tuple(word)


# ---------------------------------------------------------------------------
# DFAs and the 1-register reduction


@dataclass(frozen=True)
class Dfa:
    n_states: int
    n_letters: int
    delta: tuple  # delta[state][letter] -> state

    def __post_init__(self):
        if len(self.delta) != self.n_states or any(
                len(row) != self.n_letters for row in self.delta):
            raise StructuralError("transition function is not total")
        for row in self.delta:
            for s in row:
                if not 0 <= s < self.n_states:
                    raise StructuralError(f"transition target {s} out of range")


def _dfa_merge(dfa: Dfa, s1: int, s2: int) -> Optional[tuple]:
    start = frozenset((s1, s2))
    parents = {start: None}
    queue = deque([start])
    while queue:
        pair = queue.popleft()
        for letter in range(dfa.n_letters):
            nxt = frozenset(dfa.delta[s][letter] for s in pair)
            if nxt in parents:
                continue
            parents[nxt] = (pair, letter)
            if len(nxt) == 1:
                return tuple(bfs_path(parents, nxt)[1])
            queue.append(nxt)
    return None


def dfa_synchronizing_word(dfa: Dfa) -> Optional[tuple]:
    """Classical pairwise synchronization; None iff some pair never merges."""
    states = list(range(dfa.n_states))
    word = []
    while len(states) > 1:
        merged = _dfa_merge(dfa, states[0], states[1])
        if merged is None:
            return None
        word.extend(merged)
        after = set(states)
        for letter in merged:
            after = {dfa.delta[s][letter] for s in after}
        states = sorted(after)
    return tuple(word)


def dra1_decide(aut: RegisterAutomaton) -> bool:
    """Synchronizability of a complete 1-DRA via the 3-datum DFA reduction."""
    if aut.registers != 1:
        raise ValueError(f"dra1_decide needs k = 1, got k = {aut.registers}")
    _require_dra(aut)
    if not all(inequality_update_check(aut)):
        return False
    eng = engine_for(aut)
    n_loc = len(aut.locations)
    delta = []
    for state in range(n_loc * 3):
        loc, x = divmod(state, 3)
        row = []
        for letter in range(len(aut.alphabet)):
            for d in range(3):
                (tgt, values), = eng.post_config((loc, (x,)), letter, d)
                row.append(tgt * 3 + values[0])
        delta.append(tuple(row))
    dfa = Dfa(n_loc * 3, len(aut.alphabet) * 3, tuple(delta))
    return dfa_synchronizing_word(dfa) is not None
