"""Synchronizing-word decision and construction for deterministic RAs.

Pipeline: (1) a per-location reachability check for "all registers can be
updated through transitions firable while the input is fresh", which is
necessary for synchronization; (2) a shrink phase collapsing the infinite
initial set L x D^k to a finite residual over at most k data, certified by
the abstract semantics; (3) iterated pairwise merging over a canonical
2k+1-datum pool, sound because any mergeable pair is mergeable within such a
pool.  Also houses the classical DFA pairwise algorithm and the 1-register
decision procedure via the DFA reduction over a 3-datum pool.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .ra import RegisterAutomaton, StructuralError, is_complete, is_deterministic
from .semantics import (
    FRESH,
    AbstractConfigSet,
    Engine,
    bfs_path,
    choice_of_word,
    engine_for,
    instantiate_choice_word,
    is_synchronized,
)

DEFAULT_SHRINK_NODES = 1_000_000


class InconclusiveError(RuntimeError):
    """Search budget exhausted without an answer either way."""

    def __init__(self, message: str, explored: int):
        super().__init__(message)
        self.explored = explored


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


def _submasks(mask: int):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


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
                if generalized:
                    usable = any(gm >> s & 1 for s in _submasks(up))
                else:
                    usable = bool(gm & 1)
                if not usable:
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


def _dirty(config) -> bool:
    return any(v < 0 for v in config[1])


def shrink_word(aut: RegisterAutomaton, max_nodes: int = DEFAULT_SHRINK_NODES):
    """A data word with at most k distinct data whose abstract post from
    L x D^k contains no symbolic value, or NotShrinkable(location).

    Iterates the per-location strategy of the shrink argument: while some
    location's configurations retain symbolic values, search breadth-first
    for an extension (drawing on at most k data overall) that cleans every
    descendant of that location's dirty configurations; determinism makes
    the extensions compose.  Exhausting the finite extension space proves no
    shrink word exists; exceeding `max_nodes` raises InconclusiveError.
    """
    _require_dra(aut)
    eng = engine_for(aut)
    k = aut.registers
    reach = _update_reachability(aut, generalized=True)
    for loc, ok in enumerate(reach):
        if not ok:
            return NotShrinkable(loc)
    current = eng.abstract_initial()
    choices = []
    explored = 0
    # Every round consumes at least one budget tick, so the loop terminates
    # even if partial cleans keep re-dirtying locations (worst case it ends
    # in InconclusiveError rather than spinning).
    while True:
        dirty_locs = sorted({loc for loc, values in current.configs if _dirty((loc, values))})
        if not dirty_locs:
            break
        loc0 = dirty_locs[0]
        sub = AbstractConfigSet(
            tuple(c for c in current.configs if c[0] == loc0 and _dirty(c)),
            current.word_data_count)
        found = None
        start = (current, sub)
        seen = {start}
        queue = deque([(start, ())])
        while queue:
            (aset, asub), path = queue.popleft()
            if not any(_dirty(c) for c in asub.configs):
                found = (path, aset)
                break
            moves = list(range(aset.word_data_count))
            if aset.word_data_count < k:
                moves.append(FRESH)
            for letter in range(eng.n_letters):
                for choice in moves:
                    explored += 1
                    if explored > max_nodes:
                        raise InconclusiveError(
                            f"shrink search exceeded {max_nodes} nodes", explored)
                    state = (eng.abstract_post(aset, letter, choice),
                             eng.abstract_post(asub, letter, choice))
                    if state in seen:
                        continue
                    seen.add(state)
                    queue.append((state, path + ((letter, choice),)))
        if found is None:
            # The finite extension space is exhausted: no word over <= k data
            # cleans this location, hence no shrink word and no sync word.
            return NotShrinkable(loc0)
        path, current = found
        choices.extend(path)
    word = instantiate_choice_word(tuple(choices), range(k))
    residual = frozenset((loc, values) for loc, values in current.configs)
    return ShrinkResult(word, residual)


def pairwise_merge_word(aut: RegisterAutomaton, q1, q2, pool) -> Optional[tuple]:
    """Shortest word over alphabet x pool merging the two configurations.

    Breadth-first over the pair graph, expanding inputs in lexicographic
    (letter, datum) order, so among shortest merging words the
    lexicographically least is returned.  None when the merged diagonal is
    unreachable, which is a proof that the pair cannot be merged at all when
    |pool| = 2k+1 and both configurations' data lie in the pool.
    """
    _require_dra(aut)
    pool = list(pool)
    k = aut.registers
    if len(pool) != 2 * k + 1 or len(set(pool)) != len(pool):
        raise ValueError(f"pool must hold 2k+1 = {2 * k + 1} distinct data")
    for q in (q1, q2):
        if any(d not in pool for d in q[1]):
            raise ValueError(f"configuration data {q[1]} not within the pool")
    return _merge(engine_for(aut), q1, q2, pool)


def _merge(eng: Engine, q1, q2, pool) -> Optional[tuple]:
    start = frozenset((q1, q2))
    if len(start) == 1:
        return ()
    parents = {start: None}
    queue = deque([start])
    while queue:
        pair = queue.popleft()
        for letter in range(eng.n_letters):
            for datum in pool:
                nxt = frozenset(eng.post_config(q, letter, datum)[0] for q in pair)
                if nxt in parents:
                    continue
                parents[nxt] = (pair, (letter, datum))
                if len(nxt) == 1:
                    return tuple(bfs_path(parents, nxt)[1])
                queue.append(nxt)
    return None


def synchronizing_word_dra(aut: RegisterAutomaton,
                           max_nodes: int = DEFAULT_SHRINK_NODES) -> Optional[tuple]:
    """A synchronizing data word with at most 2k+1 distinct data, or None.

    Shrink phase over data {0..k-1}, then pairwise merging over {0..2k}.
    The result is re-checked against the abstract semantics before return.
    """
    _require_dra(aut)
    eng = engine_for(aut)
    k = aut.registers
    shrink = shrink_word(aut, max_nodes)
    if isinstance(shrink, NotShrinkable):
        return None
    pool = list(range(2 * k + 1))
    word = list(shrink.word)
    configs = sorted(shrink.residual)
    while len(configs) > 1:
        merged = _merge(eng, configs[0], configs[1], pool)
        if merged is None:
            return None
        word.extend(merged)
        configs = sorted(eng.post_set(configs, merged))
    if not word:
        if not aut.alphabet:
            return None
        word.append((0, 0))
        configs = sorted(eng.post_set(configs, word))
    if not is_synchronized(eng.abstract_run(choice_of_word(word))):
        raise RuntimeError("internal error: constructed word failed abstract verification")
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
    if len(start) == 1:
        return ()
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
    states = sorted(range(dfa.n_states))
    word = []
    while len(states) > 1:
        merged = _dfa_merge(dfa, states[0], states[1])
        if merged is None:
            return None
        word.extend(merged)
        after = {s for s in states}
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
    pool = (0, 1, 2)
    delta = []
    for state in range(n_loc * 3):
        loc, x = divmod(state, 3)
        row = []
        for letter in range(len(aut.alphabet)):
            for d in pool:
                (tgt, values), = eng.post_config((loc, (pool[x],)), letter, d)
                row.append(tgt * 3 + pool.index(values[0]))
        delta.append(tuple(row))
    dfa = Dfa(n_loc * 3, len(aut.alphabet) * 3, tuple(delta))
    return dfa_synchronizing_word(dfa) is not None
