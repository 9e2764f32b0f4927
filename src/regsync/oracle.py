"""Brute-force ground truth for synchronization on small instances.

Deliberately naive and independent of the symbolic abstraction in
`semantics`: everything here is concrete enumeration over a finite data
pool.  Soundness of the finite restriction: an initial valuation using data
outside the pool behaves, up to a bijection fixing the word's data, like one
over the adjoined fresh data, so L x Z^k with Z = data(word) + k fresh data
suffices to decide whether a word synchronizes.

Word searches enumerate data words up to bijection (FRESH entries take the
next unused pool value), keyed by the pair (successor set, number of used
data) so that equal states reached with different data budgets are not
conflated.  For deterministic automata successor sets only shrink, so the
search saturates and the "no word" answer is exact rather than bounded.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Optional

from .ra import RegisterAutomaton, ResourceCapError, eval_constraint

DEFAULT_ORACLE_NODES = 2_000_000


@dataclass(frozen=True)
class OracleParams:
    max_length: int
    data_pool_size: int
    initial_extra_data: Optional[int] = None  # defaults to k
    max_nodes: int = DEFAULT_ORACLE_NODES
    concrete_enumeration: bool = False

    def __post_init__(self):
        for name in ("max_length", "data_pool_size", "initial_extra_data", "max_nodes"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")


@dataclass(frozen=True)
class OracleSearch:
    found_length: Optional[int]
    witness: Optional[tuple]
    saturated: bool
    explored: int


def _post_once(aut: RegisterAutomaton, configs, letter: int, datum: int, memo) -> frozenset:
    out = set()
    for loc, values in configs:
        for i, t in enumerate(aut.transitions):
            if t.source != loc or t.letter != letter:
                continue
            key = (i, tuple(v == datum for v in values))
            fires = memo.get(key)
            if fires is None:
                fires = eval_constraint(t.guard, values, datum)
                memo[key] = fires
            if fires:
                out.add((t.target, tuple(datum if j in t.update else v
                                         for j, v in enumerate(values))))
    return frozenset(out)


def oracle_post(aut: RegisterAutomaton, word) -> frozenset:
    """post(L x Z^k, word) by concrete enumeration, Z = data(word) + k fresh."""
    k = aut.registers
    data = sorted({d for _, d in word})
    top = max(data, default=-1) + 1
    pool = data + [top + i for i in range(k)]
    current = set()
    stack = [(loc, ()) for loc in range(len(aut.locations))]
    while stack:
        loc, values = stack.pop()
        if len(values) == k:
            current.add((loc, values))
        else:
            stack.extend((loc, values + (d,)) for d in pool)
    memo = {}
    current = frozenset(current)
    for letter, datum in word:
        current = _post_once(aut, current, letter, datum, memo)
    return current


def oracle_is_synchronizing(aut: RegisterAutomaton, word) -> bool:
    return len(oracle_post(aut, word)) == 1


def _search(aut: RegisterAutomaton, max_length: int, pool_size: int,
            extra: Optional[int], max_nodes: int) -> OracleSearch:
    """Shortest synchronizing word over pool data {0..pool_size-1}, BFS."""
    k = aut.registers
    extra = k if extra is None else extra
    pool = list(range(pool_size + extra))
    initial = set()
    stack = [(loc, ()) for loc in range(len(aut.locations))]
    while stack:
        loc, values = stack.pop()
        if len(values) == k:
            initial.add((loc, values))
        else:
            stack.extend((loc, values + (d,)) for d in pool)
    memo = {}
    root = (frozenset(initial), 0)
    parents = {root: None}
    frontier = deque([(root, 0)])
    explored = 0
    saturated = True
    while frontier:
        (configs, used), depth = frontier.popleft()
        if depth >= max_length:
            saturated = False
            continue
        for letter in range(len(aut.alphabet)):
            for datum in range(min(used + 1, pool_size)):
                explored += 1
                if explored > max_nodes:
                    raise ResourceCapError(
                        f"oracle search exceeded {max_nodes} nodes")
                nxt = _post_once(aut, configs, letter, datum, memo)
                state = (nxt, max(used, datum + 1))
                if state in parents:
                    continue
                parents[state] = ((configs, used), (letter, datum))
                if len(nxt) == 1:
                    word = []
                    cur = state
                    while parents[cur] is not None:
                        cur, step = parents[cur]
                        word.append(step)
                    word.reverse()
                    return OracleSearch(depth + 1, tuple(word), False, explored)
                frontier.append((state, depth + 1))
    return OracleSearch(None, None, saturated, explored)


def _search_concrete(aut: RegisterAutomaton, max_length: int, pool_size: int,
                     extra: Optional[int], max_nodes: int) -> OracleSearch:
    """Third cross-check: plain enumeration of words over the full pool."""
    explored = 0
    for length in range(1, max_length + 1):
        stack = [()]
        while stack:
            word = stack.pop()
            if len(word) == length:
                explored += 1
                if explored > max_nodes:
                    raise ResourceCapError(f"oracle enumeration exceeded {max_nodes} words")
                if oracle_is_synchronizing(aut, word):
                    return OracleSearch(length, word, False, explored)
                continue
            for letter in range(len(aut.alphabet)):
                for datum in range(pool_size):
                    stack.append(word + ((letter, datum),))
    return OracleSearch(None, None, False, explored)


def oracle_search(aut: RegisterAutomaton, params: OracleParams) -> OracleSearch:
    if params.concrete_enumeration:
        return _search_concrete(aut, params.max_length, params.data_pool_size,
                                params.initial_extra_data, params.max_nodes)
    return _search(aut, params.max_length, params.data_pool_size,
                   params.initial_extra_data, params.max_nodes)


def oracle_min_length(aut: RegisterAutomaton, params: OracleParams) -> Optional[int]:
    """Least length of a synchronizing word within the bounds, or None."""
    return oracle_search(aut, params).found_length


def oracle_min_data_efficiency(aut: RegisterAutomaton, params: OracleParams) -> Optional[int]:
    """Least number of distinct data in any synchronizing word within bounds."""
    for m in range(1, params.data_pool_size + 1):
        if oracle_search(aut, replace(params, data_pool_size=m)).found_length is not None:
            return m
    return None
