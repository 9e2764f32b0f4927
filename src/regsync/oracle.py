"""Brute-force ground truth for synchronization on small instances.

Deliberately naive and independent of the symbolic abstraction in
`semantics`: everything here is concrete enumeration over a finite data
pool.  Soundness of the finite restriction: an initial valuation using data
outside the pool behaves, up to a bijection fixing the word's data, like one
over the adjoined fresh data, so L x Z^k with Z = data(word) + k fresh data
suffices to decide whether a word synchronizes.  That is why the extra
initial data are always exactly k: the word search starts from L x Z^k with
Z = the data pool + k fresh data.

Word searches enumerate data words up to bijection (FRESH entries take the
next unused pool value), keyed by the pair (successor set, number of used
data) so that equal states reached with different data budgets are not
conflated.  For deterministic automata successor sets only shrink, so the
search saturates and the "no word" answer is exact rather than bounded.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from itertools import product
from typing import Optional

from .ra import RegisterAutomaton, ResourceCapError, eval_constraint
from .semantics import DEFAULT_MAX_NODES

# Configurations the word search's start set L x (pool + k fresh)^k may hold;
# it is built whole before the node budget counts a single node.
START_CAP = 1_000_000


@dataclass(frozen=True)
class OracleParams:
    max_length: int
    data_pool_size: int
    max_nodes: int = field(default=DEFAULT_MAX_NODES, kw_only=True)

    def __post_init__(self):
        for name in ("max_length", "data_pool_size", "max_nodes"):
            value = getattr(self, name)
            if value < 0:
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


def _start(aut: RegisterAutomaton, pool) -> frozenset:
    """L x pool^k: every location with every valuation over `pool`."""
    return frozenset((loc, values) for loc in range(len(aut.locations))
                     for values in product(pool, repeat=aut.registers))


def oracle_post(aut: RegisterAutomaton, word) -> frozenset:
    """post(L x Z^k, word) by concrete enumeration, Z = data(word) + k fresh."""
    data = sorted({d for _, d in word})
    top = max(data, default=-1) + 1
    current = _start(aut, data + [top + i for i in range(aut.registers)])
    memo = {}
    for letter, datum in word:
        current = _post_once(aut, current, letter, datum, memo)
    return current


def oracle_is_synchronizing(aut: RegisterAutomaton, word) -> bool:
    return len(oracle_post(aut, word)) == 1


def oracle_search(aut: RegisterAutomaton, params: OracleParams) -> OracleSearch:
    """Shortest synchronizing word over pool data {0..data_pool_size-1}, BFS
    from L x Z^k with Z = the pool + k fresh data.  Raises ResourceCapError
    when that start set would hold more than START_CAP configurations."""
    max_length, max_nodes = params.max_length, params.max_nodes
    pool_size = params.data_pool_size
    size = len(aut.locations) * (pool_size + aut.registers) ** aut.registers
    if size > START_CAP:
        raise ResourceCapError(
            f"oracle start set of {size} configurations exceeds the cap {START_CAP}")
    memo = {}
    root = (_start(aut, range(pool_size + aut.registers)), 0)
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


def oracle_min_length(aut: RegisterAutomaton, params: OracleParams) -> Optional[int]:
    """Least length of a synchronizing word within the bounds, or None."""
    return oracle_search(aut, params).found_length


def oracle_min_data_efficiency(aut: RegisterAutomaton, params: OracleParams) -> Optional[int]:
    """Least number of distinct data in any synchronizing word within bounds."""
    for m in range(1, params.data_pool_size + 1):
        if oracle_search(aut, replace(params, data_pool_size=m)).found_length is not None:
            return m
    return None
