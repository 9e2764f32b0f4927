"""Shared construction and enumeration helpers for the test suite."""

from __future__ import annotations

import itertools
import random
from collections import deque

from regsync.ra import (
    TRUE,
    Acceptance,
    Eq,
    RegisterAutomaton,
    conj,
    disj,
    mk_transition,
    neq,
)
from regsync.semantics import (
    FRESH,
    AbstractConfigSet,
    bfs_path,
    engine_for,
    instantiate_choice_word,
)


def automaton(name, locations, registers, alphabet, transitions, acceptance=None):
    """Transitions as (src_name, letter_name, guard, update, dst_name)."""
    loc_ids = {n: i for i, n in enumerate(locations)}
    letter_ids = {n: i for i, n in enumerate(alphabet)}
    ts = tuple(mk_transition(loc_ids[s], letter_ids[a], g, u, loc_ids[d])
               for s, a, g, u, d in transitions)
    acc = None
    if acceptance is not None:
        initial, accepting = acceptance
        acc = Acceptance(loc_ids[initial], frozenset(loc_ids[n] for n in accepting))
    return RegisterAutomaton(name, tuple(locations), registers, tuple(alphabet), ts, acc)


def minterm(bits, k):
    """Conjunction fixing every atom: bits[j] says whether =r<j> holds."""
    return conj([Eq(j) if bits >> j & 1 else neq(j) for j in range(k)])


def _cell_guard(sigmas, k):
    if len(sigmas) == 1 << k:
        return TRUE
    return disj([minterm(s, k) for s in sigmas])


def random_complete_automaton(rng: random.Random, n_locations, k, n_letters,
                              deterministic=False, acceptance=False):
    """A random complete RA; per cell the assignment space is partitioned
    among transitions (deterministic) or covered with possible overlaps."""
    locations = [f"q{i}" for i in range(n_locations)]
    alphabet = [chr(ord("a") + i) for i in range(n_letters)]
    transitions = []
    full = frozenset(range(k))
    initial = 0 if acceptance else None

    def pick_update(source):
        if acceptance and source == 0:
            return full
        return frozenset(j for j in range(k) if rng.random() < 0.4)

    for loc in range(n_locations):
        for letter in range(n_letters):
            sigmas = list(range(1 << k))
            rng.shuffle(sigmas)
            n_parts = rng.randint(1, min(3, len(sigmas)))
            cuts = sorted(rng.sample(range(1, len(sigmas)), n_parts - 1)) if n_parts > 1 else []
            parts = []
            prev = 0
            for cut in cuts + [len(sigmas)]:
                parts.append(sigmas[prev:cut])
                prev = cut
            for part in parts:
                transitions.append(mk_transition(
                    loc, letter, _cell_guard(sorted(part), k),
                    pick_update(loc), rng.randrange(n_locations)))
            if not deterministic:
                for _ in range(rng.randint(0, 2)):
                    sub = rng.sample(range(1 << k), rng.randint(1, 1 << k))
                    transitions.append(mk_transition(
                        loc, letter, _cell_guard(sorted(sub), k),
                        pick_update(loc), rng.randrange(n_locations)))
    acc = None
    if acceptance:
        accepting = frozenset(i for i in range(n_locations) if rng.random() < 0.5)
        acc = Acceptance(initial, accepting)
    return RegisterAutomaton(
        f"rand{rng.randrange(10**6)}", tuple(locations), k, tuple(alphabet),
        tuple(transitions), acc)


def enumerate_1dras(n_locations, n_letters):
    """Every complete deterministic 1-register automaton whose cells are a
    single true-guarded transition or an (=r0, !=r0) pair, with updates from
    {none, r0}."""
    true_opts = [(("t", up, tgt),)
                 for up in (frozenset(), frozenset({0}))
                 for tgt in range(n_locations)]
    pair_opts = [(("e", up1, t1), ("n", up2, t2))
                 for up1 in (frozenset(), frozenset({0}))
                 for t1 in range(n_locations)
                 for up2 in (frozenset(), frozenset({0}))
                 for t2 in range(n_locations)]
    options = true_opts + pair_opts
    cells = [(loc, letter) for loc in range(n_locations) for letter in range(n_letters)]
    locations = tuple(f"q{i}" for i in range(n_locations))
    alphabet = tuple(chr(ord("a") + i) for i in range(n_letters))
    guards = {"t": TRUE, "e": Eq(0), "n": neq(0)}
    for combo in itertools.product(options, repeat=len(cells)):
        transitions = []
        for (loc, letter), cell in zip(cells, combo):
            for kind, update, target in cell:
                transitions.append(mk_transition(loc, letter, guards[kind], update, target))
        yield RegisterAutomaton(
            "grid", locations, 1, alphabet, tuple(transitions), None)


def all_choice_words(n_letters, max_length, max_fresh=None):
    """Every choice word of length <= max_length, canonical Seen/Fresh form."""
    def rec(prefix, used):
        yield tuple(prefix)
        if len(prefix) == max_length:
            return
        choices = list(range(used))
        if max_fresh is None or used < max_fresh:
            choices.append(FRESH)
        for letter in range(n_letters):
            for choice in choices:
                prefix.append((letter, choice))
                yield from rec(prefix, used + (1 if choice == FRESH else 0))
                prefix.pop()

    yield from rec([], 0)


def random_guard(rng: random.Random, k, depth=2):
    from regsync.ra import And, Not

    if depth == 0 or rng.random() < 0.35:
        if k == 0 or rng.random() < 0.25:
            return TRUE
        return Eq(rng.randrange(k))
    if rng.random() < 0.5:
        return And(random_guard(rng, k, depth - 1), random_guard(rng, k, depth - 1))
    return Not(random_guard(rng, k, depth - 1))


def concrete_merge(eng, q1, q2, pool):
    """Reference for dra._merge: breadth-first over concrete unordered pairs,
    trying every pool datum at every step, with no node budget."""
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


def pair_state_shrink(aut, max_nodes=1_000_000):
    """Reference for dra.shrink_word: (result, nodes spent).  Each round is a
    breadth-first search over pairs (whole abstract set, dirty sub-set),
    counting every expansion and testing the goal when a pair is popped."""
    from regsync import dra

    dra._require_dra(aut)
    eng = engine_for(aut)
    k = aut.registers
    for loc, ok in enumerate(dra._update_reachability(aut, generalized=True)):
        if not ok:
            return dra.NotShrinkable(loc), 0
    current = eng.abstract_initial()
    choices = []
    explored = 0
    while True:
        dirty_locs = sorted({c[0] for c in current.configs if dra._dirty(c)})
        if not dirty_locs:
            break
        loc0 = dirty_locs[0]
        sub = AbstractConfigSet(
            tuple(c for c in current.configs if c[0] == loc0 and dra._dirty(c)),
            current.word_data_count)
        found = None
        start = (current, sub)
        parents = {start: None}
        queue = deque([start])
        while queue:
            state = queue.popleft()
            aset, asub = state
            if not any(dra._dirty(c) for c in asub.configs):
                found = state
                break
            moves = list(range(aset.word_data_count))
            if aset.word_data_count < k:
                moves.append(FRESH)
            for letter in range(eng.n_letters):
                for choice in moves:
                    explored += 1
                    if explored > max_nodes:
                        raise dra.InconclusiveError(
                            f"shrink search exceeded {max_nodes} nodes", explored, "shrink")
                    nxt = (eng.abstract_post(aset, letter, choice),
                           eng.abstract_post(asub, letter, choice))
                    if nxt in parents:
                        continue
                    parents[nxt] = (state, (letter, choice))
                    queue.append(nxt)
        if found is None:
            return dra.NotShrinkable(loc0), explored
        choices.extend(bfs_path(parents, found)[1])
        current = found[0]
    word = instantiate_choice_word(tuple(choices), range(k))
    residual = frozenset(current.configs)
    return dra.ShrinkResult(word, residual), explored
