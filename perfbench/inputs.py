"""Seeded benchmark inputs: every query is DSL text plus plain parameters.

The generator owns its random-automaton construction (it shares nothing with
the test suite) and is a pure function of the seed.  Gadget families and
reductions are built here, during set-up, and serialized to the DSL, so the
timed client only ever hands the program text and data words.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from regsync import gadgets
from regsync.dsl import serialize_automaton
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

# Why each workload exists; BENCHMARK.json repeats these one-liners.
WORKLOADS = {
    "decide": (
        "synchronization decisions, DRA (shrink + merge) and bounded NRA search: "
        "breadth search over abstract sets, so abstract_post dominates; "
        "budget-capped instances keep a heavy tail"),
    "membership": (
        "many short queries over a fixed catalog of 30 automata: per-query parse, "
        "validation and Engine build dominate; one path walked, no breadth search"),
}

# Node budgets per query.  Budgets, not time limits, bound the heavy tail, so
# which queries are decided is a function of the inputs alone.
DRA_MAX_NODES = 1_000
NRA_MAX_NODES = 60_000
MEMBERSHIP_MAX_NODES = 20_000

FIG4_TEXT = """\
automaton fig4
registers 1
alphabet a b
location q1
location q2
location q3
location q4
location q5
location q6
location synch
trans q1 -> q3 on a when true set r0
trans q1 -> q2 on b when true set r0
trans q2 -> q5 on b when =r0
trans q2 -> synch on a when true set r0
trans q2 -> synch on b when true set r0
trans q2 -> q2 on a when =r0
trans q3 -> q1 on b when =r0
trans q3 -> q4 on b when !=r0
trans q3 -> q3 on a when true set r0
trans q4 -> synch on b when !=r0 set r0
trans q4 -> q3 on a when true set r0
trans q4 -> q4 on b when =r0
trans q5 -> q6 on b when true set r0
trans q5 -> q5 on a when true
trans q6 -> q5 on a when true
trans q6 -> synch on b when !=r0 set r0
trans q6 -> q6 on b when =r0
trans synch -> q1 on a when true
trans synch -> synch on b when true set r0
"""

# A non-synchronizable random 3-register DRA whose merge phase searches
# exhaustively: about 3 s and 45 MB.  Every seed sends it, so the merge's
# memory shows in peak_rss_mb on every run, not only on seeds that happen to
# draw such an instance (about one k = 3 DRA in a thousand).
MERGE_HEAVY_TEXT = """\
automaton merge_heavy
registers 3
alphabet a b
location q0
location q1
location q2
location q3
trans q0 -> q0 on a when true
trans q0 -> q1 on b when true set r1
trans q1 -> q3 on a when true set *
trans q1 -> q0 on b when true set r2
trans q2 -> q2 on a when !=r0 & !=r1 & !=r2 | =r0 & !=r1 & !=r2 | =r0 & =r1 & !=r2 | !=r0 & =r1 & =r2 | =r0 & =r1 & =r2 set r0
trans q2 -> q1 on a when !=r0 & =r1 & !=r2 | !=r0 & !=r1 & =r2 | =r0 & !=r1 & =r2 set r0 r1
trans q2 -> q2 on b when !=r0 & !=r1 & !=r2 | !=r0 & !=r1 & =r2 | !=r0 & =r1 & =r2 set *
trans q2 -> q0 on b when =r0 & !=r1 & !=r2 | =r0 & =r1 & !=r2
trans q2 -> q1 on b when !=r0 & =r1 & !=r2 | =r0 & !=r1 & =r2 | =r0 & =r1 & =r2 set r1 r2
trans q3 -> q3 on a when !=r0 & !=r1 & !=r2 | =r0 & =r1 & !=r2 | =r0 & =r1 & =r2 set r0 r2
trans q3 -> q3 on a when =r0 & !=r1 & !=r2 | !=r0 & !=r1 & =r2 | =r0 & !=r1 & =r2 | !=r0 & =r1 & =r2 set r1
trans q3 -> q3 on a when !=r0 & =r1 & !=r2 set r0
trans q3 -> q0 on b when true set r1
"""


@dataclass(frozen=True)
class Query:
    """One client request.

    kind: sync-dra | sync-bounded | universality | accepts | run | nonempty.
    `word` is a data word of (letter index, datum) pairs; `bound` is the
    length bound of a bounded search; `label` names the input class.
    """

    kind: str
    text: str
    label: str
    word: tuple = ()
    bound: int = 0
    bfs: bool = False
    max_nodes: int = 0


# ---------------------------------------------------------------------------
# Random automata


def _guard_for(sigmas, k):
    """A guard satisfied by exactly the atom assignments in `sigmas`."""
    if len(sigmas) == 1 << k:
        return TRUE
    for j in range(k):
        for bit, literal in ((1, Eq(j)), (0, neq(j))):
            if set(sigmas) == {s for s in range(1 << k) if (s >> j & 1) == bit}:
                return literal
    return disj([conj([Eq(j) if s >> j & 1 else neq(j) for j in range(k)])
                 for s in sorted(sigmas)])


def random_automaton(rng: random.Random, name: str, n_locations: int, k: int,
                     n_letters: int, deterministic: bool,
                     acceptance: bool = False) -> RegisterAutomaton:
    """A random complete automaton.

    Per (location, letter) cell the 2^k atom assignments are split into one
    to three guarded transitions; nondeterministic automata get up to two
    extra, overlapping transitions per cell.  With acceptance, location 0 is
    initial and its transitions update every register, as validation asks.
    """
    full = frozenset(range(k))

    def update(source):
        if acceptance and source == 0:
            return full
        return frozenset(j for j in range(k) if rng.random() < 0.4)

    transitions = []
    for loc in range(n_locations):
        for letter in range(n_letters):
            sigmas = list(range(1 << k))
            rng.shuffle(sigmas)
            n_parts = rng.randint(1, min(3, len(sigmas)))
            cuts = sorted(rng.sample(range(1, len(sigmas)), n_parts - 1))
            for lo, hi in zip([0] + cuts, cuts + [len(sigmas)]):
                transitions.append(mk_transition(
                    loc, letter, _guard_for(sigmas[lo:hi], k), update(loc),
                    rng.randrange(n_locations)))
            if not deterministic:
                for _ in range(rng.randint(0, 2)):
                    sub = rng.sample(range(1 << k), rng.randint(1, 1 << k))
                    transitions.append(mk_transition(
                        loc, letter, _guard_for(sub, k), update(loc),
                        rng.randrange(n_locations)))
    acc = None
    if acceptance:
        accepting = [i for i in range(n_locations) if rng.random() < 0.5] or [n_locations - 1]
        acc = Acceptance(0, frozenset(accepting))
    return RegisterAutomaton(
        name, tuple(f"q{i}" for i in range(n_locations)), k,
        tuple(chr(ord("a") + i) for i in range(n_letters)), tuple(transitions), acc)


def random_word(rng: random.Random, n_letters: int, length: int) -> tuple:
    """A data word whose data repeat: drawn from a pool of 2..length/2 values."""
    n_data = rng.randint(2, max(2, length // 2))
    return tuple((rng.randrange(n_letters), rng.randrange(n_data)) for _ in range(length))


# ---------------------------------------------------------------------------
# Workloads

# Sizes, bounds and query kinds cycle through their ranges rather than being
# drawn, so every seed gets the same mix and seeds differ in the automata and
# words alone.  A decide pass takes about 25 s on one core of a 2-core
# x86-64 container.


def _dra_decide(rng: random.Random) -> list:
    queries = [Query("sync-dra", serialize_automaton(gadgets.gen_chain_dra(n)), f"chain{n}",
                     max_nodes=DRA_MAX_NODES)
               for n in range(1, 6)]
    queries.append(Query("sync-dra", MERGE_HEAVY_TEXT, "merge-heavy", max_nodes=DRA_MAX_NODES))
    # No random k = 4: the merge phase has no node budget, and about one
    # random 4-register DRA in 150 makes it run for minutes and take
    # gigabytes.  chain(4) and chain(5) keep k >= 4 in the mix.
    for k, count in ((1, 100), (2, 440), (3, 135)):
        for i in range(count):
            aut = random_automaton(rng, f"dra{k}_{i}", 4 + i % 7, k, 2, deterministic=True)
            queries.append(Query("sync-dra", serialize_automaton(aut), f"rand-k{k}",
                                 max_nodes=DRA_MAX_NODES))
    return queries


def _nra_search(rng: random.Random) -> list:
    queries = []
    for n, bound in ((1, 4), (2, 6)):
        text = serialize_automaton(gadgets.gen_counter_nra(n))
        queries.append(Query("sync-bounded", text, f"counter{n}", bound=bound, bfs=True,
                             max_nodes=NRA_MAX_NODES))
    for bound in (2, 3):
        queries.append(Query("sync-bounded", FIG4_TEXT, "fig4", bound=bound, bfs=bound == 3,
                             max_nodes=NRA_MAX_NODES))
    # k = 2 stops at length 4: its length-5 searches cost ten times more
    # and would leave a few dozen queries setting the whole pass's time.
    for i in range(630):
        k = 1 + i % 2
        aut = random_automaton(rng, f"nra{k}_{i}", 3 + i // 2 % 6, k, 2, deterministic=False)
        queries.append(Query("sync-bounded", serialize_automaton(aut), f"rand-k{k}",
                             bound=3 + i // 12 % (4 - k), bfs=i // 36 % 2 == 0,
                             max_nodes=NRA_MAX_NODES))
    for i in range(105):
        k = 1 + i % 2
        lang = random_automaton(rng, f"lang{k}_{i}", 3 + i // 2 % 3, k, 2,
                                deterministic=False, acceptance=True)
        bfs = i // 12 % 2 == 0
        queries.append(Query("sync-bounded",
                             serialize_automaton(gadgets.reduce_nonuniv_to_sync(lang)),
                             f"nonuniv-k{k}", bound=3 + i // 6 % 2, bfs=bfs,
                             max_nodes=NRA_MAX_NODES))
        queries.append(Query("universality", serialize_automaton(lang), f"univ-k{k}",
                             bound=3 + i // 6 % 3, bfs=not bfs, max_nodes=NRA_MAX_NODES))
    return queries


def _catalog() -> list:
    """The membership workload's 30 automata, the same for every seed.

    Per-query cost varies threefold between random automata of one register
    count, so a pool of 30 drawn per seed would make the seed, not the
    program, set the figures; the seed varies the traffic instead.
    """
    rng = random.Random("membership-catalog")
    pool = [random_automaton(rng, f"mem{1 + i % 3}_{i}", 3 + i // 3 % 6, 1 + i % 3, 2,
                             deterministic=False, acceptance=True)
            for i in range(27)]
    for i in range(3):
        one = random_automaton(rng, f"sync1_{i}", 2 + i % 2, 1, 2, deterministic=False)
        pool.append(gadgets.reduce_sync_to_nonuniv(one))
    return pool


def _membership(rng: random.Random) -> list:
    pool = _catalog()
    texts = [serialize_automaton(aut) for aut in pool]
    queries = []
    for i in range(1000):
        aut, text = pool[i % len(pool)], texts[i % len(pool)]
        label = f"k{aut.registers}"
        word = random_word(rng, len(aut.alphabet), rng.randint(8, 40))
        kind = ("accepts", "run", "accepts", "nonempty")[i // len(pool) % 4]
        if kind == "accepts":
            queries.append(Query(kind, text, label, word=word))
        elif kind == "run":
            queries.append(Query(kind, text, label, word=word[:rng.randint(4, 12)]))
        else:
            queries.append(Query(kind, text, label, bound=rng.randint(4, 8),
                                 max_nodes=MEMBERSHIP_MAX_NODES))
    return queries


def _decide(rng: random.Random) -> list:
    return _dra_decide(rng) + _nra_search(rng)


_GENERATORS = {"decide": _decide, "membership": _membership}


def generate(workload: str, seed: int) -> list:
    """The workload's query list for `seed`, in the order the client sends it."""
    rng = random.Random(f"{workload}/{seed}")
    queries = _GENERATORS[workload](rng)
    rng.shuffle(queries)
    return queries
