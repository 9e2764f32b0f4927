"""The bounded NRA searches (interned bitmask sets, subsumption pruning)
against the unpruned tuple-set search they replace (kept in helpers as
reference_search_bfs) and against the brute-force oracle.  When the
reference decides within its node budget, the pruned search gives the same
outcome and witness and explores no more nodes; when the reference runs
out, the pruned search may decide, and the oracle then agrees."""

import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from regsync import oracle, semantics
from regsync.dra import InconclusiveError, shrink_word
from regsync.gadgets import gen_counter_nra, reduce_nonuniv_to_sync
from regsync.nra import (
    BudgetExhausted,
    SearchBudget,
    Witness,
    bounded_sync_search,
    bounded_universality_witness,
)
from regsync.oracle import OracleParams, oracle_is_synchronizing, oracle_min_length
from regsync.semantics import (
    FRESH,
    AbstractConfigSet,
    Engine,
    _subsumed,
    engine_for,
    instantiate_choice_word,
    is_synchronized,
)
from helpers import (
    all_choice_words,
    kernel_tables,
    outcome_signature,
    random_complete_automaton,
    reference_outcome,
)

# `bfs=` is inert: both values run the one pruned breadth-first search.  The
# ids name the search modes the keyword once selected.
KEYWORD = [True, False]
KEYWORD_IDS = ["bfs", "iddfs"]


def sync_outcome(aut, bound, bfs=True, max_data=None, max_nodes=None):
    return bounded_sync_search(aut, SearchBudget(bound, max_data, max_nodes), bfs=bfs)


def univ_outcome(aut, bound, bfs=True, max_nodes=None):
    return bounded_universality_witness(aut, bound, max_nodes, bfs=bfs)


def acceptance_nras(seed, count):
    rng = random.Random(seed)
    return [random_complete_automaton(rng, rng.randint(2, 4), 1 + i % 2, 2, acceptance=True)
            for i in range(count)]


def decode(eng, mask):
    return tuple(sorted(c for i, c in enumerate(eng.config_of) if mask >> i & 1))


def concrete_rejects(aut, word):
    """No run over `word` from the initial location ends accepting, under any
    initial valuation over data(word) and k more data (see oracle_post)."""
    acc = aut.acceptance
    data = sorted({d for _, d in word})
    top = max(data, default=-1) + 1
    pool = data + [top + i for i in range(aut.registers)]
    configs = frozenset((acc.initial, values)
                        for values in itertools.product(pool, repeat=aut.registers))
    memo = {}
    for letter, datum in word:
        configs = oracle._post_once(aut, configs, letter, datum, memo)
    return not any(loc in acc.accepting for loc, _ in configs)


def oracle_agrees(aut, out, bound, max_data=None, universality=False):
    """Whether brute force confirms a decided outcome: a witness of least
    length, or that no word within the bounds exists."""
    if universality:
        shortest = min((len(cword) for cword in all_choice_words(len(aut.alphabet), bound)
                        if concrete_rejects(aut, instantiate_choice_word(cword, range(bound)))),
                       default=None)
        found = isinstance(out, Witness) and concrete_rejects(aut, out.word)
    else:
        pool = bound if max_data is None else max_data
        shortest = oracle_min_length(aut, OracleParams(bound, pool))
        found = isinstance(out, Witness) and oracle_is_synchronizing(aut, out.word)
    if isinstance(out, Witness):
        return found and len(out.word) == shortest
    return shortest is None


class Tally:
    """Checks pruned outcomes against the reference, and counts the cases
    where the reference decided ("same"), where only the pruned search
    decided and the oracle agreed ("rescued"), and where both ran out."""

    def __init__(self):
        self.cases = dict.fromkeys(("same", "rescued", "exhausted"), 0)
        self.pruned = 0

    def check(self, aut, out, ref, bound, max_data=None, universality=False):
        kind, word, explored, _ = ref
        self.pruned += out.pruned
        if kind != "BudgetExhausted":
            assert (type(out).__name__, getattr(out, "choice_word", None)) == (kind, word)
            assert out.explored <= explored
            self.cases["same"] += 1
        elif isinstance(out, BudgetExhausted):
            self.cases["exhausted"] += 1
        else:
            assert oracle_agrees(aut, out, bound, max_data, universality)
            self.cases["rescued"] += 1


class TestMaskPost:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6))
    def test_same_sets_as_abstract_post(self, seed, length):
        rng = random.Random(seed)
        aut = random_complete_automaton(rng, rng.randint(1, 3), rng.randint(0, 3),
                                        rng.randint(1, 2))
        eng = Engine(aut)
        aset = eng.abstract_initial()
        mask = eng.mask_root(aset.configs)
        for _ in range(length):
            m = aset.word_data_count
            letter, choice = rng.randrange(eng.n_letters), rng.choice([FRESH, *range(m)])
            aset = eng.abstract_post(aset, letter, choice)
            mask = eng.mask_post(mask, m, letter, choice)
            assert decode(eng, mask) == aset.configs
            assert eng.mask_synchronized(mask) == is_synchronized(aset)
        for i, (loc, values) in enumerate(eng.config_of):
            assert eng.config_of[eng.id_of[(loc, values)]] == (loc, values)
            assert bool(eng.dirty_mask >> i & 1) == any(v < 0 for v in values)
            assert [mask >> i & 1 for mask in eng.location_masks] == [
                int(j == loc) for j in range(eng.n_locations)]
            # a single configuration: synchronized iff it is clean
            single = AbstractConfigSet(((loc, values),), 0)
            assert eng.mask_synchronized(1 << i) == is_synchronized(single)
        assert not eng.mask_synchronized(0)


class TestSubsumed:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(1, 2**12 - 1), max_size=12), st.integers(0, 2**12 - 1))
    def test_bucket_index_finds_every_subset(self, kept, mask):
        buckets = {}
        for a in kept:
            buckets.setdefault(a & -a, []).append(a)
        assert _subsumed(buckets, mask) == any(a & ~mask == 0 for a in kept)


@pytest.mark.parametrize("bfs", KEYWORD, ids=KEYWORD_IDS)
class TestAgainstReferenceSearch:
    @pytest.mark.parametrize("bound", [2, 3])
    @pytest.mark.parametrize("max_nodes", [None, 0, 1, 9, 40])
    def test_fig4(self, fig4, bfs, bound, max_nodes):
        Tally().check(fig4, sync_outcome(fig4, bound, bfs, max_nodes=max_nodes),
                      reference_outcome(fig4, bound, max_nodes=max_nodes), bound)

    def test_counter(self, bfs):
        tally = Tally()
        for n, bound, max_data, max_nodes in ((1, 4, None, None), (1, 4, 1, None),
                                              (1, 3, 2, None), (2, 5, None, None),
                                              (2, 6, None, None), (2, 6, 2, 1000), (2, 6, 1, 100)):
            aut = gen_counter_nra(n)
            tally.check(aut, sync_outcome(aut, bound, bfs, max_data, max_nodes),
                        reference_outcome(aut, bound, max_data, max_nodes), bound, max_data)
        # counter(2) at length 6 on at most 2 data, or 1: the reference runs
        # out, the pruned search finds the witness
        assert tally.cases == {"same": 5, "rescued": 2, "exhausted": 0}
        assert tally.pruned > 0

    def test_reduced_nonuniversality(self, bfs):
        tally = Tally()
        for lang in acceptance_nras(11, 8):
            aut = reduce_nonuniv_to_sync(lang)
            for max_nodes in (None, 25):
                tally.check(aut, sync_outcome(aut, 3, bfs, max_nodes=max_nodes),
                            reference_outcome(aut, 3, max_nodes=max_nodes), 3)
        assert tally.cases["same"] > 0

    def test_universality(self, bfs):
        tally = Tally()
        for lang in acceptance_nras(12, 16):
            for bound, max_nodes in ((3, None), (4, None), (4, 15)):
                tally.check(lang, univ_outcome(lang, bound, bfs, max_nodes),
                            reference_outcome(lang, bound, max_nodes=max_nodes,
                                              universality=True),
                            bound, universality=True)
        assert tally.cases["same"] > 0 and tally.pruned > 0

    def test_random_complete_nras(self, bfs):
        rng = random.Random(2024)
        tally = Tally()
        outcomes = set()
        for i in range(90):
            k = i % 4
            aut = random_complete_automaton(rng, rng.randint(1, 5 - k), k, 2)
            bound = rng.randint(1, 4 - (k + 1) // 2)
            max_data = rng.choice([None, None, 1, 2])
            max_nodes = rng.choice([None, None, 0, 3, 30, 200])
            out = sync_outcome(aut, bound, bfs, max_data, max_nodes)
            tally.check(aut, out, reference_outcome(aut, bound, max_data, max_nodes),
                        bound, max_data)
            outcomes.add(type(out).__name__)
        assert outcomes == {"Witness", "NoneWithinBound", "BudgetExhausted"}
        assert all(tally.cases.values()) and tally.pruned > 0


class TestQueued:
    @pytest.mark.parametrize("bfs", KEYWORD, ids=KEYWORD_IDS)
    def test_queued_is_the_dedup_table_size(self, fig4, bfs, monkeypatch):
        # The dedup table holds the root, every node found above the last
        # layer, and a witness found on the last layer, whose steps are the
        # goal-directed ones.
        for aut, bound in ((fig4, 2), (fig4, 3), (gen_counter_nra(1), 4)):
            eng = engine_for(aut)
            found = set()  # every (set, word data) node the table may hold
            directed = []  # the results of goal-directed steps
            post = eng.mask_post

            def spy_post(mask, m, letter, choice, goal=None):
                out = post(mask, m, letter, choice, goal)
                if goal is not None:
                    directed.append(out)
                if goal is None or goal(out):
                    found.add((out, m + (choice == FRESH)))
                return out

            monkeypatch.setattr(eng, "mask_post", spy_post)
            out = bounded_sync_search(aut, SearchBudget(bound), bfs=bfs)
            monkeypatch.undo()
            root = (eng.mask_root(eng.abstract_initial().configs), 0)
            assert out.queued == len(found | {root}) > 1
            assert out.pruned < out.queued
            assert directed and not any(map(eng.mask_synchronized, directed[:-1]))
            if out.pruned == 0:
                assert outcome_signature(out) == reference_outcome(aut, bound)

    def test_empty_word_queues_nothing(self):
        lang = next(a for a in acceptance_nras(5, 50) if a.acceptance.initial
                    not in a.acceptance.accepting)
        out = bounded_universality_witness(lang, 3)
        assert out.choice_word == () and out.queued == out.pruned == 0


def rejecting_goal(eng, aut):
    """The universality goal on masks: no id at an accepting location."""
    accepting = aut.acceptance.accepting

    def rejected(mask):
        return not any(mask & eng.location_masks[loc] for loc in accepting)

    return rejected


def thinned(rng, aut):
    """`aut` without some of its transitions, so that successor sets can be
    empty: an empty set is a universality witness."""
    kept = tuple(t for t in aut.transitions if rng.random() < 0.7)
    return dataclasses.replace(aut, transitions=kept)


class TestGoalDirectedStep:
    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 4), st.booleans())
    def test_partial_step_fails_the_goal_exactly_when_the_full_step_does(
            self, seed, length, thin):
        rng = random.Random(seed)
        aut = random_complete_automaton(rng, rng.randint(1, 4), rng.randint(0, 2),
                                        rng.randint(1, 2), acceptance=True)
        if thin:
            aut = thinned(rng, aut)
        eng = Engine(aut)
        goals = (eng.mask_synchronized, rejecting_goal(eng, aut))
        mask, m = eng.mask_root(eng.abstract_initial().configs), 0
        for _ in range(length + 1):
            sub = mask & rng.getrandbits(mask.bit_length())
            for s in (mask, sub, 0):  # 0: the empty set
                for letter in range(eng.n_letters):
                    for choice in [*range(m), FRESH]:
                        full = eng.mask_post(s, m, letter, choice)
                        for goal in goals:
                            part = eng.mask_post(s, m, letter, choice, goal)
                            assert part & ~full == 0
                            assert goal(part) == goal(full)
                            if goal(full):
                                assert part == full
            letter, choice = rng.randrange(eng.n_letters), rng.choice([*range(m), FRESH])
            mask = eng.mask_post(mask, m, letter, choice) or mask
            m += choice == FRESH

    def test_empty_successor_is_a_universality_witness(self):
        # a cell with no transition: reading it leaves no run, so the word
        # is rejected, and the goal-directed last step must not cut it short
        rng = random.Random(3)
        hits = 0
        for lang in acceptance_nras(21, 30):
            aut = thinned(rng, lang)
            out = bounded_universality_witness(aut, 2)
            if isinstance(out, Witness) and out.choice_word:
                eng = engine_for(aut)
                mask = eng.mask_root(
                    c for c in eng.abstract_initial().configs if c[0] == aut.acceptance.initial)
                m = 0
                for letter, choice in out.choice_word:
                    mask = eng.mask_post(mask, m, letter, choice)
                    m += choice == FRESH
                hits += mask == 0
            Tally().check(aut, out, reference_outcome(aut, 2, universality=True), 2,
                          universality=True)
        assert hits > 0


def ignoring_goal(aut):
    """A fresh copy of `aut` whose Engine's step computes every successor
    in full, whatever goal it is given."""
    aut = dataclasses.replace(aut)
    eng = engine_for(aut)
    post = eng.mask_post
    eng.mask_post = lambda mask, m, letter, choice, goal=None: post(mask, m, letter, choice)
    return aut


class TestGoalDirectedSearch:
    """The goal-directed last layer changes no outcome: type, witness and
    every statistic match a search whose step ignores the goal."""

    @staticmethod
    def same(outcome, aut):
        # outcomes are dataclasses: == compares the witness and every statistic
        directed = outcome(dataclasses.replace(aut))
        assert directed == outcome(ignoring_goal(aut))
        return type(directed).__name__

    def test_random_complete_nras(self):
        rng = random.Random(909)
        kinds = set()
        for i in range(80):
            k = i % 3
            aut = random_complete_automaton(rng, rng.randint(1, 4), k, rng.randint(1, 2))
            bound = rng.randint(1, 4 - k)
            budget = SearchBudget(bound, rng.choice([None, None, 1, 2]),
                                  rng.choice([None, None, 0, 2, 10, 60]))
            kinds.add(self.same(lambda a: bounded_sync_search(a, budget), aut))
        assert kinds == {"Witness", "NoneWithinBound", "BudgetExhausted"}

    def test_reduced_nonuniversality(self):
        rng = random.Random(910)
        kinds = set()
        for lang in acceptance_nras(13, 10):
            aut = reduce_nonuniv_to_sync(lang)
            bound = rng.randint(1, 4)
            budget = SearchBudget(bound, rng.choice([None, 2]), rng.choice([None, 5, 40]))
            kinds.add(self.same(lambda a: bounded_sync_search(a, budget), aut))
        assert "Witness" in kinds and len(kinds) > 1

    def test_universality(self):
        rng = random.Random(911)
        kinds = set()
        for lang in acceptance_nras(14, 24):
            if rng.random() < 0.5:
                lang = thinned(rng, lang)
            bound = rng.randint(1, 4)
            max_nodes = rng.choice([None, None, 0, 3, 30])
            kinds.add(self.same(lambda a: bounded_universality_witness(a, bound, max_nodes),
                                lang))
        assert kinds == {"Witness", "NoneWithinBound", "BudgetExhausted"}


class TestCaps:
    def test_capped_memo_and_intern_table(self, monkeypatch):
        def make():
            return random_complete_automaton(random.Random(7), 4, 2, 2)

        aut = make()
        eng = engine_for(aut)
        runs = []  # per search: the cap, the intern table size at its root, then after each step
        cleared = []
        root, post = eng.mask_root, eng.mask_post

        def spy_root(configs):
            mask = root(configs)
            runs.append([semantics.SUCCESSOR_MEMO_CAP, len(eng.config_of)])
            return mask

        def spy_post(*args):
            before = eng.mask_entries
            out = post(*args)
            cleared.append(eng.mask_entries < before)
            runs[-1].append(len(eng.config_of))
            cap = semantics.SUCCESSOR_MEMO_CAP
            assert sum(map(len, eng.mask_memo.values())) == eng.mask_entries <= cap
            return out

        bounds = [3, 4, 2, 3, 4, 2]
        # each query on a fresh automaton, whose Engine never reaches the cap
        expected = [outcome_signature(sync_outcome(make(), bound)) for bound in bounds]
        monkeypatch.setattr(eng, "mask_root", spy_root)
        monkeypatch.setattr(eng, "mask_post", spy_post)
        for cap in (1000, 12):
            monkeypatch.setattr(semantics, "SUCCESSOR_MEMO_CAP", cap)
            for bound, want in zip(bounds, expected):
                assert outcome_signature(sync_outcome(aut, bound)) == want
        assert len(runs) == 2 * len(bounds) and any(cleared)
        # never reset during a search: ids only accumulate
        assert all(run[1:] == sorted(run[1:]) for run in runs)
        roots = len(eng.abstract_initial().configs)
        resets = 0
        for before, (cap, *run) in zip(runs, runs[1:]):
            # reset at the next root once past the cap, and only then
            if before[-1] > cap:
                assert run[0] == roots
                resets += 1
            else:
                assert run[0] == before[-1]
        assert 0 < resets < len(runs) - 1

    def test_outcomes_do_not_depend_on_the_kernel_tables(self):
        def shrink(aut):
            try:
                return shrink_word(aut, 300)
            except InconclusiveError as e:
                return ("InconclusiveError", e.explored)

        def outcomes():
            # every query on a fresh automaton, so no Engine memo hides the tables
            rng = random.Random(11)
            out = []
            for i in range(12):
                k = 1 + i % 3
                nra = random_complete_automaton(rng, rng.randint(2, 3), k, 2, acceptance=True)
                out.append(bounded_sync_search(nra, SearchBudget(3, None, 2000)))
                out.append(bounded_universality_witness(nra, 3, 2000))
                dra = random_complete_automaton(rng, rng.randint(2, 3), k, 2,
                                                deterministic=True)
                out.append(shrink(dra))
            return out

        with kernel_tables():
            cold = outcomes()
            assert semantics._SPLITS and semantics._WRITES
            warm = outcomes()
        with kernel_tables(cap=1):
            capped = outcomes()
        assert cold == warm == capped
        kinds = {type(out).__name__ if not isinstance(out, tuple) else out[0] for out in cold}
        assert {"Witness", "NoneWithinBound", "ShrinkResult", "NotShrinkable"} <= kinds
