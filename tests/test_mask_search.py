"""The bounded NRA searches over interned bitmask sets against the tuple-set
searches they replace (kept in helpers as reference_search_bfs and
reference_search_iddfs): the same path or None, or exhaustion at the same
node, and the same number of sets queued."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from regsync import semantics
from regsync.gadgets import gen_counter_nra, reduce_nonuniv_to_sync
from regsync.nra import SearchBudget, bounded_sync_search, bounded_universality_witness
from regsync.semantics import FRESH, AbstractConfigSet, Engine, engine_for, is_synchronized
from helpers import outcome_signature, random_complete_automaton, reference_outcome

MODES = [True, False]
MODE_IDS = ["bfs", "iddfs"]


def sync_outcome(aut, bound, bfs, max_data=None, max_nodes=None):
    out = bounded_sync_search(aut, SearchBudget(bound, max_data, max_nodes), bfs=bfs)
    return outcome_signature(out)


def univ_outcome(aut, bound, bfs, max_nodes=None):
    return outcome_signature(bounded_universality_witness(aut, bound, max_nodes, bfs=bfs))


def acceptance_nras(seed, count):
    rng = random.Random(seed)
    return [random_complete_automaton(rng, rng.randint(2, 4), 1 + i % 2, 2, acceptance=True)
            for i in range(count)]


def decode(eng, mask):
    return tuple(sorted(c for i, c in enumerate(eng.config_of) if mask >> i & 1))


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


@pytest.mark.parametrize("bfs", MODES, ids=MODE_IDS)
class TestAgainstReferenceSearch:
    @pytest.mark.parametrize("bound", [2, 3])
    @pytest.mark.parametrize("max_nodes", [None, 0, 1, 9, 40])
    def test_fig4(self, fig4, bfs, bound, max_nodes):
        assert (sync_outcome(fig4, bound, bfs, max_nodes=max_nodes)
                == reference_outcome(fig4, bound, bfs, max_nodes=max_nodes))

    def test_counter(self, bfs):
        aut = gen_counter_nra(1)
        for bound, max_data in ((4, None), (4, 1), (3, 2)):
            assert (sync_outcome(aut, bound, bfs, max_data)
                    == reference_outcome(aut, bound, bfs, max_data))

    def test_reduced_nonuniversality(self, bfs):
        for lang in acceptance_nras(11, 8):
            aut = reduce_nonuniv_to_sync(lang)
            for max_nodes in (None, 25):
                assert (sync_outcome(aut, 3, bfs, max_nodes=max_nodes)
                        == reference_outcome(aut, 3, bfs, max_nodes=max_nodes))

    def test_universality(self, bfs):
        for lang in acceptance_nras(12, 16):
            for bound, max_nodes in ((3, None), (4, None), (4, 15)):
                assert (univ_outcome(lang, bound, bfs, max_nodes)
                        == reference_outcome(lang, bound, bfs, max_nodes=max_nodes,
                                             universality=True))

    def test_random_complete_nras(self, bfs):
        rng = random.Random(2024)
        outcomes = set()
        for i in range(80):
            k = i % 3
            aut = random_complete_automaton(rng, rng.randint(1, 5), k, 2)
            bound = rng.randint(1, 4 - k // 2)
            max_data = rng.choice([None, None, 1, 2])
            max_nodes = rng.choice([None, None, 0, 3, 30, 200])
            got = sync_outcome(aut, bound, bfs, max_data, max_nodes)
            assert got == reference_outcome(aut, bound, bfs, max_data, max_nodes)
            outcomes.add(got[0])
        assert outcomes == {"Witness", "NoneWithinBound", "BudgetExhausted"}


class TestQueued:
    @pytest.mark.parametrize("bfs", MODES, ids=MODE_IDS)
    def test_queued_is_the_dedup_table_size(self, fig4, bfs):
        for aut, bound in ((fig4, 2), (fig4, 3), (gen_counter_nra(1), 4)):
            out = bounded_sync_search(aut, SearchBudget(bound), bfs=bfs)
            assert out.queued == reference_outcome(aut, bound, bfs)[3] > 1

    def test_empty_word_queues_nothing(self):
        lang = next(a for a in acceptance_nras(5, 50) if a.acceptance.initial
                    not in a.acceptance.accepting)
        out = bounded_universality_witness(lang, 3)
        assert out.choice_word == () and out.queued == 0


class TestCaps:
    def test_capped_memo_and_intern_table(self, monkeypatch):
        aut = random_complete_automaton(random.Random(7), 4, 2, 2)
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

        monkeypatch.setattr(eng, "mask_root", spy_root)
        monkeypatch.setattr(eng, "mask_post", spy_post)
        queries = [(3, True), (3, False), (2, True), (3, True), (3, False), (2, False)]
        for cap in (1000, 12):
            monkeypatch.setattr(semantics, "SUCCESSOR_MEMO_CAP", cap)
            for bound, bfs in queries:
                assert sync_outcome(aut, bound, bfs) == reference_outcome(aut, bound, bfs)
        assert len(runs) == 2 * len(queries) and any(cleared)
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
