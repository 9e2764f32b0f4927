import itertools
import random

import pytest
from hypothesis import given, strategies as st

from regsync.gadgets import gen_chain_dra
from regsync.ra import TRUE, Eq, mk_transition, RegisterAutomaton
from regsync.semantics import (
    FRESH,
    AbstractConfigSet,
    Engine,
    abstract_initial,
    abstract_post,
    abstract_run,
    canonicalize,
    choice_of_word,
    data_efficiency,
    instantiate_choice_word,
    is_synchronized,
    post_config,
    post_set,
    sym,
    word_data,
)
from helpers import all_choice_words, random_complete_automaton


class TestChoiceWords:
    def test_instantiate_definitional(self):
        cword = ((0, FRESH), (1, 0), (1, FRESH))
        assert instantiate_choice_word(cword, [1, 2]) == ((0, 1), (1, 1), (1, 2))

    def test_all_fresh(self):
        cword = ((0, FRESH), (0, FRESH), (0, FRESH))
        assert instantiate_choice_word(cword, [4, 5, 6]) == ((0, 4), (0, 5), (0, 6))

    def test_empty(self):
        assert instantiate_choice_word((), []) == ()

    def test_pool_too_small(self):
        with pytest.raises(ValueError):
            instantiate_choice_word(((0, FRESH), (0, FRESH)), [1])

    def test_seen_before_fresh_rejected(self):
        with pytest.raises(ValueError):
            instantiate_choice_word(((0, 1),), [1, 2])

    def test_choice_of_word_roundtrip(self):
        word = ((0, 7), (1, 7), (0, 9), (1, 7), (0, 3))
        cword = choice_of_word(word)
        assert cword == ((0, FRESH), (1, 0), (0, FRESH), (1, 0), (0, FRESH))
        assert instantiate_choice_word(cword, word_data(word)) == word

    def test_data_efficiency(self):
        assert data_efficiency(((0, 5), (0, 5), (0, 6))) == 2


class TestCanonicalize:
    def mk(self, configs, m=0):
        return AbstractConfigSet(tuple(configs), m)

    def test_idempotent(self):
        aset = canonicalize(self.mk([(1, (sym(0), 2)), (0, (sym(0), sym(1)))]))
        assert canonicalize(aset) == aset

    def test_order_invariant(self):
        a = canonicalize(self.mk([(0, (1,)), (1, (sym(0),))]))
        b = canonicalize(self.mk([(1, (sym(0),)), (0, (1,))]))
        assert a == b

    def test_sym_renaming_invariant(self):
        a = canonicalize(self.mk([(0, (sym(3), sym(7), sym(3)))]))
        b = canonicalize(self.mk([(0, (sym(0), sym(1), sym(0)))]))
        assert a == b

    @given(st.lists(st.tuples(st.integers(0, 2),
                              st.lists(st.integers(-4, 3), min_size=2, max_size=2)),
                    max_size=5))
    def test_canonical_form_is_fixed_point(self, raw):
        aset = self.mk([(loc, tuple(vals)) for loc, vals in raw])
        once = canonicalize(aset)
        assert canonicalize(once) == once


class TestAbstractInitial:
    def test_bell_2(self):
        aut = random_complete_automaton(random.Random(0), 2, 2, 1)
        assert len(abstract_initial(aut)) == 2 * 2  # |L| * Bell(2)

    def test_k_zero(self):
        aut = random_complete_automaton(random.Random(0), 1, 0, 1)
        init = abstract_initial(aut)
        assert init.configs == ((0, ()),)

    def test_bell_3(self):
        aut = random_complete_automaton(random.Random(0), 3, 3, 1)
        assert len(abstract_initial(aut)) == 3 * 5  # Bell(3) = 5


class TestPost:
    def test_fig1_first_step(self):
        aut = gen_chain_dra(3)
        init = aut.location_index("init")
        l1p = aut.location_index("l1'")
        # from (init,(d1,d1,d1)) with d1 not in {x1}, reading (a,x1)
        succ = post_config(aut, (init, (7, 7, 7)), (0, 1))
        assert succ == {(l1p, (1, 7, 7))}

    def test_full_update_self_loop(self):
        aut = RegisterAutomaton("loop", ("q",), 2, ("a",),
                                (mk_transition(0, 0, TRUE, {0, 1}, 0),))
        assert post_config(aut, (0, (1, 2)), (0, 7)) == {(0, (7, 7))}

    def test_incomplete_cell_empty(self):
        aut = RegisterAutomaton("gap", ("q",), 1, ("a",),
                                (mk_transition(0, 0, Eq(0), (), 0),))
        assert post_config(aut, (0, (3,)), (0, 4)) == set()

    def test_empty_word_identity(self):
        aut = gen_chain_dra(2)
        configs = frozenset({(0, (1, 2)), (3, (2, 2))})
        assert post_set(aut, configs, ()) == configs

    def test_fig1_shrink_prefix(self):
        aut = gen_chain_dra(3)
        init = aut.location_index("init")
        l3, l3p = aut.location_index("l3"), aut.location_index("l3'")
        start = {(init, (9, 9, 9)), (init, (1, 5, 9))}
        out = post_set(aut, start, ((0, 1), (0, 2), (0, 3)))
        assert out <= {(l3, (1, 2, 3)), (l3p, (1, 2, 3))}

    def test_bijection_equivariance_random(self):
        rng = random.Random(23)
        for _ in range(50):
            k = rng.randint(0, 2)
            aut = random_complete_automaton(rng, rng.randint(1, 3), k, rng.randint(1, 2))
            word = tuple((rng.randrange(len(aut.alphabet)), rng.randrange(4))
                         for _ in range(rng.randint(1, 4)))
            configs = frozenset(
                (rng.randrange(len(aut.locations)),
                 tuple(rng.randrange(4) for _ in range(k)))
                for _ in range(rng.randint(1, 4)))
            image = rng.sample(range(10, 30), 4)
            pi = {v: image[v] for v in range(4)}
            left = post_set(aut, [(l, tuple(pi[v] for v in vs))
                                  for l, vs in configs],
                            [(a, pi[d]) for a, d in word])
            right = frozenset((l, tuple(pi[v] for v in vs))
                              for l, vs in post_set(aut, configs, word))
            assert left == right


class TestAbstractPost:
    def test_sym_free_matches_concrete(self):
        # on Sym-free sets the abstraction is the concrete post
        aut = gen_chain_dra(2)
        aset = AbstractConfigSet(((0, (0, 1)), (2, (1, 1))), 2)
        out = abstract_post(aut, aset, (0, 0))
        concrete = post_set(aut, [(0, (0, 1)), (2, (1, 1))], ((0, 0),))
        assert set(out.configs) == set(concrete)
        assert out.word_data_count == 2

    def test_full_update_collapses_branches(self):
        aut = RegisterAutomaton("loop", ("q",), 2, ("a",),
                                (mk_transition(0, 0, TRUE, {0, 1}, 0),))
        aset = AbstractConfigSet(((0, (sym(0), sym(0))),), 0)
        out = abstract_post(aut, aset, (0, FRESH))
        assert out == AbstractConfigSet(((0, (0, 0)),), 1)

    def test_seen_out_of_range(self):
        aut = gen_chain_dra(1)
        with pytest.raises(Exception):
            abstract_post(aut, abstract_initial(aut), (0, 0))

    def test_is_synchronized(self):
        assert is_synchronized(AbstractConfigSet(((5, (3, 3, 3)),), 4))
        assert not is_synchronized(AbstractConfigSet(((0, (sym(0),)),), 0))
        assert not is_synchronized(AbstractConfigSet(((0, (0,)), (1, (0,))), 1))


def concretize(aset, pool, extras):
    """All concrete configs: Word(i) -> pool[i], Sym blocks -> injections
    into the extra data."""
    out = set()
    for loc, values in aset.configs:
        blocks = sorted({v for v in values if v < 0}, reverse=True)
        for image in itertools.permutations(extras, len(blocks)):
            assign = dict(zip(blocks, image))
            out.add((loc, tuple(pool[v] if v >= 0 else assign[v] for v in values)))
    return out


def check_correspondence(aut, cword):
    """post(L x Y^k, w) must equal the concretized abstract run."""
    k = aut.registers
    fresh_count = sum(1 for _, c in cword if c == FRESH)
    pool = list(range(fresh_count))
    extras = [100 + i for i in range(k)]
    word = instantiate_choice_word(cword, pool)
    pool_all = pool + extras
    start = {(loc, vals)
             for loc in range(len(aut.locations))
             for vals in itertools.product(pool_all, repeat=k)}
    concrete = post_set(aut, start, word)
    abstract = abstract_run(aut, cword)
    assert concretize(abstract, pool, extras) == set(concrete), (
        aut, cword, abstract.configs)


class TestAbstractConcreteCorrespondence:
    def test_exhaustive_words_on_chain(self):
        aut = gen_chain_dra(2)
        for cword in all_choice_words(1, 3):
            check_correspondence(aut, cword)

    def test_exhaustive_words_on_random_automata(self):
        rng = random.Random(5)
        for _ in range(12):
            k = rng.randint(0, 2)
            aut = random_complete_automaton(rng, rng.randint(1, 3), k, rng.randint(1, 2))
            for cword in all_choice_words(len(aut.alphabet), 3):
                check_correspondence(aut, cword)

    def test_incomplete_automata_too(self):
        # the abstraction does not rely on completeness
        aut = RegisterAutomaton("gap", ("q", "r"), 1, ("a",),
                                (mk_transition(0, 0, Eq(0), {0}, 1),))
        for cword in all_choice_words(1, 3):
            check_correspondence(aut, cword)


class TestEngineCache:
    def test_post_functions_share_engine(self):
        aut = gen_chain_dra(2)
        from regsync.semantics import engine_for

        assert engine_for(aut) is engine_for(aut)

    def test_automaton_and_engine_are_freed_together(self):
        import gc
        import weakref

        from regsync.semantics import engine_for

        refs = []
        for n in (1, 2):
            aut = gen_chain_dra(n)
            abstract_run(aut, ((0, FRESH),))
            refs.append((weakref.ref(aut), weakref.ref(engine_for(aut))))
        del aut
        gc.collect()
        assert all(aut_ref() is None and eng_ref() is None for aut_ref, eng_ref in refs)


class TestDeterministicShrinking:
    def test_post_never_splits_deterministic_sets(self):
        rng = random.Random(71)
        for _ in range(40):
            k = rng.randint(0, 2)
            aut = random_complete_automaton(rng, rng.randint(1, 3), k,
                                            rng.randint(1, 2), deterministic=True)
            configs = frozenset(
                (rng.randrange(len(aut.locations)),
                 tuple(rng.randrange(3) for _ in range(k)))
                for _ in range(rng.randint(1, 5)))
            word = tuple((rng.randrange(len(aut.alphabet)), rng.randrange(3))
                         for _ in range(rng.randint(0, 4)))
            assert len(post_set(aut, configs, word)) <= len(configs)


class TestFig1AbstractStep:
    def test_first_fresh_input_branches_over_initial_blocks(self):
        aut = gen_chain_dra(3)
        out = abstract_post(aut, abstract_initial(aut), (0, FRESH))
        # init splits on =r1 / !=r1, so only the two chain heads are occupied,
        # every config has Word(0) in r1, and no config still sits at init
        locs = {loc for loc, _ in out.configs}
        assert aut.location_index("init") not in locs
        l1, l1p = aut.location_index("l1"), aut.location_index("l1'")
        heads = {loc for loc, _ in out.configs if loc in (l1, l1p)}
        assert heads == {l1, l1p}
        for loc, values in out.configs:
            if loc in (l1, l1p):
                assert values[0] == 0
