import itertools
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from regsync import ra, semantics
from regsync.dsl import parse_automaton, serialize_automaton
from regsync.gadgets import gen_chain_dra, gen_counter_nra
from regsync.ra import TRUE, Eq, mk_transition, RegisterAutomaton
from regsync.semantics import (
    FRESH,
    AbstractConfigSet,
    Engine,
    abstract_initial,
    abstract_post,
    abstract_run,
    choice_of_word,
    instantiate_choice_word,
    is_synchronized,
    pattern_of,
    post_config,
    post_set,
    sym,
    word_data,
)
from helpers import (
    all_choice_words,
    canonicalize,
    kernel_tables,
    raises_exactly,
    random_complete_automaton,
    reference_abstract_successors,
    reference_choice_of_word,
    reference_partitions,
    reference_post_set,
    reference_same_pattern,
    reference_word_data,
)


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

    @pytest.mark.parametrize("call, error, message", [
        (lambda: instantiate_choice_word(((0, FRESH),), [3, 3]),
         ValueError, "instantiation pool must be pairwise distinct"),
        (lambda: abstract_post(gen_chain_dra(1), abstract_initial(gen_chain_dra(1)), (0, 0)),
         ra.StructuralError, "Seen(0) with only 0 word data introduced"),
    ], ids=["repeated-pool", "seen-beyond-word-data"])
    def test_input_checks(self, call, error, message):
        raises_exactly(call, error, message)

    def test_choice_of_word_roundtrip(self):
        word = ((0, 7), (1, 7), (0, 9), (1, 7), (0, 3))
        cword = choice_of_word(word)
        assert cword == ((0, FRESH), (1, 0), (0, FRESH), (1, 0), (0, FRESH))
        assert instantiate_choice_word(cword, word_data(word)) == word

    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(-3, 6)), max_size=30))
    def test_word_helpers_match_the_list_scans(self, raw):
        # few distinct data over many entries, so most data repeat
        word = tuple(raw)
        assert word_data(word) == reference_word_data(word)
        assert choice_of_word(word) == reference_choice_of_word(word)


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


class TestPatternOf:
    @given(st.lists(st.integers(-2, 3), max_size=6), st.lists(st.integers(-2, 3), max_size=6),
           st.permutations(range(-2, 4)))
    def test_equal_exactly_up_to_a_bijection(self, a, b, perm):
        rename = dict(zip(range(-2, 4), perm))
        renamed = [rename[v] for v in a]
        for other in (b, renamed, a[::-1]):
            assert (pattern_of(a) == pattern_of(other)) == reference_same_pattern(a, other)
        assert pattern_of(a) == pattern_of(renamed)
        assert pattern_of(a) in semantics.PARTITIONS[len(a)]


class TestAbstractConfigSet:
    """A set's representation is its groups, a dict from valuation to the
    mask of the locations holding it; `configs` is built from them on first
    read."""

    @staticmethod
    def random_configs(rng):
        """Up to 10 configurations over 4 locations and k = 2, with
        duplicates, in random order."""
        pool = [(rng.randrange(4), (rng.randint(-2, 1), rng.randint(-2, 1)))
                for _ in range(rng.randint(0, 6))]
        return [rng.choice(pool) for _ in range(rng.randint(0, 10))] if pool else []

    def test_configs_and_groups_build_equal_sets(self):
        rng = random.Random(41)
        for _ in range(200):
            configs = self.random_configs(rng)
            m = rng.randint(0, 2)
            groups = {}
            for loc, values in rng.sample(configs, len(configs)):
                groups[values] = groups.get(values, 0) | 1 << loc
            from_configs = AbstractConfigSet(tuple(configs), m)
            from_groups = AbstractConfigSet.from_groups(groups, m)
            shuffled = AbstractConfigSet(tuple(rng.sample(configs, len(configs))), m)
            assert from_configs == from_groups == shuffled
            assert hash(from_configs) == hash(from_groups) == hash(shuffled)
            assert from_groups != AbstractConfigSet.from_groups(groups, m + 1)
            assert from_configs.groups == groups

    def test_configs_are_sorted_without_duplicates(self):
        rng = random.Random(43)
        for _ in range(200):
            configs = self.random_configs(rng)
            want = tuple(sorted(set(configs)))
            aset = AbstractConfigSet(tuple(configs), 0)
            assert aset.configs == want and len(aset) == len(want)
            regrouped = AbstractConfigSet.from_groups(aset.groups, 0)
            assert len(regrouped) == len(want) and regrouped.configs == want
            assert is_synchronized(aset) == (len(want) == 1 and min(want[0][1]) >= 0)

    def test_a_walk_sorts_only_the_set_it_returns(self):
        aut = gen_chain_dra(2)
        eng = Engine(aut)
        seen = []
        step = eng.abstract_post

        def recording_post(aset, letter, choice):
            out = step(aset, letter, choice)
            seen.extend((aset, out))
            return out

        eng.abstract_post = recording_post
        cword = ((0, FRESH), (0, 0), (0, FRESH), (0, 1), (0, 0), (0, FRESH)) * 2
        out = eng.abstract_run(cword)
        assert len(seen) == 24 and seen[-1] is out
        assert all(aset._configs is None for aset in seen)
        assert out.configs == tuple(sorted(out.configs))
        assert [aset._configs is not None for aset in seen] == [False] * 23 + [True]

    def test_repr_and_a_read_only_word_data_count(self):
        aset = AbstractConfigSet(((1, (0,)), (0, (sym(0),)), (1, (0,))), 1)
        assert repr(aset) == ("AbstractConfigSet(configs=((0, (-1,)), (1, (0,))), "
                              "word_data_count=1)")
        with pytest.raises(AttributeError):
            aset.word_data_count = 2


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

    @pytest.mark.parametrize("update, expected", [
        ({0}, (9, 2, 3)),
        (set(), (1, 2, 3)),
        ({0, 1, 2}, (9, 9, 9)),
    ], ids=["single", "empty_is_identity", "full"])
    def test_update_writes_the_datum_into_its_registers_only(self, update, expected):
        # valuation[update := datum], on the one concrete step
        aut = RegisterAutomaton("upd", ("q",), 3, ("a",),
                                (mk_transition(0, 0, TRUE, update, 0),))
        assert post_config(aut, (0, (1, 2, 3)), (0, 9)) == {(0, expected)}
        assert post_set(aut, {(0, (1, 2, 3))}, ((0, 9),)) == {(0, expected)}

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

    def test_post_set_keeps_every_datum(self):
        """The DRA merge replay hands post_set's configurations to the next
        merge, so post_set forgets nothing, even when every datum of the
        word is read once and never again."""
        aut = RegisterAutomaton("shift", ("q", "p"), 2, ("a", "b"),
                                (mk_transition(0, 0, TRUE, {0}, 1),
                                 mk_transition(1, 1, TRUE, {1}, 0),
                                 mk_transition(0, 1, TRUE, (), 0),
                                 mk_transition(1, 0, TRUE, {0, 1}, 1)))
        assert post_set(aut, {(0, (1, 2))}, ((0, -1), (1, 10**30))) == {(0, (-1, 10**30))}
        assert post_set(aut, {(0, (1, 2)), (1, (3, 4))}, ((0, 5),)) == {
            (1, (5, 2)), (1, (5, 5))}
        rng = random.Random(31)
        for _ in range(30):
            k = rng.randint(1, 3)
            aut = random_complete_automaton(rng, rng.randint(1, 4), k, rng.randint(1, 2))
            word = tuple((rng.randrange(len(aut.alphabet)), datum)
                         for datum in rng.sample(range(-20, 20), rng.randint(1, 8)))
            configs = {(rng.randrange(len(aut.locations)),
                        tuple(rng.randrange(-3, 3) for _ in range(k)))
                       for _ in range(rng.randint(1, 4))}
            eng = semantics.engine_for(aut)
            out = eng.post_set(configs, word)
            assert out == reference_post_set(eng, configs, word)
            assert all(semantics.DEAD not in values for _, values in out)

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


    def test_post_set_agrees_with_post_config(self):
        # each automaton dense and thinned, each walk with the firing table
        # cold, warm and emptied at every fill
        rng = random.Random(29)
        thin = random.Random(30)
        for _ in range(60):
            k = rng.randint(0, 3)
            aut = random_complete_automaton(rng, rng.randint(1, 4), k, rng.randint(1, 2))
            word = tuple((rng.randrange(len(aut.alphabet)), rng.randrange(4))
                         for _ in range(rng.randint(0, 6)))
            configs = {(rng.randrange(len(aut.locations)),
                        tuple(rng.randrange(5) for _ in range(k)))
                       for _ in range(rng.randint(1, 5))}
            for walked in (aut, thinned(thin, aut)):
                eng = semantics.engine_for(walked)
                want = reference_post_set(eng, configs, word)
                for _ in firing_table_states(walked):
                    assert eng.post_set(configs, word) == want


def thinned(rng: random.Random, aut: RegisterAutomaton) -> RegisterAutomaton:
    """`aut` with each transition kept with probability 1/2: cells with gaps,
    and some cells with nothing to fire."""
    return RegisterAutomaton(aut.name, aut.locations, aut.registers, aut.alphabet,
                             tuple(t for t in aut.transitions if rng.random() < 0.5))


def firing_table_states(aut: RegisterAutomaton):
    """Yield with `aut`'s firing table cold, then warm, then emptied at every
    fill (capped at one entry)."""
    aut.compiled.firing.clear()
    yield
    yield
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ra, "FIRING_TABLE_CAP", 1)
        aut.compiled.firing.clear()
        yield
        assert len(aut.compiled.firing) <= 1


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


@st.composite
def choice_words(draw, n_letters, max_len):
    """A valid choice word: Seen(i) only after i + 1 fresh data."""
    out = []
    m = 0
    for _ in range(draw(st.integers(0, max_len))):
        choice = draw(st.sampled_from([FRESH, *range(m)]))
        m += choice == FRESH
        out.append((draw(st.integers(0, n_letters - 1)), choice))
    return tuple(out)


def random_engine_and_word(data, max_len=3):
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    aut = random_complete_automaton(rng, rng.randint(1, 3), data.draw(st.integers(0, 3)),
                                    rng.randint(1, 2))
    return aut, data.draw(choice_words(len(aut.alphabet), max_len))


class TestAbstractSuccessors:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_agrees_with_reference(self, data):
        # a random canonical configuration over m word data, on every input:
        # first with the process-wide tables cold, then from them, then with
        # every fill emptying them first
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        k = data.draw(st.integers(0, 4))
        aut = random_complete_automaton(rng, rng.randint(1, 3), k, rng.randint(1, 2))
        eng = Engine(aut)
        m = data.draw(st.integers(0, 6))
        value = st.integers(-k, m - 1) if k else st.nothing()  # blocks and word data
        raw = data.draw(st.lists(value, min_size=k, max_size=k))
        config = (rng.randrange(eng.n_locations), semantics._canon_values(raw))
        inputs = [(m, True), *((i, False) for i in range(m))]
        for cap in (None, 1):
            with kernel_tables(cap):
                for _ in range(2):
                    for letter in range(eng.n_letters):
                        for inp, fresh in inputs:
                            got = eng._abstract_successors(config, letter, inp, fresh)
                            want = reference_abstract_successors(eng, config, letter, inp,
                                                                 fresh)
                            assert sorted(got) == sorted(want)


class TestKernelTables:
    def test_initial_valuations_are_the_partitions(self):
        bells = [1, 1, 2, 5, 15, 52, 203]
        assert len(bells) == len(semantics.PARTITIONS) == len(semantics.INITIAL_VALUATIONS)
        for k, bell in enumerate(bells):
            partitions = semantics.PARTITIONS[k]
            assert len(partitions) == bell
            assert partitions == tuple(reference_partitions(k))
            valuations = semantics.INITIAL_VALUATIONS[k]
            assert valuations == tuple(sorted(tuple(map(sym, rgs)) for rgs in partitions))
            assert all(semantics._canon_values(v) == v for v in valuations)
            # the order of the non-emptiness roots: sym reverses the sorted order
            assert partitions == tuple(tuple(map(sym, v)) for v in reversed(valuations))

    def test_submask_unions(self):
        assert len(semantics.SUBMASK_UNIONS) == ra.REGISTER_ENUMERATION_CAP + 1
        for k, unions in enumerate(semantics.SUBMASK_UNIONS):
            assert len(unions) == 1 << k
            for up, down in enumerate(unions):
                assert down == sum(1 << s for s in range(1 << k) if not s & ~up)

    def test_tables_stay_within_their_cap(self, monkeypatch):
        cap = 8
        split, write = semantics._fresh_split, semantics._write
        shrunk = set()

        def check(name, table, before):
            assert len(table) <= cap
            if len(table) < before:
                shrunk.add(name)

        def spy_split(*args):
            before = len(semantics._SPLITS)
            out = split(*args)
            check("split", semantics._SPLITS, before)
            return out

        def spy_write(key):
            before = len(semantics._WRITES)
            out = write(key)
            check("write", semantics._WRITES, before)
            assert len(semantics._WRITTEN) <= len(semantics._WRITES)
            assert semantics._WRITTEN[out] is out
            return out

        cword = tuple((i % 2, FRESH if i % 3 else 0) for i in range(12))
        with kernel_tables(cap):
            monkeypatch.setattr(semantics, "_fresh_split", spy_split)
            monkeypatch.setattr(semantics, "_write", spy_write)
            for seed in range(4):
                aut = random_complete_automaton(random.Random(seed), 3, 3, 2)
                abstract_run(aut, ((0, FRESH),) + cword)
        assert shrunk == {"split", "write"}


class TestSuccessorMemo:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_memo_hits_equal_misses(self, data):
        aut, cword = random_engine_and_word(data)
        eng = Engine(aut)
        first = eng.abstract_run(cword)
        assert eng.abstract_run(cword) == first
        assert Engine(aut).abstract_run(cword) == first
        check_correspondence(aut, cword)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_every_post_is_canonical(self, data):
        aut, cword = random_engine_and_word(data, max_len=4)
        eng = Engine(aut)
        aset = eng.abstract_initial()
        assert canonicalize(aset) == aset
        for letter, choice in cword:
            aset = eng.abstract_post(aset, letter, choice)
            assert canonicalize(aset) == aset

    def test_single_walks_leave_the_search_state_empty(self):
        # a long-lived automaton walked along 200 distinct words: single
        # walks keep no per-configuration memo and intern nothing; what
        # they keep is the compiled form's firing table, which holds only
        # what location masks fire, never a configuration
        aut = random_complete_automaton(random.Random(3), 3, 2, 2)
        eng = semantics.engine_for(aut)
        firing = aut.compiled.firing
        assert eng.firing is firing and firing == {}
        for i in range(2, 202):
            # the binary digits of i after its leading one spell the letters,
            # so no two words are equal; every third entry reads the first datum
            letters = bin(i)[3:]
            abstract_run(aut, tuple((int(c), 0 if j % 3 == 2 else FRESH)
                                    for j, c in enumerate(letters)))
        assert eng.mask_memo == {} and eng.mask_entries == 0
        assert eng.id_of == {} and eng.config_of == []
        assert eng.dirty_mask == 0 and eng.location_masks == [0] * eng.n_locations
        assert aut.compiled.firing is firing and 0 < len(firing) <= ra.FIRING_TABLE_CAP
        for (letter, sigma, locs), fires in firing.items():
            assert 0 <= letter < eng.n_letters and 0 <= sigma < 1 << eng.k
            assert 0 < locs < 1 << eng.n_locations
            for update, targets in fires:
                assert isinstance(update, frozenset) and 0 < targets < 1 << eng.n_locations


def random_abstract_set(rng: random.Random, aut: RegisterAutomaton) -> AbstractConfigSet:
    """Up to 8 canonical configurations over up to 3 word data."""
    k, m = aut.registers, rng.randint(0, 3)
    configs = {(rng.randrange(len(aut.locations)),
                semantics._canon_values([rng.randint(-k, m - 1) for _ in range(k)]))
               for _ in range(rng.randint(0, 8))}
    return AbstractConfigSet(tuple(sorted(configs)), m)


class TestGroupedWalks:
    """Engine.post_set (tested in TestPost) and Engine.abstract_post walk a
    set grouped by valuation through the compiled automaton's firing table,
    which every automaton parsed from one text shares."""

    def test_abstract_post_agrees_with_reference(self):
        # the union of the per-configuration reference successors, with the
        # firing table cold, warm and emptied at every fill
        rng = random.Random(67)
        for _ in range(80):
            aut = random_complete_automaton(rng, rng.randint(1, 4), rng.randint(0, 3),
                                            rng.randint(1, 2))
            if rng.random() < 0.5:
                aut = thinned(rng, aut)
            aset = random_abstract_set(rng, aut)
            eng = Engine(aut)
            m = aset.word_data_count
            steps = [(letter, choice) for letter in range(eng.n_letters)
                     for choice in (FRESH, *range(m))]
            want = {}
            for letter, choice in steps:
                inp = m if choice == FRESH else choice
                want[letter, choice] = AbstractConfigSet(tuple(sorted(
                    {succ for config in aset.configs
                     for succ in reference_abstract_successors(
                         eng, config, letter, inp, choice == FRESH)})),
                    m + (choice == FRESH))
            for _ in firing_table_states(aut):
                for letter, choice in steps:
                    assert eng.abstract_post(aset, letter, choice) == want[letter, choice]

    def test_parsed_copies_share_one_table(self, empty_guard_table):
        code_built = gen_chain_dra(2)
        text = serialize_automaton(code_built)
        first, second = parse_automaton(text), parse_automaton(text)
        assert first is not second and first.compiled is second.compiled
        assert semantics.engine_for(first) is not semantics.engine_for(second)
        assert semantics.engine_for(first).firing is semantics.engine_for(second).firing
        assert code_built.compiled.firing is not first.compiled.firing
        cword = ((0, FRESH), (0, FRESH), (0, 1), (0, FRESH), (0, 0))
        word = instantiate_choice_word(cword, [5, 6, 7])
        configs = [(loc, (d, e)) for loc in range(len(code_built.locations))
                   for d in range(3) for e in range(3)]
        want = (abstract_run(code_built, cword), post_set(code_built, configs, word))
        assert (abstract_run(first, cword), post_set(first, configs, word)) == want
        filled = dict(first.compiled.firing)
        assert filled
        # the second copy walks from the entries the first one filled
        assert (abstract_run(second, cword), post_set(second, configs, word)) == want
        assert second.compiled.firing == filled

    def test_firing_table_stays_within_its_cap(self, monkeypatch):
        cap = 4
        fire = ra.CompiledAutomaton.fire
        sizes = []

        def spy(self, key):
            out = fire(self, key)
            sizes.append(len(self.firing))
            return out

        monkeypatch.setattr(ra, "FIRING_TABLE_CAP", cap)
        monkeypatch.setattr(ra.CompiledAutomaton, "fire", spy)
        aut = random_complete_automaton(random.Random(7), 4, 2, 2)
        cword = tuple((i % 2, FRESH if i % 3 else 0) for i in range(1, 12))
        abstract_run(aut, ((0, FRESH),) + cword)
        assert max(sizes) <= cap and len(sizes) > cap
        assert any(b < a for a, b in zip(sizes, sizes[1:]))  # emptied when full
        # each distinct (update, target mask) pair is stored once, and only
        # while an entry holds it
        compiled = aut.compiled
        held = {id(pair): pair for fires in compiled.firing.values() for pair in fires}
        assert held == {id(pair): pair for pair in compiled._fired.values()}
        assert all(compiled._fired[pair] is pair for pair in held.values())


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


class TestLetterChecks:
    @pytest.mark.parametrize("step", [
        lambda aut: post_config(aut, (0, (0,)), (-1, 0)),
        lambda aut: post_set(aut, [(0, (0,))], ((0, 0), (-1, 0))),
        lambda aut: abstract_post(aut, abstract_initial(aut), (-1, FRESH)),
    ], ids=["post_config", "post_set", "abstract_post"])
    def test_module_steps_reject_a_negative_letter(self, step):
        aut = gen_counter_nra(1)
        with pytest.raises(ValueError, match=r"letter id -1 at position \d is not in range"):
            step(aut)

    def test_checked_walks_take_any_iterable(self):
        # the check reads the word before the walk does
        aut = gen_chain_dra(2)
        word = ((0, 1), (0, 2), (0, 3))
        assert post_set(aut, [(0, (0, 0))], iter(word)) == post_set(aut, [(0, (0, 0))], word)
        cword = choice_of_word(word)
        assert abstract_run(aut, iter(cword)) == abstract_run(aut, cword)


class TestConfigChecks:
    STEPS = {
        "post_config": lambda aut, config: post_config(aut, config, (0, 0)),
        "post_set": lambda aut, config: post_set(aut, [(0, (0, 0)), config], ((0, 0),)),
        "abstract_post": lambda aut, config: abstract_post(
            aut, AbstractConfigSet(((0, (0, 0)), config), 1), (0, FRESH)),
    }

    @pytest.mark.parametrize("config", [(-1, (0, 0)), (6, (0, 0)), (0, (0,)),
                                        (0, (0, 0, 0))],
                             ids=["negative location", "location past the end",
                                  "one value at k = 2", "three values at k = 2"])
    @pytest.mark.parametrize("step", sorted(STEPS))
    def test_module_steps_reject_a_configuration_outside_the_automaton(self, step, config):
        aut = gen_chain_dra(2)
        assert len(aut.locations) == 6
        pattern = (rf"configuration {re.escape(str(config))} needs a location in "
                   rf"range\(6\) and 2 register value\(s\)")
        with pytest.raises(ValueError, match=pattern):
            self.STEPS[step](aut, config)


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
