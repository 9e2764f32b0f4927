import random

import pytest

from regsync.dra import synchronizing_word_dra
from regsync.gadgets import reduce_sync_to_nonuniv
from regsync.nra import (
    BudgetExhausted,
    NoneWithinBound,
    SearchBudget,
    Witness,
    accepts,
    bounded_sync_search,
    bounded_universality_witness,
    nonemptiness_witness,
)
from regsync.oracle import oracle_is_synchronizing
from regsync.ra import TRUE, Eq, RegisterAutomaton, StructuralError, conj, mk_transition, neq
from regsync.semantics import FRESH, abstract_run, engine_for, instantiate_choice_word, word_data
from helpers import (
    all_choice_words,
    automaton,
    raises_exactly,
    random_complete_automaton,
    reference_accepts,
)


def dying_word(rng: random.Random, n_letters: int, length: int) -> tuple:
    """A data word whose data mostly die early: each datum comes from a
    window of three that moves on every few positions, or is read once, or
    is one of -1, -7 and 10**30.  The first datum is read once half the
    time."""
    word = []
    for position in range(length):
        roll = rng.random()
        if position == 0 and roll < 0.5 or 0.85 <= roll < 0.95:
            datum = 10**6 + position  # read once
        elif roll >= 0.95:
            datum = rng.choice((-1, -7, 10**30))
        else:
            datum = position // 4 + rng.randrange(3)
        word.append((rng.randrange(n_letters), datum))
    return tuple(word)


def full_update_loop():
    return RegisterAutomaton("easy", ("q",), 1, ("a",),
                             (mk_transition(0, 0, TRUE, {0}, 0),))


def first_two_equal_nra():
    """Accepts exactly the words of length >= 2 whose first two data agree."""
    return automaton(
        "firsttwo", ["init", "s1", "acc"], 1, ["a"],
        [("init", "a", TRUE, {0}, "s1"),
         ("s1", "a", Eq(0), (), "acc"),
         ("acc", "a", TRUE, (), "acc")],
        acceptance=("init", ["acc"]))


class TestBoundedSyncSearch:
    @pytest.mark.parametrize("bfs", [False, True])
    def test_fig4_length3(self, fig4, bfs):
        out = bounded_sync_search(fig4, SearchBudget(3), bfs=bfs)
        assert isinstance(out, Witness)
        a, b = fig4.letter_index("a"), fig4.letter_index("b")
        assert out.choice_word == ((a, FRESH), (b, FRESH), (b, FRESH))
        assert oracle_is_synchronizing(fig4, out.word)

    @pytest.mark.parametrize("bfs", [False, True])
    def test_fig4_length2_exhausted(self, fig4, bfs):
        assert isinstance(bounded_sync_search(fig4, SearchBudget(2), bfs=bfs), NoneWithinBound)

    def test_single_location_full_update(self):
        out = bounded_sync_search(full_update_loop(), SearchBudget(1))
        assert isinstance(out, Witness) and len(out.word) == 1

    def test_negative_max_distinct_data_is_an_error(self, fig4):
        with pytest.raises(ValueError, match="max_distinct_data must be >= 0"):
            bounded_sync_search(fig4, SearchBudget(3, max_distinct_data=-1))

    def test_budget_exhaustion(self, fig4):
        out = bounded_sync_search(fig4, SearchBudget(3, max_nodes=5))
        assert isinstance(out, BudgetExhausted)
        assert out.explored >= 5

    def test_monotonic_in_budget(self, fig4):
        base = bounded_sync_search(fig4, SearchBudget(3))
        assert isinstance(base, Witness)
        for longer in (4, 5):
            again = bounded_sync_search(fig4, SearchBudget(longer))
            assert isinstance(again, Witness)
            assert len(again.word) <= len(base.word)

    def test_max_distinct_data_constrains(self, fig4):
        # one datum is not enough at length 3 (two are: e.g. (b,x)(b,y)(b,x))
        out = bounded_sync_search(fig4, SearchBudget(3, max_distinct_data=1))
        assert isinstance(out, NoneWithinBound)
        two = bounded_sync_search(fig4, SearchBudget(3, max_distinct_data=2))
        assert isinstance(two, Witness)
        assert oracle_is_synchronizing(fig4, two.word)

    def test_agrees_with_dra_pipeline_on_deterministic(self):
        rng = random.Random(43)
        for _ in range(25):
            aut = random_complete_automaton(rng, rng.randint(1, 3), rng.randint(0, 1),
                                            rng.randint(1, 2), deterministic=True)
            word = synchronizing_word_dra(aut)
            bounded = bounded_sync_search(aut, SearchBudget(8))
            if word is not None and len(word) <= 8:
                assert isinstance(bounded, Witness)
            if word is None:
                assert isinstance(bounded, NoneWithinBound)


class TestUniversality:
    def test_accepting_everything(self):
        aut = automaton("univ", ["q"], 1, ["a"],
                        [("q", "a", TRUE, {0}, "q")], acceptance=("q", ["q"]))
        assert isinstance(bounded_universality_witness(aut, 4), NoneWithinBound)

    def test_first_two_equal_escape(self):
        out = bounded_universality_witness(first_two_equal_nra(), 2)
        assert isinstance(out, Witness)
        assert not accepts(first_two_equal_nra(), out.word)

    def test_empty_word_witness(self):
        aut = first_two_equal_nra()
        out = bounded_universality_witness(aut, 0)
        assert isinstance(out, Witness) and out.word == ()

    def test_sync_to_nonuniv_output_has_witness(self):
        tiny = automaton(
            "tiny", ["q0", "q1"], 1, ["a"],
            [("q0", "a", neq(0), {0}, "q1"),
             ("q0", "a", Eq(0), (), "q0"),
             ("q1", "a", TRUE, {0}, "q1")])
        comp = reduce_sync_to_nonuniv(tiny)
        out = bounded_universality_witness(comp, 7)
        assert isinstance(out, Witness)
        assert not accepts(comp, out.word)

    def test_needs_acceptance(self, fig4):
        with pytest.raises(ValueError):
            bounded_universality_witness(fig4, 2)

    def test_negative_bound_is_an_error(self):
        # the empty word's length 0 exceeds a bound of -1
        with pytest.raises(ValueError, match="bound must be >= 0"):
            bounded_universality_witness(first_two_equal_nra(), -1)


class TestNonemptiness:
    def test_initial_accepting_empty_word(self):
        aut = automaton("eps", ["q"], 1, ["a"],
                        [("q", "a", TRUE, {0}, "q")], acceptance=("q", ["q"]))
        out = nonemptiness_witness(aut, 0)
        assert isinstance(out, Witness) and out.word == ()

    def test_negative_bound_is_an_error(self):
        aut = automaton("eps", ["q"], 1, ["a"],
                        [("q", "a", TRUE, {0}, "q")], acceptance=("q", ["q"]))
        with pytest.raises(ValueError, match="bound must be >= 0"):
            nonemptiness_witness(aut, -1)

    def test_unreachable_accepting(self):
        aut = automaton("dead", ["q0", "q1"], 1, ["a"],
                        [("q0", "a", TRUE, {0}, "q0"), ("q1", "a", TRUE, (), "q1")],
                        acceptance=("q0", ["q1"]))
        assert isinstance(nonemptiness_witness(aut, 50), NoneWithinBound)

    def test_two_distinct_data_needed(self):
        aut = automaton(
            "needs2", ["init", "s1", "acc"], 1, ["a"],
            [("init", "a", TRUE, {0}, "s1"),
             ("s1", "a", neq(0), (), "acc"),
             ("s1", "a", Eq(0), (), "s1"),
             ("acc", "a", TRUE, (), "acc")],
            acceptance=("init", ["acc"]))
        out = nonemptiness_witness(aut, 4)
        assert isinstance(out, Witness)
        assert len(out.word) == 2
        assert len(word_data(out.word)) == 2
        assert accepts(aut, out.word)

    def test_witness_is_accepted(self):
        rng = random.Random(47)
        found = 0
        for _ in range(40):
            aut = random_complete_automaton(rng, rng.randint(1, 3), rng.randint(0, 2),
                                            rng.randint(1, 2), acceptance=True)
            out = nonemptiness_witness(aut, 5)
            if isinstance(out, Witness):
                found += 1
                assert accepts(aut, out.word)
        assert found > 0

    def test_witness_has_the_least_accepted_length(self):
        """Against every choice word within the bound: a Witness comes back
        exactly when one is accepted, and it is accepted and of least
        length.  A node budget gives BudgetExhausted or the same outcome."""
        rng = random.Random(59)
        self.check_least_accepted_length([
            (random_complete_automaton(rng, rng.randint(1, 3), rng.randint(0, 2),
                                       rng.randint(1, 2), acceptance=True),
             rng.randint(0, 4))
            for _ in range(400)])

    def test_sparse_witness_has_the_least_accepted_length(self):
        """The same on automata with one accepting location and no
        overlapping transitions, where few words are accepted, so a search
        that reaches too few or wrong states shows."""
        rng = random.Random(61)
        self.check_least_accepted_length([
            (random_complete_automaton(rng, rng.randint(2, 4), rng.randint(1, 2),
                                       rng.randint(1, 2), acceptance=True, sparse=True),
             rng.randint(2, 5))
            for _ in range(200)])

    @staticmethod
    def check_least_accepted_length(cases):
        kinds = set()
        for aut, bound in cases:
            lengths = [len(cw) for cw in all_choice_words(len(aut.alphabet), bound)
                       if accepts(aut, instantiate_choice_word(cw, range(len(cw))))]
            out = nonemptiness_witness(aut, bound)
            kinds.add(type(out))
            if lengths:
                assert isinstance(out, Witness)
                assert len(out.word) == min(lengths) and accepts(aut, out.word)
            else:
                assert isinstance(out, NoneWithinBound)
            for max_nodes in (0, 1, 3):
                capped = nonemptiness_witness(aut, bound, max_nodes)
                assert isinstance(capped, BudgetExhausted) or capped == out
        assert kinds == {Witness, NoneWithinBound}

    def test_witness_follows_the_valuation_it_kept(self):
        """From s2, one fresh datum reaches (t, pattern (0, 1)) through
        `set r0` and through `set r1` with different valuations; the search
        keeps the first, and the last datum must equal its r0."""
        aut = automaton(
            "twoways", ["init", "s", "s2", "t", "acc"], 2, ["a"],
            [("init", "a", TRUE, {0, 1}, "s"),
             ("s", "a", neq(0), {1}, "s2"),
             ("s2", "a", conj([neq(0), neq(1)]), {0}, "t"),
             ("s2", "a", conj([neq(0), neq(1)]), {1}, "t"),
             ("t", "a", conj([Eq(0), neq(1)]), (), "acc")],
            acceptance=("init", ["acc"]))
        s2, t = 2, 3
        assert engine_for(aut).post_config((s2, (0, 1)), 0, 2) == [(t, (2, 1)), (t, (0, 2))]
        out = nonemptiness_witness(aut, 4)
        assert isinstance(out, Witness)
        assert out.word == ((0, 0), (0, 1), (0, 2), (0, 2))
        assert accepts(aut, out.word)
        assert isinstance(nonemptiness_witness(aut, 3), NoneWithinBound)

    def test_universality_and_nonemptiness_consistent(self):
        rng = random.Random(53)
        for _ in range(25):
            aut = random_complete_automaton(rng, rng.randint(1, 3), rng.randint(0, 1),
                                            rng.randint(1, 2), acceptance=True)
            out = bounded_universality_witness(aut, 3)
            if isinstance(out, Witness):
                assert not accepts(aut, out.word)


class TestAccepts:
    def test_agrees_with_the_abstract_run(self):
        """Against the abstract run from every register partition at the
        initial location, on dense and sparse acceptance NRAs with k = 0..3
        and words of length 0..12 over a few data."""
        rng = random.Random(67)
        verdicts = set()
        for k in range(4):
            for sparse in (False, True):
                for _ in range(25):
                    aut = random_complete_automaton(rng, rng.randint(2, 4), k,
                                                    rng.randint(1, 2), acceptance=True,
                                                    sparse=sparse)
                    for _ in range(4):
                        n_data = rng.randint(1, 4)
                        word = tuple((rng.randrange(len(aut.alphabet)), rng.randrange(n_data))
                                     for _ in range(rng.randint(0, 12)))
                        verdict = accepts(aut, word)
                        assert verdict == reference_accepts(aut, word), (aut, word)
                        verdicts.add((k, sparse, verdict))
        assert len(verdicts) == 16  # both verdicts for every k and mode

    def test_forgetting_walk_agrees_with_the_abstract_run(self):
        """The walk forgets each datum after its last read; the reference
        never forgets.  Words of length 0..40 draw most data from a window
        that moves on, so most data die early, some data are read once,
        the first datum often never recurs, and -1, -7 and 10**30 recur
        among them: a sentinel taken from the data domain would be read as
        one of them."""
        rng = random.Random(73)
        verdicts = set()
        for k in range(4):
            for sparse in (False, True):
                for _ in range(12):
                    aut = random_complete_automaton(rng, rng.randint(2, 4), k,
                                                    rng.randint(1, 2), acceptance=True,
                                                    sparse=sparse)
                    for _ in range(6):
                        word = dying_word(rng, len(aut.alphabet), rng.randint(0, 40))
                        verdict = accepts(aut, word)
                        assert verdict == reference_accepts(aut, word), (aut, word)
                        verdicts.add((k, sparse, verdict))
        assert len(verdicts) == 16  # both verdicts for every k and mode

    def test_last_read_tests_the_datum_itself(self):
        """s1 compares the input with r0, and keeps the input when they
        differ: a datum's last read must still see it in r0, and a datum
        stored at its last read must equal nothing later."""
        aut = automaton(
            "repeat", ["init", "s1", "acc"], 1, ["a"],
            [("init", "a", TRUE, {0}, "s1"),
             ("s1", "a", Eq(0), (), "acc"),
             ("s1", "a", neq(0), {0}, "s1"),
             ("acc", "a", TRUE, (), "acc")],
            acceptance=("init", ["acc"]))
        for data, want in (((5, 5), True), ((-1, -1), True), ((1, 2, 2), True),
                           ((1, 2, 3), False), ((1, 2, 1), False), ((1, 2, 3, 2), False),
                           ((-1, -7, 10**30, -7), False), ((10**30, -7, -7, 4), True),
                           ((7,), False), ((), False)):
            word = tuple((0, d) for d in data)
            assert accepts(aut, word) is want, data
            assert reference_accepts(aut, word) is want, data

    def test_empty_initial_cell(self):
        """No transition leaves the initial location on b, so no word
        starting with b is accepted, although every location but the
        initial one accepts it."""
        aut = automaton(
            "noexit", ["init", "acc"], 1, ["a", "b"],
            [("init", "a", TRUE, {0}, "acc"),
             ("acc", "a", TRUE, (), "acc"),
             ("acc", "b", Eq(0), (), "acc")],
            acceptance=("init", ["acc"]))
        assert not accepts(aut, ())
        assert accepts(aut, ((0, 5),)) and accepts(aut, ((0, 5), (1, 5)))
        # any iterable is a word, as in post_set and abstract_run
        assert accepts(aut, iter(((0, 5), (1, 5)))) and not accepts(aut, iter(()))
        assert accepts(aut, [(0, 5)]) and not accepts(aut, iter(((1, 5), (0, 5))))
        for word in (((1, 5),), ((1, 5), (0, 5)), ((1, 5), (1, 5))):
            assert not accepts(aut, word) and not reference_accepts(aut, word)

    def test_letter_ids_are_range_checked(self):
        """Cell rows are lists: unchecked, letter -1 would read b's cell and
        letter 2 would raise a bare IndexError."""
        aut = automaton(
            "onb", ["init", "acc"], 1, ["a", "b"],
            [("init", "b", TRUE, {0}, "acc")],
            acceptance=("init", ["acc"]))
        assert accepts(aut, ((1, 0),)) and not accepts(aut, ((0, 0),))
        for word, position in ((((-1, 0),), 0), (((2, 0),), 0), (((1, 0), (-1, 0)), 1)):
            letter = word[position][0]
            message = f"letter id {letter} at position {position} is not in range\\(2\\)"
            with pytest.raises(ValueError, match=message):
                accepts(aut, word)
            with pytest.raises(ValueError, match=message):
                abstract_run(aut, tuple((letter, FRESH) for letter, _ in word))

    def test_needs_the_initial_update_rule(self):
        aut = automaton(
            "keeps", ["q0", "q1"], 1, ["a"],
            [("q0", "a", TRUE, (), "q1"), ("q1", "a", TRUE, {0}, "q1")],
            acceptance=("q0", ["q1"]))
        with pytest.raises(StructuralError, match="without updating all registers"):
            accepts(aut, ((0, 1),))

    def test_leaves_the_successor_memo_empty(self):
        rng = random.Random(71)
        aut = random_complete_automaton(rng, 3, 2, 2, acceptance=True)
        for word in ((), ((0, 1),), ((0, 1), (1, 2), (0, 1), (1, 3))):
            accepts(aut, word)
        eng = engine_for(aut)
        assert eng.mask_memo == {} and eng.config_of == []


@pytest.mark.parametrize("call, error, message", [
    (lambda: bounded_sync_search(
        automaton("gap", ["q"], 1, ["a"], [("q", "a", Eq(0), {0}, "q")]), SearchBudget(2)),
     StructuralError, "bounded_sync_search needs a complete automaton"),
    (lambda: bounded_sync_search(full_update_loop(), SearchBudget(0)),
     ValueError, "synchronizing words are nonempty; max_length must be >= 1"),
    (lambda: accepts(full_update_loop(), ()),
     ValueError, "accepts needs acceptance structure"),
    (lambda: nonemptiness_witness(full_update_loop(), 3),
     ValueError, "nonemptiness_witness needs acceptance structure"),
], ids=["sync-incomplete", "sync-length-0", "accepts-no-acceptance",
        "nonempty-no-acceptance"])
def test_input_checks(call, error, message):
    raises_exactly(call, error, message)
