import random

import pytest

from regsync.dra import synchronizing_word_dra
from regsync.dsl import parse_automaton, serialize_automaton
from regsync.gadgets import (
    ackermann,
    gen_chain_dra,
    gen_counter_nra,
    gen_tower_nra,
    reduce_nonempty_to_sync_dra,
    reduce_nonuniv_to_sync,
    reduce_sync_to_nonuniv,
    tower,
)
from regsync.nra import (
    NoneWithinBound,
    SearchBudget,
    Witness,
    accepts,
    bounded_sync_search,
    bounded_universality_witness,
    nonemptiness_witness,
)
from regsync.oracle import OracleParams, oracle_is_synchronizing, oracle_search
from regsync.ra import (
    TRUE,
    Eq,
    ResourceCapError,
    StructuralError,
    conj,
    is_complete,
    is_deterministic,
    neq,
    validate,
)
from helpers import automaton, minterm, raises_exactly, random_complete_automaton


class TestFamilyShapes:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_chain_counts(self, n):
        aut = gen_chain_dra(n)
        assert len(aut.locations) == 2 * n + 2
        assert aut.registers == n
        assert len(aut.alphabet) == 1
        assert validate(aut) == []
        assert is_complete(aut)
        assert is_deterministic(aut)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_counter_counts(self, n):
        aut = gen_counter_nra(n)
        assert len(aut.locations) == 2 * n + 5
        assert aut.registers == 1
        assert len(aut.alphabet) == n + 3  # #, *, bit0..bitn
        assert validate(aut) == []
        assert is_complete(aut)
        assert not is_deterministic(aut)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_tower_counts(self, n):
        aut = gen_tower_nra(n)
        assert len(aut.locations) == n + 6
        assert aut.registers == 1
        assert len(aut.alphabet) == 6
        assert validate(aut) == []
        assert is_complete(aut)
        assert not is_deterministic(aut)

    @pytest.mark.parametrize("gen", [gen_chain_dra, gen_counter_nra, gen_tower_nra])
    def test_zero_rejected(self, gen):
        with pytest.raises(ValueError):
            gen(0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("gen", [gen_chain_dra, gen_counter_nra, gen_tower_nra])
    def test_serialization_roundtrip(self, gen, n):
        aut = gen(n)
        assert parse_automaton(serialize_automaton(aut)) == aut
        assert parse_automaton(serialize_automaton(aut, "json")) == aut


class TestChainBehavior:
    def test_fig1_witness(self):
        aut = gen_chain_dra(3)
        word = ((0, 1), (0, 2), (0, 3), (0, 4))
        assert oracle_is_synchronizing(aut, word)

    def test_chain2_needs_three_data(self):
        aut = gen_chain_dra(2)
        result = oracle_search(aut, OracleParams(6, 2))
        assert result.found_length is None


class TestCounterBehavior:
    def test_counter1_witness_repeats_datum(self):
        aut = gen_counter_nra(1)
        out = bounded_sync_search(aut, SearchBudget(4))
        assert isinstance(out, Witness)
        counts = {}
        for _, d in out.word:
            counts[d] = counts.get(d, 0) + 1
        assert max(counts.values()) >= 2

    def test_counter1_minimal_length_is_four(self):
        aut = gen_counter_nra(1)
        assert isinstance(bounded_sync_search(aut, SearchBudget(3)),
                          NoneWithinBound)


class TestTowerBehavior:
    def test_tower1_data_efficiency_two(self):
        from regsync.oracle import oracle_min_data_efficiency

        assert oracle_min_data_efficiency(gen_tower_nra(1), OracleParams(6, 3)) == 2


class TestNonunivToSync:
    def make_input(self):
        return automaton(
            "firsttwo", ["init", "s1", "acc"], 1, ["a"],
            [("init", "a", TRUE, {0}, "s1"),
             ("s1", "a", Eq(0), (), "acc"),
             ("acc", "a", TRUE, (), "acc")],
            acceptance=("init", ["acc"]))

    def test_shape(self):
        src = self.make_input()  # incomplete: s1 lacks the != case
        out = reduce_nonuniv_to_sync(src)
        # completion adds one sink, the reduction two locations and two letters
        assert len(out.locations) == len(src.locations) + 3
        assert len(out.alphabet) == len(src.alphabet) + 2
        assert out.acceptance is None
        assert validate(out) == []
        assert is_complete(out)

    def test_star_w_hash_synchronizes(self):
        src = self.make_input()
        out = reduce_nonuniv_to_sync(src)
        star, hash_ = out.letter_index("*"), out.letter_index("#")
        witness = bounded_universality_witness(src, 2)
        assert isinstance(witness, Witness)
        w = tuple((letter, d + 1) for letter, d in witness.word)
        word = ((star, 0),) + w + ((hash_, 0),)
        assert oracle_is_synchronizing(out, word)

    def test_universal_input_yields_no_witness(self):
        src = automaton("univ", ["q"], 1, ["a"],
                        [("q", "a", TRUE, {0}, "q")], acceptance=("q", ["q"]))
        out = reduce_nonuniv_to_sync(src)
        assert isinstance(bounded_sync_search(out, SearchBudget(5)),
                          NoneWithinBound)

    def test_requires_acceptance(self):
        with pytest.raises(ValueError):
            reduce_nonuniv_to_sync(gen_chain_dra(1))


class TestNonemptyToSyncDra:
    def make_input(self, accepting_reachable=True):
        middle = "acc" if accepting_reachable else "s1"
        return automaton(
            "ne", ["init", "s1", "acc"], 1, ["a", "b"],
            [("init", "a", TRUE, {0}, middle),
             ("init", "b", TRUE, {0}, "s1"),
             ("s1", "a", TRUE, (), "s1"),
             ("s1", "b", TRUE, (), "s1")],
            acceptance=("init", ["acc"]))

    def test_shape(self):
        out = reduce_nonempty_to_sync_dra(self.make_input())
        # input completes with a sink (acc kept bare), then reset is added
        assert out.alphabet[-1] == "*"
        assert len(out.alphabet) == 3
        assert is_deterministic(out)
        assert is_complete(out)

    def test_accepted_word_yields_synchronizer(self):
        src = self.make_input()
        out = reduce_nonempty_to_sync_dra(src)
        star = out.letter_index("*")
        a = out.letter_index("a")
        word = ((star, 0), (star, 0), (a, 1), (star, 0))
        assert oracle_is_synchronizing(out, word)

    def test_empty_language_no_sync(self):
        out = reduce_nonempty_to_sync_dra(self.make_input(accepting_reachable=False))
        assert synchronizing_word_dra(out) is None

    def test_differential_small(self):
        rng = random.Random(61)
        tested = 0
        for _ in range(40):
            base = random_complete_automaton(rng, rng.randint(1, 3), 1, rng.randint(1, 2),
                                             deterministic=True, acceptance=True)
            # shape the input: single exit-free accepting location appended
            locs = base.locations + ("final",)
            final = len(base.locations)
            ts = list(base.transitions)
            # redirect one random cell to the accepting location sometimes
            if rng.random() < 0.7:
                i = rng.randrange(len(ts))
                ts[i] = ts[i].__class__(ts[i].source, ts[i].letter, ts[i].guard,
                                        ts[i].update, final)
            from regsync.ra import Acceptance, RegisterAutomaton

            src = RegisterAutomaton(base.name, locs, 1, base.alphabet, tuple(ts),
                                    Acceptance(base.acceptance.initial,
                                               frozenset({final})))
            if validate(src):
                continue
            out = reduce_nonempty_to_sync_dra(src)
            nonempty = isinstance(nonemptiness_witness(src, 12), Witness)
            synchronizable = synchronizing_word_dra(out) is not None
            assert nonempty == synchronizable
            tested += 1
        assert tested >= 20


def many_guards_nra():
    """k = 6, one initial and accepting location, 40 overlapping guards in
    its one cell: =ri & !=rj & !=rl over distinct triples."""
    triples = [(i, j, l) for i in range(6) for j in range(6) for l in range(j + 1, 6)
               if i not in (j, l)][:40]
    return automaton("many", ["q"], 6, ["a"],
                     [("q", "a", conj([Eq(i), neq(j), neq(l)]), range(6), "q")
                      for i, j, l in triples],
                     acceptance=("q", ["q"]))


def many_guards_dra():
    """k = 6, a DRA whose initial cell holds 40 of the 64 minterms, each to
    an exit-free accepting location."""
    return automaton("many", ["init", "acc"], 6, ["a"],
                     [("init", "a", minterm(s, 6), range(6), "acc") for s in range(40)],
                     acceptance=("init", ["acc"]))


@pytest.mark.parametrize("fmt", ["dsl", "json"])
@pytest.mark.parametrize("reduce, make", [
    (reduce_nonuniv_to_sync, many_guards_nra),
    (reduce_nonempty_to_sync_dra, many_guards_dra),
], ids=["nonuniv", "nonempty"])
def test_reduction_of_a_crowded_cell_parses_back(reduce, make, fmt):
    # The sink completion's gap guard negates the disjunction of all 40
    # guards of the cell; it must stay shallow enough for the parser.
    src = make()
    assert parse_automaton(serialize_automaton(src, fmt)) == src
    out = reduce(src)
    assert is_complete(out)
    assert parse_automaton(serialize_automaton(out, fmt)) == out


class TestSyncToNonuniv:
    def tiny_sync(self):
        return automaton(
            "tiny", ["q0", "q1"], 1, ["a"],
            [("q0", "a", neq(0), {0}, "q1"),
             ("q0", "a", Eq(0), (), "q0"),
             ("q1", "a", TRUE, {0}, "q1")])

    def tiny_nosync(self):
        # never updates: fails the inequality-update check
        return automaton("stuck", ["q0"], 1, ["a"], [("q0", "a", TRUE, (), "q0")])

    def test_alphabet_and_member_shape(self):
        src = self.tiny_sync()
        out = reduce_sync_to_nonuniv(src)
        assert len(out.alphabet) == len(src.alphabet) + len(src.locations) + 1
        assert out.acceptance is not None
        assert validate(out) == []

    def test_member_count_bounded_by_transitions(self):
        import re

        src = self.tiny_sync()
        out = reduce_sync_to_nonuniv(src)
        member_initials = sum(1 for name in out.locations
                              if re.fullmatch(r"t\d+_s1", name))
        assert member_initials <= len(src.transitions)

    def test_update_check_failure_gives_universal(self):
        out = reduce_sync_to_nonuniv(self.tiny_nosync())
        assert len(out.locations) == 1
        assert isinstance(bounded_universality_witness(out, 4), NoneWithinBound)

    def test_synchronizable_input_has_nonuniv_witness(self):
        out = reduce_sync_to_nonuniv(self.tiny_sync())
        witness = bounded_universality_witness(out, 7)
        assert isinstance(witness, Witness)
        assert not accepts(out, witness.word)

    def test_k2_rejected(self):
        with pytest.raises(ValueError):
            reduce_sync_to_nonuniv(gen_chain_dra(2))

    def test_duplicate_location_entries_are_tracked(self):
        # Two swapping locations: passes the update check but never
        # synchronizes (posts always keep both locations).  A forged encoding
        # hides an obligation behind a duplicate location entry: the block
        # (L1,d)(L1,x)(L2,x) with input (a,x) owes (L2,x) in the next block
        # via L1 -(=,a)-> L2, but only lists (L1,x).  The successor members
        # must guess *which* occurrence of L1 to track to catch it.
        src = automaton(
            "swap", ["l1", "l2"], 1, ["a"],
            [("l1", "a", Eq(0), (), "l2"), ("l1", "a", neq(0), {0}, "l1"),
             ("l2", "a", Eq(0), (), "l1"), ("l2", "a", neq(0), {0}, "l2")])
        comp = reduce_sync_to_nonuniv(src)
        a = comp.letter_index("a")
        l1, l2 = comp.letter_index("l1"), comp.letter_index("l2")
        star = comp.letter_index("*")
        x, y, d = 0, 9, 5
        forged = ((star, y), (l1, x), (l2, x), (a, x),
                  (star, y), (l1, d), (l1, x), (l2, x), (a, x),
                  (star, y), (l1, x), (star, y))
        assert accepts(comp, forged)
        # and the honest encodings stay rejected: blocks listing both
        # locations never shrink, so no valid final block exists (sanity)
        honest = ((star, y), (l1, x), (l2, x), (a, x),
                  (star, y), (l1, x), (l2, x), (a, x),
                  (star, y), (l1, x), (star, y))
        assert accepts(comp, honest)  # the drop of (l2,x) violates condition 5


class TestAckermann:
    def test_level1(self):
        assert ackermann(1, 3) == 6

    def test_level2(self):
        assert ackermann(2, 4) == 16

    def test_level3(self):
        assert ackermann(3, 2) == 4

    def test_tower_values(self):
        assert [tower(n) for n in range(1, 5)] == [2, 4, 16, 65536]

    def test_cap(self):
        with pytest.raises(ResourceCapError):
            ackermann(3, 5)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            ackermann(0, 1)


def _nonempty_input(transitions, accepting=("acc",)):
    return automaton("ne", ["init", "acc"], 1, ["a"], transitions,
                     acceptance=("init", list(accepting)))


@pytest.mark.parametrize("call, error, message", [
    (lambda: reduce_nonempty_to_sync_dra(gen_chain_dra(1)),
     ValueError, "reduce_nonempty_to_sync_dra needs acceptance structure"),
    (lambda: reduce_nonempty_to_sync_dra(_nonempty_input([("init", "a", TRUE, (), "acc")])),
     StructuralError, "transition 0 leaves the initial location without updating all registers"),
    (lambda: reduce_nonempty_to_sync_dra(_nonempty_input(
        [("init", "a", TRUE, {0}, "acc"), ("init", "a", Eq(0), {0}, "init")])),
     StructuralError, "reduce_nonempty_to_sync_dra needs a deterministic input"),
    (lambda: reduce_nonempty_to_sync_dra(_nonempty_input(
        [("init", "a", TRUE, {0}, "acc")], accepting=("init", "acc"))),
     ValueError, "reduce_nonempty_to_sync_dra needs exactly one accepting location"),
    (lambda: reduce_nonempty_to_sync_dra(_nonempty_input(
        [("init", "a", TRUE, {0}, "acc"), ("acc", "a", TRUE, (), "acc")])),
     ValueError, "the accepting location must have no outgoing transitions"),
    (lambda: reduce_sync_to_nonuniv(automaton("gap", ["q"], 1, ["a"],
                                              [("q", "a", Eq(0), {0}, "q")])),
     StructuralError, "reduce_sync_to_nonuniv needs a complete input"),
    (lambda: ackermann(1, -1), ValueError, "ackermann argument must be >= 0"),
], ids=["nonempty-no-acceptance", "nonempty-invalid", "nonempty-nondeterministic",
        "nonempty-two-accepting", "nonempty-accepting-exits", "nonuniv-incomplete",
        "ackermann-negative"])
def test_input_checks(call, error, message):
    raises_exactly(call, error, message)
