import pathlib
import random
import re
from collections import Counter

import pytest

from regsync import dra
from regsync.dra import (
    Dfa,
    InconclusiveError,
    NotShrinkable,
    ShrinkResult,
    dfa_synchronizing_word,
    dra1_decide,
    inequality_update_check,
    pairwise_merge_word,
    shrink_word,
    synchronizing_word_dra,
)
from regsync.dsl import parse_automaton
from regsync.gadgets import gen_chain_dra
from regsync.oracle import OracleParams, oracle_is_synchronizing, oracle_search
from regsync.ra import TRUE, Eq, RegisterAutomaton, StructuralError, mk_transition, neq
from regsync.semantics import (
    abstract_run,
    choice_of_word,
    engine_for,
    is_synchronized,
    word_data,
)
from helpers import (
    automaton,
    concrete_merge,
    pair_state_shrink,
    raises_exactly,
    random_complete_automaton,
    reference_orbit_key,
    reference_update_reachability,
)

DATA = pathlib.Path(__file__).parent / "data"

# A 2-register DRA whose shrink needs 2 nodes and whose two merges reach 9
# and 8 orbits: a budget of 9 is enough per merge call, not for their sum.
TWO_MERGES = """\
automaton two_merges
registers 2
alphabet a b
location q0
location q1
location q2
trans q0 -> q1 on a when =r0 & =r1 set r0
trans q0 -> q0 on a when !=r0 & !=r1 | =r0 & !=r1 | !=r0 & =r1 set *
trans q0 -> q0 on b when !=r0 & =r1 | =r0 & =r1 set r0
trans q0 -> q0 on b when !=r0 & !=r1 | =r0 & !=r1
trans q1 -> q2 on a when true set *
trans q1 -> q1 on b when !=r0 & !=r1 set r1
trans q1 -> q2 on b when !=r0 & =r1 | =r0 & =r1
trans q1 -> q2 on b when =r0 & !=r1
trans q2 -> q0 on a when true
trans q2 -> q1 on b when !=r0 & !=r1 | =r0 & =r1 set r0
trans q2 -> q1 on b when =r0 & !=r1 set *
trans q2 -> q0 on b when !=r0 & =r1
"""


def never_updating_loop(k=1):
    return RegisterAutomaton("stuck", ("q",), k, ("a",),
                             (mk_transition(0, 0, TRUE, (), 0),))


def full_update_loop():
    return RegisterAutomaton("easy", ("q",), 1, ("a",),
                             (mk_transition(0, 0, TRUE, {0}, 0),))


class TestInequalityUpdateCheck:
    def test_chain(self):
        aut = gen_chain_dra(2)
        assert all(inequality_update_check(aut))

    def test_never_updating(self):
        assert inequality_update_check(never_updating_loop()) == [False]

    def test_direct_full_update(self):
        aut = automaton("direct", ["q0"], 2, ["a"],
                        [("q0", "a", TRUE, {0, 1}, "q0")])
        assert inequality_update_check(aut) == [True]

    def test_equality_only_update_does_not_count(self):
        aut = automaton("eqonly", ["q0"], 1, ["a"],
                        [("q0", "a", Eq(0), {0}, "q0"),
                         ("q0", "a", neq(0), (), "q0")])
        assert inequality_update_check(aut) == [False]

    @pytest.mark.parametrize("generalized", [False, True])
    def test_submask_table_agrees_with_reference(self, generalized):
        rng = random.Random(17)
        verdicts = Counter()
        for i in range(150):
            aut = random_complete_automaton(rng, rng.randint(1, 4), i % 5, rng.randint(1, 2),
                                            deterministic=True)
            got = dra._update_reachability(aut, generalized)
            assert got == reference_update_reachability(aut, generalized)
            verdicts.update(got)
        assert verdicts[True] and verdicts[False]


class TestShrink:
    def test_chain3(self):
        aut = gen_chain_dra(3)
        result = shrink_word(aut)
        assert isinstance(result, ShrinkResult)
        assert len(word_data(result.word)) <= 3
        l3, l3p = aut.location_index("l3"), aut.location_index("l3'")
        synch = aut.location_index("synch")
        assert {loc for loc, _ in result.residual} <= {l3, l3p, synch}
        # residual valuations draw only on the word's data
        data = set(word_data(result.word))
        assert all(set(vals) <= data for _, vals in result.residual)

    def test_single_full_update_loop(self):
        result = shrink_word(full_update_loop())
        assert isinstance(result, ShrinkResult)
        assert len(result.word) == 1
        assert len(result.residual) == 1

    def test_never_updating(self):
        result = shrink_word(never_updating_loop())
        assert result == NotShrinkable(0)

    def test_requires_dra(self):
        nra = RegisterAutomaton("nd", ("q",), 1, ("a",),
                                (mk_transition(0, 0, TRUE, {0}, 0),
                                 mk_transition(0, 0, TRUE, (), 0)))
        with pytest.raises(StructuralError):
            shrink_word(nra)

    def test_residual_matches_abstract_run(self):
        rng = random.Random(17)
        for _ in range(25):
            aut = random_complete_automaton(rng, rng.randint(1, 3), rng.randint(0, 2),
                                            rng.randint(1, 2), deterministic=True)
            result = shrink_word(aut)
            if isinstance(result, NotShrinkable):
                continue
            aset = abstract_run(aut, choice_of_word(result.word))
            concrete = {(loc, tuple(word_data(result.word)[v] for v in vals))
                        for loc, vals in aset.configs}
            assert concrete == set(result.residual)


    def test_agrees_with_pair_state_shrink(self):
        rng = random.Random(78)
        cases = [(random_complete_automaton(rng, rng.randint(1, 5), k, rng.randint(1, 2),
                                            deterministic=True), 20_000)
                 for k in (1, 2, 3) for _ in range(20)]
        cases += [(random_complete_automaton(rng, rng.randint(2, 5), 4, 2, deterministic=True),
                   1_000) for _ in range(20)]
        outcomes = Counter()
        for aut, budget in cases:
            try:
                expected, spent = pair_state_shrink(aut, budget)
            except InconclusiveError:
                try:
                    result = shrink_word(aut, budget)
                except InconclusiveError:
                    continue
                outcomes["newly decided"] += 1
                if isinstance(result, ShrinkResult):
                    aset = abstract_run(aut, choice_of_word(result.word))
                    assert all(v >= 0 for _, vals in aset.configs for v in vals)
                # The reference reaches the same answer, NotShrinkable included,
                # with ten times the budget.
                assert pair_state_shrink(aut, 10 * budget)[0] == result
                continue
            # The same answer, and within the reference's budget.
            assert shrink_word(aut, spent) == expected
            outcomes[type(expected).__name__, spent > 0] += 1
        assert outcomes["ShrinkResult", True] > 35 and outcomes["NotShrinkable", True] > 0
        assert outcomes["NotShrinkable", False] > 0 and outcomes["newly decided"] > 0


class TestPrunedShrink:
    """Decide seed 1's query 1088: the pruned shrink search decides it within
    the benchmark's 1 000-node budget, which the unpruned search ran out of."""

    @pytest.fixture(scope="class")
    def aut(self):
        return parse_automaton((DATA / "shrink_pruned.ra").read_text())

    def test_same_shrink_as_the_reference(self, aut):
        result = shrink_word(aut, 1000)
        assert isinstance(result, ShrinkResult)
        assert result == pair_state_shrink(aut, 100_000)[0]
        with pytest.raises(InconclusiveError):
            pair_state_shrink(aut, 1000)

    def test_word_synchronizes(self, aut):
        word = synchronizing_word_dra(aut, 1000)
        assert word is not None and oracle_is_synchronizing(aut, word)


class TestPairwiseMerge:
    def test_chain3_final_merge(self):
        aut = gen_chain_dra(3)
        l3, l3p = aut.location_index("l3"), aut.location_index("l3'")
        synch = aut.location_index("synch")
        q1, q2 = (l3, (0, 1, 2)), (l3p, (0, 1, 2))
        word = pairwise_merge_word(aut, q1, q2, range(7))
        assert word is not None and len(word) == 1
        letter, datum = word[0]
        assert datum in {3, 4, 5, 6}  # any datum distinct from the stored three
        from regsync.semantics import post_set

        assert post_set(aut, [q1, q2], word) == frozenset({(synch, (datum,) * 3)})

    def test_equal_configurations_need_nothing(self):
        aut = gen_chain_dra(1)
        q = (0, (0,))
        assert pairwise_merge_word(aut, q, q, range(3)) == ()

    def test_disjoint_sinks_never_merge(self):
        aut = automaton("twosinks", ["q0", "q1"], 0, ["a"],
                        [("q0", "a", TRUE, (), "q0"), ("q1", "a", TRUE, (), "q1")])
        assert pairwise_merge_word(aut, (0, ()), (1, ()), [0]) is None

    def test_pool_size_enforced(self):
        aut = gen_chain_dra(1)
        with pytest.raises(ValueError):
            pairwise_merge_word(aut, (0, (0,)), (1, (0,)), [0, 1])

    @pytest.mark.parametrize("q", [(-1, (0,)), (4, (0,)), (0, (0, 1))],
                             ids=["negative location", "location past the end",
                                  "two values at k = 1"])
    def test_configurations_checked(self, q):
        aut = gen_chain_dra(1)
        assert len(aut.locations) == 4
        with pytest.raises(ValueError, match=f"configuration {re.escape(str(q))}"):
            pairwise_merge_word(aut, q, (0, (0,)), range(3))

    def test_shortest_by_exhaustive_enumeration(self):
        rng = random.Random(29)
        import itertools

        for _ in range(15):
            aut = random_complete_automaton(rng, 2, 1, 2, deterministic=True)
            pool = [0, 1, 2]
            q1, q2 = (0, (0,)), (1, (1,))
            from regsync.semantics import post_set

            best = pairwise_merge_word(aut, q1, q2, pool)
            brute = None
            for length in range(0, 5):
                for word in itertools.product(
                        [(a, d) for a in range(2) for d in pool], repeat=length):
                    if len(post_set(aut, [q1, q2], word)) == 1:
                        brute = word
                        break
                if brute is not None:
                    break
            # itertools.product enumerates in lexicographic order
            assert best == brute

    def test_agrees_with_concrete_search(self):
        rng = random.Random(43)
        merged = unmergeable = 0
        for k in (1, 2, 3):
            for i in range(20):
                aut = random_complete_automaton(rng, rng.randint(1, 3), k, 2,
                                                deterministic=True)
                eng = engine_for(aut)
                pool = list(range(2 * k + 1))
                if i % 2:
                    rng.shuffle(pool)
                for _ in range(4):
                    q1, q2 = ((rng.randrange(len(aut.locations)),
                               tuple(rng.choice(pool) for _ in range(k))) for _ in range(2))
                    word = pairwise_merge_word(aut, q1, q2, pool)
                    assert word == concrete_merge(eng, q1, q2, pool)
                    merged += word is not None
                    unmergeable += word is None
        assert merged > 100 and unmergeable > 20

    def test_orbit_key_identifies_the_pairs_the_reference_key_does(self):
        """Random pairs, their renamings under a bijection of the pool and
        their swaps: two new keys are equal exactly when the reference keys
        are."""
        rng = random.Random(53)
        for k in range(4):
            pool = list(range(2 * k + 1))
            pairs = []
            for _ in range(50):
                pair = tuple((rng.randrange(2), tuple(rng.choice(pool) for _ in range(k)))
                             for _ in range(2))
                rename = dict(zip(pool, rng.sample(pool, len(pool))))
                renamed = tuple((loc, tuple(map(rename.get, values))) for loc, values in pair)
                pairs += [pair, renamed, pair[::-1], renamed[::-1]]
            keys = [dra._orbit_key(pair) for pair in pairs]
            reference = [reference_orbit_key(pair) for pair in pairs]
            for i in range(0, len(pairs), 4):
                assert len(set(keys[i:i + 4])) == 1
            for key, ref in zip(keys, reference):
                assert [other == key for other in keys] == [other == ref for other in reference]
            assert len(set(keys)) == len(set(reference)) > 1

    def test_node_budget(self):
        # a 3-cycle: the pair (q0, q1) visits three orbits and never merges
        aut = automaton("cycle", ["q0", "q1", "q2"], 0, ["a"],
                        [("q0", "a", TRUE, (), "q1"), ("q1", "a", TRUE, (), "q2"),
                         ("q2", "a", TRUE, (), "q0")])
        assert pairwise_merge_word(aut, (0, ()), (1, ()), [0], max_nodes=2) is None
        with pytest.raises(InconclusiveError) as info:
            pairwise_merge_word(aut, (0, ()), (1, ()), [0], max_nodes=1)
        assert info.value.phase == "merge" and info.value.explored == 2
        with pytest.raises(ValueError):
            pairwise_merge_word(aut, (0, ()), (1, ()), [0], max_nodes=-1)


class TestSynchronizingWordDra:
    def test_chain_family(self):
        for n in (1, 2, 3):
            aut = gen_chain_dra(n)
            word = synchronizing_word_dra(aut)
            assert word is not None
            assert oracle_is_synchronizing(aut, word)
            assert len(word_data(word)) <= 2 * n + 1

    def test_chain3_word_shape(self):
        word = synchronizing_word_dra(gen_chain_dra(3))
        # data-equivalent to (a,x1)(a,x2)(a,x3)(a,x4)
        assert choice_of_word(word) == choice_of_word(((0, 1), (0, 2), (0, 3), (0, 4)))

    def test_never_updating(self):
        assert synchronizing_word_dra(never_updating_loop()) is None

    def test_verified_against_abstract_semantics(self):
        rng = random.Random(31)
        for _ in range(30):
            aut = random_complete_automaton(rng, rng.randint(1, 4), rng.randint(0, 2),
                                            rng.randint(1, 2), deterministic=True)
            word = synchronizing_word_dra(aut)
            if word is not None:
                assert is_synchronized(abstract_run(aut, choice_of_word(word)))
                assert len(word_data(word)) <= 2 * aut.registers + 1


    def test_every_word_synchronizes(self):
        # the pipeline returns its word without re-walking it: each word
        # must synchronize the abstract semantics, and, where the concrete
        # enumeration over its data plus k fits, the oracle too
        rng = random.Random(71)
        words = oracle_checked = 0
        for _ in range(80):
            k = rng.randint(0, 3)
            aut = random_complete_automaton(rng, rng.randint(1, 4), k, rng.randint(1, 3),
                                            deterministic=True)
            try:
                word = synchronizing_word_dra(aut, 20_000)
            except InconclusiveError:
                continue
            if word is None:
                continue
            words += 1
            assert is_synchronized(abstract_run(aut, choice_of_word(word)))
            assert len(word_data(word)) <= 2 * k + 1
            if len(aut.locations) * (len(word_data(word)) + k) ** k <= 4_000:
                oracle_checked += 1
                assert oracle_is_synchronizing(aut, word)
        assert words >= 40 and oracle_checked >= 40

    @pytest.mark.parametrize("n_locations", [1, 2, 4])
    def test_no_registers(self, n_locations):
        # k = 0: the shrink word is empty, the merges run over the pool {0},
        # and one location leaves the whole word empty, so it gets a letter
        rng = random.Random(73 + n_locations)
        for _ in range(10):
            aut = random_complete_automaton(rng, n_locations, 0, 2, deterministic=True)
            word = synchronizing_word_dra(aut)
            if n_locations == 1:
                assert word == ((0, 0),)
            if word is not None:
                assert is_synchronized(abstract_run(aut, choice_of_word(word)))
                assert oracle_is_synchronizing(aut, word)

    def test_one_location(self):
        # no letter to append: no word; with registers the shrink word is nonempty
        assert synchronizing_word_dra(RegisterAutomaton("mute", ("q",), 0, (), ())) is None
        word = synchronizing_word_dra(full_update_loop())
        assert word == ((0, 0),)
        assert is_synchronized(abstract_run(full_update_loop(), choice_of_word(word)))

    def test_witness_agrees_with_concrete_merge(self, monkeypatch):
        rng = random.Random(47)
        auts = [random_complete_automaton(rng, rng.randint(1, 4), k, 2, deterministic=True)
                for k in (1, 2, 3) for _ in range(15)]
        words = [synchronizing_word_dra(aut) for aut in auts]
        assert sum(w is not None for w in words) > 10 and None in words
        monkeypatch.setattr(dra, "_merge", lambda eng, q1, q2, pool, max_nodes:
                            concrete_merge(eng, q1, q2, pool))
        assert [synchronizing_word_dra(aut) for aut in auts] == words

    def test_witness_agrees_with_pair_state_shrink(self, monkeypatch):
        rng = random.Random(59)
        auts = [random_complete_automaton(rng, rng.randint(1, 4), k, 2, deterministic=True)
                for k in (1, 2, 3) for _ in range(15)]

        def outcome(aut):
            try:
                return synchronizing_word_dra(aut, 20_000)
            except InconclusiveError as err:
                return err.phase

        words = [outcome(aut) for aut in auts]
        assert sum(isinstance(w, tuple) for w in words) > 10 and None in words
        monkeypatch.setattr(dra, "shrink_word", lambda aut, max_nodes:
                            pair_state_shrink(aut, max_nodes)[0])
        expected = [outcome(aut) for aut in auts]
        assert [w for w, e in zip(words, expected) if e != "shrink"] == \
            [e for e in expected if e != "shrink"]

    def test_merge_budget_is_per_call(self):
        aut = parse_automaton(TWO_MERGES)
        assert synchronizing_word_dra(aut, max_nodes=9) is not None
        with pytest.raises(InconclusiveError) as info:
            synchronizing_word_dra(aut, max_nodes=8)
        assert info.value.phase == "merge" and info.value.explored == 9
        with pytest.raises(InconclusiveError) as info:
            synchronizing_word_dra(aut, max_nodes=1)
        assert info.value.phase == "shrink"

    def test_four_registers_under_budget(self):
        rng = random.Random(53)
        outcomes = set()
        for _ in range(20):
            aut = random_complete_automaton(rng, rng.randint(2, 5), 4, 2, deterministic=True)
            try:
                word = synchronizing_word_dra(aut, max_nodes=1_000)
            except InconclusiveError as err:
                outcomes.add(err.phase)
                continue
            outcomes.add(word is not None)
            if word is not None:
                assert oracle_is_synchronizing(aut, word)
        assert outcomes >= {True, False}


class TestDfa:
    def test_one_state(self):
        dfa = Dfa(1, 1, ((0,),))
        assert dfa_synchronizing_word(dfa) == ()

    def test_two_states_merge_on_a(self):
        dfa = Dfa(2, 1, ((0,), (0,)))
        assert dfa_synchronizing_word(dfa) == (0,)

    def test_permutation_has_none(self):
        dfa = Dfa(2, 1, ((1,), (0,)))
        assert dfa_synchronizing_word(dfa) is None

    def test_totality_enforced(self):
        with pytest.raises(StructuralError):
            Dfa(2, 1, ((0,),))

    def test_cerny_c4(self):
        # the classical 4-state Cerny automaton synchronizes
        delta = ((1, 0), (2, 1), (3, 2), (0, 0))
        word = dfa_synchronizing_word(Dfa(4, 2, delta))
        assert word is not None
        states = set(range(4))
        for letter in word:
            states = {delta[s][letter] for s in states}
        assert len(states) == 1


class TestDra1Decide:
    def test_chain1(self):
        assert dra1_decide(gen_chain_dra(1))

    def test_never_updating(self):
        assert not dra1_decide(never_updating_loop())

    def test_rejects_other_arity(self):
        with pytest.raises(ValueError):
            dra1_decide(gen_chain_dra(2))

    def test_true_guarded_updating_equals_dfa(self):
        rng = random.Random(37)
        for _ in range(20):
            n, s = rng.randint(1, 3), rng.randint(1, 2)
            delta = tuple(tuple(rng.randrange(n) for _ in range(s)) for _ in range(n))
            aut = RegisterAutomaton(
                "dfaish", tuple(f"q{i}" for i in range(n)), 1,
                tuple(chr(ord("a") + i) for i in range(s)),
                tuple(mk_transition(src, a, TRUE, {0}, delta[src][a])
                      for src in range(n) for a in range(s)))
            assert dra1_decide(aut) == (dfa_synchronizing_word(Dfa(n, s, delta)) is not None)

    def test_agreement_with_pipeline_and_oracle(self):
        rng = random.Random(41)
        for _ in range(40):
            aut = random_complete_automaton(rng, rng.randint(1, 3), 1, rng.randint(1, 2),
                                            deterministic=True)
            decided = dra1_decide(aut)
            constructed = synchronizing_word_dra(aut)
            assert decided == (constructed is not None)
            oracle_result = oracle_search(aut, OracleParams(10**6, 3))
            assert decided == (oracle_result.found_length is not None)
            assert oracle_result.found_length is not None or oracle_result.saturated


@pytest.mark.parametrize("call, error, message", [
    (lambda: shrink_word(automaton("gap", ["q"], 1, ["a"], [("q", "a", Eq(0), {0}, "q")])),
     StructuralError, "automaton is not complete"),
    (lambda: pairwise_merge_word(full_update_loop(), (0, (0,)), (0, (7,)), range(3)),
     ValueError, "configuration data (7,) not within the pool"),
    (lambda: Dfa(2, 1, ((0,), (2,))), StructuralError, "transition target 2 out of range"),
], ids=["incomplete-dra", "data-outside-pool", "dfa-target-out-of-range"])
def test_input_checks(call, error, message):
    raises_exactly(call, error, message)
