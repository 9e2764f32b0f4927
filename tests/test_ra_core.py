import itertools
import random

import pytest
from hypothesis import given, strategies as st

from regsync.ra import (
    TRUE,
    Acceptance,
    And,
    Eq,
    Not,
    StructuralError,
    complete_with_sink,
    completeness_gap,
    determinism_conflict,
    eval_constraint,
    guard_mask,
    is_complete,
    is_deterministic,
    or_,
    neq,
    validate,
    mk_transition,
    RegisterAutomaton,
    ResourceCapError,
)
from regsync import ra
from regsync.dsl import parse_automaton
from helpers import automaton, raises_exactly, random_complete_automaton, random_guard


class TestEvalConstraint:
    def test_true_is_vacuous(self):
        assert eval_constraint(TRUE, (1, 2), 99)
        assert eval_constraint(TRUE, (), 0)

    def test_disjunction_over_mixed_valuation(self):
        # ((=r1 and =r2) or !=r3) on valuation (d1,d2,d1) reading d2, d1 != d2
        guard = or_(And(Eq(0), Eq(1)), neq(2))
        assert eval_constraint(guard, (1, 2, 1), 2)

    def test_negated_equality_on_equal_datum(self):
        assert not eval_constraint(neq(0), (5,), 5)

    def test_out_of_range_register(self):
        with pytest.raises(StructuralError):
            eval_constraint(Eq(3), (1, 2), 1)

    @given(st.integers(1, 3), st.data())
    def test_bijection_equivariance(self, k, data):
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        guard = random_guard(rng, k, depth=3)
        valuation = tuple(data.draw(st.integers(0, 4)) for _ in range(k))
        datum = data.draw(st.integers(0, 4))
        values = sorted(set(valuation) | {datum})
        image = random.Random(data.draw(st.integers(0, 10**6))).sample(range(10, 30), len(values))
        pi = dict(zip(values, image))
        assert eval_constraint(guard, valuation, datum) == eval_constraint(
            guard, tuple(pi[v] for v in valuation), pi[datum])


def realize(sigma, k):
    """A concrete (valuation, datum) whose atom assignment is `sigma`: the
    registers in sigma hold the datum 0, the others distinct nonzero data."""
    return tuple(0 if sigma >> j & 1 else j + 1 for j in range(k)), 0


class TestGuardMask:
    @given(st.integers(0, 3), st.integers(0, 10**6))
    def test_bits_agree_with_concrete_evaluation(self, k, seed):
        guard = random_guard(random.Random(seed), k, depth=4)
        mask = guard_mask(guard, k)
        assert mask >> (1 << k) == 0
        for sigma in range(1 << k):
            assert bool(mask >> sigma & 1) == eval_constraint(guard, *realize(sigma, k))


class TestCompiledMasks:
    TEXT = ("automaton t\nregisters 2\nalphabet a b\nlocation p\nlocation q\n"
            "trans p -> q on a when =r0 & !=r1 set *\n"
            "trans p -> p on a when !(=r0 & !=r1)\n"
            "trans p -> q on b when =r0  &\t!=r1\n"
            "trans q -> p on a when true set r0\n"
            "trans q -> q on b when true\n"
            "trans p -> p on b when !(=r0 & !=r1)\n")

    def test_one_mask_per_distinct_parsed_guard(self, monkeypatch, empty_guard_table):
        calls = []

        def counting(guard, k):
            calls.append(guard)
            return guard_mask(guard, k)

        monkeypatch.setattr(ra, "guard_mask", counting)
        aut = parse_automaton(self.TEXT)
        assert aut.compiled.masks == tuple(guard_mask(t.guard, aut.registers) for t in aut.transitions)
        assert len(calls) == 3  # "=r0 & !=r1", "!(=r0 & !=r1)" and "true"
        # Another document with the same guard texts shares their guards and masks.
        other = parse_automaton(self.TEXT.replace("automaton t", "automaton u")
                                .replace("when true", "when  true"))
        assert other.compiled.masks == aut.compiled.masks
        assert [t.guard for t in other.transitions] == [t.guard for t in aut.transitions]
        assert all(t.guard is u.guard for t, u in zip(other.transitions, aut.transitions))
        assert len(calls) == 3

    def test_equal_but_distinct_guard_objects(self):
        aut = automaton("t", ["p"], 2, ["a", "b"], [
            ("p", "a", And(Eq(0), neq(1)), (), "p"),
            ("p", "a", Not(And(Eq(0), neq(1))), (), "p"),
            ("p", "b", And(Eq(0), neq(1)), {0}, "p"),
            ("p", "b", Not(And(Eq(0), neq(1))), (), "p"),
        ])
        ts = aut.transitions
        assert ts[0].guard == ts[2].guard and ts[0].guard is not ts[2].guard
        assert aut.compiled.masks == tuple(guard_mask(t.guard, 2) for t in ts)
        assert aut.compiled.masks[0] == aut.compiled.masks[2] != aut.compiled.masks[1]


class TestTransition:
    def test_fields_in_order(self):
        assert ra.Transition._fields == ("source", "letter", "guard", "update", "target")
        t = mk_transition(0, 1, Eq(0), [1, 0], 2)
        assert tuple(t) == (t.source, t.letter, t.guard, t.update, t.target) \
            == (0, 1, Eq(0), frozenset({0, 1}), 2)
        with pytest.raises(AttributeError):
            t.target = 0

    def test_equality_and_hashing(self):
        t = mk_transition(0, 1, And(Eq(0), TRUE), (0,), 2)
        twin = ra.Transition(0, 1, And(Eq(0), TRUE), frozenset({0}), 2)
        assert t == twin and hash(t) == hash(twin) and len({t, twin}) == 1
        for other in (mk_transition(1, 1, And(Eq(0), TRUE), (0,), 2),
                      mk_transition(0, 0, And(Eq(0), TRUE), (0,), 2),
                      mk_transition(0, 1, Eq(0), (0,), 2),
                      mk_transition(0, 1, And(Eq(0), TRUE), (), 2),
                      mk_transition(0, 1, And(Eq(0), TRUE), (0,), 1)):
            assert t != other

    def test_repr(self):
        assert repr(mk_transition(0, 1, Not(Eq(2)), {1}, 3)) == (
            "Transition(source=0, letter=1, guard=Not(operand=Eq(register=2)), "
            "update=frozenset({1}), target=3)")


class TestValidate:
    def test_well_formed_gadget(self):
        from regsync.gadgets import gen_chain_dra

        assert validate(gen_chain_dra(2)) == []

    def test_guard_register_out_of_range(self):
        aut = automaton("bad", ["q0"], 3, ["a"], [("q0", "a", Eq(5), (), "q0")])
        diags = validate(aut)
        assert [d.code for d in diags] == ["guard-register-range"]

    def test_negative_guard_register(self):
        from regsync.semantics import engine_for

        assert guard_mask(Eq(-1), 2) == 0
        assert guard_mask(Not(Eq(-1)), 2) == 0b1111
        aut = automaton("bad", ["q0"], 2, ["a"], [("q0", "a", Eq(-1), (), "q0")])
        assert [d.code for d in validate(aut)] == ["guard-register-range"]
        assert not is_complete(aut)
        with pytest.raises(StructuralError, match="guard register out of range"):
            engine_for(aut)

    def test_update_register_out_of_range(self):
        aut = automaton("bad", ["q0"], 2, ["a"],
                        [("q0", "a", TRUE, {0}, "q0"), ("q0", "a", TRUE, {-1, 1, 2}, "q0"),
                         ("q0", "a", TRUE, {0, 2}, "q0"), ("q0", "a", TRUE, {-1}, "q0")])
        diags = validate(aut)
        assert [(d.code, d.message) for d in diags] == [
            ("update-register-range", "transition 1: update register out of range: [-1, 2]"),
            ("update-register-range", "transition 2: update register out of range: [2]"),
            ("update-register-range", "transition 3: update register out of range: [-1]")]

    def test_duplicate_location_name(self):
        aut = RegisterAutomaton("bad", ("q", "q"), 0, ("a",), ())
        assert any(d.code == "duplicate-name" for d in validate(aut))

    def test_initial_update_rule(self):
        aut = automaton(
            "bad", ["q0", "q1"], 1, ["a"],
            [("q0", "a", TRUE, (), "q1"), ("q1", "a", TRUE, {0}, "q1")],
            acceptance=("q0", ["q1"]))
        diags = validate(aut)
        assert [d.code for d in diags] == ["initial-update-rule"]

    def test_no_locations(self):
        from regsync.dra import synchronizing_word_dra
        from regsync.nra import SearchBudget, bounded_sync_search
        from regsync.semantics import engine_for

        aut = RegisterAutomaton("empty", (), 1, ("a",), ())
        assert [d.code for d in validate(aut)] == ["no-locations"]
        with pytest.raises(StructuralError, match="no locations"):
            engine_for(aut)
        with pytest.raises(StructuralError, match="no locations"):
            synchronizing_word_dra(aut)
        with pytest.raises(StructuralError, match="no locations"):
            bounded_sync_search(aut, SearchBudget(3))

    def test_dangling_ids(self):
        aut = RegisterAutomaton("bad", ("q",), 1, ("a",),
                                (mk_transition(0, 5, TRUE, (), 9),))
        codes = {d.code for d in validate(aut)}
        assert codes == {"dangling-id"}


def _one_location(registers=1, transitions=(), acceptance=None):
    return RegisterAutomaton("bad", ("q",), registers, ("a",), tuple(transitions), acceptance)


@pytest.mark.parametrize("call, error, message", [
    (lambda: ra.disj([]), ValueError, "disjunction of nothing (no False constraint exists)"),
    (lambda: ra.check_validated(_one_location(transitions=[mk_transition(3, 0, TRUE, (), 0)])),
     StructuralError, "transition 0: source 3 out of range"),
    (lambda: ra.check_validated(_one_location(acceptance=Acceptance(2, frozenset()))),
     StructuralError, "initial location 2 out of range"),
    (lambda: ra.check_validated(_one_location(acceptance=Acceptance(0, frozenset({4})))),
     StructuralError, "accepting location 4 out of range"),
    (lambda: ra.check_validated(_one_location(registers=-1)),
     StructuralError, "negative register count -1"),
    (lambda: ra.check_validated(_one_location(registers=7)),
     ResourceCapError, "k=7 exceeds the assignment-enumeration cap 6"),
], ids=["disj-empty", "source-out-of-range", "initial-out-of-range",
        "accepting-out-of-range", "negative-k", "k-over-cap"])
def test_input_checks(call, error, message):
    raises_exactly(call, error, message)


def brute_force_cells(aut, pool):
    """Concrete (location, letter, valuation, datum) successor counts."""
    counts = {}
    for loc in range(len(aut.locations)):
        for letter in range(len(aut.alphabet)):
            for valuation in itertools.product(pool, repeat=aut.registers):
                for datum in pool:
                    n = sum(
                        1 for t in aut.transitions
                        if t.source == loc and t.letter == letter
                        and eval_constraint(t.guard, valuation, datum))
                    counts[(loc, letter, valuation, datum)] = n
    return counts


def first_gap_and_conflict(aut):
    """The first uncovered (location, letter, sigma) and the first
    (location, letter, sigma, i, j) with two enabled transitions i < j, in
    location, letter, sigma order, by concrete evaluation."""
    gap = conflict = None
    for loc in range(len(aut.locations)):
        for letter in range(len(aut.alphabet)):
            for sigma in range(1 << aut.registers):
                valuation, datum = realize(sigma, aut.registers)
                enabled = [i for i, t in enumerate(aut.transitions)
                           if t.source == loc and t.letter == letter
                           and eval_constraint(t.guard, valuation, datum)]
                if gap is None and not enabled:
                    gap = (loc, letter, sigma)
                if conflict is None and len(enabled) > 1:
                    conflict = (loc, letter, sigma, enabled[0], enabled[1])
    return gap, conflict


class TestCompletenessDeterminism:
    def test_chain_is_complete_deterministic(self):
        from regsync.gadgets import gen_chain_dra

        aut = gen_chain_dra(2)
        assert is_complete(aut)
        assert is_deterministic(aut)

    def test_counter_is_nondeterministic(self):
        from regsync.gadgets import gen_counter_nra

        aut = gen_counter_nra(2)
        assert is_complete(aut)
        assert not is_deterministic(aut)

    def test_missing_inequality_case(self):
        aut = automaton("gapped", ["q0"], 1, ["a"], [("q0", "a", Eq(0), (), "q0")])
        gap = completeness_gap(aut)
        assert gap == (0, 0, 0)  # the all-atoms-false cell is uncovered
        assert not is_complete(aut)

    def test_empty_transitions_vacuously_deterministic(self):
        aut = RegisterAutomaton("empty", ("q",), 1, ("a",), ())
        assert is_deterministic(aut)

    def test_agrees_with_brute_force(self):
        rng = random.Random(7)
        for _ in range(60):
            k = rng.randint(0, 2)
            aut = random_complete_automaton(
                rng, rng.randint(1, 3), k, rng.randint(1, 2),
                deterministic=rng.random() < 0.5)
            counts = brute_force_cells(aut, range(k + 1))
            assert is_complete(aut) == all(n >= 1 for n in counts.values())
            assert is_deterministic(aut) == all(n <= 1 for n in counts.values())
            holed = RegisterAutomaton(aut.name, aut.locations, k, aut.alphabet,
                                      tuple(t for t in aut.transitions if rng.random() < 0.7))
            for case in (aut, holed):
                gap, conflict = first_gap_and_conflict(case)
                assert completeness_gap(case) == gap
                assert determinism_conflict(case) == conflict

    def test_determinism_witness(self):
        aut = automaton("nd", ["q0", "q1"], 1, ["a"],
                        [("q0", "a", TRUE, {0}, "q0"),
                         ("q0", "a", Eq(0), (), "q1")])
        loc, letter, sigma, first, second = determinism_conflict(aut)
        assert (loc, letter) == (0, 0)
        assert sigma == 1  # both fire exactly when the input matches r0
        assert first != second

    def test_register_cap(self):
        aut = RegisterAutomaton("big", ("q",), 9, ("a",),
                                (mk_transition(0, 0, TRUE, (), 0),))
        with pytest.raises(ResourceCapError):
            is_complete(aut)


class TestCompleteWithSink:
    def test_idempotent_on_complete(self):
        from regsync.gadgets import gen_chain_dra

        aut = gen_chain_dra(2)
        assert complete_with_sink(aut) is aut

    def test_no_transitions_single_letter(self):
        aut = RegisterAutomaton("none", ("q",), 1, ("a",), ())
        done = complete_with_sink(aut)
        assert len(done.locations) == 2
        assert is_complete(done)
        # every input reaches the sink
        assert all(t.target == 1 for t in done.transitions if t.source == 0)

    def test_sink_name_is_fresh(self):
        aut = automaton("gapped", ["sink", "sink'"], 1, ["a"],
                        [("sink", "a", TRUE, (), "sink'"), ("sink'", "a", Eq(0), (), "sink")])
        assert complete_with_sink(aut).locations == ("sink", "sink'", "sink''")

    def test_sink_receives_inequality_case(self):
        aut = automaton("gapped", ["q0"], 1, ["a"], [("q0", "a", Eq(0), (), "q0")])
        done = complete_with_sink(aut)
        assert is_complete(done)
        added = [t for t in done.transitions if t.source == 0 and t.target == 1]
        assert len(added) == 1
        assert added[0].guard == Not(Eq(0))

    def test_preserves_determinism(self):
        rng = random.Random(11)
        for _ in range(40):
            k = rng.randint(0, 2)
            aut = random_complete_automaton(rng, rng.randint(1, 3), k, 2, deterministic=True)
            # punch holes by dropping transitions
            kept = tuple(t for t in aut.transitions if rng.random() < 0.7)
            holed = RegisterAutomaton(aut.name, aut.locations, aut.registers,
                                      aut.alphabet, kept, None)
            done = complete_with_sink(holed)
            assert is_complete(done)
            assert is_deterministic(done)
