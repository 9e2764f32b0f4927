import random

import pytest
from hypothesis import given, strategies as st

from regsync.dsl import (
    MAX_GUARD_DEPTH,
    DslError,
    SourceDocument,
    format_guard,
    parse_automaton,
    parse_guard,
    serialize_automaton,
)
from regsync.gadgets import (
    gen_chain_dra,
    gen_counter_nra,
    gen_tower_nra,
    reduce_nonuniv_to_sync,
    reduce_sync_to_nonuniv,
)
from regsync.ra import TRUE, And, Eq, Not, validate
from helpers import automaton, random_complete_automaton, random_guard


class TestGuards:
    def test_atoms(self):
        assert parse_guard("true") == TRUE
        assert parse_guard("=r3") == Eq(3)
        assert parse_guard("!=r0") == Not(Eq(0))

    def test_precedence(self):
        # ! binds tighter than &, & tighter than |
        got = parse_guard("!=r0 & =r1 | =r2")
        assert got == parse_guard("((!=r0) & =r1) | (=r2)")

    def test_or_desugars(self):
        assert parse_guard("=r0 | =r1") == Not(And(Not(Eq(0)), Not(Eq(1))))

    def test_parens_and_not(self):
        assert parse_guard("!(true & =r0)") == Not(And(TRUE, Eq(0)))

    def test_bad_token(self):
        with pytest.raises(DslError):
            parse_guard("=rX")

    def test_unbalanced(self):
        with pytest.raises(DslError):
            parse_guard("(=r0")

    @given(st.lists(st.sampled_from(["!", "(", ")", "&", "|", "=r0", "!=r1", "true", " ",
                                     "r", "="]), max_size=60).map("".join)
           | st.text(max_size=20)
           | st.builds(lambda op, n: op.join(["=r0"] * n), st.sampled_from([" & ", " | "]),
                       st.integers(1, 400))
           | st.builds(lambda op, n: op * n + "=r0", st.sampled_from(["!", "(", "!("]),
                       st.integers(1, 400)))
    def test_any_text_parses_or_raises_dsl_error(self, text):
        try:
            parse_guard(text)
        except DslError:
            pass

    def test_depth_cap_is_exact(self):
        assert parse_guard("!" * (MAX_GUARD_DEPTH - 1) + "=r0")
        with pytest.raises(DslError) as err:
            parse_guard("!" * MAX_GUARD_DEPTH + "=r0", line=4, base_col=10)
        assert (err.value.diagnostics[0].line, err.value.diagnostics[0].column) == (4, 11)
        assert parse_guard("(" * MAX_GUARD_DEPTH + "=r0" + ")" * MAX_GUARD_DEPTH) == Eq(0)
        with pytest.raises(DslError):
            parse_guard("(" * (MAX_GUARD_DEPTH + 1) + "=r0" + ")" * (MAX_GUARD_DEPTH + 1))

    @given(st.integers(0, 10**6))
    def test_format_parse_roundtrip(self, seed):
        rng = random.Random(seed)
        guard = random_guard(rng, 3, depth=4)
        assert parse_guard(format_guard(guard)) == guard


class TestAutomatonRoundTrip:
    def gadgets(self):
        yield gen_chain_dra(2)
        yield gen_counter_nra(2)
        yield gen_tower_nra(2)
        yield reduce_nonuniv_to_sync(automaton(
            "acc", ["q0", "q1"], 1, ["a"],
            [("q0", "a", TRUE, {0}, "q1"), ("q1", "a", TRUE, (), "q1")],
            acceptance=("q0", ["q1"])))
        yield reduce_sync_to_nonuniv(automaton(
            "t", ["q0"], 1, ["a"],
            [("q0", "a", TRUE, {0}, "q0")]))

    def test_gadget_roundtrips(self):
        for aut in self.gadgets():
            assert parse_automaton(serialize_automaton(aut)) == aut
            assert parse_automaton(serialize_automaton(aut, "json")) == aut

    def test_equal_values_serialize_identically(self):
        a = gen_chain_dra(2)
        b = gen_chain_dra(2)
        assert a == b
        assert serialize_automaton(a) == serialize_automaton(b)

    def test_random_roundtrips(self):
        rng = random.Random(67)
        for _ in range(1000):
            aut = random_complete_automaton(
                rng, rng.randint(1, 4), rng.randint(0, 3), rng.randint(1, 3),
                deterministic=rng.random() < 0.5,
                acceptance=rng.random() < 0.4)
            text = serialize_automaton(aut)
            assert parse_automaton(text) == aut
            assert parse_automaton(serialize_automaton(aut, "json")) == aut

    def test_acceptance_flags_roundtrip(self):
        aut = automaton("acc", ["q0", "q1"], 1, ["a"],
                        [("q0", "a", TRUE, {0}, "q1"), ("q1", "a", TRUE, (), "q1")],
                        acceptance=("q0", ["q1"]))
        back = parse_automaton(serialize_automaton(aut))
        assert back.acceptance == aut.acceptance


class TestDiagnostics:
    def test_register_out_of_range_with_position(self):
        text = ("automaton t\nregisters 2\nalphabet x\n"
                "location a\nlocation b\n"
                "trans a -> b on x when =r9\n")
        with pytest.raises(DslError) as err:
            parse_automaton(text)
        diags = err.value.diagnostics
        assert any("out of range" in d.message and d.line == 6 for d in diags)

    def test_duplicate_location(self):
        text = ("automaton t\nregisters 0\nalphabet x\n"
                "location foo\nlocation foo\n")
        with pytest.raises(DslError) as err:
            parse_automaton(text)
        assert any("duplicate location" in d.message for d in err.value.diagnostics)

    def test_unknown_letter(self):
        text = ("automaton t\nregisters 0\nalphabet x\n"
                "location a\ntrans a -> a on y when true\n")
        with pytest.raises(DslError) as err:
            parse_automaton(text)
        assert any("unknown letter" in d.message for d in err.value.diagnostics)

    def test_missing_headers(self):
        with pytest.raises(DslError) as err:
            parse_automaton("location a\n")
        messages = " ".join(d.message for d in err.value.diagnostics)
        assert "automaton" in messages and "registers" in messages

    def test_accepting_without_initial(self):
        text = ("automaton t\nregisters 0\nalphabet x\nlocation a accepting\n")
        with pytest.raises(DslError) as err:
            parse_automaton(text)
        assert any("initial" in d.message for d in err.value.diagnostics)

    def test_provenance_in_message(self):
        doc = SourceDocument("junk\n", "somewhere.ra")
        with pytest.raises(DslError) as err:
            parse_automaton(doc)
        assert "somewhere.ra" in str(err.value)

    def test_set_star_and_explicit_registers(self):
        text = ("automaton t\nregisters 2\nalphabet x\n"
                "location a\n"
                "trans a -> a on x when true set *\n"
                "trans a -> a on x when =r0 set r1 r0\n")
        aut = parse_automaton(text)
        assert aut.transitions[0].update == frozenset({0, 1})
        assert aut.transitions[1].update == frozenset({0, 1})

    def test_parsed_gadget_validates(self):
        for n in (1, 3):
            text = serialize_automaton(gen_counter_nra(n))
            assert validate(parse_automaton(text)) == []
