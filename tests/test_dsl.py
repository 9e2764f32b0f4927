import contextlib
import gc
import json
import pathlib
import random
import re
import weakref

import pytest
from hypothesis import example, given, settings, strategies as st

from regsync import dsl
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
from regsync.ra import TRUE, And, Eq, Not, RegisterAutomaton, Transition, guard_mask, validate
from regsync.semantics import FRESH, abstract_run, engine_for
from helpers import (
    automaton,
    raises_exactly,
    random_complete_automaton,
    random_guard,
    reference_parse_automaton,
    reference_parse_guard,
)


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
        # and agrees with the reference parser, diagnostics included
        assert (_outcome(lambda t: parse_guard(t, 3, 7), text)
                == _outcome(lambda t: reference_parse_guard(t, 3, 7), text))

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

    def test_gadget_roundtrips_past_the_document_table(self, empty_guard_table):
        """The second parse of each text parses every line again, against a
        guard table that already holds its guards."""
        for aut in self.gadgets():
            text = serialize_automaton(aut)
            for _ in range(2):
                dsl._DOCUMENTS.clear()  # parse the text, not a stored document
                back = parse_automaton(text)
                assert back == aut
                assert all(type(t) is Transition for t in back.transitions)

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


_HEAD = "automaton t\nregisters 0\nalphabet x\n"
_TWO_INITIAL_JSON = """{"automaton": "t", "registers": 0, "alphabet": ["x"], "transitions": [],
 "locations": [{"name": "a", "initial": true}, {"name": "b", "initial": true}]}"""


def _json_doc(locations=({"name": "a"},), **transition):
    """A one-register JSON automaton over the letter x with one transition,
    a -> a on x when true unless `transition` says otherwise."""
    entry = {"source": "a", "target": "a", "on": "x", "when": "true", **transition}
    return json.dumps({"automaton": "t", "registers": 1, "alphabet": ["x"],
                       "locations": list(locations), "transitions": [entry]})


@pytest.mark.parametrize("call, error, message", [
    (lambda: parse_automaton(_HEAD + "location\n"),
     DslError, "<inline>:4:1: expected: location <name> ..."),
    (lambda: parse_automaton(_HEAD + "location a initial\nlocation b initial\n"),
     DslError, "<inline>:5:12: second initial location"),
    (lambda: serialize_automaton(gen_chain_dra(1), "xml"),
     ValueError, "unknown format 'xml' (expected 'dsl' or 'json')"),
    (lambda: parse_automaton(_TWO_INITIAL_JSON),
     DslError, "<inline>:1:1: second initial location"),
    (lambda: parse_automaton(_json_doc(source="nowhere")),
     DslError, "<inline>:1:1: unknown location 'nowhere'"),
    (lambda: parse_automaton(_json_doc(on="zz")),
     DslError, "<inline>:1:1: unknown letter 'zz'"),
    (lambda: parse_automaton(_json_doc(source=5)),
     DslError, "<inline>:1:1: location name must be a string, not 5"),
    (lambda: parse_automaton(_json_doc([{"name": "a", "accepting": True}])),
     DslError, "<inline>:1:1: accepting locations without an initial location"),
    (lambda: parse_automaton(_json_doc(when="true set r0")),
     DslError, "<inline>:1:5: bad guard token near 'set r0'"),
], ids=["bare-location", "second-initial", "unknown-format", "json-two-initial",
        "json-unknown-source", "json-unknown-letter", "json-source-not-string",
        "json-accepting-without-initial", "json-guard-with-set"])
def test_input_checks(call, error, message):
    raises_exactly(call, error, message)


def test_json_names_that_are_dsl_words_roundtrip():
    """The DSL reads a `trans` line by word position, so its keywords are
    names like any other when the JSON mirror writes them into DSL lines."""
    text = json.dumps({
        "automaton": "->", "registers": 1, "alphabet": ["when", "set", "->"],
        "locations": [{"name": "initial", "initial": True}, {"name": "on", "accepting": True},
                      {"name": "set"}, {"name": "when"}],
        "transitions": [
            {"source": "initial", "target": "on", "on": "set", "when": "=r0", "set": ["r0"]},
            {"source": "on", "target": "set", "on": "->", "when": "!=r0"},
            {"source": "set", "target": "when", "on": "when", "when": "true", "set": ["*"]}]})
    aut = parse_automaton(text)
    assert aut.name == "->" and aut.alphabet == ("when", "set", "->")
    assert aut.locations == ("initial", "on", "set", "when")
    assert [(t.source, t.letter, t.update, t.target) for t in aut.transitions] == [
        (0, 1, frozenset({0}), 1), (1, 2, frozenset(), 2), (2, 0, frozenset({0}), 3)]
    for fmt in ("dsl", "json"):
        assert parse_automaton(serialize_automaton(aut, fmt)) == aut


# Guards are drawn as lists of pieces.  Rendered with and without spaces
# between pieces, the same pieces can tokenize differently ("=r1" "0" is
# "=r10" or a bad token; "tr" "ue" is "true" or two bad tokens), which a memo
# key that drops or invents spacing gets wrong.
ATOMS = [["=r0"], ["!=r1"], ["=r2"], ["true"], ["!", "=r0"], ["tr", "ue"], ["=r1", "0"],
         ["=r7"], ["x"]]
SPACING = ["", " ", "  ", "\t", " \t "]


@st.composite
def guard_pieces(draw, depth=2):
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        return draw(st.sampled_from(ATOMS[:4] * 4 + ATOMS))
    shape = draw(st.sampled_from(["&", "|", "!", "()", "&", "|", "bad"]))
    left = draw(guard_pieces(depth - 1))
    if shape == "!":
        return ["!"] + left
    if shape == "()":
        return ["("] + left + [")"]
    right = draw(guard_pieces(depth - 1))
    if shape == "bad":
        return left + draw(st.sampled_from([["&"], ["|"], [")"], ["("], ["!"]]))
    return left + [shape] + right


@st.composite
def dsl_texts(draw):
    """DSL documents that reuse a few guards with varied spacing, most of them
    well formed, some with broken headers, lines or guards."""
    noisy = draw(st.booleans())

    def pick(good, bad):
        return draw(st.sampled_from(good * 6 + bad if noisy else good))

    k = draw(st.sampled_from([3, 3, 3, 0, 1, 2]))
    locs = draw(st.lists(st.sampled_from(["q0", "q1", "q2", "set", "when"]), min_size=1,
                         max_size=3, unique=not noisy))
    letters = draw(st.lists(st.sampled_from(["a", "b", "set"]), min_size=1, max_size=2,
                            unique=not noisy))
    guards = draw(st.lists(guard_pieces(), min_size=1, max_size=3))
    sep = st.sampled_from(SPACING[1:])
    lines = [["automaton", pick(["t"], ["t u"])],
             ["registers", pick([str(k)], ["x", "-1", "3"])],
             ["alphabet"] + letters]
    for i, loc in enumerate(locs):
        flags = [["initial", "accepting"], ["accepting"], []][min(i, 2)]
        lines.append(["location", loc] + pick([flags, []], [["bogus"], ["initial"]]))
    for _ in range(draw(st.integers(0, 8))):
        pieces = draw(st.sampled_from(guards))
        glue = draw(st.lists(st.sampled_from(SPACING), min_size=len(pieces) - 1,
                             max_size=len(pieces) - 1))
        guard = pieces[0] + "".join(g + p for g, p in zip(glue, pieces[1:]))
        words = ["trans", pick(locs, ["qx"]), "->", draw(st.sampled_from(locs)),
                 "on", pick(letters, ["z"]), "when", guard]
        words += pick([[], ["set", "*"], ["set", "r0"], ["set", "r0", "r2"]],
                      [["set"], ["set", "q0"], ["set", "*", "r1"], ["set", "r9"]])
        lines.append(words)
    rendered = []
    for words in lines:
        line = words[0] + "".join(draw(sep) + w for w in words[1:])
        if draw(st.integers(0, 9)) == 0:
            line = draw(sep) + line + draw(sep)
        mutation = draw(st.integers(0, 11)) if noisy else 2
        if mutation == 0:
            continue
        if mutation == 1:
            at = draw(st.integers(0, len(line) - 1))
            line = line[:at] + draw(st.sampled_from(["", " ", "\t", "x", "=", "!", ")"])) + \
                line[at + 1:]
        rendered.append(line)
    return "\n".join(rendered) + draw(st.sampled_from(["", "\n", "\n\n"]))


def _outcome(parse, text):
    try:
        return parse(text)
    except DslError as err:
        return str(err), err.diagnostics


class TestAgainstReferenceParser:
    @settings(max_examples=400, deadline=None)
    @given(dsl_texts())
    def test_same_automaton_or_same_diagnostics(self, text):
        assert _outcome(parse_automaton, text) == _outcome(reference_parse_automaton, text)

    def test_repeated_bad_guard_reports_each_line(self):
        bad = "trans q -> q on a when =r0 & =rX set r0"
        shifted = "  " + bad.replace(" on ", " \ton ")
        text = ("automaton t\nregisters 1\nalphabet a\nlocation q\n"
                f"{bad}\n{shifted}\n{bad}\n")
        with pytest.raises(DslError) as err:
            parse_automaton(text)
        col = bad.index("& =rX") + 2
        message = "bad guard token near '=rX'"
        assert [(d.line, d.column, d.message) for d in err.value.diagnostics] == [
            (5, col, message), (6, col + 3, message), (7, col, message)]
        assert _outcome(parse_automaton, text) == _outcome(reference_parse_automaton, text)

    @pytest.mark.parametrize("zeros", [1, 5000])
    def test_register_count_with_non_ascii_leading_zeros(self, zeros):
        """Leading zeros of any script are stripped, as int() does: Arabic-Indic
        zeros then 3 count three registers, however many zeros there are."""
        text = _doc("w", "\u0660" * zeros + "\u0663", ["true set r\u0660\u0662"])
        aut = parse_automaton(text)
        assert aut.registers == 3 and aut.transitions[0].update == {2}
        if zeros == 1:
            assert aut == reference_parse_automaton(text)


def _doc(name, k, guards):
    lines = [f"automaton {name}", f"registers {k}", "alphabet a", "location q"]
    lines += [f"trans q -> q on a when {g}" for g in guards]
    return "\n".join(lines) + "\n"


class TestGuardTable:
    """Every document parsed in the process looks its guards up in one table."""

    def test_each_document_checks_its_own_k(self, empty_guard_table):
        wide = parse_automaton(_doc("wide", 3, ["=r0 | !=r2", "=r0"]))
        narrow = parse_automaton(_doc("narrow", 1, ["=r0"]))
        shared = narrow.transitions[0].guard
        assert shared is wide.transitions[1].guard
        assert wide.compiled.masks == (guard_mask(parse_guard("=r0 | !=r2"), 3),
                                       guard_mask(Eq(0), 3))
        assert narrow.compiled.masks == (guard_mask(Eq(0), 1),) == (0b10,)
        assert shared.mask(3) == guard_mask(Eq(0), 3) != shared.mask(1)
        text = _doc("narrow", 1, ["=r0", "=r0 | !=r2"])
        with pytest.raises(DslError) as err:
            parse_automaton(text)
        line = text.splitlines()[5]
        assert [(d.line, d.column, d.message) for d in err.value.diagnostics] == [
            (6, line.index("=r0 | !=r2") + 1, "guard register out of range: r2")]
        assert _outcome(parse_automaton, text) == _outcome(reference_parse_automaton, text)

    def test_failed_guard_is_not_stored(self, empty_guard_table):
        text = _doc("bad", 1, ["=r0", "=r0 & =rX", "(=r0"])
        with pytest.raises(DslError) as err:
            parse_automaton(text)
        assert len(err.value.diagnostics) == 2
        assert list(dsl._GUARDS) == ["=r0"]
        with pytest.raises(DslError) as again:
            parse_automaton(text)
        assert again.value.diagnostics == err.value.diagnostics

    def test_table_is_bounded(self, monkeypatch, empty_guard_table):
        cap = 4
        monkeypatch.setattr(dsl, "GUARD_TABLE_CAP", cap)
        guards = ["=r0", "=r1", "!=r0", "=r0 & =r1", "true"]  # cap + 1 distinct texts
        for name in ("one", "two"):
            text = _doc(name, 2, guards)
            assert parse_automaton(text) == reference_parse_automaton(text)
            assert len(dsl._GUARDS) <= cap
        text = _doc("three", 2, guards[::-1] + guards)
        assert parse_automaton(text) == reference_parse_automaton(text)
        assert len(dsl._GUARDS) <= cap

    def test_dsl_and_json_share_guards(self, empty_guard_table):
        aut = gen_counter_nra(2)
        from_dsl = parse_automaton(serialize_automaton(aut))
        from_json = parse_automaton(serialize_automaton(aut, "json"))
        assert from_dsl == from_json == aut
        assert all(t.guard is u.guard
                   for t, u in zip(from_dsl.transitions, from_json.transitions))

    def test_cached_facts_leave_equality_and_printing_alone(self):
        for text in ("true", "=r0 & !=r1", "!(=r0 | =r2) & true"):
            guard, twin = parse_guard(text), parse_guard(text)
            before = (hash(guard), repr(guard), format_guard(guard))
            assert guard.registers == tuple(sorted({int(c) for c in text if c.isdigit()}))
            assert guard.mask(3) == guard_mask(twin, 3)
            assert guard == twin and twin == guard
            assert (hash(guard), repr(guard), format_guard(guard)) == before
            assert hash(twin) == hash(guard) and repr(twin) == repr(guard)
            assert parse_guard(format_guard(guard)) == guard


# `trans` lines shared by the documents of one sequence: names that only
# some documents know, guards and updates that only some k allow, and lines
# that never parse.
SHARED_LINES = [
    "trans p -> q on a when =r0 set *",
    "trans q -> q on b when !=r1 & =r0 set r0",
    "trans p -> p on a when true",
    "trans  q -> p on b when =r2 | true set r2",
    "trans r -> p on a when !=r0 set * ",
    "trans q -> r on a when =r0 set r1 r0",
    "trans p -> q on z when true set *",
    "trans x -> p on a when true",
    "trans p -> p on b when =r0 & =rX",
    "trans p -> p on a when (=r0 set r0",
    "trans p -> q on a when true set r5",
    "trans p -> q on a when true set",
]
BAD_EARLIER_LINES = ["trans p -> q on a when", "trans p -> q", "bogus line"]


@st.composite
def shared_line_documents(draw):
    """Two to five documents over one handful of shared `trans` lines that
    differ in location order, alphabet, k and earlier bad lines."""
    pool = draw(st.lists(st.sampled_from(SHARED_LINES), min_size=1, max_size=5, unique=True))
    docs = []
    for i in range(draw(st.integers(2, 5))):
        # Mostly every name, so that most shared lines resolve.
        locs = draw(st.permutations(["p", "q", "r"]))[:draw(st.sampled_from([3, 3, 3, 2, 1]))]
        letters = draw(st.permutations(["a", "b"]))[:draw(st.sampled_from([2, 2, 2, 1]))]
        k = draw(st.sampled_from([1, 2, 3]))
        body = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
        if draw(st.integers(0, 3)) == 0:
            body.insert(draw(st.integers(0, len(body))), draw(st.sampled_from(BAD_EARLIER_LINES)))
        lines = [f"automaton d{i}", f"registers {k}", "alphabet " + " ".join(letters)]
        lines += [f"location {loc}" for loc in locs]
        docs.append("\n".join(lines + body) + "\n")
    return docs


class TestLineTable:
    """Documents that share `trans` lines, and so guards from the guard
    table, each parse every line against their own names and k."""

    @settings(max_examples=300, deadline=None)
    @given(shared_line_documents())
    def test_same_outcome_as_the_reference_parser(self, docs):
        saved = dsl._GUARDS
        dsl._GUARDS = {}
        try:
            for text in docs:
                assert _outcome(parse_automaton, text) == _outcome(reference_parse_automaton,
                                                                   text)
        finally:
            dsl._GUARDS = saved

    def test_stored_line_checks_the_new_k(self, empty_guard_table):
        line = "trans q -> q on a when =r0 | =r2 set r0"
        wide = f"automaton w\nregisters 3\nalphabet a\nlocation q\n{line}\n"
        narrow = f"automaton n\nregisters 1\nalphabet b a\nlocation p\nlocation q\n\n{line}\n"
        assert parse_automaton(wide) == reference_parse_automaton(wide)
        with pytest.raises(DslError) as err:
            parse_automaton(narrow)
        assert [(d.line, d.column, d.message) for d in err.value.diagnostics] == [
            (7, line.index("=r0") + 1, "guard register out of range: r2")]
        assert _outcome(parse_automaton, narrow) == _outcome(reference_parse_automaton, narrow)

    def test_set_all_takes_each_documents_k(self, empty_guard_table):
        line = "trans q -> q on a when true set *"
        for k in (1, 3, 2, 0):
            text = f"automaton t\nregisters {k}\nalphabet a\nlocation q\n{line}\n"
            assert parse_automaton(text).transitions[0].update == frozenset(range(k))

    def test_failed_line_is_not_stored(self, empty_guard_table):
        good, bad = "trans q -> q on a when =r0", "trans q -> q on a when =r0 & =rX"
        unknown, wide = "trans q -> s on a when true", "trans q -> q on a when =r1"
        text = "\n".join(["automaton t", "registers 1", "alphabet a", "location q",
                          good, bad, unknown, wide]) + "\n"
        with pytest.raises(DslError) as err:
            parse_automaton(text)
        assert len(err.value.diagnostics) == 3
        with pytest.raises(DslError) as again:
            parse_automaton(text)
        assert again.value.diagnostics == err.value.diagnostics

    def test_table_is_bounded(self, monkeypatch, empty_guard_table):
        cap = 4
        monkeypatch.setattr(dsl, "GUARD_TABLE_CAP", cap)
        guards = ["=r0", "=r1", "!=r0", "=r0 & =r1", "true"]  # cap + 1 distinct lines
        for text in (_doc("one", 2, guards), _doc("two", 2, guards[::-1] + guards)):
            for _ in range(2):
                assert parse_automaton(text) == reference_parse_automaton(text)


# Documents that repeat in the document-table tests: both formats, a text
# that differs from another only in spacing, and texts that never parse.
DOCUMENTS = [
    serialize_automaton(gen_chain_dra(1)),
    serialize_automaton(gen_chain_dra(1)).replace("registers 1", "registers  1"),
    serialize_automaton(gen_chain_dra(1), "json"),
    serialize_automaton(gen_counter_nra(1)),
    _doc("q", 2, ["=r0 | !=r1", "true"]),
    _doc("bad", 1, ["=r0 & =rX"]),
    _doc("wide", 1, ["=r2"]),
    '{"automaton": "j", "registers": 1',
    '{"automaton": "j", "registers": 1, "alphabet": "a"}',
]


@contextlib.contextmanager
def _empty_tables():
    """Every process-wide table empty inside the block; the old ones after it."""
    saved = dsl._DOCUMENTS, dsl._GUARDS
    dsl._DOCUMENTS, dsl._GUARDS = {}, {}
    try:
        yield
    finally:
        dsl._DOCUMENTS, dsl._GUARDS = saved


class TestDocumentTable:
    """A text that parsed is parsed and compiled once per process; every call
    still returns its own automaton, which builds its own Engine."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(DOCUMENTS),
                              st.sampled_from(["<inline>", "one.ra", "two.json"])),
                    min_size=1, max_size=10))
    def test_same_outcome_as_a_parse_with_every_table_empty(self, calls):
        earlier = {}
        with _empty_tables():
            for text, provenance in calls:
                doc = SourceDocument(text, provenance)
                got = _outcome(parse_automaton, doc)
                with _empty_tables():
                    assert got == _outcome(parse_automaton, doc)
                if isinstance(got, tuple):  # a DslError: its text names this call's file
                    assert got[0].startswith(f"{provenance}:")
                    assert text not in dsl._DOCUMENTS
                    continue
                stored = dsl._DOCUMENTS[text]
                assert got == stored and got is not stored
                assert got.compiled is stored.compiled
                before = earlier.setdefault(text, got)
                if before is not got:
                    assert engine_for(got) is not engine_for(before)
                assert engine_for(got) is engine_for(got)

    def test_failing_text_is_never_stored(self, empty_guard_table):
        for text in DOCUMENTS[-4:]:
            for provenance in ("one.ra", "two.ra", "one.ra"):
                with pytest.raises(DslError) as err:
                    parse_automaton(SourceDocument(text, provenance))
                assert err.value.provenance == provenance
                assert str(err.value).startswith(f"{provenance}:")
        assert dsl._DOCUMENTS == {}

    def test_table_is_bounded(self, monkeypatch, empty_guard_table):
        cap = 4
        monkeypatch.setattr(dsl, "DOCUMENT_TABLE_CAP", cap)
        texts = [_doc(f"d{i}", 1, ["=r0", "!=r0"]) for i in range(cap + 2)]
        for text in texts + texts[::-1]:
            assert parse_automaton(text) == reference_parse_automaton(text)
            assert 0 < len(dsl._DOCUMENTS) <= cap
            assert text in dsl._DOCUMENTS

    def test_engine_is_freed_with_the_automaton(self, empty_guard_table):
        text = serialize_automaton(gen_chain_dra(2))
        aut = parse_automaton(text)
        abstract_run(aut, ((0, FRESH),))  # fills the Engine's memo
        compiled = aut.compiled
        aut_ref, eng_ref = weakref.ref(aut), weakref.ref(engine_for(aut))
        del aut
        gc.collect()
        assert aut_ref() is None and eng_ref() is None
        assert dsl._DOCUMENTS[text].compiled is compiled
        again = parse_automaton(text)
        assert again.compiled is compiled
        assert "_engine" not in dsl._DOCUMENTS[text].__dict__


# Valid documents in both formats, and the words, digit runs and spaces that
# have made a text escape the parser as something other than a DslError:
# numbers longer than int() converts, nesting deeper than the interpreter's
# stack, and Unicode whitespace and digits.
SEED_DOCUMENTS = [(pathlib.Path(__file__).parent / "data" / "fig4.ra").read_text()] + [
    serialize_automaton(aut, fmt)
    for aut in (gen_chain_dra(2), gen_counter_nra(2), gen_tower_nra(2))
    for fmt in ("dsl", "json")]
HOSTILE_WORDS = [
    "=r" + "9" * 5000, "!" * 3000 + "=r0", "(" * 3000 + "=r0" + ")" * 3000,
    " | ".join(["=r0"] * 3000), "[" * 5000, '{"a": ' * 3000, "\u00b2", "r\u00b2",
    "trans", "automaton", "registers", "alphabet", "location", "initial", "accepting",
    "->", "on", "when", "set", "*", "r0", "r7", "=r0", "true", "&", "|", "!", "(", ")",
    "{", "}", "[", "]", '"', ":", ",", "null", "0", "-1", "1e999",
]
DIGIT_RUNS = ["9" * 5000, "0" * 5000 + "1", "\u0663", "\u0660\u0661", "7"]
SPACES = [" ", "\n", "\t", "\u2003", "\u00a0", "\u2028", "\x85", "\x0b", "\x1c"]


@st.composite
def mutated_documents(draw):
    """A seed document with a few words inserted or replaced, or their
    digits replaced, and perhaps cut short."""
    pieces = re.split(r"(\s+)", draw(st.sampled_from(SEED_DOCUMENTS)))  # words at even places
    words = st.sampled_from(HOSTILE_WORDS) | st.text(max_size=6)
    for _ in range(draw(st.integers(1, 3))):
        at = 2 * draw(st.integers(0, len(pieces) // 2))
        edit = draw(st.sampled_from(["insert", "replace", "digits"]))
        if edit == "insert":
            pieces[at:at] = [draw(words), draw(st.sampled_from(SPACES))]
        elif edit == "replace":
            pieces[at] = draw(words)
        else:  # in a word that has digits
            at = draw(st.sampled_from([i for i in range(0, len(pieces), 2)
                                       if re.search(r"\d", pieces[i])] or [at]))
            pieces[at] = re.sub(r"\d+", draw(st.sampled_from(DIGIT_RUNS)), pieces[at])
    text = "".join(pieces)
    if draw(st.integers(0, 3)) == 0:
        text = text[:draw(st.integers(0, len(text)))]
    return text


class TestEveryText:
    @settings(max_examples=400, deadline=None)
    @given(mutated_documents())
    @example(_doc("w", 1, ["=r" + "9" * 5000]))
    @example(_doc("w", 1, ["true set r" + "9" * 5000]))
    @example('{"automaton": ' + "[" * 5000 + "]" * 5000 + "}")
    def test_parses_or_raises_dsl_error(self, text):
        try:
            aut = parse_automaton(text)
        except DslError as err:
            assert err.diagnostics
            assert all(d.line >= 1 and d.column >= 1 for d in err.diagnostics)
        else:
            assert isinstance(aut, RegisterAutomaton)
