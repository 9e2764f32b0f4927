import json
import pathlib

import pytest

from regsync import oracle
from regsync.cli import EMPTY_WORD, main
from regsync.dsl import parse_automaton, serialize_automaton
from regsync.gadgets import gen_chain_dra, gen_counter_nra
from regsync.nra import SearchBudget, bounded_sync_search


@pytest.fixture
def chain2_file(tmp_path):
    path = tmp_path / "chain2.ra"
    path.write_text(serialize_automaton(gen_chain_dra(2)))
    return str(path)


@pytest.fixture
def fig4_file():
    return str(pathlib.Path(__file__).parent / "data" / "fig4.ra")


@pytest.fixture
def univ_file(tmp_path):
    path = tmp_path / "univ.ra"
    path.write_text("automaton u\nregisters 1\nalphabet a\n"
                    "location q initial accepting\n"
                    "trans q -> q on a when true set *\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExitCodes:
    def test_validate_ok(self, capsys, chain2_file):
        code, out, _ = run(capsys, "validate", chain2_file)
        assert code == 0 and "ok" in out

    def test_validate_diagnostics(self, capsys, tmp_path):
        path = tmp_path / "bad.ra"
        path.write_text("automaton t\nregisters 1\nalphabet a\nlocation q\n"
                        "trans q -> q on a when true\n")
        # structurally fine but incomplete is not an error; break a guard index
        path.write_text("automaton t\nregisters 1\nalphabet a\nlocation q\n"
                        "trans q -> q on a when =r5\n")
        code, _, err = run(capsys, "validate", str(path))
        assert code == 3  # caught at parse time with a position

    def test_no_locations(self, capsys, tmp_path):
        path = tmp_path / "empty.ra"
        path.write_text("automaton e\nregisters 1\nalphabet a\n")
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 1 and "no-locations: automaton has no locations" in out
        for argv in (("sync-dra",), ("sync-bounded", "--max-len", "3")):
            code, out, err = run(capsys, argv[0], str(path), *argv[1:])
            assert code == 3 and out == ""
            assert err.splitlines() == ["error: automaton has no locations"]

    @pytest.mark.parametrize("k", [7, 30_000_000])
    @pytest.mark.parametrize("fmt", ["dsl", "json"])
    def test_register_count_over_the_cap(self, capsys, tmp_path, k, fmt):
        """Rejected where the count is read, before `set *` could enumerate
        k registers; no query could compile such an automaton."""
        path = tmp_path / f"wide.{fmt}"
        if fmt == "dsl":
            path.write_text(f"automaton w\nregisters {k}\nalphabet a\nlocation q\n"
                            "trans q -> q on a when true set *\n")
            where = "2:11"
        else:
            path.write_text(json.dumps({
                "automaton": "w", "registers": k, "alphabet": ["a"],
                "locations": [{"name": "q"}],
                "transitions": [{"source": "q", "target": "q", "on": "a", "when": "true",
                                 "set": ["*"]}]}))
            where = "1:1"
        for command in ("validate", "sync-dra"):
            code, out, err = run(capsys, command, str(path))
            assert code == 3 and out == ""
            assert err.splitlines() == [f"{path}:{where}: register count {k} exceeds the cap 6"]

    @pytest.mark.parametrize("fmt", ["dsl", "json"])
    def test_register_count_past_the_digits_int_converts(self, capsys, tmp_path, fmt):
        """A count of 5 000 digits, which int() refuses, is still a
        diagnostic with a position, not a traceback."""
        count = "9" * 5000
        path = tmp_path / f"huge.{fmt}"
        if fmt == "dsl":
            path.write_text(f"automaton w\nregisters {count}\nalphabet a\nlocation q\n")
            expected = f"{path}:2:11: register count {count} exceeds the cap 6"
        else:
            path.write_text('{"automaton": "w", "registers": %s, "alphabet": ["a"], '
                            '"locations": [{"name": "q"}], "transitions": []}' % count)
            expected = f"{path}:1:1: malformed JSON automaton: "
        for command in ("validate", "sync-dra"):
            code, out, err = run(capsys, command, str(path))
            assert code == 3 and out == ""
            assert len(err.splitlines()) == 1 and err.startswith(expected)

    def test_register_count_of_arabic_indic_digits_over_the_cap(self, capsys, tmp_path):
        """5 000 Arabic-Indic threes, which int() refuses, are over the cap:
        a diagnostic with a position, not a traceback."""
        count = "\u0663" * 5000
        path = tmp_path / "arabic.ra"
        path.write_text(f"automaton w\nregisters {count}\nalphabet a\nlocation q\n",
                        encoding="utf-8")
        code, out, err = run(capsys, "validate", str(path))
        assert code == 3 and out == ""
        assert err.splitlines() == [f"{path}:2:11: register count {count} exceeds the cap 6"]

    @pytest.mark.parametrize("name, body, expected", [
        ("guard.ra", "trans q -> q on a when =r0 & !=r" + "9" * 5000,
         "5:30: guard register out of range: r999"),
        ("set.ra", "trans q -> q on a when true set r" + "9" * 5000,
         "5:33: update register r999"),
        ("deep.json", None, "1:1: bad JSON: nested too deeply"),
    ], ids=["guard-digits", "set-digits", "deep-json"])
    def test_text_past_int_or_the_stack_is_a_parse_error(self, capsys, tmp_path, name, body,
                                                          expected):
        """A register index of 5 000 digits, which int() refuses, and JSON
        nested 5 000 levels deep are diagnostics with a position, not
        tracebacks."""
        path = tmp_path / name
        if body is None:
            path.write_text('{"automaton": ' + "[" * 5000 + "]" * 5000 + "}")
        else:
            path.write_text(f"automaton w\nregisters 1\nalphabet a\nlocation q\n{body}\n")
        for command in ("validate", "sync-dra"):
            code, out, err = run(capsys, command, str(path))
            assert code == 3 and out == ""
            assert len(err.splitlines()) == 1 and err.startswith(f"{path}:{expected}")
            assert "Traceback" not in err

    @pytest.mark.parametrize("guard", [
        "!" * 3000 + "=r0",
        "(" * 3000 + "=r0" + ")" * 3000,
        " | ".join(["=r0"] * 3000),
        " & ".join(["=r0"] * 3000),
    ], ids=["not", "parens", "or-chain", "and-chain"])
    def test_deep_guard_is_a_parse_error(self, capsys, tmp_path, guard):
        path = tmp_path / "deep.ra"
        path.write_text("automaton t\nregisters 1\nalphabet a\nlocation q\n"
                        f"trans q -> q on a when {guard}\n")
        code, _, err = run(capsys, "validate", str(path))
        assert code == 3
        assert "5:" in err and "deeper than" in err and "Traceback" not in err

    def test_sync_dra_witness(self, capsys, chain2_file):
        code, out, _ = run(capsys, "sync-dra", chain2_file)
        assert code == 0
        assert "a:" in out

    def test_sync_dra_negative(self, capsys, tmp_path):
        path = tmp_path / "stuck.ra"
        path.write_text("automaton stuck\nregisters 1\nalphabet a\nlocation q\n"
                        "trans q -> q on a when true\n")
        code, out, _ = run(capsys, "sync-dra", str(path))
        assert code == 1 and "NO" in out

    def test_sync_bounded_positive_negative(self, capsys, fig4_file):
        code, out, _ = run(capsys, "sync-bounded", fig4_file, "--max-len", "3")
        assert code == 0
        code, out, _ = run(capsys, "sync-bounded", fig4_file, "--max-len", "2")
        assert code == 1

    def test_sync_bounded_budget(self, capsys, fig4_file):
        code, _, _ = run(capsys, "sync-bounded", fig4_file, "--max-len", "3",
                         "--max-nodes", "3")
        assert code == 2

    def test_parse_error(self, capsys, tmp_path):
        path = tmp_path / "junk.ra"
        path.write_text("this is not an automaton\n")
        code, _, err = run(capsys, "parse-nope" if False else "validate", str(path))
        assert code == 3
        assert "1:" in err

    def test_usage_error(self, capsys):
        assert run(capsys, "definitely-not-a-command")[0] == 3

    def test_non_ascii_register_count(self, capsys, tmp_path):
        path = tmp_path / "sup.ra"
        path.write_text("automaton t\nregisters \u00b2\nalphabet a\nlocation q\n",
                        encoding="utf-8")
        code, _, err = run(capsys, "validate", str(path))
        assert code == 3
        assert f"{path}:2:1: expected: registers <k>" in err

    def test_non_ascii_datum(self, capsys, chain2_file):
        code, _, err = run(capsys, "run", chain2_file, "--word", "a:1 a:\u00b2")
        assert code == 3
        assert "bad datum '\u00b2' (expected a natural)" in err


class TestJsonMirror:
    def write(self, tmp_path, **overrides):
        payload = json.loads(serialize_automaton(gen_chain_dra(1), "json"))
        payload.update(overrides)
        for key in ("set", "when", "source", "on"):
            if key in overrides:
                payload["transitions"][0][key] = payload.pop(key)
        if "location" in overrides:
            payload["locations"][0]["name"] = payload.pop("location")
        for key in ("initial", "accepting"):
            if key in overrides:
                payload["locations"][0][key] = payload.pop(key)
        path = tmp_path / "aut.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_roundtrip_validates(self, capsys, tmp_path):
        code, out, _ = run(capsys, "validate", self.write(tmp_path))
        assert code == 0 and "ok" in out

    @pytest.mark.parametrize("overrides, message", [
        ({"registers": "x"}, "registers must be a non-negative integer, not 'x'"),
        ({"registers": 1.5}, "registers must be a non-negative integer, not 1.5"),
        ({"registers": True}, "registers must be a non-negative integer, not True"),
        ({"registers": -1}, "registers must be a non-negative integer, not -1"),
        ({"set": ["q0"]}, "bad set ['q0']"),
        ({"set": ["r0", "*"]}, "bad set ['r0', '*']"),
        ({"set": "r0"}, "bad set 'r0'"),
        ({"transitions": [1]}, "malformed JSON automaton"),
        ({"set": ["r5"]}, "update register r5 out of range"),
        ({"set": ["r" + "9" * 5000]}, f"update register r{'9' * 5000} out of range"),
        ({"when": "=r4"}, "guard register out of range: r4"),
        ({"automaton": ["x"]}, "automaton name must be a string, not ['x']"),
        ({"location": 7}, "location name must be a string, not 7"),
        ({"alphabet": [None]}, "letter name must be a string, not None"),
        ({"alphabet": "ab"}, "alphabet must be a list of letter names, not 'ab'"),
        ({"alphabet": {"a": 1}}, "alphabet must be a list of letter names, not {'a': 1}"),
        ({"location": "l1"}, "duplicate location name 'l1'"),
        ({"alphabet": ["a", "a"]}, "duplicate letter name 'a'"),
        ({"initial": "no"}, "location flag initial must be true or false, not 'no'"),
        ({"accepting": 1}, "location flag accepting must be true or false, not 1"),
        ({"location": ""}, "location name '' must be one word"),
        ({"alphabet": ["a\tb"]}, "letter name 'a\\tb' must be one word"),
        ({"automaton": "my chain"}, "automaton name 'my chain' must be one word"),
        ({"when": 5}, "guard must be a string, not 5"),
        ({"source": "nowhere"}, "unknown location 'nowhere'"),
        ({"on": "zz"}, "unknown letter 'zz'"),
        ({"source": 5}, "location name must be a string, not 5"),
        ({"on": "a b"}, "letter name 'a b' must be one word"),
        ({"accepting": True}, "accepting locations without an initial location"),
    ], ids=["string", "float", "bool", "negative", "prefix", "star-mixed", "set-string",
            "entry", "set-range", "set-digits", "guard-range", "automaton-name", "location-name",
            "letter", "alphabet-string", "alphabet-dict", "duplicate-location",
            "duplicate-letter", "initial-string", "accepting-int", "empty-location",
            "spaced-letter", "spaced-automaton", "guard-not-string", "unknown-source",
            "unknown-letter", "source-not-string", "spaced-on", "accepting-without-initial"])
    def test_malformed_is_a_parse_error(self, capsys, tmp_path, overrides, message):
        path = self.write(tmp_path, **overrides)
        code, _, err = run(capsys, "validate", path)
        assert code == 3
        assert err.startswith(f"{path}:1:1: {message}") and "Traceback" not in err

    @pytest.mark.parametrize("overrides", [{"set": ["r5"]}, {"when": "=r4"}],
                             ids=["set-range", "guard-range"])
    def test_out_of_range_register_is_a_parse_error_for_sync_dra(self, capsys, tmp_path,
                                                                 overrides):
        path = self.write(tmp_path, **overrides)
        code, _, err = run(capsys, "sync-dra", path)
        assert code == 3 and err.startswith(f"{path}:1:1: ") and "out of range" in err

    def test_set_star_updates_every_register(self, capsys, tmp_path):
        path = self.write(tmp_path, set=["*"])
        code, out, _ = run(capsys, "validate", path)
        assert code == 0 and "ok" in out

    def test_location_name_with_a_space_is_a_parse_error(self, capsys, tmp_path):
        """The DSL that `gen` would print for it could not be parsed back."""
        path = self.write(tmp_path, location="q 0")
        code, _, err = run(capsys, "validate", path)
        assert code == 3
        assert err.startswith(f"{path}:1:1: location name 'q 0' must be one word, "
                              "non-empty and without whitespace")
        assert run(capsys, "gen", "reduce-nonuniv", "--input", path)[0] == 3

    def test_bad_json_names_the_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "automaton": }\n')
        code, _, err = run(capsys, "validate", str(path))
        assert code == 3
        assert err.startswith(f"{path}:2:16: bad JSON")


class TestGen:
    def test_gen_chain_pipes_to_sync(self, capsys, tmp_path):
        code, out, _ = run(capsys, "gen", "chain", "--n", "3")
        assert code == 0
        path = tmp_path / "gen.ra"
        path.write_text(out)
        code, out, _ = run(capsys, "sync-dra", str(path))
        assert code == 0
        witness = out.splitlines()[0]
        data = {entry.split(":")[1] for entry in witness.split()}
        assert len(data) == 4  # chain(3) needs 4 distinct data

    def test_gen_json_format(self, capsys):
        code, out, _ = run(capsys, "gen", "counter", "--n", "1",
                           "--output-format", "json")
        assert code == 0
        payload = json.loads(out[:out.rindex("}") + 1])
        assert payload["registers"] == 1

    def test_gen_reduction(self, capsys, tmp_path):
        src = tmp_path / "src.ra"
        src.write_text(
            "automaton t\nregisters 1\nalphabet a\n"
            "location q0 initial\nlocation q1 accepting\n"
            "trans q0 -> q1 on a when true set *\n"
            "trans q1 -> q1 on a when true\n")
        code, out, _ = run(capsys, "gen", "reduce-nonuniv", "--input", str(src))
        assert code == 0
        assert "reset" in out and "synch" in out

    def test_gen_needs_n(self, capsys):
        assert run(capsys, "gen", "chain")[0] == 3

    def test_gen_chain_stays_within_the_register_cap(self, capsys):
        code, out, _ = run(capsys, "gen", "chain", "--n", "6")
        assert code == 0
        assert parse_automaton(out).registers == 6
        code, out, err = run(capsys, "gen", "chain", "--n", "7")
        assert (code, out) == (3, "")
        assert "1 <= n <= 6" in err


class TestOtherCommands:
    def test_universality(self, capsys, univ_file):
        code, out, _ = run(capsys, "universality", univ_file, "--bound", "3")
        assert code == 1 and "universal" in out

    def test_emptiness(self, capsys, tmp_path):
        path = tmp_path / "ne.ra"
        path.write_text("automaton n\nregisters 1\nalphabet a\n"
                        "location q0 initial\nlocation q1 accepting\n"
                        "trans q0 -> q1 on a when true set *\n"
                        "trans q1 -> q1 on a when true\n")
        code, out, _ = run(capsys, "emptiness", str(path), "--bound", "2")
        assert code == 0

    @pytest.mark.parametrize("command, accepting", [
        ("universality", ""), ("emptiness", " accepting")])
    def test_empty_witness_is_visible(self, capsys, tmp_path, command, accepting):
        """The empty word rejects when the initial location does not
        accept, and is accepted when it does: text prints it as ε, not as a
        blank line, and JSON keeps it as ""."""
        path = tmp_path / "eps.ra"
        path.write_text("automaton e\nregisters 1\nalphabet a\n"
                        f"location q0 initial{accepting}\nlocation q1 accepting\n"
                        "trans q0 -> q1 on a when true set *\n"
                        "trans q1 -> q1 on a when true\n")
        code, out, _ = run(capsys, command, str(path), "--bound", "3")
        assert code == 0 and out.splitlines() == [EMPTY_WORD, "witness"]
        code, out, _ = run(capsys, "--format", "json", command, str(path), "--bound", "3")
        report = json.loads(out)
        assert code == 0 and report["witness"] == "" and report["stats"]["depth"] == 0

    def test_run_word(self, capsys, chain2_file):
        code, out, _ = run(capsys, "run", chain2_file, "--word", "a:1 a:2 a:3")
        assert code == 0
        assert "synchronized" in out
        assert "(synch, (3, 3))" in out

    def test_run_partial_word(self, capsys, chain2_file):
        code, out, _ = run(capsys, "run", chain2_file, "--word", "a:1")
        assert code == 0
        assert "successor(s)" in out

    def test_run_prints_in_display_order(self, capsys, chain2_file):
        # location, then word data before `?` blocks, each ascending
        code, out, _ = run(capsys, "run", chain2_file, "--word", "a:1")
        assert code == 0
        assert out.splitlines() == [
            "(l1, (1, 1))", "(l1, (1, ?0))", "(l1', (1, 1))", "(l1', (1, ?0))",
            "(l2, (1, 1))", "(l2, (1, ?0))", "(l2, (?0, 1))", "(synch, (1, 1))",
            "(l2', (1, 1))", "(l2', (1, ?0))", "(l2', (?0, 1))", "11 successor(s)"]

    def test_oracle(self, capsys, chain2_file):
        code, out, _ = run(capsys, "oracle", chain2_file, "--max-len", "3")
        assert code == 0
        assert "min length: 3" in out
        assert "min data efficiency: 3" in out

    def test_oracle_searches_the_full_pool_once(self, capsys, tmp_path, fig4_file, monkeypatch):
        # the length search over the full pool already proves that pool has a
        # word, so the data efficiency search stops short of it
        chain3 = tmp_path / "chain3.ra"
        chain3.write_text(serialize_automaton(gen_chain_dra(3)))
        search, pools = oracle.oracle_search, []

        def spy(aut, params):
            pools.append(params.data_pool_size)
            return search(aut, params)

        monkeypatch.setattr(oracle, "oracle_search", spy)
        for path, max_len, pool, searched, length, efficiency in (
                (chain3, "4", "4", [4, 1, 2, 3], 4, 4), (fig4_file, "3", "3", [3, 1, 2], 3, 2)):
            pools.clear()
            code, out, _ = run(capsys, "oracle", str(path), "--max-len", max_len, "--pool", pool)
            assert code == 0 and pools == searched
            assert f"min length: {length}\nmin data efficiency: {efficiency}\n" in out

    def test_oracle_negative(self, capsys, chain2_file):
        code, _, _ = run(capsys, "oracle", chain2_file, "--max-len", "2")
        assert code == 1

    def test_json_report(self, capsys, fig4_file, fig4, tmp_path):
        code, out, _ = run(capsys, "--format", "json", "sync-bounded", fig4_file,
                           "--max-len", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "sync-bounded"
        assert payload["outcome"] == "witness"
        assert set(payload["stats"]) >= {"explored", "queued", "pruned", "depth", "seconds"}
        expected = bounded_sync_search(fig4, SearchBudget(3))
        assert payload["stats"]["queued"] == expected.queued > 1
        assert payload["stats"]["explored"] == expected.explored
        assert payload["stats"]["pruned"] == expected.pruned
        # a search that prunes: counter(1) at length 4
        counter = gen_counter_nra(1)
        path = tmp_path / "counter1.ra"
        path.write_text(serialize_automaton(counter))
        code, out, _ = run(capsys, "--format", "json", "sync-bounded", str(path),
                           "--max-len", "4")
        stats = json.loads(out)["stats"]
        expected = bounded_sync_search(counter, SearchBudget(4))
        assert code == 0 and stats["pruned"] == expected.pruned > 0
        assert (stats["explored"], stats["queued"]) == (expected.explored, expected.queued)

    @pytest.mark.parametrize("argv", [
        ("validate", "keeps"),
        ("run", "chain2", "--word", "a:1 a:2"),
        ("oracle", "chain2", "--max-len", "3"),
    ], ids=["validate", "run", "oracle"])
    def test_json_detail_is_the_text_lines(self, capsys, chain2_file, tmp_path, argv):
        # The parser leaves the initial-update rule to validate.
        keeps = tmp_path / "keeps.ra"
        keeps.write_text("automaton t\nregisters 1\nalphabet a\nlocation q initial\n"
                         "trans q -> q on a when true\n")
        files = {"chain2": chain2_file, "keeps": str(keeps)}
        argv = [files.get(a, a) for a in argv]
        code, text, _ = run(capsys, *argv)
        json_code, out, _ = run(capsys, "--format", "json", *argv)
        payload = json.loads(out)
        lines = text.splitlines()
        assert json_code == code and lines[-1] == payload["outcome"]
        assert payload["detail"] == lines[:-1] != []

    def test_stdin_input(self, capsys, monkeypatch):
        import io

        text = serialize_automaton(gen_chain_dra(1))
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, _ = run(capsys, "sync-dra", "-")
        assert code == 0

    def test_env_node_budget(self, capsys, fig4_file, monkeypatch):
        # The budget comes from --max-nodes alone, never from the environment.
        argv = ("sync-bounded", fig4_file, "--max-len", "3")
        code, _, _ = run(capsys, *argv, "--max-nodes", "3")
        assert code == 2
        monkeypatch.delenv("REGSYNC_MAX_NODES", raising=False)
        code, unset, _ = run(capsys, *argv)
        assert code == 0
        monkeypatch.setenv("REGSYNC_MAX_NODES", "3")
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out == unset

    def test_zero_node_budget_is_honoured(self, capsys, chain2_file):
        code, out, _ = run(capsys, "sync-dra", chain2_file, "--max-nodes", "0")
        assert code == 2 and "INCONCLUSIVE" in out
        code, _, err = run(capsys, "oracle", chain2_file, "--max-len", "3", "--max-nodes", "0")
        assert code == 2 and "exceeded 0 nodes" in err

    def test_oracle_start_set_cap(self, capsys, chain2_file, monkeypatch):
        monkeypatch.setattr("regsync.oracle.START_CAP", 100)
        code, _, err = run(capsys, "oracle", chain2_file, "--max-len", "2", "--pool", "3")
        assert code == 2
        assert "start set of 150 configurations exceeds the cap 100" in err

    def test_inconclusive_names_its_phase(self, capsys, chain2_file):
        # merge_heavy.ra: a 3-register DRA whose shrink needs 11 to 20 nodes
        # and whose merge then searches a few hundred orbits exhaustively.
        heavy = str(pathlib.Path(__file__).parent / "data" / "merge_heavy.ra")
        code, out, _ = run(capsys, "--format", "json", "sync-dra", heavy, "--max-nodes", "100")
        payload = json.loads(out)
        assert code == 2 and payload["outcome"] == "INCONCLUSIVE"
        assert payload["stats"]["phase"] == "merge" and payload["stats"]["explored"] == 101
        code, out, _ = run(capsys, "--format", "json", "sync-dra", chain2_file, "--max-nodes", "0")
        assert code == 2 and json.loads(out)["stats"]["phase"] == "shrink"
        code, out, _ = run(capsys, "sync-dra", heavy, "--max-nodes", "1000")
        assert code == 1 and "NO" in out

    @pytest.mark.parametrize("argv", [
        ("sync-dra", "chain2"),
        ("oracle", "chain2", "--max-len", "3"),
        ("sync-bounded", "fig4", "--max-len", "3"),
        ("universality", "univ", "--bound", "3"),
    ], ids=["sync-dra", "oracle", "sync-bounded", "universality"])
    def test_negative_node_budget_is_a_usage_error(self, capsys, chain2_file, fig4_file,
                                                    univ_file, argv):
        files = {"chain2": chain2_file, "fig4": fig4_file, "univ": univ_file}
        argv = [files.get(a, a) for a in argv]
        code, _, err = run(capsys, *argv, "--max-nodes", "-1")
        assert code == 3 and "max_nodes must be >= 0" in err

    @pytest.mark.parametrize("argv, message", [
        (("universality", "univ", "--bound", "-1"), "bound must be >= 0"),
        (("emptiness", "univ", "--bound", "-1"), "bound must be >= 0"),
        (("sync-bounded", "fig4", "--max-len", "3", "--max-data", "-1"),
         "max_distinct_data must be >= 0"),
        (("oracle", "fig4", "--max-len", "-1"), "max_length must be >= 0"),
        (("oracle", "fig4", "--max-len", "3", "--pool", "-1"), "data_pool_size must be >= 0"),
    ], ids=["universality", "emptiness", "sync-bounded-max-data", "oracle-max-len",
            "oracle-pool"])
    def test_negative_bound_is_a_usage_error(self, capsys, fig4_file, univ_file, argv,
                                             message):
        files = {"fig4": fig4_file, "univ": univ_file}
        code, _, err = run(capsys, *[files.get(a, a) for a in argv])
        assert code == 3 and message in err

