import json

import pytest

from regsync.cli import main
from regsync.dsl import serialize_automaton
from regsync.gadgets import gen_chain_dra


@pytest.fixture
def chain2_file(tmp_path):
    path = tmp_path / "chain2.ra"
    path.write_text(serialize_automaton(gen_chain_dra(2)))
    return str(path)


@pytest.fixture
def fig4_file():
    import pathlib

    return str(pathlib.Path(__file__).parent / "data" / "fig4.ra")


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


class TestOtherCommands:
    def test_universality(self, capsys, tmp_path):
        path = tmp_path / "univ.ra"
        path.write_text("automaton u\nregisters 1\nalphabet a\n"
                        "location q initial accepting\n"
                        "trans q -> q on a when true set *\n")
        code, out, _ = run(capsys, "universality", str(path), "--bound", "3")
        assert code == 1 and "universal" in out

    def test_emptiness(self, capsys, tmp_path):
        path = tmp_path / "ne.ra"
        path.write_text("automaton n\nregisters 1\nalphabet a\n"
                        "location q0 initial\nlocation q1 accepting\n"
                        "trans q0 -> q1 on a when true set *\n"
                        "trans q1 -> q1 on a when true\n")
        code, out, _ = run(capsys, "emptiness", str(path), "--bound", "2")
        assert code == 0

    def test_run_word(self, capsys, chain2_file):
        code, out, _ = run(capsys, "run", chain2_file, "--word", "a:1 a:2 a:3")
        assert code == 0
        assert "synchronized" in out
        assert "(synch, (3, 3))" in out

    def test_run_partial_word(self, capsys, chain2_file):
        code, out, _ = run(capsys, "run", chain2_file, "--word", "a:1")
        assert code == 0
        assert "successor(s)" in out

    def test_oracle(self, capsys, chain2_file):
        code, out, _ = run(capsys, "oracle", chain2_file, "--max-len", "3")
        assert code == 0
        assert "min length: 3" in out
        assert "min data efficiency: 3" in out

    def test_oracle_negative(self, capsys, chain2_file):
        code, _, _ = run(capsys, "oracle", chain2_file, "--max-len", "2")
        assert code == 1

    def test_json_report(self, capsys, fig4_file):
        code, out, _ = run(capsys, "--format", "json", "sync-bounded", fig4_file,
                           "--max-len", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "sync-bounded"
        assert payload["outcome"] == "witness"
        assert set(payload["stats"]) >= {"explored", "depth", "seconds"}

    def test_stdin_input(self, capsys, monkeypatch):
        import io

        text = serialize_automaton(gen_chain_dra(1))
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, _ = run(capsys, "sync-dra", "-")
        assert code == 0

    def test_env_node_budget(self, capsys, fig4_file, monkeypatch):
        monkeypatch.setenv("REGSYNC_MAX_NODES", "3")
        code, _, _ = run(capsys, "sync-bounded", fig4_file, "--max-len", "3")
        assert code == 2

    def test_oracle_jobs_pool(self, capsys, chain2_file):
        code, out, _ = run(capsys, "--jobs", "2", "oracle", chain2_file,
                           "--max-len", "3")
        assert code == 0
        assert "min data efficiency: 3" in out
