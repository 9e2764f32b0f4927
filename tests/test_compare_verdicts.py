import dataclasses
import importlib.util
import pathlib
import shutil
import subprocess
import sys

from regsync.semantics import AbstractConfigSet, sym

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "compare_verdicts.py"


def compare(other, limit=4, *extra, script=SCRIPT):
    return subprocess.run([sys.executable, str(script), str(other), "--workload", "decide",
                           "--seed", "1", "--limit", str(limit), *extra],
                          capture_output=True, text=True, timeout=300)


def test_checkout_agrees_with_itself():
    done = compare(ROOT)
    assert done.returncode == 0, done.stderr
    assert "decide seed 1: 4 queries, 0 differing verdict(s)" in done.stdout
    assert "newly decided: 0, newly undecided: 0, changed answer: 0" in done.stdout


def patched_checkout(tmp_path, patch):
    """A copy of this checkout whose perfbench client ends with `patch`."""
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
    with open(tmp_path / "perfbench" / "client.py", "a") as handle:
        handle.write(patch)
    return tmp_path


def test_a_differing_verdict_fails(tmp_path):
    patched_checkout(tmp_path, "\n_execute = execute\n\n\ndef execute(query):\n"
                     "    verdict = _execute(query)\n"
                     "    return Verdict(not verdict.decided, verdict.result, verdict.dra1)\n")
    done = compare(tmp_path, limit=2)
    assert done.returncode == 1, done.stderr
    assert "2 differing verdict(s)" in done.stdout
    assert "newly decided: 2, newly undecided: 0, changed answer: 0" in done.stdout


def numbered_patch(undecided=(), changed=()):
    """A client patch that makes the n-th query's verdict undecided for n in
    `undecided`, and gives it another answer for n in `changed`."""
    return ("\n_execute = execute\n_calls = []\n\n\ndef execute(query):\n"
            "    verdict = _execute(query)\n"
            "    _calls.append(query)\n"
            f"    if len(_calls) in {undecided!r}:\n"
            "        return Verdict(False, verdict.result, verdict.dra1)\n"
            f"    if len(_calls) in {changed!r}:\n"
            "        return Verdict(verdict.decided, 'another answer', verdict.dra1)\n"
            "    return verdict\n")


def test_each_difference_is_counted_in_its_class(tmp_path):
    # the first four queries are decided in an unpatched checkout
    this = patched_checkout(tmp_path / "this", numbered_patch(undecided=(1,)))
    shutil.copytree(ROOT / "scripts", this / "scripts",
                    ignore=shutil.ignore_patterns("__pycache__"))
    other = patched_checkout(tmp_path / "other", numbered_patch(undecided=(2,), changed=(3,)))
    done = compare(other, 4, script=this / "scripts" / "compare_verdicts.py")
    assert done.returncode == 1, done.stderr
    assert "decide seed 1: 4 queries, 3 differing verdict(s)" in done.stdout
    assert "newly decided: 1, newly undecided: 1, changed answer: 1" in done.stdout
    assert "query 0 (sync-bounded, newly undecided):" in done.stdout
    assert "query 1 (sync-dra, newly decided):" in done.stdout
    assert "query 2 (sync-dra, changed answer):" in done.stdout
    assert "query 3" not in done.stdout


def stats_patched_checkout(tmp_path, **changes):
    """A patched checkout whose bounded NRA outcomes have `changes` added to
    their statistics."""
    return patched_checkout(tmp_path, "\nimport dataclasses\n\n_execute = execute\n\n\n"
                            "def execute(query):\n"
                            "    verdict = _execute(query)\n"
                            "    result = verdict.result\n"
                            "    if query.kind in ('sync-bounded', 'universality'):\n"
                            "        result = dataclasses.replace(result, **{\n"
                            "            name: getattr(result, name) + delta\n"
                            f"            for name, delta in {changes!r}.items()}})\n"
                            "    return Verdict(verdict.decided, result, verdict.dra1)\n")


def test_search_statistics_are_not_compared(tmp_path):
    # the first query is a bounded NRA search; its statistics count work
    stats_patched_checkout(tmp_path, explored=1, queued=-1, pruned=1)
    done = compare(tmp_path, 1)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "decide seed 1: 1 queries, 0 differing verdict(s)" in done.stdout


def test_same_stats_compares_the_listed_statistics(tmp_path):
    stats_patched_checkout(tmp_path, queued=-1)
    done = compare(tmp_path, 1, "--same-stats", "explored,pruned")
    assert done.returncode == 0, done.stdout + done.stderr
    assert "decide seed 1: 1 queries, 0 differing verdict(s)" in done.stdout
    done = compare(tmp_path, 1, "--same-stats", "queued")
    assert done.returncode == 1, done.stderr
    assert "decide seed 1: 1 queries, 1 differing verdict(s)" in done.stdout
    assert "('queued'," in done.stdout


def test_same_stats_rejects_an_unknown_statistic():
    done = compare(ROOT, 1, "--same-stats", "explored,nodes")
    assert done.returncode == 2
    assert "unknown statistic 'nodes'" in done.stderr


def load_script():
    spec = importlib.util.spec_from_file_location("compare_verdicts", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_abstract_sets_compare_by_content():
    """An abstract set's signature is the one its former dataclass form had,
    so a checkout from before the change agrees with one after it."""
    script = load_script()
    legacy = dataclasses.make_dataclass(
        "AbstractConfigSet", [("configs", tuple), ("word_data_count", int)], frozen=True)
    configs = ((0, (sym(0), 1)), (2, (0, 0)))
    want = script._result(legacy(configs, 2))
    assert want == ("AbstractConfigSet", ("configs", configs), ("word_data_count", 2))
    assert script._result(AbstractConfigSet(configs[::-1] + configs, 2)) == want
    groups = {(sym(0), 1): 1 << 0, (0, 0): 1 << 2}
    assert script._result(AbstractConfigSet.from_groups(groups, 2)) == want
    assert script._result(AbstractConfigSet.from_groups(groups, 1)) != want
    assert repr(script._result(AbstractConfigSet(configs, 2))) == repr(want)
