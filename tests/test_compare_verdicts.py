import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "compare_verdicts.py"


def compare(other, limit=4):
    return subprocess.run([sys.executable, str(SCRIPT), str(other), "--workload", "decide",
                           "--seed", "1", "--limit", str(limit)],
                          capture_output=True, text=True, timeout=300)


def test_checkout_agrees_with_itself():
    done = compare(ROOT)
    assert done.returncode == 0, done.stderr
    assert "decide seed 1: 4 queries, 0 differing verdict(s)" in done.stdout


def test_a_differing_verdict_fails(tmp_path):
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
    with open(tmp_path / "perfbench" / "client.py", "a") as handle:
        handle.write("\n_execute = execute\n\n\ndef execute(query):\n"
                     "    verdict = _execute(query)\n"
                     "    return Verdict(not verdict.decided, verdict.result, verdict.dra1)\n")
    done = compare(tmp_path, limit=2)
    assert done.returncode == 1, done.stderr
    assert "2 differing verdict(s)" in done.stdout
