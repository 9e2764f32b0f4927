import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "families_report.py"


def test_families_report_runs_at_desk_scale():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(SCRIPT), "--chains", "2", "--counters", "1",
                           "--towers", "1"], capture_output=True, text=True, timeout=300, env=env)
    assert done.returncode == 0, done.stderr
    assert "chain(2): witness" in done.stdout
    assert "tower(1): oracle min length" in done.stdout
