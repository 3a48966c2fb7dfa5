"""The scripts under ``scripts/`` run end to end."""

import re
import subprocess
import sys

from conftest import CORPUS_DIR

SCRIPTS_DIR = CORPUS_DIR.parent / "scripts"


def test_run_sweeps_smoke():
    proc = subprocess.run(
        [
            sys.executable,
            str(SCRIPTS_DIR / "run_sweeps.py"),
            *("regular", "twohead", "--random-dfas", "3"),
        ],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    for name in ("regular", "twohead"):
        # The wall time and the words decided per second.
        pattern = rf"=== {name}: ok \(\d+\.\ds, \d+k words/s\)"
        assert any(re.fullmatch(pattern, line) for line in lines), name


def test_loc_smoke():
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS_DIR / "loc.py")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    *files, total = [line.split(" ") for line in proc.stdout.splitlines()]
    package = SCRIPTS_DIR.parent / "src" / "wkautomata"
    assert [name for _, name in files] == sorted(path.name for path in package.glob("*.py"))
    assert total[1] == "total"
    assert int(total[0]) == sum(int(count) for count, _ in files)
