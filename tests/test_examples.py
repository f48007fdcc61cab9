"""Smoke tests: every example script runs to completion.

The examples are deliverables; each is executed as a subprocess (with
its quick flag where one exists) and must exit 0 and print something
sensible.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "examples"

#: (script, args, a string its output must contain)
CASES = [
    ("quickstart.py", [], "paper reference"),
    ("microbench_tour.py", ["--quick"], "gray-box inference"),
    ("em3d_scaling.py", ["--quick"], "all-local floor"),
    ("stencil_exchange.py", [], "matches sequential reference: True"),
    ("histogram_am.py", [], "lost 0"),
    ("transpose_alltoall.py", [], "cycles"),
    ("samplesort_run.py", [], "globally sorted: True"),
    ("graybox_custom_machine.py", [], "inference vs definition"),
]


def test_every_example_has_a_case():
    on_disk = {p.name for p in EXAMPLES.glob("*.py")}
    covered = {name for name, _a, _m in CASES}
    assert on_disk == covered, on_disk ^ covered


@pytest.mark.parametrize("script,args,marker", CASES,
                         ids=[c[0] for c in CASES])
def test_example_runs(script, args, marker):
    # The scripts import the package from the checkout, as pytest does.
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script), *args],
        capture_output=True, text=True, timeout=300, cwd=ROOT, env=env)
    assert result.returncode == 0, result.stderr[-2000:]
    assert marker in result.stdout
