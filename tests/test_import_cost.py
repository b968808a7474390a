"""Cold-start guard: the default import graph loads neither scipy nor networkx.

scipy is needed only for the Student-t quantile of a confidence interval
and networkx only for the topology generators and graph interop; each is
imported where it is first used.  One stray top-level import would bring
back about a second of start-up cost on every command and worker process,
so each entry point is checked in a fresh interpreter.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

_REPORT = (
    "import sys; print(sorted({m.split('.')[0] for m in sys.modules}"
    " & {'scipy', 'networkx'}))"
)


def _heavy_modules_after(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, check=True, timeout=120,
    )
    return result.stdout.strip().splitlines()[-1]


@pytest.mark.parametrize("statement", [
    "import repro",
    "from repro import *",
])
def test_import_loads_neither_scipy_nor_networkx(statement):
    assert _heavy_modules_after(f"{statement}; {_REPORT}") == "[]"


def test_cli_help_loads_neither_scipy_nor_networkx():
    code = (
        "import runpy, sys\n"
        "sys.argv = ['repro', '--help']\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__')\n"
        "except SystemExit:\n"
        "    pass\n"
        f"{_REPORT}\n"
    )
    assert _heavy_modules_after(code) == "[]"
