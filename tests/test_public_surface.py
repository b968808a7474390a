"""The top-level ``repro`` facade exports exactly what its readers import.

README.md, ``docs/``, ``examples/`` and the paper benches are the callers
of ``from repro import ...``; every other caller imports from the
defining module.  A name added to ``repro.__all__`` that none of them
imports, or a name they import that the facade dropped, fails here.
"""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[1]

_IMPORT = re.compile(r"from repro import (?:\(([^)]*)\)|([^\n(]*))")


def _facade_imports() -> set[str]:
    files = [ROOT / "README.md", *(ROOT / "docs").glob("*.md"),
             *(ROOT / "examples").glob("*.py"),
             *(ROOT / "benchmarks").glob("*.py")]
    names = set()
    for path in files:
        for match in _IMPORT.finditer(path.read_text()):
            body = re.sub(r"#[^\n]*", "", match.group(1) or match.group(2))
            for item in body.split(","):
                name = item.split(" as ")[0].strip(" \\\n")
                if name:
                    names.add(name)
    # ``from repro import constants`` imports a module, not a facade name.
    return {name for name in names
            if importlib.util.find_spec(f"repro.{name}") is None}


def test_facade_exports_exactly_what_readers_import():
    assert sorted(repro.__all__) == sorted(_facade_imports())
