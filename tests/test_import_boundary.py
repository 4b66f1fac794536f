"""`import diracdeform.cli` loads only what a subcommand can run.

A job runs from source, so start-up compiles every line of every module
that the CLI imports.  The closure starts from every definition in
cli.py and every module-level statement of those modules, and adds each
top-level def or class whose name appears as a Name or an Attribute in
what it has reached.  Any name match counts as a use, so the closure is
conservative.  A definition outside it belongs in a library module that
the CLI does not import (`LIBRARY`), or in tests/*_oracles.py.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
LIBRARY = ["diracdeform.algebroid", "diracdeform.courant_theory",
           "diracdeform.dirac_theory", "diracdeform.numeric"]
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unreached(sources, root):
    """Names "module.name" of the top-level definitions of `sources`
    ({module: source text}) outside the closure from `root`'s
    definitions and every module-level statement."""
    defs, todo, reached = {}, [], set()
    for module, text in sources.items():
        for st in ast.parse(text).body:
            if isinstance(st, DEFS):
                defs[module, st.name] = st
                if module == root:
                    reached.add((module, st.name))
                    todo.append(st)
            else:
                todo.append(st)
    used = set()
    while todo:
        used.update(n.id if isinstance(n, ast.Name) else n.attr
                    for n in ast.walk(todo.pop())
                    if isinstance(n, (ast.Name, ast.Attribute)))
        for key, st in defs.items():
            if key not in reached and key[1] in used:
                reached.add(key)
                todo.append(st)
    return sorted(f"{m}.{n}" for m, n in defs if (m, n) not in reached)


@pytest.fixture(scope="module")
def loaded():
    """sys.modules of a fresh process after `import diracdeform.cli`."""
    p = subprocess.run(
        [sys.executable, "-c", "import json, sys, diracdeform.cli; "
         "print(json.dumps(sorted(sys.modules)))"],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)))
    return json.loads(p.stdout)


def test_every_definition_the_cli_loads_is_reachable(loaded):
    package = [m for m in loaded if m.split(".")[0] == "diracdeform"]
    sources = {}
    for module in package:
        path = SRC.joinpath(*module.split("."))
        path = path / "__init__.py" if path.is_dir() else \
            path.with_suffix(".py")
        sources[module] = path.read_text()
    assert "diracdeform.cli" in sources
    assert unreached(sources, "diracdeform.cli") == []


def test_library_modules_and_numpy_stay_out(loaded):
    assert [m for m in LIBRARY + ["numpy"] if m in loaded] == []


def test_closure_names_what_no_root_reaches():
    sources = {
        "pkg.cli": "from . import lib\n\ndef main():\n    lib.used()\n",
        "pkg.lib": ("X = helper_of_x()\n\ndef helper_of_x():\n    pass\n\n"
                    "def used():\n    inner()\n\ndef inner():\n    pass\n\n"
                    "def unused():\n    used()\n\nclass Orphan:\n    pass\n"),
    }
    assert unreached(sources, "pkg.cli") == ["pkg.lib.Orphan",
                                             "pkg.lib.unused"]
