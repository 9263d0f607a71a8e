"""No unused imports in the package, the tests or the scripts.

An imported name must be referenced somewhere in its file or listed in
the file's ``__all__``, and every ``__all__`` entry of the package must
name an attribute of its module.  ``from __future__`` imports and the package's
``__init__`` re-exports are exempt.  Parsed with the standard ``ast``
module, so no linter needs to be installed.

Importing the package pulls in no third-party package beyond numpy,
and no process pool: ``multiprocessing`` loads only when a sweep runs
with more than one job, and networkx only when an MWPM leaves a gap
for its blossom.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path


ROOT = Path(__file__).resolve().parent.parent
PACKAGE_INIT = ROOT / "src" / "pairband" / "__init__.py"
CHECKED = sorted(
    [
        *(ROOT / "src" / "pairband").glob("*.py"),
        *(ROOT / "tests").glob("*.py"),
        *(ROOT / "scripts").glob("*.py"),
    ]
)


def unused_imports(source: str, reexports: bool = False) -> list[tuple[int, str]]:
    """(line, name) of every imported name the source never references.

    With ``reexports``, ``from ... import`` names count as used: they
    are the module's public surface.
    """
    tree = ast.parse(source)
    imported: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.append((alias.lineno, alias.asname or alias.name.split(".")[0]))
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__" or reexports:
                continue
            for alias in node.names:
                if alias.name != "*":
                    imported.append((alias.lineno, alias.asname or alias.name))

    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            used.update(
                elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)
            )
    return [(line, name) for line, name in imported if name not in used]


def test_checker_flags_only_unreferenced_names():
    source = (
        "from __future__ import annotations\n"
        "import json\n"
        "import os.path\n"
        "from math import inf, pi as PI, tau\n"
        "__all__ = ['tau']\n"
        "print(os.path.sep, PI)\n"
    )
    assert unused_imports(source) == [(2, "json"), (4, "inf")]
    assert unused_imports(source, reexports=True) == [(2, "json")]


def test_files_are_checked():
    names = {path.name for path in CHECKED}
    assert {"solver.py", "test_imports.py", "walk_set.py"} <= names


def test_no_unused_imports():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in CHECKED
        for line, name in unused_imports(path.read_text(), reexports=path == PACKAGE_INIT)
    ]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_every_all_entry_names_an_attribute():
    # Nothing star-imports, and an __all__ entry counts as a use above,
    # so a stale entry would otherwise fail no test.
    stale = []
    for path in sorted((ROOT / "src" / "pairband").glob("*.py")):
        name = "pairband" if path.stem == "__init__" else f"pairband.{path.stem}"
        module = importlib.import_module(name)
        stale += [f"{name}.{entry}" for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)]
    assert not stale, "__all__ entries with no attribute: " + ", ".join(stale)


def _loaded_by(probe: str) -> set[str]:
    """Top-level modules that running ``probe`` loads in a fresh interpreter."""
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    code = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        f"{probe}"
        "print(json.dumps(sorted({m.split('.')[0] for m in set(sys.modules) - before})))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return set(json.loads(out.stdout))


def test_package_imports_only_numpy():
    # Import time is the benchmark's setup_s: a third-party import
    # (scipy alone takes about 0.7 s, networkx about 0.15 s) must not
    # slip in unnoticed, nor concurrent.futures.process, whose
    # multiprocessing takes about 12 ms.
    loaded = _loaded_by("import pairband\nimport pairband.solver\n")
    assert "multiprocessing" not in loaded
    assert loaded - set(sys.stdlib_module_names) - {"pairband"} == {"numpy"}


def test_networkx_loads_on_the_first_open_gap():
    # Two triangles with no edge between them: the assignment's cycles
    # give no finite perfect matching, so the gap stays open and the
    # blossom must run.  A planted matching on four users closes it.
    probe = (
        "import numpy as np\n"
        "from pairband.pairing import INFEASIBLE, PairCostMatrix, mwpm\n"
        "closed = np.array([[np.inf, 1, 5, 5], [1, np.inf, 5, 5], [5, 5, np.inf, 1], [5, 5, 1, np.inf]])\n"
        "assert mwpm(PairCostMatrix(closed)).pairs == ((0, 1), (2, 3))\n"
        "assert 'networkx' not in sys.modules\n"
        "c = np.full((6, 6), INFEASIBLE)\n"
        "for i, j in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]:\n"
        "    c[i, j] = c[j, i] = 1.0\n"
        "assert mwpm(PairCostMatrix(c)) is None\n"
    )
    assert "networkx" in _loaded_by(probe)
