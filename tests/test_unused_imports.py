"""No module under src/, tests/ or scripts/ imports a name that no
expression reads. An `ast` walk lists each module's imported names and
the names it loads; an imported name never loaded is reported with its
file and line. `__init__.py` files are skipped, since their imports are
the package's re-exports, and so is `from __future__`. tvbench/ is the
benchmark's own code and is not walked."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str, filename: str = "<string>") -> list[tuple[int, str]]:
    """(line, name) of each name that `source` imports but never reads."""
    tree = ast.parse(source, filename=filename)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds `a`
            imported += [(node.lineno, a.asname or a.name.partition(".")[0])
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name)
                         for a in node.names if a.name != "*"]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [(line, name) for line, name in imported if name not in read]


def test_checker_finds_what_no_expression_reads():
    source = ("from __future__ import annotations\n"
              "import os, os.path\n"
              "import numpy as np\n"
              "from json import dumps, loads as parse\n"
              "def f(x: np.ndarray):\n"
              "    import re\n"
              "    return parse(x)\n")
    assert unused_imports(source) == [(2, "os"), (2, "os"), (4, "dumps"), (6, "re")]


def test_no_module_imports_a_name_it_never_reads():
    found = []
    for top in ("src", "tests", "scripts"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            for line, name in unused_imports(path.read_text(encoding="utf-8"),
                                             str(path)):
                found.append(f"{path.relative_to(ROOT)}:{line}: "
                             f"{name!r} is imported but never read")
    assert not found, "\n".join(found)
