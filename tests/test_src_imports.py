"""Every name a ``src`` module imports is used in that module.

Read with the standard library's ``ast`` alone: a name counts as used when
it appears as a name anywhere in the module's tree, annotations included.
An import kept for another reader is listed in ``KEPT`` with its reason.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "pinchcert"

#: (module, name) imported but not used there, each with its reason
KEPT = {
    ("param_search.py", "count_roots"):
        "perfbench/test_perfbench.py reads ps.count_roots to check the tracer's wrapping",
}


def unused_imports(source: str) -> set[str]:
    """The names ``source`` imports and never reads, ``__future__`` aside."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_a_src_module_uses_every_name_it_imports(path):
    kept = {name for module, name in KEPT if module == path.name}
    assert unused_imports(path.read_text(encoding="utf-8")) == kept


def test_the_check_sees_an_unused_import():
    source = ("from dataclasses import dataclass, field\nimport os.path\n"
              "from x import y as z\n\n@dataclass\nclass A:\n    n: int\n")
    assert unused_imports(source) == {"field", "os", "z"}
