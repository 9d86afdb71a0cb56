"""Layout rules of the package source that no behaviour test would notice."""

import ast
from pathlib import Path

import gausspseudo

SOURCES = sorted(Path(gausspseudo.__file__).parent.glob("*.py"))

# The raw complex ladder is shared on purpose: the ratio form's residues and
# the fallback of fermat.ratio_power_is_one are one ladder.
ALLOWED_PRIVATE_IMPORTS = {("fermat.py", "residues", "_pow_components")}


def private_imports(path):
    """(file, module, name) for each private name imported from the package."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and not module.startswith("gausspseudo"):
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                yield path.name, module.rpartition(".")[2], alias.name


def test_sources_found():
    assert {"census.py", "fermat.py", "residues.py"} <= {p.name for p in SOURCES}


def test_no_private_name_crosses_modules():
    found = {hit for path in SOURCES for hit in private_imports(path)}
    assert found <= ALLOWED_PRIVATE_IMPORTS, sorted(found - ALLOWED_PRIVATE_IMPORTS)
