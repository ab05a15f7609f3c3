"""The brute-force oracles stay independent of the library they check."""

import ast
from pathlib import Path


def test_oracles_import_nothing_from_neronjac():
    tree = ast.parse(Path(__file__).with_name("oracles.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert "fractions" in imported  # the file was found and parsed
    # a relative import has an empty first component
    assert not [m for m in imported if m.split(".")[0] in ("neronjac", "")]
