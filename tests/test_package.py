import ast
import inspect
from pathlib import Path

import cyclesat


def test_all_lists_names_not_modules():
    assert not [n for n in cyclesat.__all__ if inspect.ismodule(getattr(cyclesat, n))]
    assert {"exact_min", "search_stratum", "mine_suitable", "Graph"} <= set(cyclesat.__all__)


def test_no_import_inside_a_function():
    # Imports sit at module top, so an import cycle fails at import time
    # instead of being hidden inside a function body.
    found = []
    for path in sorted(Path(cyclesat.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [
                    f"{path.name}:{node.lineno}"
                    for node in ast.walk(fn)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert not found
