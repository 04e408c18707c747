import ast
import inspect
import re
from pathlib import Path

import pytest

import cyclesat

# The package's public names; a name joins or leaves the API only by an
# edit here.
PUBLIC_NAMES = [
    "BoundEntry",
    "BoundTable",
    "CeilingExceeded",
    "Certificate",
    "CertificateError",
    "ConsistencyReport",
    "ConstructionParamError",
    "ConstructionPostconditionError",
    "DegreePartition",
    "DuplicateEdgeError",
    "EdgeListError",
    "GenerationTimeout",
    "Graph",
    "Graph6Error",
    "GraphError",
    "LabeledGraph",
    "LoopEdgeError",
    "MiningResult",
    "Observation",
    "OracleResult",
    "SaturationVerdict",
    "SearchBudgetExceeded",
    "StructureReport",
    "SuitabilityReport",
    "TooFewVertices",
    "UnsuitableCoreError",
    "VertexRangeError",
    "append_golden",
    "build_h1",
    "build_h2",
    "build_h3",
    "build_wheel",
    "canonical_code",
    "canonical_form_and_code",
    "check_consistency",
    "check_structure",
    "class_levels",
    "degree_partition",
    "detect_and_decode",
    "edge_list_decode",
    "edge_list_encode",
    "eval_bounds",
    "exact_min",
    "exists_path_of_length",
    "graph6_decode",
    "graph6_encode",
    "greedy_saturate",
    "h1_decompose",
    "has_cycle_of_length",
    "is_ck_free",
    "is_k_suitable",
    "is_kk2_suitable",
    "is_saturated",
    "is_semisaturated",
    "known_exact",
    "labels_decode",
    "labels_encode",
    "mine_suitable",
    "paths_of_length",
    "search_stratum",
    "shortest_cycle_through",
    "split_pairs",
    "strip_leaves",
]


def test_all_lists_names_not_modules():
    assert not [n for n in cyclesat.__all__ if inspect.ismodule(getattr(cyclesat, n))]
    assert {"exact_min", "search_stratum", "mine_suitable", "Graph"} <= set(cyclesat.__all__)


def test_public_names_are_pinned():
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert cyclesat.__all__ == PUBLIC_NAMES


def test_readme_quick_tour_runs():
    # The README's one Python block, run as written, with the figures its
    # comments state.
    readme = Path(__file__).resolve().parents[1] / "README.md"
    (block,) = re.findall(r"```python\n(.*?)```", readme.read_text(), re.DOTALL)
    tour: dict = {}
    exec(block, tour)
    assert (tour["h"].graph.n, tour["h"].graph.edge_count) == (9, 14)
    assert (tour["wide"].graph.n, tour["wide"].graph.edge_count) == (16, 22)
    assert (tour["result"].status, tour["result"].value) == ("exact", 5)


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


def test_private_cycles_names_stay_in_cycles():
    # Other modules reach the path kernel through the public queries; only
    # greedy_saturate, whose graph grows in a bare adjacency list, runs the
    # kernel itself, with the budget read once per call.
    allowed = {"saturation.py": {"_search_path", "_expansions"}}
    found = []
    for path in sorted(Path(cyclesat.__file__).parent.glob("*.py")):
        if path.name == "cycles.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module in ("cycles", "cyclesat.cycles"):
                names = {alias.name for alias in node.names}
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "cycles"
            ):
                names = {node.attr}
            else:
                continue
            private = {n for n in names if n.startswith("_")} - allowed.get(path.name, set())
            found += [f"{path.name}:{node.lineno}: {n}" for n in sorted(private)]
    assert not found


@pytest.mark.parametrize("x", [5.0, True])
@pytest.mark.parametrize(
    "call",
    [
        lambda x: cyclesat.Graph(x, []),
        lambda x: cyclesat.known_exact(x, 4),
        lambda x: cyclesat.exact_min(x, 4, "sat"),
        lambda x: cyclesat.exact_min(6, 4, "sat", ceiling=x),
        lambda x: cyclesat.mine_suitable(6, ceiling=x),
        lambda x: cyclesat.eval_bounds(9, x),
        lambda x: cyclesat.build_h1(x, 9),
        lambda x: cyclesat.build_wheel(6, x),
        lambda x: cyclesat.build_h2(cyclesat.build_wheel(6, 0), 6, t=x),
        lambda x: cyclesat.build_h3(cyclesat.build_wheel(8, 0), 8, 2, r=x),
        lambda x: cyclesat.greedy_saturate(x, 5, []),
    ],
    ids=[
        "Graph",
        "known_exact",
        "exact_min-n",
        "exact_min-ceiling",
        "mine_suitable-ceiling",
        "eval_bounds",
        "build_h1",
        "build_wheel",
        "build_h2",
        "build_h3",
        "greedy_saturate",
    ],
)
def test_integer_arguments_refuse_floats_and_bools(call, x):
    # refused up front with a typed ValueError naming the value, not a
    # TypeError from deep inside or an answer computed from it
    with pytest.raises(ValueError, match=f"must be .*, got {re.escape(repr(x))}$"):
        call(x)
