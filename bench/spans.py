"""Outside-in tracing: spans around the library's public functions.

The modules bind each other's functions by name (``from .cycles import
exists_path_of_length``), so patching the defining module alone misses the
calls.  ``Tracer.installed`` therefore replaces every module attribute that
is bound to a traced function, in the defining module and in each module
that imported it, and puts the originals back when its block ends.

A span is ``(name, parent, start, end, tag)``: ``parent`` is the index of
the enclosing span or -1, times come from ``time.perf_counter`` and ``tag``
is a small per-function outcome (found/absent for the path kernel, the
canonical code for labelings).  Spans stay in memory until the run ends.
The recorder keeps one stack, so it is meant for single-threaded runs.
"""

from __future__ import annotations

import inspect
import statistics
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterable

Span = tuple[str, int, float, float, Any]


def _found(result) -> str:
    return "absent" if result is None else "found"


def _code(result) -> Any:
    return result[1] if isinstance(result, tuple) else result


def _examined(result) -> int:
    return result[1]


# Per-function outcome tags; other functions get no tag.
OUTCOMES: dict[str, Callable[[Any], Any]] = {
    "cycles.exists_path_of_length": _found,
    "cycles.has_cycle_of_length": _found,
    "graphs.canonical_code": _code,
    "graphs.canonical_form_and_code": _code,
    "oracle.search_stratum": _examined,
}


class Tracer:
    """Records a span for every call of the wrapped functions."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, outcome: Callable | None = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (name, parent, start, clock(), "raised")
                stack.pop()
                raise
            end = clock()
            stack.pop()
            spans[idx] = (name, parent, start, end, outcome(result) if outcome else None)
            return result

        return traced

    @contextmanager
    def installed(self, modules: Iterable[Any], targets: dict[str, Callable]):
        """Wrap every attribute of ``modules`` bound to a function in ``targets``.

        ``targets`` maps a span name to the original function.  The
        originals are put back when the block ends.
        """
        by_id = {
            id(fn): (fn, self.wrap(name, fn, OUTCOMES.get(name)))
            for name, fn in targets.items()
        }
        saved = []
        try:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    hit = by_id.get(id(value))
                    if hit is not None and hit[0] is value:
                        saved.append((module, attr, value))
                        setattr(module, attr, hit[1])
            yield self
        finally:
            for module, attr, value in reversed(saved):
                setattr(module, attr, value)


def public_functions(package) -> dict[str, Callable]:
    """The package's exported functions, named ``<module>.<function>``."""
    found = {}
    for attr in package.__all__:
        fn = getattr(package, attr)
        if inspect.isfunction(fn):
            found[f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"] = fn
    return found


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its child spans cover.

    Children of one span run one after another inside it, so the part
    they cover is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, _, start, end, _) in enumerate(spans)]


# -- per-layer metrics ---------------------------------------------------------

# Layer name -> span names it groups.  A prefix ending in "." takes every
# public function of that module.
LAYERS: dict[str, tuple[str, ...]] = {
    "graphs.canon": (
        "graphs.canonical_form_and_code",
        "graphs.canonical_code",
        "graphs.canonical_form",
    ),
    "oracle.levels": ("oracle.classes_with_edges",),
    "cycles.path": ("cycles.exists_path_of_length",),
    "cycles.cycle": ("cycles.has_cycle_of_length",),
    "cycles.shortest": ("cycles.shortest_cycle_through",),
    "saturation.semisat": ("saturation.is_semisaturated",),
    "saturation.sat": ("saturation.is_saturated", "saturation.is_ck_free"),
    "saturation.greedy": ("saturation.greedy_saturate", "saturation.all_pairs"),
    "saturation.structure": (
        "saturation.check_structure",
        "saturation.degree_partition",
        "saturation.strip_leaves",
    ),
    "suitability.mine": ("suitability.mine_suitable", "suitability.split_pairs"),
    "families.build": ("families.",),
    "codec": ("codec.",),
    "bounds.eval": ("bounds.",),
}

ROOT_SPAN = "bench.tasks"


def _layer_of(name: str) -> str | None:
    for layer, members in LAYERS.items():
        for member in members:
            if name == member or (member.endswith(".") and name.startswith(member)):
                return layer
    return None


def _percentile_us(durations: list[float], q: int) -> float:
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e6
    return statistics.quantiles(durations, n=100, method="inclusive")[q - 1] * 1e6


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """The per-layer metrics of one traced run (see ``bench/README.md``)."""
    selfs = self_times(spans)
    layer_of = {name: _layer_of(name) for name in {span[0] for span in spans}}
    layer_self: dict[str, float] = {layer: 0.0 for layer in LAYERS}
    by_layer: dict[str, list[int]] = {layer: [] for layer in LAYERS}
    for i, span in enumerate(spans):
        layer = layer_of[span[0]]
        if layer is not None:
            layer_self[layer] += selfs[i]
            by_layer[layer].append(i)

    def durations(layer: str, tag: Any = None) -> list[float]:
        return [
            spans[i][3] - spans[i][2]
            for i in by_layer[layer]
            if tag is None or spans[i][4] == tag
        ]

    canon = by_layer["graphs.canon"]
    classes = len({spans[i][4] for i in canon})
    verify_s = 0.0
    examined = 0
    for name, parent, start, end, tag in spans:
        if name == "oracle.search_stratum":
            examined += tag
        elif (
            parent >= 0
            and spans[parent][0] == "oracle.search_stratum"
            and name.startswith("saturation.")
        ):
            verify_s += end - start
    path_all = durations("cycles.path")
    found = durations("cycles.path", "found")
    absent = durations("cycles.path", "absent")
    unattributed = sum(s for i, s in enumerate(selfs) if spans[i][0] == ROOT_SPAN)
    return {
        "graphs.canon.calls": len(canon),
        "graphs.canon.self_s": layer_self["graphs.canon"],
        "graphs.canon.p50_us": _percentile_us(durations("graphs.canon"), 50),
        "graphs.canon.p99_us": _percentile_us(durations("graphs.canon"), 99),
        "oracle.canon_per_class": len(canon) / classes if classes else 0.0,
        "oracle.levels.self_s": layer_self["oracle.levels"],
        "oracle.verify.us_per_class": verify_s / examined * 1e6 if examined else 0.0,
        "cycles.path.calls": len(path_all),
        "cycles.path.found": len(found),
        "cycles.path.absent": len(absent),
        "cycles.path.found_s": sum(found),
        "cycles.path.absent_s": sum(absent),
        "cycles.path.p50_us": _percentile_us(path_all, 50),
        "cycles.path.p99_us": _percentile_us(path_all, 99),
        "cycles.cycle.calls": len(by_layer["cycles.cycle"]),
        "cycles.cycle.self_s": layer_self["cycles.cycle"],
        "cycles.shortest.calls": len(by_layer["cycles.shortest"]),
        "cycles.shortest.self_s": layer_self["cycles.shortest"],
        "saturation.semisat.self_s": layer_self["saturation.semisat"],
        "saturation.sat.self_s": layer_self["saturation.sat"],
        "saturation.greedy.self_s": layer_self["saturation.greedy"],
        "saturation.structure.self_s": layer_self["saturation.structure"],
        "suitability.mine.self_s": layer_self["suitability.mine"],
        "families.build.self_s": layer_self["families.build"],
        "codec.self_s": layer_self["codec"],
        "bounds.eval.self_s": layer_self["bounds.eval"],
        "bench.unattributed_s": unattributed,
    }
