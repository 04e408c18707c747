"""Tests of the benchmark itself: python3 -m pytest -q bench"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time

import pytest

from calib import PROBE_NOMINAL_S, SpeedSampler, scaled_seconds
from rep import import_library, library_modules, run_rep
from run import BENCH, check_totals
from spans import Tracer, layer_metrics, public_functions, self_times
from workloads import WORKLOADS

api = import_library()


def test_self_time_subtracts_children_on_a_synthetic_tree():
    spans = [
        ("bench.tasks", -1, 0.0, 10.0, None),
        ("saturation.is_saturated", 0, 1.0, 9.0, None),
        ("saturation.is_semisaturated", 1, 1.5, 4.5, None),
        ("cycles.exists_path_of_length", 2, 2.0, 3.0, "found"),
        ("cycles.exists_path_of_length", 2, 3.0, 3.5, "absent"),
        ("saturation.is_ck_free", 1, 5.0, 8.0, None),
        ("cycles.has_cycle_of_length", 5, 5.0, 7.0, "absent"),
    ]
    assert self_times(spans) == [2.0, 2.0, 1.5, 1.0, 0.5, 1.0, 2.0]
    m = layer_metrics(spans)
    assert m["saturation.sat.self_s"] == 3.0  # is_saturated 2.0 + is_ck_free 1.0
    assert m["saturation.semisat.self_s"] == 1.5
    assert m["cycles.cycle.self_s"] == 2.0
    assert (m["cycles.path.found"], m["cycles.path.absent"]) == (1, 1)
    assert (m["cycles.path.found_s"], m["cycles.path.absent_s"]) == (1.0, 0.5)
    assert m["bench.unattributed_s"] == 2.0
    assert m["graphs.canon.calls"] == 0 and m["oracle.canon_per_class"] == 0.0


def test_scaled_seconds_weights_each_slice_by_the_probes_around_it():
    nominal = PROBE_NOMINAL_S
    # Slice 0 ran at nominal speed; slice 1 between a nominal probe and
    # one three times as slow, so at half speed.
    assert scaled_seconds([1.0, 2.0], [nominal, nominal, 3 * nominal]) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        scaled_seconds([1.0], [nominal])


def test_speed_sampler_leaves_probes_out_and_restores_the_alarm():
    handler = signal.getsignal(signal.SIGALRM)
    start = time.perf_counter()
    with SpeedSampler(interval=0.01) as sampler:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    elapsed = time.perf_counter() - start
    assert len(sampler.probes) == len(sampler.slices) + 1 > 5
    assert sampler.raw_seconds() + sum(sampler.probes) == pytest.approx(elapsed, abs=0.01)
    assert sampler.scaled_seconds() > 0
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_tracer_wraps_calls_made_inside_the_library():
    tracer = Tracer()
    with tracer.installed(library_modules(api), public_functions(api)):
        G = api.build_h1(7, 11).graph
        assert api.is_saturated(G, 7, want_certificate=True).holds
    names = {span[0] for span in tracer.spans}
    # saturation calls the path kernel through its own imported name.
    assert {"families.build_h1", "saturation.is_saturated",
            "saturation.is_semisaturated", "cycles.exists_path_of_length",
            "cycles.has_cycle_of_length"} <= names


def test_wrong_golden_makes_fail_ratio_positive():
    goldens = json.loads((BENCH / "goldens.json").read_text())
    wrong = json.loads(json.dumps(goldens))
    wrong["mine-7"]["witness_graph6"] = "FBYmw"
    workload = WORKLOADS["mine-7"]
    outputs = workload.run(api, None)
    attempted, failures = workload.check(api, None, outputs, goldens)
    assert attempted > 0 and failures == []
    attempted, failures = workload.check(api, None, outputs, wrong)
    assert failures
    total, failed = check_totals([{"attempted": attempted, "failures": failures}])
    assert len(failed) / total > 0


def test_traced_rep_reports_layers_and_leaves_modules_untouched():
    modules = library_modules(api)
    before = {m.__name__: dict(vars(m)) for m in modules}
    goldens = json.loads((BENCH / "goldens.json").read_text())
    inputs = WORKLOADS["h1-certify"].make_inputs(0)[:3]
    record = run_rep(api, "h1-certify", inputs, True, goldens)
    layers = record["layers"]
    assert layers["cycles.path.calls"] == layers["cycles.path.found"] > 0
    assert layers["cycles.cycle.calls"] == 3
    # The golden digest covers the whole input list, so only it may fail.
    assert all("digest" in msg for msg in record["failures"])
    for m in modules:
        now = vars(m)
        assert now.keys() == before[m.__name__].keys()
        assert all(now[k] is v for k, v in before[m.__name__].items()), m.__name__


def test_run_refuses_a_checkout_without_sources(tmp_path):
    # Only BENCHMARK.json and the benchmark's own directory, no sources.
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mine-7", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_depend_only_on_the_seed(name):
    make = WORKLOADS[name].make_inputs
    assert make(7) == make(7)
    assert (make(7) != make(8)) == (name == "greedy-structure")
