"""One repetition of a workload in a fresh interpreter.

    python3 bench/rep.py --workload NAME --seed N [--trace] [--setup-only]

Imports ``cyclesat`` from this checkout's ``src/``, builds the workload's
inputs, runs its task list once and then checks the outputs outside the
timed region.  Untraced, the task list runs under a ``calib.SpeedSampler``,
and the record holds both its raw time and its time scaled to a fixed
machine speed.  With ``--trace`` the library's public functions are wrapped
for the timed region only, the time is raw, and the per-layer metrics are
computed from the spans; the spans are also written to ``bench/out/``.
Prints one JSON object.  ``bench/run.py`` starts this script; the fresh
process means the oracle's level cache starts cold, as in a CLI call.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from calib import SpeedSampler
from spans import ROOT_SPAN, Tracer, layer_metrics, public_functions
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"


def import_library():
    """``cyclesat`` from this checkout, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import cyclesat

    if not Path(cyclesat.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"cyclesat imported from {cyclesat.__file__}, not {SRC}")
    return cyclesat


def library_modules(api) -> list:
    return [api] + [m for name, m in sorted(sys.modules.items()) if name.startswith("cyclesat.")]


def run_rep(api, name: str, inputs, trace: bool, goldens: dict) -> dict:
    """Run one repetition in this process and return its record."""
    workload = WORKLOADS[name]
    record: dict = {"traced": trace}
    if trace:
        tracer = Tracer()
        task = tracer.wrap(ROOT_SPAN, workload.run)
        with tracer.installed(library_modules(api), public_functions(api)):
            start = time.perf_counter()
            outputs = task(api, inputs)
            record["wall_s"] = time.perf_counter() - start
        record["layers"] = layer_metrics(tracer.spans)
        record["spans"] = tracer.spans
    else:
        with SpeedSampler() as sampler:
            outputs = workload.run(api, inputs)
        record["wall_s"] = sampler.raw_seconds()
        record["scaled_wall_s"] = sampler.scaled_seconds()
        record["probes"] = len(sampler.probes)
        record["probe_p50_us"] = statistics.median(sampler.probes) * 1e6
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failures = workload.check(api, inputs, outputs, goldens)
    record["attempted"] = attempted
    record["failures"] = failures
    return record


def write_spans(path: Path, spans) -> None:
    with path.open("w") as fh:
        fh.write("index\tname\tparent\tstart_s\tend_s\ttag\n")
        for i, (name, parent, start, end, tag) in enumerate(spans):
            if isinstance(tag, bytes):
                tag = tag.hex()
            fh.write(f"{i}\t{name}\t{parent}\t{start:.9f}\t{end:.9f}\t{tag}\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    api = import_library()
    inputs = WORKLOADS[args.workload].make_inputs(args.seed)
    if args.setup_only:
        return 0
    goldens = json.loads((BENCH / "goldens.json").read_text())
    record = run_rep(api, args.workload, inputs, args.trace, goldens)
    spans = record.pop("spans", None)
    if spans is not None:
        OUT.mkdir(exist_ok=True)
        write_spans(OUT / f"{args.workload}-spans.tsv", spans)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
