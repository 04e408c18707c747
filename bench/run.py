"""cyclesat benchmark: time to solution of four desk-scale workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every repetition is a fresh interpreter
(``bench/rep.py``), so per-session caches start cold.  Repetitions run one
after another while the next one is expected to end within ``S`` seconds
(at least one runs).  The run and its children stay on one CPU, and times
are scaled to a fixed machine speed measured while they run (``calib.py``),
because the speed of a shared host drifts by up to 2x.  With ``--trace 0``
the last stdout line carries the end-to-end metrics; with ``--trace 1``
untraced and traced repetitions alternate and it carries the per-layer
metrics.  A result file with the
machine, Python version, source identity, seed and every repetition is
written to ``bench/out/``.  Exits 1 when an output check fails and 2 when
the checkout holds no ``src/cyclesat``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calib import PROBE_NOMINAL_S, probe_time
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REP = BENCH / "rep.py"

SETUP_SAMPLES = 11
# A whole run, children included, must end inside 180 seconds.  A child
# still running at the deadline is killed and the run fails.
RUN_LIMIT_S = 170.0


def _child(args: list[str], deadline: float) -> tuple[float, str]:
    """Run ``rep.py`` with ``args``; returns (wall seconds, stdout)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(REP), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=max(deadline - start, 0.1),
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"rep.py {' '.join(args)} exited {proc.returncode}")
    return elapsed, proc.stdout


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, so that the speed
    probes taken here measure the CPU the children run on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def measure_setup(workload: str, seed: int, deadline: float) -> list[dict]:
    """Interpreter start + ``import cyclesat`` + input generation, repeated.

    Each sample is scaled by the mean of the probe times just before and
    just after it.
    """
    args = ["--workload", workload, "--seed", str(seed), "--setup-only"]
    samples = []
    before = probe_time()
    for _ in range(SETUP_SAMPLES):
        raw = _child(args, deadline)[0]
        after = probe_time()
        samples.append({"raw_s": raw, "scaled_s": raw * 2 * PROBE_NOMINAL_S / (before + after)})
        before = after
    return samples


def measure_reps(
    workload: str, seed: int, seconds: float, trace: bool, deadline: float
) -> list[dict]:
    """Repetitions until the next one would overrun ``seconds``.

    Traced runs alternate untraced and traced repetitions and make at least
    one of each.
    """
    kinds = (False, True) if trace else (False,)
    reps: list[dict] = []
    cost = {kind: 0.0 for kind in kinds}  # longest repetition of each kind
    start = time.perf_counter()
    while True:
        traced = kinds[len(reps) % len(kinds)]
        needed = len(reps) < len(kinds)
        guess = cost[traced] or max(cost.values())
        if not needed and time.perf_counter() - start + guess > seconds:
            break
        args = ["--workload", workload, "--seed", str(seed)]
        elapsed, out = _child(args + (["--trace"] if traced else []), deadline)
        cost[traced] = max(cost[traced], elapsed)
        reps.append(json.loads(out.strip().splitlines()[-1]))
    return reps


def summarize(reps: list[dict], setup: list[dict], trace: bool) -> dict[str, dict]:
    """The metrics ``BENCHMARK.json`` lists for this mode, with their units."""
    untraced = [r for r in reps if not r["traced"]]
    if trace:
        wall = statistics.median(r["wall_s"] for r in untraced)
        traced = [r for r in reps if r["traced"]]
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        values = {
            name: statistics.median(r["layers"][name] for r in traced)
            for name in traced[0]["layers"]
        }
        values["traced_wall_s"] = traced_wall
        values["trace_overhead"] = traced_wall / wall - 1
    else:
        values = {
            "scaled_wall_s": statistics.median(r["scaled_wall_s"] for r in untraced),
            "setup_s": statistics.median(s["scaled_s"] for s in setup),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if values.keys() != units.keys():
        raise RuntimeError(f"metrics {sorted(values)} differ from BENCHMARK.json {sorted(units)}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def check_totals(reps: list[dict]) -> tuple[int, list[str]]:
    """Output checks attempted over all repetitions, and the failed ones."""
    return sum(r["attempted"] for r in reps), [msg for r in reps for msg in r["failures"]]


def provenance(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        source.update(path.read_bytes())
    return {
        "cpu_model": cpu,
        "nproc": nproc,
        "python": platform.python_version(),
        "git_sha": sha,
        "source_sha256": source.hexdigest(),
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cyclesat" / "__init__.py").is_file():
        print(f"no cyclesat sources under {SRC}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    pin_to_one_cpu()
    deadline = time.perf_counter() + RUN_LIMIT_S
    setup = measure_setup(args.workload, args.seed, deadline)
    reps = measure_reps(args.workload, args.seed, args.seconds, trace, deadline)
    metrics = summarize(reps, setup, trace)
    attempted, failures = check_totals(reps)

    OUT.mkdir(exist_ok=True)
    result_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(
        json.dumps(
            {
                "workload": args.workload,
                "seconds": args.seconds,
                "trace": args.trace,
                "provenance": provenance(args.seed),
                "setup_s": setup,
                "reps": reps,
                "fail_ratio": len(failures) / attempted,
                "failures": failures[:50],
                "metrics": metrics,
            },
            indent=1,
        )
        + "\n"
    )
    print(f"result file: {result_file.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
