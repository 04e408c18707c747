"""Command-line front end.

Subcommands: construct, verify, check-certificate, bounds, oracle,
mine-suitable.  ``verify --certificate PATH`` writes a certificate;
``oracle --golden PATH`` appends an exact result to a CSV, and nothing is
written unless it is given.  Time budgets come from ``--max-seconds`` only.
Exit codes: 0 success / verdict true, 1 verdict false, 2 usage or input
error, 3 budget exhausted, 141 stdout closed by its reader.  Graph input is
auto-detected (graph6 when the first byte is at or above '?', plain edge
list otherwise).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import bounds as bounds_mod
from . import oracle as oracle_mod
from .codec import (
    EdgeListError,
    Graph6Error,
    detect_and_decode,
    edge_list_encode,
    graph6_encode,
    labels_decode,
    labels_encode,
)
from .cycles import SearchBudgetExceeded
from .families import (
    ConstructionPostconditionError,
    build_h1,
    build_h2,
    build_h3,
    build_wheel,
)
from .graphs import Graph, GraphError, LabeledGraph
from .saturation import Certificate, is_ck_free, is_saturated, is_semisaturated
from .suitability import mine_suitable

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_PIPE = 141  # 128 + SIGPIPE


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclesat",
        description="Cycle-saturated graph constructions, verifiers, bounds, and exact search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a graph family member")
    c.add_argument("--family", required=True, choices=["h1", "h2", "h3", "wheel"])
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--n", type=int, help="target order (h1)")
    c.add_argument("--t", type=int, help="number of path blocks (h2, h3)")
    c.add_argument("--r", type=int, help="spikes (wheel) or trimmed spikes (h3); default 0")
    c.add_argument("--core", help="core graph file for h2/h3 (graph6 or edge list)")
    c.add_argument("--core-labels", help="label sidecar for --core")
    c.add_argument(
        "--core-r", type=int, help="spike count when the core is a built wheel; default 0"
    )
    c.add_argument("--format", choices=["graph6", "edges"], default="graph6")
    c.add_argument("--out", help="write the graph here instead of stdout")
    c.add_argument("--labels", help="write the role sidecar here")

    v = sub.add_parser("verify", help="verify a graph against a saturation mode")
    v.add_argument("--k", type=int, required=True)
    v.add_argument("--mode", required=True, choices=["saturated", "semisaturated", "free"])
    v.add_argument("--in", dest="infile", help="graph file (default: stdin)")
    v.add_argument("--certificate", help="write the certificate here on success")

    chk = sub.add_parser("check-certificate", help="validate a certificate against a graph")
    chk.add_argument("--in", dest="infile", required=True, help="graph file")
    chk.add_argument("--cert", required=True, help="certificate file")

    b = sub.add_parser("bounds", help="evaluate all closed-form bounds")
    b.add_argument("--k", type=int, required=True)
    b.add_argument("--n", required=True, help="one order N, or every n in A..B")
    b.add_argument("--csv", action="store_true", help="machine-readable output")

    o = sub.add_parser("oracle", help="exact minimum by exhaustive search")
    o.add_argument("--k", type=int, required=True)
    o.add_argument("--n", type=int, required=True)
    o.add_argument("--mode", required=True, choices=["sat", "ssat"])
    o.add_argument("--max-seconds", type=float, default=None)
    o.add_argument("--ceiling", type=int, default=None)
    o.add_argument("--golden", help="append an exact result to this CSV")

    m = sub.add_parser("mine-suitable", help="minimum-size suitable core search")
    m.add_argument("--k", type=int, required=True)
    m.add_argument("--plus", action="store_true", help="extended two-split suitability")
    m.add_argument("--max-seconds", type=float, default=None)
    m.add_argument("--ceiling", type=int, default=None)
    return parser


def _read_file(path: str) -> str:
    p = Path(path)
    if not p.exists():
        raise ValueError(f"input file not found: {path}")
    return p.read_text()


def _read_graph(path: str | None) -> Graph:
    text = sys.stdin.read() if path is None else _read_file(path)
    try:
        return detect_and_decode(text)
    except (Graph6Error, EdgeListError, GraphError) as exc:
        raise ValueError(f"malformed graph input: {exc}") from exc


def _file_key(path: str) -> object:
    """One key for every name of one file: its device and inode once it
    exists (the test of ``os.path.samefile``, so hard links match), else
    its resolved path."""
    try:
        st = os.stat(path)
    except OSError:
        return Path(path).resolve()
    return st.st_dev, st.st_ino


def _check_out(outputs: dict[str, str | None], inputs: dict[str, str | None]) -> None:
    """Refuse an output path that cannot take a file, or that names the same
    file as another output or an input, before any work is done."""
    named = {_file_key(path): flag for flag, path in inputs.items() if path is not None}
    for flag, path in outputs.items():
        if path is None:
            continue
        p = Path(path)
        if p.is_dir():
            raise ValueError(f"{flag} path is a directory: {p}")
        if not p.parent.is_dir():
            raise ValueError(f"{flag} directory not found: {p.parent}")
        where = _file_key(path)
        if where in named:
            raise ValueError(f"{flag} names the same file as {named[where]}: {p}")
        named[where] = flag


def _write(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


# The family-specific flags (argparse destinations) each family reads.
_FAMILY_FLAGS = {
    "h1": ("n",),
    "wheel": ("r",),
    "h2": ("t", "core", "core_labels", "core_r"),
    "h3": ("t", "r", "core", "core_labels", "core_r"),
}


def _cmd_construct(args: argparse.Namespace) -> int:
    _check_out(
        {"--out": args.out, "--labels": args.labels},
        {"--core": args.core, "--core-labels": args.core_labels},
    )
    specific = {d for flags in _FAMILY_FLAGS.values() for d in flags}
    for dest in sorted(specific - set(_FAMILY_FLAGS[args.family])):
        if getattr(args, dest) is not None:
            flag = "--" + dest.replace("_", "-")
            raise ValueError(f"construct --family {args.family} does not read {flag}")
    if bool(args.core) != bool(args.core_labels):
        raise ValueError("--core and --core-labels (the a1, a2 roles) go together")
    if args.core and args.core_r is not None:
        raise ValueError("--core-r builds a wheel core and cannot be combined with --core")
    if args.family == "h1":
        if args.n is None:
            raise ValueError("construct --family h1 requires --n")
        built = build_h1(args.k, args.n)
    elif args.family == "wheel":
        built = build_wheel(args.k, args.r or 0)
    else:
        if args.t is None:
            raise ValueError(f"construct --family {args.family} requires --t")
        if args.core:
            graph = _read_graph(args.core)
            labels = labels_decode(_read_file(args.core_labels))
            core = LabeledGraph(graph, labels)
        else:
            core = build_wheel(args.k, args.core_r or 0)
        if args.family == "h2":
            built = build_h2(core, args.k, args.t)
        else:
            built = build_h3(core, args.k, args.t, args.r or 0)
    if args.format == "graph6":
        out = graph6_encode(built.graph) + "\n"
    else:
        out = edge_list_encode(built.graph)
    _write(out, args.out)
    if args.labels:
        _write(labels_encode(built.labels), args.labels)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.mode == "free" and args.certificate:
        raise ValueError("certificates need --mode saturated or --mode semisaturated")
    _check_out({"--certificate": args.certificate}, {"--in": args.infile})
    G = _read_graph(args.infile)
    if args.mode == "free":
        res = is_ck_free(G, args.k)
        if res.holds:
            print("FREE")
            return EXIT_OK
        print("NOT FREE")
        print(f"cycle found: {' '.join(str(v) for v in res.cycle)}", file=sys.stderr)
        return EXIT_FALSE
    checker = is_saturated if args.mode == "saturated" else is_semisaturated
    verdict = checker(G, args.k, want_certificate=bool(args.certificate))
    word = args.mode.upper()
    if verdict.holds:
        print(word)
        if args.certificate:
            Path(args.certificate).write_text(verdict.certificate.to_text())
        return EXIT_OK
    print(f"NOT {word}")
    if verdict.failing_nonedge is not None:
        u, v = verdict.failing_nonedge
        print(f"non-edge ({u}, {v}) creates no {args.k}-cycle", file=sys.stderr)
    if verdict.cycle is not None:
        vs = " ".join(str(x) for x in verdict.cycle)
        print(f"graph already contains a {args.k}-cycle: {vs}", file=sys.stderr)
    return EXIT_FALSE


def _cmd_check_certificate(args: argparse.Namespace) -> int:
    G = _read_graph(args.infile)
    problems = Certificate.from_text(_read_file(args.cert)).validate(G)
    if not problems:
        print("VALID")
        return EXIT_OK
    print("INVALID")
    for problem in problems:
        print(problem, file=sys.stderr)
    return EXIT_FALSE


def _cmd_bounds(args: argparse.Namespace) -> int:
    lo, dots, hi = args.n.partition("..")
    try:
        ns = range(int(lo), int(hi if dots else lo) + 1)
    except ValueError as exc:
        raise ValueError(f"bad --n {args.n!r}; expected N or A..B") from exc
    if not ns:
        raise ValueError(f"empty --n {args.n!r}; B must not be below A")
    # A bad k or n fails on the smallest n, so it is refused before any output.
    bounds_mod.eval_bounds(ns[0], args.k)
    multi = len(ns) > 1
    if args.csv:
        print(("n," if multi else "") + "name,kind,numerator,denominator,applicable")
    for n in ns:
        if not args.csv:
            if n != ns[0]:
                print()
            print(f"bounds for n={n}, k={args.k}")
            print(f"{'name':<22}{'kind':<13}{'value':<16}{'~':<10}applicable")
        for e in bounds_mod.eval_bounds(n, args.k).entries:
            yes = "yes" if e.applicable else "no"
            if args.csv:
                row = (e.name, e.kind, str(e.value.numerator), str(e.value.denominator), yes)
                print(",".join(((str(n),) + row) if multi else row))
            else:
                note = f"  ({e.note})" if e.note and e.applicable else ""
                print(
                    f"{e.name:<22}{e.kind:<13}{str(e.value):<16}{float(e.value):<10.2f}{yes}{note}"
                )
    return EXIT_OK


def _stats_line(stats: oracle_mod.SearchStats) -> str:
    return (
        f"examined {stats.graphs_examined} classes in {stats.elapsed:.1f}s "
        f"(generate {stats.generate_s:.1f}s, verify {stats.verify_s:.1f}s)"
    )


def _cmd_oracle(args: argparse.Namespace) -> int:
    if args.golden is not None:
        # Fail before a search that may take minutes; the file itself is
        # opened only for an exact result, so none is left behind otherwise.
        oracle_mod._check_golden(args.golden)
    result = oracle_mod.exact_min(
        args.n,
        args.k,
        args.mode,
        ceiling=args.ceiling,
        budget_seconds=args.max_seconds,
    )
    if result.status == "lower-bound-only":
        print(f"{args.mode}({args.n}, C{args.k}) >= {result.value}  [budget exhausted]")
        return EXIT_BUDGET
    print(f"{args.mode}({args.n}, C{args.k}) = {result.value}")
    print(f"witness: {graph6_encode(result.witness)}")
    print(_stats_line(result.stats))
    if args.golden is not None:
        oracle_mod.append_golden(args.golden, result)
    return EXIT_OK


def _cmd_mine(args: argparse.Namespace) -> int:
    mode = "kk2-suitable" if args.plus else "k-suitable"
    result = mine_suitable(args.k, mode, ceiling=args.ceiling, budget_seconds=args.max_seconds)
    size = f"minimum size of a {args.k}-vertex {mode} core"
    if result.status == "lower-bound-only":
        print(f"{size} >= {result.edge_count}  [budget exhausted]")
        return EXIT_BUDGET
    print(f"{size}: {result.edge_count}")
    print(f"witness: {graph6_encode(result.witness.graph)}")
    sys.stdout.write(labels_encode(result.witness.labels))
    print(_stats_line(result.stats))
    return EXIT_OK


_COMMANDS = {
    "construct": _cmd_construct,
    "verify": _cmd_verify,
    "check-certificate": _cmd_check_certificate,
    "bounds": _cmd_bounds,
    "oracle": _cmd_oracle,
    "mine-suitable": _cmd_mine,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # The reader closed stdout (``| head``): exit as a shell reports a
        # SIGPIPE kill, with stdout on devnull so the final flush is silent.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except (ValueError, OSError) as exc:
        # Typed input errors subclass ValueError; OSError is an unusable file.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConstructionPostconditionError as exc:
        print(f"construction failed verification: {exc}", file=sys.stderr)
        return EXIT_FALSE
    except SearchBudgetExceeded as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
