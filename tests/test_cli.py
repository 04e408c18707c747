import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import pass_suitability_gate
from cyclesat.cli import _FAMILY_FLAGS, _build_parser, main
from cyclesat.codec import graph6_decode, graph6_encode, labels_decode, labels_encode
from cyclesat.families import build_h1, build_wheel
from cyclesat.graphs import Graph
from cyclesat.saturation import Certificate, is_saturated


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def feed_stdin(monkeypatch, text: str) -> None:
    monkeypatch.setattr("sys.stdin", io.StringIO(text))


def test_construct_h1_graph6(capsys):
    code, out, _ = run(capsys, "construct", "--family", "h1", "--k", "7", "--n", "9")
    assert code == 0
    assert graph6_decode(out.strip()) == build_h1(7, 9).graph


def test_construct_edge_list_and_labels(capsys, tmp_path):
    labels_file = tmp_path / "labels.txt"
    code, out, _ = run(
        capsys,
        "construct", "--family", "wheel", "--k", "6", "--r", "2",
        "--format", "edges", "--labels", str(labels_file),
    )
    assert code == 0
    assert out.splitlines()[0] == "8"
    labels = labels_decode(labels_file.read_text())
    assert labels["a1"] == 0 and labels["hub"] == 0


def test_construct_h2_with_wheel_core(capsys):
    code, out, _ = run(
        capsys,
        "construct", "--family", "h2", "--k", "6", "--t", "2", "--core-r", "4",
    )
    assert code == 0
    g = graph6_decode(out.strip())
    assert (g.n, g.edge_count) == (16, 22)


def test_construct_h3(capsys):
    code, out, _ = run(
        capsys,
        "construct", "--family", "h3", "--k", "8", "--t", "2", "--r", "0",
    )
    assert code == 0
    g = graph6_decode(out.strip())
    assert (g.n, g.edge_count) == (20, 28)


def test_construct_bad_params_exit_2(capsys):
    code, _, err = run(capsys, "construct", "--family", "h1", "--k", "6", "--n", "20")
    assert code == 2
    assert "k >= 7" in err


@pytest.mark.parametrize(
    "flags,message",
    [
        (
            ("--family", "h1", "--k", "7", "--n", "9", "--t", "5", "--r", "2",
             "--core", "/nonexistent"),
            "construct --family h1 does not read --core",
        ),
        (("--family", "wheel", "--k", "6", "--n", "9", "--t", "3"), "does not read --n"),
        (("--family", "wheel", "--k", "6", "--r", "0", "--t", "3"), "does not read --t"),
        # a zero is given too
        (("--family", "h1", "--k", "7", "--n", "9", "--r", "0"), "does not read --r"),
        (
            ("--family", "h2", "--k", "6", "--t", "1", "--r", "3",
             "--core-labels", "/nonexistent"),
            "construct --family h2 does not read --r",
        ),
        (
            ("--family", "h1", "--k", "7", "--n", "9", "--core-r", "3"),
            "does not read --core-r",
        ),
        (("--family", "h3", "--k", "8", "--t", "2", "--n", "20"), "does not read --n"),
        (
            ("--family", "h2", "--k", "6", "--t", "1", "--core-labels", "/nonexistent"),
            "--core and --core-labels (the a1, a2 roles) go together",
        ),
        (
            ("--family", "h3", "--k", "6", "--t", "1", "--core", "/nonexistent"),
            "--core and --core-labels (the a1, a2 roles) go together",
        ),
        (
            ("--family", "h3", "--k", "6", "--t", "1", "--core", "/nonexistent",
             "--core-labels", "/nonexistent", "--core-r", "0"),
            "--core-r builds a wheel core and cannot be combined with --core",
        ),
    ],
)
def test_construct_flag_its_family_does_not_read_exit_2(capsys, flags, message):
    code, out, err = run(capsys, "construct", *flags)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err


def test_family_flags_are_construct_options_that_default_to_none():
    # _cmd_construct reads each as an attribute and takes None as not given
    args = vars(_build_parser().parse_args(["construct", "--family", "h1", "--k", "7"]))
    for dest in {d for flags in _FAMILY_FLAGS.values() for d in flags}:
        assert dest in args and args[dest] is None, dest


@pytest.mark.parametrize(
    "flags,message",
    [
        (("--family", "h1", "--k", "7"), "construct --family h1 requires --n"),
        (("--family", "h2", "--k", "6"), "construct --family h2 requires --t"),
    ],
)
def test_construct_without_its_size_flag_exit_2(capsys, flags, message):
    code, out, err = run(capsys, "construct", *flags)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_verify_saturated_from_stdin(capsys, monkeypatch):
    feed_stdin(monkeypatch, graph6_encode(build_h1(7, 9).graph) + "\n")
    code, out, _ = run(capsys, "verify", "--k", "7", "--mode", "saturated")
    assert code == 0
    assert out.strip() == "SATURATED"


def test_verify_failure_exit_1(capsys, monkeypatch):
    c7 = Graph(7, [(i, (i + 1) % 7) for i in range(7)])
    feed_stdin(monkeypatch, graph6_encode(c7))
    code, out, err = run(capsys, "verify", "--k", "7", "--mode", "saturated")
    assert code == 1
    assert out.strip().startswith("NOT SATURATED")


def test_verify_saturated_on_a_graph_with_a_k_cycle_exit_1(capsys, monkeypatch):
    feed_stdin(monkeypatch, "F~~~w\n")  # K7
    code, out, err = run(capsys, "verify", "--k", "7", "--mode", "saturated")
    assert (code, out) == (1, "NOT SATURATED\n")
    assert err == "graph already contains a 7-cycle: 0 2 3 4 5 6 1\n"


@pytest.mark.parametrize("family,mode", [("h2", "k-suitable"), ("h3", "kk2-suitable")])
def test_construct_core_that_fails_verification_exit_1(
    capsys, monkeypatch, tmp_path, family, mode
):
    # the path P8 is no suitable core, so the gate refuses it; with the gate
    # made to pass it, the built graph's own check then fails
    core, sidecar = tmp_path / "p8.g6", tmp_path / "p8.lab"
    core.write_text("GhCGGC\n")
    sidecar.write_text("a1=0\na2=7\n")
    argv = [
        "construct", "--family", family, "--k", "8", "--t", "2",
        "--core", str(core), "--core-labels", str(sidecar),
    ]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: core is not {mode} for k=8: ")
    pass_suitability_gate(monkeypatch)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("construction failed verification: ")


def test_verify_free_mode(capsys, monkeypatch):
    feed_stdin(monkeypatch, graph6_encode(build_h1(7, 9).graph))
    code, out, _ = run(capsys, "verify", "--k", "7", "--mode", "free")
    assert code == 0 and out.strip() == "FREE"
    c7 = Graph(7, [(i, (i + 1) % 7) for i in range(7)])
    feed_stdin(monkeypatch, graph6_encode(c7))
    code, out, err = run(capsys, "verify", "--k", "7", "--mode", "free")
    assert code == 1 and out.strip() == "NOT FREE"
    assert "cycle found" in err


def test_verify_free_mode_certificate_exit_2(capsys, monkeypatch, tmp_path):
    cert_path = tmp_path / "cert.txt"
    feed_stdin(monkeypatch, graph6_encode(build_h1(7, 9).graph))
    code, out, err = run(
        capsys, "verify", "--k", "7", "--mode", "free", "--certificate", str(cert_path)
    )
    assert code == 2
    assert out == ""
    assert "certificates need --mode saturated or --mode semisaturated" in err
    assert not cert_path.exists()


def test_verify_semisaturated_edge_list_input(capsys, tmp_path):
    w = build_wheel(6, 0)
    path = tmp_path / "wheel.txt"
    path.write_text("6\n" + "\n".join(f"{u} {v}" for u, v in w.graph.edges) + "\n")
    code, out, _ = run(
        capsys, "verify", "--k", "6", "--mode", "semisaturated", "--in", str(path)
    )
    assert code == 0 and out.strip() == "SEMISATURATED"


def test_verify_missing_file_exit_2(capsys):
    code, _, err = run(
        capsys, "verify", "--k", "6", "--mode", "free", "--in", "/nonexistent/g.g6"
    )
    assert code == 2
    assert "not found" in err


def test_verify_malformed_input_exit_2(capsys, monkeypatch):
    feed_stdin(monkeypatch, "B\x01\n")
    code, _, err = run(capsys, "verify", "--k", "6", "--mode", "free")
    assert code == 2
    assert "malformed" in err


def test_verify_empty_input_exit_2(capsys, monkeypatch):
    feed_stdin(monkeypatch, "")
    code, out, err = run(capsys, "verify", "--k", "3", "--mode", "free")
    assert (code, out, err) == (2, "", "error: malformed graph input: empty graph input\n")


def test_verify_search_budget_exhausted_exit_3(capsys, monkeypatch):
    monkeypatch.setattr("cyclesat.cycles.DEFAULT_EXPANSION_BUDGET", 0)
    feed_stdin(monkeypatch, graph6_encode(build_h1(7, 9).graph))
    code, out, err = run(capsys, "verify", "--k", "7", "--mode", "saturated")
    assert (code, out, err) == (3, "", "budget exhausted: node expansion budget exhausted\n")


def test_verify_two_graph6_lines_exit_2(capsys, tmp_path):
    # only one graph is verified per run, so a second one is an error
    path = tmp_path / "two.g6"
    path.write_text("Bw\nBw\n")
    code, out, err = run(capsys, "verify", "--k", "3", "--mode", "free", "--in", str(path))
    assert code == 2
    assert out == ""
    assert "malformed" in err and "more than one line" in err


def test_certify_writes_validating_certificate(capsys, monkeypatch, tmp_path):
    h = build_h1(7, 9)
    cert_path = tmp_path / "cert.txt"
    feed_stdin(monkeypatch, graph6_encode(h.graph))
    code, out, _ = run(
        capsys, "verify", "--k", "7", "--mode", "saturated", "--certificate", str(cert_path)
    )
    assert code == 0
    cert = Certificate.from_text(cert_path.read_text())
    assert cert.validate(h.graph) == []
    assert cert.mode == "saturated" and cert.k == 7


@pytest.fixture
def h1_files(tmp_path):
    h = build_h1(7, 9)
    graph_path = tmp_path / "h1.g6"
    graph_path.write_text(graph6_encode(h.graph) + "\n")
    cert = is_saturated(h.graph, 7).certificate
    return graph_path, cert, tmp_path / "h1.cert"


def test_check_certificate_valid_exit_0(capsys, h1_files):
    graph_path, cert, cert_path = h1_files
    cert_path.write_text(cert.to_text())
    code, out, err = run(
        capsys, "check-certificate", "--in", str(graph_path), "--cert", str(cert_path)
    )
    assert (code, out.strip(), err) == (0, "VALID", "")


def test_check_certificate_problems_exit_1(capsys, h1_files):
    graph_path, cert, cert_path = h1_files
    (ne, wit), *_ = sorted(cert.per_nonedge.items())
    bad = dict(cert.per_nonedge)
    bad[ne] = wit[:-1] + (wit[0],)
    cert_path.write_text(Certificate(cert.n, cert.k, cert.mode, bad).to_text())
    code, out, err = run(
        capsys, "check-certificate", "--in", str(graph_path), "--cert", str(cert_path)
    )
    assert code == 1 and out.strip() == "INVALID"
    assert f"witness for {ne}" in err


@pytest.mark.parametrize(
    "graph_text,cert_text,message",
    [
        (None, "n 9\nmode saturated\n", "missing header 'k'"),
        (None, "n 9\nk 7\nmode saturated\n0 x : 1 2\n", "line 4"),
        (None, "n 9\nk 7\nmode saturated\nfreeness maybe\n", "unknown freeness"),
        ("B\x01\n", None, "malformed graph input"),
    ],
)
def test_check_certificate_bad_input_exit_2(capsys, h1_files, graph_text, cert_text, message):
    graph_path, cert, cert_path = h1_files
    if graph_text is not None:
        graph_path.write_text(graph_text)
    cert_path.write_text(cert.to_text() if cert_text is None else cert_text)
    code, out, err = run(
        capsys, "check-certificate", "--in", str(graph_path), "--cert", str(cert_path)
    )
    assert (code, out) == (2, "")
    assert message in err


def test_check_certificate_with_no_room_for_a_k_cycle_exit_1(capsys, tmp_path):
    graph_path = tmp_path / "k3.g6"
    graph_path.write_text("Bw\n")
    cert_path = tmp_path / "k3.cert"
    cert_path.write_text("n 3\nk 5\nmode semisaturated\n")
    code, out, err = run(
        capsys, "check-certificate", "--in", str(graph_path), "--cert", str(cert_path)
    )
    assert (code, out.strip()) == (1, "INVALID")
    assert "no 5-cycle fits in a graph on 3 vertices" in err


def test_check_certificate_freeness_header_on_semisaturated_exit_2(capsys, tmp_path):
    # the 6-wheel has a 6-cycle, so a semisaturated certificate of it cannot
    # be read as a freeness claim
    graph_path, cert_path = tmp_path / "w6.g6", tmp_path / "w6.cert"
    graph_path.write_text(graph6_encode(build_wheel(6, 0).graph) + "\n")
    code, out, _ = run(
        capsys, "verify", "--k", "6", "--mode", "semisaturated", "--in", str(graph_path),
        "--certificate", str(cert_path),
    )
    assert (code, out) == (0, "SEMISATURATED\n")
    cert_path.write_text(cert_path.read_text() + "freeness confirmed\n")
    code, out, err = run(
        capsys, "check-certificate", "--in", str(graph_path), "--cert", str(cert_path)
    )
    assert (code, out) == (2, "")
    assert "mode semisaturated takes no header 'freeness confirmed'" in err
    code, out, _ = run(capsys, "verify", "--k", "6", "--mode", "free", "--in", str(graph_path))
    assert (code, out) == (1, "NOT FREE\n")


def test_check_certificate_missing_file_exit_2(capsys, h1_files):
    graph_path, _, cert_path = h1_files
    code, _, err = run(
        capsys, "check-certificate", "--in", str(graph_path), "--cert", str(cert_path)
    )
    assert code == 2
    assert "not found" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--k", "3", "--mode", "free", "--in", "{dir}"],
        ["check-certificate", "--in", "{graph}", "--cert", "{dir}"],
        ["construct", "--family", "wheel", "--k", "5", "--out", "{missing}"],
        ["construct", "--family", "wheel", "--k", "5", "--labels", "{missing}"],
        ["verify", "--k", "7", "--mode", "saturated", "--in", "{graph}",
         "--certificate", "{missing}"],
        ["oracle", "--k", "4", "--n", "5", "--mode", "sat", "--golden", "{missing}"],
    ],
    ids=[
        "verify-in-dir", "check-cert-dir", "construct-out", "construct-labels",
        "verify-certificate", "oracle-golden",
    ],
)
def test_file_system_errors_exit_2(capsys, h1_files, tmp_path, argv):
    # a directory read as a file, or a write into a missing directory
    graph_path = h1_files[0]
    paths = {"dir": tmp_path, "graph": graph_path, "missing": tmp_path / "missing" / "x"}
    code, _, err = run(capsys, *(a.format(**paths) for a in argv))
    assert code == 2
    assert err.startswith("error: ")


@pytest.mark.parametrize("where", ["missing-dir", "is-dir"])
@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "--family", "h1", "--k", "7", "--n", "9", "--out", "{bad}"],
        ["construct", "--family", "h1", "--k", "7", "--n", "9", "--out", "{good}",
         "--labels", "{bad}"],
        ["verify", "--k", "7", "--mode", "saturated", "--in", "{graph}",
         "--certificate", "{bad}"],
    ],
    ids=["out", "labels", "certificate"],
)
def test_output_paths_are_checked_before_any_work(capsys, h1_files, tmp_path, argv, where):
    # exit 2 with nothing printed and nothing written: no graph6 line
    # before a bad --labels, no verdict before a bad --certificate
    bad = tmp_path / "missing" / "x.txt" if where == "missing-dir" else tmp_path
    paths = {"bad": bad, "good": tmp_path / "g.g6", "graph": h1_files[0]}
    code, out, err = run(capsys, *(a.format(**paths) for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and argv[-2] in err
    assert not (tmp_path / "g.g6").exists() and not (tmp_path / "missing").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "--family", "h1", "--k", "7", "--n", "9", "--out", "{x}", "--labels", "{x}"],
        ["verify", "--k", "7", "--mode", "saturated", "--in", "{x}", "--certificate", "{x}"],
        ["construct", "--family", "h2", "--k", "6", "--t", "1", "--core", "{x}",
         "--core-labels", "{labels}", "--out", "{x}"],
    ],
    ids=["out-labels", "in-certificate", "core-out"],
)
def test_an_output_naming_another_file_of_the_command_is_refused(capsys, tmp_path, argv):
    # each used to exit 0 with the second write over the first, or over the input
    wheel = build_wheel(6, 0)
    x, labels = tmp_path / "x.g6", tmp_path / "labels.txt"
    x.write_text(graph6_encode(build_h1(7, 9).graph if "h2" not in argv else wheel.graph) + "\n")
    labels.write_text(labels_encode(wheel.labels))
    before = {p: p.read_text() for p in tmp_path.iterdir()}
    code, out, err = run(capsys, *(a.format(x=x, labels=labels) for a in argv))
    first = argv[argv.index("{x}") - 1]
    assert (code, out, err) == (2, "", f"error: {argv[-2]} names the same file as {first}: {x}\n")
    assert {p: p.read_text() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "--family", "h1", "--k", "7", "--n", "9", "--out", "{x}", "--labels", "{y}"],
        ["verify", "--k", "7", "--mode", "saturated", "--in", "{x}", "--certificate", "{y}"],
    ],
    ids=["out-labels", "in-certificate"],
)
def test_a_hard_link_to_another_file_of_the_command_is_refused(capsys, tmp_path, argv):
    # y is a second name of x: each used to exit 0 with the second write over x
    x, y = tmp_path / "x.g6", tmp_path / "y.g6"
    x.write_text(graph6_encode(build_h1(7, 9).graph) + "\n")
    os.link(x, y)
    before = x.read_bytes()
    code, out, err = run(capsys, *(a.format(x=x, y=y) for a in argv))
    first = argv[argv.index("{x}") - 1]
    assert (code, out, err) == (2, "", f"error: {argv[-2]} names the same file as {first}: {y}\n")
    assert x.read_bytes() == before and sorted(tmp_path.iterdir()) == [x, y]


def test_bounds_table(capsys):
    code, out, _ = run(capsys, "bounds", "--k", "6", "--n", "20")
    assert code == 0
    assert "ssat-lower" in out and "ssat-upper" in out
    lower = next(ln for ln in out.splitlines() if ln.startswith("ssat-lower"))
    upper = next(ln for ln in out.splitlines() if ln.startswith("ssat-upper "))
    assert "20" in lower and "35" in upper


def test_bounds_csv_columns(capsys):
    code, out, _ = run(capsys, "bounds", "--k", "7", "--n", "9", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "name,kind,numerator,denominator,applicable"
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert row["name"] == "sat-lower"
    assert row == {
        "name": "sat-lower", "kind": "lower-strict",
        "numerator": "9", "denominator": "1", "applicable": "yes",
    }


def test_bounds_range_csv(capsys):
    code, out, _ = run(capsys, "bounds", "--k", "6", "--n", "10..12", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("n,name,kind")
    assert any(ln.startswith("12,") for ln in lines)


def test_bounds_range_table_separates_each_n_by_one_blank_line(capsys):
    code, out, _ = run(capsys, "bounds", "--k", "6", "--n", "10..11")
    assert code == 0
    tables = out.split("\n\n")
    assert len(tables) == 2
    assert tables[0].startswith("bounds for n=10, k=6\n")
    assert tables[1].startswith("bounds for n=11, k=6\n")
    assert not out.endswith("\n\n")


def test_bounds_bad_range_exit_2(capsys):
    code, out, err = run(capsys, "bounds", "--k", "6", "--n", "10-12")
    assert (code, out, err) == (2, "", "error: bad --n '10-12'; expected N or A..B\n")


def test_bounds_into_a_closed_pipe_exit_141():
    # the reader takes one line and closes the pipe, as ``| head -1`` does
    src = Path(__file__).resolve().parents[1] / "src"
    argv = ["bounds", "--k", "6", "--n", "10..2000", "--csv"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "cyclesat.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.stdout.readline() == b"n,name,kind,numerator,denominator,applicable\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(timeout=60), err) == (141, b"")


def test_bounds_requires_n_or_range(capsys):
    code, _, err = run(capsys, "bounds", "--k", "6")
    assert code == 2 and "--n" in err


@pytest.mark.parametrize("fmt", [(), ("--csv",)])
@pytest.mark.parametrize(
    "k,n,message",
    [
        ("6", "9..5", "empty --n '9..5'; B must not be below A"),
        ("6", "10-12", "bad --n '10-12'; expected N or A..B"),
        # a bad k or n is refused before the CSV header is printed
        ("2", "5", "need n >= 1 and k >= 3, got n=5, k=2"),
        ("6", "0", "need n >= 1 and k >= 3, got n=0, k=6"),
        ("6", "0..3", "need n >= 1 and k >= 3, got n=0, k=6"),
    ],
)
def test_bounds_empty_range_exit_2(capsys, fmt, k, n, message):
    code, out, err = run(capsys, "bounds", "--k", k, "--n", n, *fmt)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_oracle_writes_golden(capsys, tmp_path):
    golden = tmp_path / "oracle_values.csv"
    code, out, _ = run(
        capsys,
        "oracle", "--k", "4", "--n", "5", "--mode", "sat", "--golden", str(golden),
    )
    assert code == 0
    assert "sat(5, C4) = 5" in out
    # the result line, as mine-suitable prints it, splits the time into
    # level generation and verification
    assert re.search(
        r"^examined \d+ classes in \d+\.\ds \(generate \d+\.\ds, verify \d+\.\ds\)$",
        out,
        re.M,
    )
    assert golden.read_text().splitlines()[1].startswith("5,4,sat,5,")


@pytest.mark.parametrize("where", ["missing-dir", "is-dir"])
def test_oracle_rejects_golden_path_before_search(capsys, tmp_path, where):
    golden = tmp_path / "missing" / "x.csv" if where == "missing-dir" else tmp_path
    code, out, err = run(
        capsys,
        "oracle", "--k", "4", "--n", "5", "--mode", "sat", "--golden", str(golden),
    )
    assert code == 2
    assert err.startswith("error: ")
    assert out == ""
    assert not (tmp_path / "missing").exists()


def test_oracle_rejects_a_foreign_golden_header_before_search(capsys, tmp_path):
    golden = tmp_path / "other.csv"
    golden.write_text("foo,bar\n1,2\n")
    code, out, err = run(
        capsys,
        "oracle", "--k", "4", "--n", "5", "--mode", "sat", "--golden", str(golden),
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "foreign header" in err
    assert golden.read_text() == "foo,bar\n1,2\n"


def test_oracle_without_golden_writes_nothing(capsys, monkeypatch, tmp_path):
    # the golden file is opt-in: an exact result writes no file unless asked
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "oracle", "--k", "4", "--n", "5", "--mode", "sat")
    assert code == 0
    assert "sat(5, C4) = 5" in out
    assert list(tmp_path.iterdir()) == []


def test_oracle_budget_exit_3(capsys, tmp_path):
    golden = tmp_path / "oracle_values.csv"
    code, out, _ = run(
        capsys,
        "oracle", "--k", "4", "--n", "8", "--mode", "sat",
        "--max-seconds", "0", "--golden", str(golden),
    )
    assert code == 3
    assert "budget exhausted" in out
    assert not golden.exists()


def test_mine_suitable_cli(capsys):
    code, out, _ = run(capsys, "mine-suitable", "--k", "6")
    assert code == 0
    lines = out.splitlines()
    assert "9" in lines[0]
    assert lines[1] == "witness: EJew"
    assert lines[2:4] == ["a1=0", "a2=4"]
    assert re.fullmatch(
        r"examined 105 classes in \d+\.\ds \(generate \d+\.\ds, verify \d+\.\ds\)",
        lines[4],
    )
    assert len(lines) == 5


def test_mine_suitable_budget_exit_3(capsys):
    # a spent budget leaves the floor proven so far, as oracle reports it
    code, out, err = run(capsys, "mine-suitable", "--k", "7", "--max-seconds", "0")
    assert (code, out, err) == (
        3, "minimum size of a 7-vertex k-suitable core >= 6  [budget exhausted]\n", ""
    )


def test_mine_suitable_above_ceiling_exit_2(capsys):
    code, out, err = run(capsys, "mine-suitable", "--k", "9")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "ceiling" in err


def test_usage_error_exit_2(capsys):
    assert main(["bogus-subcommand"]) == 2
    assert main([]) == 2
    assert main(["oracle", "--k", "4"]) == 2  # missing required args


def test_identical_invocations_identical_output(capsys):
    a = run(capsys, "bounds", "--k", "8", "--n", "30", "--csv")
    b = run(capsys, "bounds", "--k", "8", "--n", "30", "--csv")
    assert a == b
    c = run(capsys, "construct", "--family", "h1", "--k", "7", "--n", "9")
    d = run(capsys, "construct", "--family", "h1", "--k", "7", "--n", "9")
    assert c == d


@pytest.mark.parametrize("value", ["nan", "-1", "abc"])
@pytest.mark.parametrize("command", [
    ("oracle", "--k", "4", "--n", "8", "--mode", "sat"),
    ("mine-suitable", "--k", "6"),
])
def test_bad_budget_rejected(capsys, command, value):
    code, _, err = run(capsys, *command, "--max-seconds", value)
    assert code == 2
    if value == "abc":
        # argparse refuses a flag value that is not a float, naming the flag
        assert "--max-seconds: invalid float value" in err
    else:
        assert f"time budget must be a non-negative number of seconds, got {float(value)}" in err


@pytest.mark.parametrize(
    "labels,message",
    [
        ("a1=99\na2=1\n", "special pair (99, 1)"),
        ("a1=1\na2=1\n", "special pair (1, 1)"),
        ("a1=x\na2=1\n", "bad label line 'a1=x'"),
        ("a1=0\na2=1\na1=3\n", "repeated role 'a1'"),
        ("a1=0\na2=1\n=1 2\n", "bad label line '=1 2'"),
        ("a1=0\na2=1\nbogus=3\n", "bad label line 'bogus=3'"),
    ],
)
def test_construct_bad_special_pair_exit_2(capsys, tmp_path, labels, message):
    core = tmp_path / "w6.g6"
    core.write_text(graph6_encode(build_wheel(6, 0).graph) + "\n")
    sidecar = tmp_path / "core.lab"
    sidecar.write_text(labels)
    argv = [
        "construct", "--family", "h2", "--k", "6", "--t", "1",
        "--core", str(core), "--core-labels", str(sidecar),
    ]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err
