import io
import json
import os
import random
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from p4spec import cli, spectral, theorems
from p4spec.cli import main
from p4spec.constructions import standard, thin_spider
from p4spec.formats import serialize_graph6
from p4spec.p4 import ClassificationReport


def run(capsys, *argv):
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def stdin_of(text):
    """A stand-in for sys.stdin that, like the real one, has a byte buffer."""
    return io.TextIOWrapper(io.BytesIO(text.encode()))


@pytest.fixture
def c6_file(tmp_path):
    path = tmp_path / "c6.g6"
    path.write_text("EhEG\n")
    return str(path)


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("p4spec ")


def test_analyze_text_report(capsys, c6_file):
    rc, out, _ = run(capsys, "analyze", c6_file)
    assert rc == 0
    assert out == (
        "n: 6\n"
        "m: 6\n"
        "p4_count: 6\n"
        "is_cograph: false\n"
        "is_p4_sparse: false\n"
        "is_p4_extendible: false\n"
        "is_p4_reducible: false\n"
        "is_p4_connected: true\n"
        "spider: none\n"
        "l_integral: true\n"
        "spectrum: {4:1, 3:2, 1:2, 0:1}\n"
    )


def test_analyze_json_report(capsys, c6_file):
    rc, out, _ = run(capsys, "analyze", c6_file, "--json", "--numeric")
    assert rc == 0
    doc = json.loads(out)
    assert doc["n"] == 6
    assert doc["l_integral"] is True
    assert doc["spectrum"]["integer_roots"] == [[4, 1], [3, 2], [1, 2], [0, 1]]
    numeric = doc["numeric_spectrum"]
    assert len(numeric) == 6
    assert abs(numeric[-1] - 4.0) < 1e-9


def test_analyze_text_residual_and_spider(capsys, tmp_path):
    path = tmp_path / "p4.txt"
    path.write_text("4 3\n0 1\n1 2\n2 3\n")
    rc, out, _ = run(capsys, "analyze", str(path), "--format", "edges")
    assert rc == 0
    assert "spider: thin k=2 legs=[0, 3] body=[1, 2] head=[]" in out
    assert "l_integral: false" in out
    assert "spectrum: {2:1, 0:1} residual x^2 - 4*x + 2" in out


@pytest.mark.parametrize("g", [standard("cycle", 10), thin_spider(3), standard("complete", 1)],
                         ids=["C10", "thin_spider(3)", "K1"])
def test_analyze_text_and_json_keys_are_the_report_fields(capsys, tmp_path, g):
    path = tmp_path / "g.g6"
    path.write_text(serialize_graph6(g) + "\n")
    fields = list(ClassificationReport._fields)
    for flags, keys in (((), fields), (("--numeric",), fields + ["numeric_spectrum"])):
        rc, text, _ = run(capsys, "analyze", str(path), *flags)
        assert rc == 0
        assert [line.split(":", 1)[0] for line in text.splitlines()] == keys
        rc, doc, _ = run(capsys, "analyze", str(path), "--json", *flags)
        assert rc == 0
        assert list(json.loads(doc)) == keys


def test_analyze_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", stdin_of("EhEG\n"))
    rc, out, _ = run(capsys, "analyze", "-", "--format", "g6")
    assert rc == 0
    assert "n: 6" in out


def test_analyze_rejects_several_graphs(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", stdin_of("EhEG\nC~\n"))
    rc, out, err = run(capsys, "analyze", "-")
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and "2 graphs" in err
    # one graph with trailing newlines and blank lines stays valid
    monkeypatch.setattr("sys.stdin", stdin_of("\nEhEG\n\n"))
    rc, out, _ = run(capsys, "analyze", "-", "--format", "g6")
    assert rc == 0
    assert "n: 6" in out


def test_analyze_missing_file(capsys):
    rc, _, err = run(capsys, "analyze", "/nonexistent/graph.g6")
    assert rc == 2
    assert err.startswith("error:")


def test_spectrum_exact(capsys, c6_file):
    rc, out, _ = run(capsys, "spectrum", c6_file)
    assert rc == 0
    doc = json.loads(out)
    assert doc == {
        "integer_roots": [[4, 1], [3, 2], [1, 2], [0, 1]],
        "residual": [1],
        "is_integral": True,
    }


def test_spectrum_numeric(capsys, c6_file):
    rc, out, _ = run(capsys, "spectrum", c6_file, "--mode", "numeric")
    assert rc == 0
    vals = json.loads(out)["eigenvalues"]
    assert vals == sorted(vals)
    assert abs(vals[0]) < 1e-9 and abs(vals[-1] - 4.0) < 1e-9


def test_spectrum_closed_form(capsys, tmp_path):
    path = tmp_path / "spider.txt"
    path.write_text("spider(thin,k=3,head=E2)\n")
    rc, out, _ = run(capsys, "generate", "spider(thin,k=3,head=E2)",
                     "--format", "g6")
    g6 = out
    gf = tmp_path / "spider.g6"
    gf.write_text(g6)
    rc, out, _ = run(capsys, "spectrum", str(gf), "--mode", "closed-form")
    assert rc == 0
    doc = json.loads(out)
    entries = {name: mult for name, mult in doc["entries"]}
    assert entries["(7+sqrt(29))/2"] == 2
    assert entries["0"] == 1
    assert len(doc["values"]) == 8


def test_spectrum_closed_form_is_checked_before_printing(capsys, monkeypatch, tmp_path):
    # formulas for one leg too many: the certificate fails, nothing is printed
    real = cli.thin_spider_closed_form
    monkeypatch.setattr(cli, "thin_spider_closed_form", lambda k, j: real(k + 1, j))
    gf = tmp_path / "spider.g6"
    gf.write_text(run(capsys, "generate", "spider(thin,k=3,head=E2)", "--format", "g6")[1])
    rc, out, err = run(capsys, "spectrum", str(gf), "--mode", "closed-form")
    assert rc == 1
    assert out == ""
    assert err.splitlines() == ["error: closed-form spectrum does not match the "
                                "characteristic polynomial"]
    assert "Traceback" not in err


def test_analyze_numeric_sweep_cap_is_a_failed_certificate(capsys, monkeypatch):
    # Jacobi gets no sweeps, so P4's eigenvalues never converge
    monkeypatch.setattr(spectral, "_JACOBI_MAX_SWEEPS", 0)
    monkeypatch.setattr("sys.stdin", stdin_of(serialize_graph6(standard("path", 4))))
    rc, out, err = run(capsys, "analyze", "-", "--format", "g6", "--numeric")
    assert rc == 1
    assert out == ""
    assert err.splitlines() == ["error: Jacobi sweep cap reached without convergence"]


def test_spectrum_closed_form_rejects_non_spider(capsys, c6_file):
    rc, _, err = run(capsys, "spectrum", c6_file, "--mode", "closed-form")
    assert rc == 2
    assert "not a thin spider with edgeless head" in err


def test_generate_edges(capsys):
    rc, out, _ = run(capsys, "generate", "path(4)")
    assert rc == 0
    assert out == "4 3\n0 1\n1 2\n2 3\n"


def test_generate_g6(capsys):
    rc, out, _ = run(capsys, "generate", "cycle(6)", "--format", "g6")
    assert rc == 0
    assert out == "EhEG\n"


def test_generate_pipe_round_trip(capsys, monkeypatch, tmp_path):
    rc, out, _ = run(capsys, "generate", "join(K1,union(K2,K2))",
                     "--format", "g6")
    monkeypatch.setattr("sys.stdin", stdin_of(out))
    rc, out, _ = run(capsys, "analyze", "-")
    assert rc == 0
    assert "is_cograph: true" in out
    assert "l_integral: true" in out


def test_generate_bad_expression(capsys):
    rc, _, err = run(capsys, "generate", "cycle(")
    assert rc == 2
    assert err.startswith("error:")


def test_generate_complement(capsys):
    rc, out, _ = run(capsys, "generate", "complement(P4)")
    assert rc == 0
    assert out == "4 3\n0 2\n0 3\n1 3\n"


def test_generate_deep_nesting_is_bad_input(capsys):
    rc, out, err = run(capsys, "generate", "union(" * 3000 + "K1,K1" + ")" * 3000)
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and "nested deeper" in err


def test_generate_over_vertex_cap_is_bad_input(capsys, monkeypatch):
    monkeypatch.setenv("P4SPEC_MAX_N", "10")
    rc, out, err = run(capsys, "generate", "spider(thin,k=4,head=K3)")
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and "cap of 10" in err


# Address-space limit for the subprocess tests below: far above what any
# accepted input needs, far below what an uncapped builder would allocate.
_MEMORY_LIMIT = 512 << 20
_SRC = str(Path(__file__).resolve().parent.parent / "src")


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (_MEMORY_LIMIT, _MEMORY_LIMIT))


def run_limited(argv, stdin=""):
    """Run python with argv in a subprocess under the memory limit; stdin
    and the captured output are bytes if stdin is."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    env.pop("P4SPEC_MAX_N", None)
    return subprocess.run([sys.executable, *argv], input=stdin, capture_output=True,
                          text=isinstance(stdin, str), env=env,
                          preexec_fn=_limit_memory, timeout=600)


@pytest.mark.parametrize("data", [b"B\xc3\xa9\n", b"B\xff\n"])
def test_analyze_rejects_non_ascii_graph6_on_stdin(data):
    proc = run_limited(["-m", "p4spec.cli", "analyze", "-", "--format", "g6"], data)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"error:") and b"Traceback" not in proc.stderr


@pytest.mark.parametrize("data", [b"\xd9\xa3 0\n", b"B\xff\n", b"B\xc3\xa9\n", b"3 1\n0 \xb2\n",
                                  b"EhEG\n"])
def test_stdin_and_file_read_alike(data, tmp_path):
    # an Arabic-Indic digit three (UTF-8 d9 a3) passes int() once decoded
    # by the locale; the raw bytes are rejected on both paths, naming the
    # byte and its offset
    path = tmp_path / "input"
    path.write_bytes(data)
    piped = run_limited(["-m", "p4spec.cli", "analyze", "-"], data)
    read = run_limited(["-m", "p4spec.cli", "analyze", str(path)], b"")
    assert (piped.returncode, piped.stdout, piped.stderr) == \
        (read.returncode, read.stdout, read.stderr)
    if data.isascii():
        assert piped.returncode == 0 and b"n: 6" in piped.stdout
    else:
        bad = next(i for i, b in enumerate(data) if b > 127)
        assert piped.returncode == 2 and piped.stdout == b""
        assert piped.stderr == b"error: non-ASCII byte 0x%02x at offset %d\n" % (data[bad], bad)


@pytest.mark.parametrize("flags", [[], ["-W", "error"]])
def test_duplicate_edge_warning_is_a_note(flags):
    proc = run_limited([*flags, "-m", "p4spec.cli", "analyze", "-"], "3 2\n0 1\n1 0\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "warning: duplicate edge 0 1 collapsed\n"
    assert "m: 1\n" in proc.stdout


@pytest.mark.parametrize("expression", ["spider(thin,k=1000000000)", "K100000",
                                        "path(100000000)"])
def test_generate_checks_vertex_cap_before_building(expression):
    proc = run_limited(["-m", "p4spec.cli", "generate", expression])
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:") and "exceeds the cap" in proc.stderr


_FUZZ_DRIVER = """
import contextlib, io, json, sys, traceback
from p4spec.cli import main
bad = []
for argv, text in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    sys.stdin = io.TextIOWrapper(io.BytesIO(text.encode()))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    except BaseException:
        rc = traceback.format_exc()
    if rc not in (0, 2) or "Traceback" in err.getvalue():
        bad.append([argv, text, rc])
print(json.dumps(bad))
"""

_NAMES = ("union", "join", "complement", "spider", "family", "caseiv", "path",
          "cycle", "complete", "empty", "thin", "thick", "k", "head", "F0",
          "F3", "F6", "P4", "K", "E2", "foo")


def _fuzz_int(rng):
    return rng.choice((rng.randint(0, 12), rng.randint(0, 70), rng.randint(0, 10**9)))


def _fuzz_expression(rng, depth=0):
    """A random expression that is usually well formed."""
    roll = rng.random()
    if depth > 3 or roll < 0.3:
        return rng.choice("KEPC") + str(_fuzz_int(rng))
    if roll < 0.45:
        return f"{rng.choice(('path', 'cycle', 'complete', 'empty'))}({_fuzz_int(rng)})"
    if roll < 0.6:
        ops = ",".join(_fuzz_expression(rng, depth + 1) for _ in range(rng.randint(1, 3)))
        return f"{rng.choice(('union', 'join'))}({ops})"
    if roll < 0.7:
        return f"complement({_fuzz_expression(rng, depth + 1)})"
    if roll < 0.85:
        head = f",head={_fuzz_expression(rng, depth + 1)}" if rng.random() < 0.5 else ""
        return f"spider({rng.choice(('thin', 'thick', 'fat'))},k={_fuzz_int(rng)}{head})"
    if roll < 0.93:
        return f"family({rng.choice(('P4', 'F0', 'F3', 'F6', 'F9'))})"
    head = f",head={_fuzz_expression(rng, depth + 1)}" if rng.random() < 0.5 else ""
    return f"caseiv({rng.choice(('P4', 'F3', 'F5', 'F0'))}{head})"


def _fuzz_tokens(rng):
    """A random soup of DSL tokens and stray characters."""
    pieces = []
    for _ in range(rng.randint(0, 12)):
        roll = rng.random()
        if roll < 0.35:
            pieces.append(rng.choice(_NAMES))
        elif roll < 0.55:
            pieces.append(str(_fuzz_int(rng)))
        elif roll < 0.9:
            pieces.append(rng.choice("(),="))
        else:
            pieces.append(rng.choice(" -!@~\t"))
    return "".join(pieces)


def _fuzz_graph6(rng):
    n = rng.randint(0, 12)
    nbytes = (n * (n - 1) // 2 + 5) // 6 + (rng.choice((-1, 1)) if rng.random() < 0.2 else 0)
    text = chr(63 + n) + "".join(
        chr(rng.randint(63, 126) if rng.random() < 0.97 else rng.randint(32, 200))
        for _ in range(nbytes))
    roll = rng.random()
    if roll < 0.1:
        text = "~" + "".join(chr(rng.randint(63, 126)) for _ in range(3)) + text[1:]
    elif roll < 0.15:
        text = ">>graph6<<" + text
    elif roll < 0.2:
        text += "\n" + text
    return text


def _fuzz_edge_list(rng):
    n = rng.choice((rng.randint(0, 12), rng.randint(-2, 70), rng.randint(0, 10**9)))
    top = max(min(n, 13), 1) - 1
    edges = [(rng.randint(0, top), rng.randint(0, top)) if rng.random() < 0.95
             else (rng.randint(-1, top + 2), rng.randint(-1, top + 2))
             for _ in range(rng.randint(0, 20))]
    m = len(edges) + (rng.choice((-1, 1)) if rng.random() < 0.1 else 0)
    lines = [f"{n} {m}" if rng.random() < 0.95 else f"{n} x"]
    lines += [f"{u} {v}" if rng.random() < 0.97 else f"{u}" for u, v in edges]
    return "\n".join(lines) + "\n"


def test_front_ends_fuzz():
    # every input ends in exit code 0 or 2 with no traceback, under the
    # memory limit
    rng = random.Random(2014)
    cases = []
    for i in range(2000):
        text = _fuzz_expression(rng) if i % 2 else _fuzz_tokens(rng)
        cases.append([["generate", text, "--format", rng.choice(("edges", "g6"))], ""])
    for i in range(1000):
        text = _fuzz_graph6(rng) if i % 2 else _fuzz_edge_list(rng)
        argv = ["analyze", "-", "--format", rng.choice(("auto", "edges", "g6"))]
        cases.append([argv + (["--json"] if rng.random() < 0.3 else []), text])
    proc = run_limited(["-c", _FUZZ_DRIVER], json.dumps(cases))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_verify_theorems_clean_run(capsys):
    rc, out, err = run(capsys, "verify-theorems", "--n-max", "4",
                       "--theorems", "a,g")
    assert rc == 0
    doc = json.loads(out)
    assert doc["n_max"] == 4
    assert [r["theorem"] for r in doc["results"]] == ["a", "g"]
    assert all(r["violations"] == 0 for r in doc["results"])
    assert all(r["counterexample"] is None for r in doc["results"])
    assert re.search(r"^theorem a: \d+\.\d{3}s in checks \(summed over workers\)$", err, re.M)
    assert "total:" in err


def test_verify_theorems_reports_classes_on_stderr(capsys):
    rc, out, err = run(capsys, "verify-theorems", "--n-max", "5", "--theorems", "a",
                       "--sample", "100")
    assert rc == 0
    assert re.search(r"^n=4 exhaustive \(64\): 11 classes, generated in \d+\.\d{3}s "
                     r"\(7 canonical searches\)$",
                     err, re.M)
    assert re.search(r"^n=5 sampled \(100\)$", err, re.M)
    assert "classes" not in out


def test_verify_theorems_stdout_deterministic(capsys):
    _, out1, _ = run(capsys, "verify-theorems", "--n-max", "4")
    _, out2, _ = run(capsys, "verify-theorems", "--n-max", "4")
    assert out1 == out2


def test_verify_theorems_violation_exit_code(capsys, monkeypatch):
    monkeypatch.setitem(theorems.DEFAULT_CHECKS, "a", lambda g: False)
    rc, out, _ = run(capsys, "verify-theorems", "--n-max", "2",
                     "--theorems", "a")
    assert rc == 1
    doc = json.loads(out)
    assert doc["results"][0]["violations"] == 3
    assert doc["results"][0]["counterexample"] == "@"


def test_verify_theorems_bad_args(capsys):
    # an empty selection is bad input, not all eight theorems
    for flags in (("--n-max", "99"), ("--n-max", "2", "--theorems", ","),
                  ("--n-max", "2", "--theorems", "")):
        rc, out, err = run(capsys, "verify-theorems", *flags)
        assert rc == 2, flags
        assert out == ""
        assert err.startswith("error:")


@pytest.mark.parametrize("selection", ["a", "h"])
def test_verify_theorems_over_vertex_cap_is_bad_input(capsys, monkeypatch, selection):
    # the cap applies to every theorem, not only to h, whose pairs are
    # built by the capped union
    monkeypatch.setenv("P4SPEC_MAX_N", "5")
    rc, out, err = run(capsys, "verify-theorems", "--n-max", "6", "--theorems", selection)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: 6 vertices exceeds the cap of 5")
    assert run(capsys, "verify-theorems", "--n-max", "5", "--theorems", selection)[0] == 0


def test_verify_theorems_reports_distinct_pairs_on_stderr(capsys):
    # theorem h draws its pairs with replacement: at seed 0 the 500 draws for
    # n = 2..6 hold 181 distinct pairs, yet all 500 count as checked
    rc, out, err = run(capsys, "verify-theorems", "--n-max", "6", "--theorems", "h")
    assert rc == 0
    assert re.search(r"^theorem h: 181 distinct pairs of 500 draws$", err, re.M)
    assert json.loads(out)["results"][0]["checked"] == 500


VERIFY_HELP = """\
usage: p4spec verify-theorems [-h] --n-max N_MAX [--theorems THEOREMS]
                              [--shards SHARDS] [--shard-id SHARD_ID]
                              [--sample SAMPLE] [--workers WORKERS]
                              [--seed SEED]

options:
  -h, --help           show this help message and exit
  --n-max N_MAX        largest vertex count, 1..8
  --theorems THEOREMS  comma separated ids from a,b,c,d,e,f,g,h (default all)
  --shards SHARDS
  --shard-id SHARD_ID
  --sample SAMPLE      sample populations larger than this instead of
                       enumerating
  --workers WORKERS
  --seed SEED
"""


def test_verify_theorems_help(capsys, monkeypatch):
    # the ids and the vertex bound come from the package, not from theorems.py
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["verify-theorems", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == VERIFY_HELP


@pytest.mark.parametrize("argv, text", [
    (["generate", "cycle("], ""),  # DslError
    (["generate", "spider(thin,k=1)"], ""),  # DslError
    (["analyze", "-", "--format", "g6"], "B\n"),  # ParseError
    (["analyze", "-", "--format", "edges"], "3 1\n0 9\n"),  # ParseError
    (["generate", "path(" + "9" * 5000 + ")"], ""),  # DslError, not int()'s own ValueError
])
def test_parse_and_dsl_errors_are_one_error_line(capsys, monkeypatch, argv, text):
    # both are ValueErrors, which the CLI reports as bad input
    monkeypatch.setattr("sys.stdin", stdin_of(text))
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
