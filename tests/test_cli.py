import io
import json
import re

import pytest

from p4spec import theorems
from p4spec.cli import main


def run(capsys, *argv):
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


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


def test_analyze_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("EhEG\n"))
    rc, out, _ = run(capsys, "analyze", "-", "--format", "g6")
    assert rc == 0
    assert "n: 6" in out


def test_analyze_rejects_several_graphs(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("EhEG\nC~\n"))
    rc, out, err = run(capsys, "analyze", "-")
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and "2 graphs" in err
    # one graph with trailing newlines and blank lines stays valid
    monkeypatch.setattr("sys.stdin", io.StringIO("\nEhEG\n\n"))
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
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
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
    assert re.search(r"^n=4 exhaustive \(64\): 11 classes, generated in \d+\.\d{3}s$",
                     err, re.M)
    assert re.search(r"^n=5 sampled \(100\)$", err, re.M)
    assert "classes" not in out


def test_verify_theorems_stdout_deterministic(capsys):
    _, out1, _ = run(capsys, "verify-theorems", "--n-max", "4")
    _, out2, _ = run(capsys, "verify-theorems", "--n-max", "4")
    assert out1 == out2


def test_verify_theorems_violation_exit_code(capsys, monkeypatch):
    monkeypatch.setitem(theorems.DEFAULT_CHECKS, "a", lambda ctx: False)
    rc, out, _ = run(capsys, "verify-theorems", "--n-max", "2",
                     "--theorems", "a")
    assert rc == 1
    doc = json.loads(out)
    assert doc["results"][0]["violations"] == 3
    assert doc["results"][0]["counterexample"] == "@"


def test_verify_theorems_bad_args(capsys):
    rc, _, err = run(capsys, "verify-theorems", "--n-max", "99")
    assert rc == 2
    assert err.startswith("error:")
