"""The package's lazy exports, what each entry point imports, and the
records the analyze and scan paths return."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import p4spec
from p4spec import (
    ClassificationReport,
    ClosedFormSpectrum,
    ExactSpectrum,
    SpiderSpec,
    SurdEigenvalue,
    TheoremResult,
    classify,
    exact_spectrum,
    load_document,
    recognize_spider,
    standard,
    thin_spider,
    thin_spider_closed_form,
    verify_theorems,
)
from p4spec.constructions import mask_to_graph
from p4spec.formats import GraphDocument, serialize_graph6

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_fresh(script, *args, flags=()):
    """Run a python script in a fresh interpreter that sees src/; its stdout."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, *flags, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_every_export_is_the_defining_modules_object():
    for name in p4spec.__all__:
        obj = getattr(p4spec, name)
        home = sys.modules[getattr(obj, "__module__", "p4spec")]
        assert getattr(home, name) is obj, name
    assert p4spec.THEOREMS is p4spec.theorems.THEOREMS
    assert p4spec.MAX_N == p4spec.theorems.MAX_N == 8


def test_star_import_and_dir():
    namespace = {}
    exec("from p4spec import *", namespace)
    assert set(p4spec.__all__) <= set(namespace)
    listed = dir(p4spec)
    assert set(p4spec.__all__) <= set(listed)
    assert {"graphs", "spectral", "p4", "theorems", "dsl", "__version__"} <= set(listed)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        p4spec.no_such_name


def test_bare_import_loads_no_submodule_until_asked():
    out = run_fresh(
        "import sys\n"
        "import p4spec\n"
        "print(sorted(m for m in sys.modules if m.startswith('p4spec.')))\n"
        "print(p4spec.theorems.__name__, p4spec.graphs.__name__)\n"
        "print(p4spec.parse_dsl.__module__)\n")
    assert out.splitlines() == ["[]", "p4spec.theorems p4spec.graphs", "p4spec.dsl"]


ANALYZE_LOADS = """
import sys
before = set(sys.modules)
from p4spec import cli
for arg in sys.argv[1:]:
    if cli.main(arg.split("\\t")):
        sys.exit(f"{arg} failed")
    loaded = set(sys.modules) - before
    print("loaded:", sorted(m for m in loaded
                            if m in ("p4spec.theorems", "p4spec.dsl", "dataclasses", "json")))
"""


def test_analyze_and_spectrum_load_neither_theorems_dsl_nor_dataclasses(tmp_path):
    cycle = tmp_path / "c10.g6"
    cycle.write_text("IhCGGC@_G\n")
    spider = tmp_path / "spider.txt"
    spider.write_text("7 9\n0 1\n0 2\n1 2\n0 3\n1 4\n2 5\n0 6\n1 6\n2 6\n")
    # the text analyze runs first: only a JSON report may load json
    argvs = [["analyze", str(cycle)], ["analyze", str(cycle), "--json", "--numeric"]]
    argvs += [["spectrum", str(spider), "--mode", mode]
              for mode in ("exact", "numeric", "closed-form")]
    out = run_fresh(ANALYZE_LOADS, *("\t".join(argv) for argv in argvs))
    loads = [line for line in out.splitlines() if line.startswith("loaded:")]
    assert loads == ["loaded: []"] + ["loaded: ['json']"] * 4


SCAN_LOADS = """
import sys
before = set(sys.modules)
import p4spec
from p4spec import theorems
watched = ("dataclasses", "inspect", "typing", "p4spec.formats", "p4spec.dsl",
           "multiprocessing")
for check in (None, lambda g: g.n < 3):
    if check:
        theorems.DEFAULT_CHECKS["a"] = check
    r = p4spec.verify_theorems(3)[0]
    print(r.violations, r.counterexample, "loaded:",
          sorted(m for m in set(sys.modules) - before if m in watched))
"""


def test_scan_loads_formats_only_for_a_counterexample():
    # -S: site's own imports (typing, for one) would hide the package's
    out = run_fresh(SCAN_LOADS, flags=["-S"])
    assert out.splitlines() == [
        "0 None loaded: []",
        f"8 {serialize_graph6(mask_to_graph(3, 0))} loaded: ['p4spec.formats']"]


def _records():
    return [
        recognize_spider(thin_spider(3)),
        exact_spectrum(standard("cycle", 4)),
        SurdEigenvalue(5, 29, 1),
        thin_spider_closed_form(2, 1),
        classify(standard("path", 4)),
        load_document("EhEG\n"),
        verify_theorems(2, "a")[0]._replace(check_s=0.25),
    ]


def test_records_compare_and_hash_by_their_fields():
    for a, b in zip(_records(), _records()):
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b) == hash(tuple(a))
    assert recognize_spider(thin_spider(3)) != recognize_spider(thin_spider(4))
    assert SurdEigenvalue(5, 29, 1) != SurdEigenvalue(5, 29, -1)
    assert len({SurdEigenvalue(5, 29, 1), SurdEigenvalue(5, 29, 1)}) == 1
    assert thin_spider_closed_form(2, 1) != thin_spider_closed_form(2, 2)


def test_record_reprs():
    spider, spec, surd, closed, report, doc, result = (repr(r) for r in _records())
    assert spider == "SpiderSpec(kind='thin', legs=(3, 4, 5), body=(0, 1, 2), head=())"
    assert spec == ("ExactSpectrum(integer_roots=((4, 1), (2, 2), (0, 1)), "
                    "residual=IntPolynomial([1]))")
    assert surd == "SurdEigenvalue(p=5, q=29, sign=1)"
    assert closed == (
        "ClosedFormSpectrum(entries=((SurdEigenvalue(p=3, q=13, sign=1), 1), "
        "(SurdEigenvalue(p=3, q=13, sign=-1), 1), (SurdEigenvalue(p=3, q=5, sign=1), 1), "
        "(SurdEigenvalue(p=3, q=5, sign=-1), 1), (0, 1)))")
    assert report == (
        "ClassificationReport(n=4, m=3, p4_count=1, is_cograph=False, is_p4_sparse=True, "
        "is_p4_extendible=True, is_p4_reducible=True, is_p4_connected=True, "
        "spider=SpiderSpec(kind='thin', legs=(0, 3), body=(1, 2), head=()), "
        "l_integral=False, spectrum=ExactSpectrum(integer_roots=((2, 1), (0, 1)), "
        "residual=IntPolynomial([2, -4, 1])))")
    assert doc == "GraphDocument(graph=Graph(n=6, m=6))"
    assert result == (
        "TheoremResult(theorem='a', description='cograph implies L-integral', "
        "population='n=1 exhaustive (1); n=2 exhaustive (2)', checked=3, violations=0, "
        "counterexample=None, check_s=0.25)")


def test_records_are_immutable():
    for record in _records():
        field = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.extra = 1
    assert [type(r) for r in _records()] == [SpiderSpec, ExactSpectrum, SurdEigenvalue,
                                             ClosedFormSpectrum, ClassificationReport,
                                             GraphDocument, TheoremResult]


def test_theorem_result_reports_its_fields_but_the_timing():
    r = _records()[-1]
    # the order of the JSON report's keys
    assert list(r.to_dict()) == ["theorem", "description", "population", "checked",
                                 "violations", "counterexample"]
    assert list(r._asdict()) == [*r.to_dict(), "check_s"]
    assert r.passed and not r._replace(violations=1).passed


@pytest.mark.parametrize("p, q, sign, message", [
    (3, 4, 1, "non-square"),
    (3, 0, 1, "non-square"),
    (3, -5, 1, "non-square"),
    (3, 5, 2, "sign"),
    (3, 5, 0, "sign"),
    (1, 2, 1, "divisible by 4"),
])
def test_surd_eigenvalue_rejects_bad_fields(p, q, sign, message):
    with pytest.raises(ValueError, match=message):
        SurdEigenvalue(p, q, sign)
    with pytest.raises(ValueError, match=message):
        SurdEigenvalue(p=p, q=q, sign=sign)
    with pytest.raises(ValueError, match=message):
        SurdEigenvalue(5, 29, 1)._replace(p=p, q=q, sign=sign)
