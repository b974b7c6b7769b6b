"""The decision guards are explicit raises, so `python -O` keeps them, and
no float takes part in a decision.

Each guard is fed a bad value in a `python -O` subprocess and must still
raise ArithmeticError.  A lint of the package's source finds every float
literal, true division, float, complex or round call and float-valued math
name, and allows them only in the display paths and a scan's timer.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

SCRIPT = r"""
from p4spec import p4, spectral, theorems
from p4spec.constructions import standard
from p4spec.graphs import Graph, _trusted
from p4spec.spectral import IntPolynomial, laplacian

assert False, "asserts must be stripped in this process"


def outcome(fn):
    try:
        fn()
    except ArithmeticError as exc:
        return f"raised: {exc}"
    return "returned"


# a packed field too narrow for the entries: the trace division goes inexact,
# for a Laplacian (K4) and for the quotient's -2 and -5, columns that its
# minus rows repeat.  Both have zero row sums, so step n, c_0, never runs:
# the quotient on 3 parts must go wrong at step 2
real_width = spectral._field_width
spectral._field_width = lambda r, n: 2
print(outcome(lambda: spectral.char_poly(laplacian(standard("complete", 4)))))
print(outcome(lambda: spectral.char_poly(spectral.quotient_matrix(5, 2))))
spectral._field_width = real_width

# one-way adjacency, which no Graph has: is_l_integral's closed-form
# divisions go inexact, for e_2 on the arc 0 -> 1 and for e_3 on a triangle
# whose vertex 2 lists no neighbour
print(outcome(lambda: spectral.is_l_integral(_trusted(2, (0b10, 0)))))
print(outcome(lambda: spectral.is_l_integral(_trusted(3, (0b110, 0b101, 0)))))

# a characteristic polynomial with the root 5 > n = 4 for the star K_{1,3}
real_char_poly = spectral.char_poly
spectral.char_poly = lambda m: IntPolynomial([0, -5, 1]) * IntPolynomial([-1, 1]) ** 2
star = Graph(4, [0b1110, 0b0001, 0b0001, 0b0001])
print(outcome(lambda: spectral.exact_spectrum(star)))
spectral.char_poly = real_char_poly

# a recursive cograph check that calls P4 a cograph disagrees with its P4
real_is_cograph = p4.is_cograph
p4.is_cograph = lambda g: True
print(outcome(lambda: p4.classify(standard("path", 4))))
p4.is_cograph = real_is_cograph

# a corrupted automorphism group order: the class weights n!/|Aut| no longer
# add up to the 2^C(n,2) labeled graphs
real_deletion = theorems._canonical_deletion


def deletion_with_aut(aut):
    def deletion(g, *gens):
        searched, kept = real_deletion(g, *gens)
        return searched, kept and (kept[0], aut, kept[2])
    return deletion


theorems._canonical_deletion = deletion_with_aut(1)
print(outcome(lambda: theorems.verify_theorems(4, "a")))
theorems._canonical_deletion = deletion_with_aut(5)
print(outcome(lambda: theorems.verify_theorems(4, "a")))


# a deletion test that wrongly rejects K2 + K1 (code 4): that class and its
# complement P3 are missing and the weights fall short
def deletion_without_one_edge(g, *gens):
    searched, kept = real_deletion(g, *gens)
    return searched, None if g.n == 3 and kept and kept[0] == 4 else kept


theorems._canonical_deletion = deletion_without_one_edge
print(outcome(lambda: theorems.verify_theorems(4, "a")))
theorems._canonical_deletion = real_deletion
"""


def test_decision_guards_survive_optimize_flag():
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-O", "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "raised: Faddeev-LeVerrier trace division is not exact",
        "raised: Faddeev-LeVerrier trace division is not exact",
        "raised: closed-form e_2 is not an integer",
        "raised: closed-form e_3 is not an integer",
        "raised: Laplacian eigenvalue above n: bound violated",
        "raised: recursive and P4-free cograph checks disagree",
        "raised: class weights on 2 vertices sum to 4, not 2^1",
        "raised: automorphism group order 5 does not divide 1!",
        "raised: class weights on 3 vertices sum to 2, not 2^3",
    ]


# where the package may hold floats: the Jacobi sweeps behind `analyze
# --numeric` and `spectrum --mode numeric`, the closed-form display that
# `spectrum --mode closed-form` prints after its exact polynomial check, and
# a scan's check-time total; (module, top-level name or class.method)
FLOAT_ALLOWED = {
    ("spectral", "_JACOBI_TOL"),
    ("spectral", "_offdiag_norm"),
    ("spectral", "numeric_spectrum"),
    ("spectral", "SurdEigenvalue.value"),
    ("spectral", "ClosedFormSpectrum.values"),
    ("theorems", "_Tally.__init__"),
}
# the math names that map ints to ints
INT_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm", "prod"}


def _float_use(node):
    """What in node makes or reads a float, or None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
        return f"literal {node.value!r}"
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
        return "true division"
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("float", "complex", "round")):
        return f"{node.func.id}()"
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "math" and node.attr not in INT_MATH):
        return f"math.{node.attr}"
    if isinstance(node, ast.ImportFrom) and node.module == "math":
        names = [a.name for a in node.names if a.name not in INT_MATH]
        return f"from math import {', '.join(names)}" if names else None
    return None


def float_sites(source):
    """(scope, line, what) for each float use in a module's source; scope is
    the dotted path of the classes and functions around it, or the name a
    module-level assignment binds."""
    sites = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope += (node.name,)
        elif not scope and isinstance(node, ast.Assign):
            scope = tuple(t.id for t in node.targets if isinstance(t, ast.Name))
        what = _float_use(node)
        if what:
            sites.append((".".join(scope), node.lineno, what))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return sites


def test_float_lint_sees_each_form():
    source = (
        "import math\n"
        "from math import comb, sqrt\n"
        "LIMIT = 1e-9\n"
        "class C:\n"
        "    def f(self, x):\n"
        "        x /= 2\n"
        "        return x / 3 + float(x) + complex(x) + round(x) + math.log(x) + math.pi\n"
        "def g(n):\n"
        "    return math.comb(n, 2) // 3 + math.isqrt(n)\n")
    assert sorted(float_sites(source)) == [
        ("", 2, "from math import sqrt"),
        ("C.f", 6, "true division"),
        ("C.f", 7, "complex()"),
        ("C.f", 7, "float()"),
        ("C.f", 7, "math.log"),
        ("C.f", 7, "math.pi"),
        ("C.f", 7, "round()"),
        ("C.f", 7, "true division"),
        ("LIMIT", 3, "literal 1e-09"),
    ]


def test_no_float_outside_the_display_paths():
    found = {}
    for path in sorted(Path(SRC, "p4spec").glob("*.py")):
        for scope, line, what in float_sites(path.read_text()):
            found.setdefault((path.stem, scope), []).append(f"{path.name}:{line}: {what}")
    assert [site for key, sites in found.items() if key not in FLOAT_ALLOWED
            for site in sites] == []
    # an entry with no float left is dropped from the list, not kept open
    assert FLOAT_ALLOWED <= set(found)
