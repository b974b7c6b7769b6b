"""The decision guards are explicit raises, so `python -O` keeps them.

Each guard is fed a bad value in a `python -O` subprocess and must still
raise ArithmeticError.
"""

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
