"""A fault catalog for the decision kernels.

Each entry rewrites one exact substring of a kernel's source and names the
fast tests that must fail on the rewrite.  The rewritten function is built
from the edited source in a copy of its module's namespace and patched over
the original in every module that binds it, the way
test_spectral.test_each_table_fault_fails_an_agreement_test does for the
L-integral table.  The substring must occur exactly once, so a refactor that
moves the code fails here instead of leaving a mutant that tests nothing.
"""

import inspect
import sys
import textwrap

import pytest

import test_constructions
import test_p4
from p4spec import constructions, graphs, p4

# name -> (module, kernel, source substring, its replacement, catching tests)
FAULTS = {
    # row u gets the edge's bit and row v does not
    "decoder-table-bit": (
        constructions, "_decode_tables",
        "bit = 1 << (u * n + v) | 1 << (v * n + u)", "bit = 1 << (u * n + v)",
        [test_constructions.test_mask_to_graph_matches_pair_order]),
    # extension vertices only from P4s sharing exactly three vertices
    "extendible-overlap": (
        p4, "is_p4_extendible", "if m & wm:", "if (m & wm).bit_count() == 3:",
        [test_p4.test_net_is_not_extendible, test_p4.test_p4_extendible_against_oracle]),
    # two extension vertices pass
    "extendible-one-vertex": (
        p4, "is_p4_extendible", "if outside & (outside - 1):", "if outside.bit_count() > 2:",
        [test_p4.test_net_is_not_extendible, test_p4.test_p4_extendible_against_oracle]),
    # a component leaves the vertex set it was asked about
    "closure-mask": (
        graphs, "_components", "frontier = nxt & mask & ~comp", "frontier = nxt & ~comp",
        [test_p4.test_cograph_recursive_equals_definitional]),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_each_kernel_fault_fails_its_tests(monkeypatch, fault):
    module, name, old, new, tests = FAULTS[fault]
    original = getattr(module, name)
    source = textwrap.dedent(inspect.getsource(original))
    assert source.count(old) == 1
    namespace = dict(vars(module))
    exec(source.replace(old, new), namespace)
    # every module that imported the kernel by name, tests included
    for mod in list(sys.modules.values()):
        if getattr(mod, "__dict__", {}).get(name) is original:
            monkeypatch.setattr(mod, name, namespace[name])
    passed = []
    for test in tests:
        try:
            test()
        except Exception:  # an assertion, or any error the rewrite causes
            continue
        passed.append(test.__name__)
    assert not passed
