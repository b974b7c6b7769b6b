"""A fault catalog for the decision kernels.

Each entry rewrites one exact substring of a kernel's source and names the
fast tests that must fail on the rewrite.  The rewritten function is built
from the edited source in a copy of its module's namespace and patched over
the original in every module that binds it, tests included.  The substring
must occur exactly once, so a refactor that moves the code fails here instead
of leaving a mutant that tests nothing.
"""

import inspect
import sys
import textwrap

import pytest

import test_constructions
import test_graphs
import test_p4
import test_spectral
import test_theorems
from p4spec import constructions, graphs, p4, spectral, theorems

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
    # the recursive cograph check leaves every component but the first unvisited
    "cograph-stack-push": (
        p4, "is_cograph", "stack.extend(comps)", "stack.extend(comps[:1])",
        [test_p4.test_cograph_recursive_equals_definitional]),
    # an inexact trace division is floored instead of raising
    "fl-trace-division": (
        spectral, "char_poly", "if t % k:", "if False:",
        [test_spectral.test_char_poly_raises_on_an_inexact_trace_division]),
    # a diagonal entry read back without the bias, so a negative entry below
    # it borrows from it
    "fl-bias-read-back": (
        spectral, "char_poly", "((x + bias) >> s)", "(x >> s)",
        [test_spectral.test_char_poly_matches_interpolation_oracle,
         test_spectral.test_char_poly_complete_graph_laplacians,
         test_spectral.test_prefix_closed_forms_match_faddeev_leverrier]),
    # c_k = tr(B_k) / k instead of -tr(B_k) / k
    "fl-coefficient-sign": (
        spectral, "char_poly", "ck = -t // k", "ck = t // k",
        [test_spectral.test_char_poly_matches_interpolation_oracle,
         test_spectral.test_char_poly_complete_graph_laplacians,
         test_spectral.test_prefix_closed_forms_match_faddeev_leverrier]),
    # a field as wide as r^n, not (2r)^n: the identity's B_k entries reach
    # C(n - 1, k - 1) while r = 1, and the trace is read back wrong
    "field-width": (
        spectral, "_field_width", "((2 * r) ** n).bit_length() + 2", "(r ** n).bit_length() + 1",
        [test_spectral.test_char_poly_identity_matrices]),
    # a column minus repeats gives one -1, not one -1 per repeat
    "rows-repeated-column": (
        spectral, "IntMatrix", "row[l] -= 1", "row[l] = -1",
        [test_spectral.test_int_matrix_rows_round_trip,
         test_spectral.test_quotient_matrix_divides_spider_char_poly]),
    # the body row of the quotient sees one head vertex too few
    "quotient-short-one-head": (
        spectral, "quotient_matrix", "(2,) * j", "(2,) * (j - 1)",
        [test_spectral.test_quotient_matrix_divides_spider_char_poly]),
    # a Laplacian's bound taken as its largest degree, half its row sum
    "laplacian-bound": (
        spectral, "laplacian", "2 * max", "max",
        [test_spectral.test_laplacian_rows_match_oracle_beyond_six_vertices]),
    # tr(L^3) adds the triangle term instead of subtracting it
    "prefix-triangle-sign": (
        spectral, "_prefix", "p3 = s3 + 3 * s2 - walks", "p3 = s3 + 3 * s2 + walks",
        [test_spectral.test_prefix_closed_forms_match_faddeev_leverrier,
         test_spectral.test_is_l_integral_agrees_with_exact_spectrum_to_n7]),
    # the table of prod (x + r) instead of prod (x - r)
    "table-sign": (
        spectral, "_integral_prefixes", "e2 += r * e1", "e2 -= r * e1",
        [test_spectral.test_integral_table_holds_every_root_multiset,
         test_spectral.test_is_l_integral_agrees_with_exact_spectrum_to_n7,
         test_spectral.test_is_l_integral_accepts_every_cograph_to_n8]),
    # roots drawn from [1, n]: no entry repeats 0, as a disconnected
    # graph's spectrum does
    "table-no-repeated-zero": (
        spectral, "_integral_prefixes", "range(n + 1), n - 1)", "range(1, n + 1), n - 1)",
        [test_spectral.test_integral_table_holds_every_root_multiset,
         test_spectral.test_is_l_integral_agrees_with_exact_spectrum_to_n7,
         test_spectral.test_is_l_integral_accepts_every_cograph_to_n8]),
    # the root mask without the 0 that every Laplacian has
    "table-zero-bit": (
        spectral, "_integral_prefixes", "mask = 1\n", "mask = 0\n",
        [test_spectral.test_integral_table_holds_every_root_multiset,
         test_spectral.test_is_l_integral_agrees_with_exact_spectrum_to_n7,
         test_spectral.test_is_l_integral_accepts_every_cograph_to_n8]),
    # the product stops before its last (largest) root
    "product-last-factor": (
        spectral, "_root_product", "for s in roots:", "for s in roots[:-1]:",
        [test_spectral.test_root_product_matches_dense_product,
         test_spectral.test_is_l_integral_agrees_with_exact_spectrum_to_n7,
         test_spectral.test_is_l_integral_accepts_every_cograph_to_n8]),
    # a field as wide as one factor's entries, not the product's.  No L-integral
    # decision on the graphs of the agreement tests changes: a zero test on
    # packed rows is P v = 0 for v = (2^(wj))_j, and that v falls in the kernel
    # of no product there, even at w = 1.  The entries read back wrong.
    "product-width": (
        spectral, "_root_product", " ** len(roots)).bit_length() + 1", ").bit_length() + 1",
        [test_spectral.test_root_product_matches_dense_product]),
    # the search skips a child with exactly half the edges
    "half-bound": (
        theorems, "_classes", "d > room", "d >= room",
        [test_theorems.test_class_counts_match_oeis,
         test_theorems.test_class_lists_match_labeled_reference]),
    # a class with exactly half the edges gets a complement entry as well,
    # so every class with half the edges is listed twice
    "complement-append": (
        theorems, "_classes", "2 * code.bit_count() < pairs", "2 * code.bit_count() <= pairs",
        [test_theorems.test_class_counts_match_oeis,
         test_theorems.test_class_lists_match_labeled_reference]),
    # the complement of a pair does not hold the class as its complement,
    # so it builds another and computes the class's values a second time
    "partner-link": (
        theorems, "_with_complements", "h._memo = {complement: g}", "h._memo = None",
        [test_theorems.test_paired_units_hold_each_other_as_derived_complement]),
    # a candidate is kept only if its new vertex is the one the best leaf
    # places last, not any vertex of that vertex's orbit
    "deletion-orbit": (
        graphs, "_canonical_deletion", "if not orbits[order[-1]] >> (n - 1) & 1:",
        "if order[-1] != n - 1:",
        [test_graphs.test_canonical_deletion_keeps_a_new_vertex_in_the_orbit_of_the_last]),
    # a chunk whose failures are at the same smallest n as the kept ones
    # is dropped instead of added
    "tally-merge-same-n": (
        theorems, "_Tally", "self.failed[0] < other.failed[0]", "self.failed[0] <= other.failed[0]",
        [test_theorems.test_tally_merge_keeps_every_failing_class_at_the_smallest_n]),
    # an end at b may be adjacent to c, so a triangle b-c-a with d hanging
    # off c is listed as a P4.  The nearby rewrite "ends_b = nb & ~nc" is
    # equivalent and so not listed: c joins the ends at b, but as an end it
    # gets no d, since every d is in ends_c, inside c's neighbourhood, and
    # ends_c & ~adj[c] is empty; only the skip of a middle edge with no end
    # at b is lost, which is work, not a result.
    "p4-end-off-middle": (
        p4, "enumerate_p4", "ends_b = nb & ~(nc | cm)", "ends_b = nb & ~cm",
        [test_p4.test_enumerate_p4_against_oracle,
         test_p4.test_p4_sparse_matches_oracle_exhaustive]),
    # a branch that reaches cells already searched is dropped even from
    # smaller placed blocks: on 5 vertices, edges 04 12 13 give mask 84,
    # not 76
    "orbit-min-seen": (
        theorems, "_orbit_min", "cells in seen and seen[cells] <= placed", "cells in seen",
        [test_theorems.test_orbit_min_matches_brute_force]),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_each_kernel_fault_fails_its_tests(monkeypatch, fault):
    module, name, old, new, tests = FAULTS[fault]
    # a test that takes a fixture would fail on the bare call below, rewrite or not
    assert not any(inspect.signature(test).parameters for test in tests)
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
