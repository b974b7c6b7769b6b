"""A fault catalog for the decision kernels.

Each entry rewrites one exact substring of a kernel's source and names the
fast tests that must fail on the rewrite.  The rewritten function is built
from the edited source in its module's namespace, so it reads what a test
patches there, and it is patched over the original in every module that
binds it, tests included; a test may take the monkeypatch fixture.  The
substring must occur exactly once, so a refactor that moves the code fails
here instead of leaving a mutant that tests nothing.
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
    # a batch lets through a mask one bit too wide
    "decoder-batch-range": (
        constructions, "masks_to_graphs", "bound = n * (n - 1) // 2", "bound = n * (n - 1) // 2 + 1",
        [test_constructions.test_mask_to_graph_matches_pair_order]),
    # the thick count asks for k vertices of degree k, which a thick spider's
    # legs never have: it is reported as no spider
    "spider-degree-count": (
        p4, "recognize_spider", "degrees.count(k - 1)", "degrees.count(k)",
        [test_p4.test_recognize_spider_thick, test_p4.test_recognize_constructed_spiders,
         test_p4.test_recognize_spider_reads_degrees_before_the_complement]),
    # every shard checks chunks 0, K, 2K, ...: shard 0's chunks, K times
    "chunk-striping": (
        theorems, "verify_theorems", "islice(chunks(), shard_id, None, shards)",
        "islice(chunks(), 0, None, shards)",
        [test_theorems.test_shard_counts_sum_to_unsharded,
         test_theorems.test_sample_stream_is_pinned_and_striped_by_shards]),
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
        [test_p4.test_cograph_recursive_equals_definitional,
         test_theorems.test_class_counts_match_oeis]),
    # the recursive cograph check leaves every component but the first unvisited
    "cograph-stack-push": (
        p4, "is_cograph", "stack.extend(comps)", "stack.extend(comps[:1])",
        [test_p4.test_cograph_recursive_equals_definitional,
         test_theorems.test_class_counts_match_oeis]),
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
    # step n skipped at n = 1 too, where c_0 is the initial coefficient: K1's
    # polynomial becomes x^2
    "fl-singular-one-vertex": (
        spectral, "char_poly", "singular = n >= 2 and ", "singular = ",
        [test_spectral.test_char_poly_empty_graph]),
    # step n skipped when the rows sum to zero in total, not one by one:
    # c_0 = 0 for a nonsingular matrix
    "fl-singular-every-row": (
        spectral, "char_poly", "list(map(len, minus)) == list(diag)",
        "sum(map(len, minus)) == sum(diag)",
        [test_spectral.test_char_poly_c0_when_the_rows_do_not_all_sum_to_zero]),
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
    # e_3 by true division: a float equal to the int, so the table lookup
    # and every agreement test read the same
    "prefix-true-division": (
        spectral, "_prefix", "thrice_e3 // 3", "thrice_e3 / 3",
        [test_spectral.test_certificate_values_are_ints]),
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
    # the weight certificate counts a class with exactly half the edges
    # twice, as if it stood for its complement too
    "certificate-doubling": (
        theorems, "_classes", "2 * code.bit_count() < pairs", "2 * code.bit_count() <= pairs",
        [test_theorems.test_class_counts_match_oeis,
         test_theorems.test_class_lists_match_labeled_reference]),
    # the complement of a pair does not hold the class as its complement,
    # so it builds another and computes the class's values a second time
    "partner-link": (
        theorems, "_with_complements", "h._memo = {complement: g}", "h._memo = None",
        [test_theorems.test_paired_units_hold_each_other_as_derived_complement]),
    # a leaf code that reads the row's bit u, the vertex labeled u, not the
    # vertex placed u-th: the code is no relabeling of g
    "leaf-code-relabel": (
        graphs, "_search", "if row & cells[u]:", "if row >> u & 1:",
        [test_graphs.test_canonical_form_against_oracle,
         test_graphs.test_canonical_form_regular_graphs]),
    # once an orbit is known, a node skips every child left, not only those
    # in the orbit of an explored one: subtrees go unsearched and |Aut| comes
    # out short.  Dropping the pruning altogether is equivalent and so not
    # listed: a skipped child's subtree holds the codes of an explored one,
    # so only work is saved
    "search-orbit-pruning": (
        graphs, "_search", "orbits[v] & explored", "orbits[v]",
        [test_graphs.test_canonical_form_regular_graphs]),
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
    # the P4s left after a p-component are none, not those disjoint from it,
    # so only the first p-component is found
    "p-component-filter": (
        p4, "_p4_components", "not m & reach", "not m | reach",
        [test_p4.test_p4_connected_examples]),
    # an end at b may be adjacent to c, so a triangle b-c-a with d hanging
    # off c is listed as a P4.  The nearby rewrite "ends_b = nb & ~nc" is
    # equivalent and so not listed: c joins the ends at b, but as an end it
    # gets no d, since every d is in ends_c, inside c's neighbourhood, and
    # ends_c & ~adj[c] is empty; only the skip of a middle edge with no end
    # at b is lost, which is work, not a result.  The walk runs above MAX_N
    # only, so its tests must reach n >= 9.
    "p4-end-off-middle": (
        p4, "enumerate_p4", "ends_b = nb & ~(nc | cm)", "ends_b = nb & ~cm",
        [test_p4.test_enumerate_p4_against_oracle,
         test_p4.test_p4_extendible_against_oracle]),
    # wy and wz pair with xy and xz instead of xz and xy, so the lanes test
    # matchings that are no matchings
    "p4-lane-partners": (
        p4, "_p4_lanes", "((w, x), (w, y), (w, z), (y, z), (x, z), (x, y))",
        "((w, x), (w, y), (w, z), (y, z), (x, y), (x, z))",
        [test_p4.test_enumerate_p4_examples, test_p4.test_enumerate_p4_against_oracle]),
    # at least one full matching, not an odd number: the diamond, two full
    # and one half, is listed as a P4
    "p4-lane-parity": (
        p4, "enumerate_p4", "(full ^ full >> lanes ^ full >> 2 * lanes)",
        "(full | full >> lanes | full >> 2 * lanes)",
        [test_p4.test_enumerate_p4_against_oracle]),
    # no row holds the pairs with vertex 0
    "p4-lane-vertex-zero": (
        p4, "_p4_lanes", "for u in range(v):", "for u in range(1, v):",
        [test_p4.test_enumerate_p4_examples, test_p4.test_enumerate_p4_against_oracle]),
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
    # a test that takes monkeypatch gets a fresh one; one that takes any other
    # fixture would fail on the bare call below, rewrite or not
    assert all(set(inspect.signature(test).parameters) <= {"monkeypatch"} for test in tests)
    original = getattr(module, name)
    source = textwrap.dedent(inspect.getsource(original))
    assert source.count(old) == 1
    # the rewrite is defined in its own module, so it reads what a test
    # patches there; the original is put back at the end
    monkeypatch.setattr(module, name, original)
    exec(source.replace(old, new), vars(module))
    # every other module that imported the kernel by name, tests included
    for mod in list(sys.modules.values()):
        if getattr(mod, "__dict__", {}).get(name) is original:
            monkeypatch.setattr(mod, name, getattr(module, name))
    passed = []
    for test in tests:
        try:
            with pytest.MonkeyPatch.context() as mp:
                test(*[mp] * len(inspect.signature(test).parameters))
        # an assertion, a pytest.raises that saw nothing, or any error the
        # rewrite causes
        except (Exception, pytest.fail.Exception):
            continue
        passed.append(test.__name__)
    assert not passed
