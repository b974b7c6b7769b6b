"""The decision kernels against their oracles on every graph on 8 vertices.

    python tools/agree_n8.py

n = 8 is MAX_N, the largest n that is_l_integral decides by its
certificate.  The script builds the class levels 1..8 once, level 8 both
with generators and without, as a scan with --n-max 8 builds its last
level.  It decodes the 13,992 graphs once: each of the 6,996 listed
classes (those with at most 14 of the 28 edges) and its complement.  That
is every class on 8 vertices, the 1,646 with exactly 14 edges twice over.
It then runs the rows of rows(): each is a kernel, its oracle from
tests/oracles.py or a reference, and a pinned value, mostly the number of
graphs the kernel accepts.  It prints one line per row with its time and
exits 1, naming the rows, if any oracle disagrees or any value misses its
pin.  A graph's derived memo keeps the values rows share, such as the P4s,
so a row's time depends on the rows before it.
"""

import hashlib
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "src"), str(REPO / "tests")]

import oracles  # noqa: E402
from p4spec.constructions import mask_to_graph, masks_to_graphs  # noqa: E402
from p4spec.formats import serialize_graph6  # noqa: E402
from p4spec.graphs import _refine, _search, bits  # noqa: E402
from p4spec.p4 import (  # noqa: E402
    enumerate_p4,
    is_cograph,
    is_p4_connected,
    is_p4_extendible,
    recognize_spider,
    satisfies_q_t,
)
from p4spec.spectral import (  # noqa: E402
    _integral_prefixes,
    _prefix,
    exact_spectrum,
    is_l_integral,
)
from p4spec.theorems import _check_e, _classes, _has_midpoint_extension  # noqa: E402

N = 8
PAIRS = N * (N - 1) // 2
FULL = (1 << PAIRS) - 1
# sha256 of repr([(code, aut_order), ...]) for the 12,346 classes on 8
# vertices, in canonical code order
DIGEST = "86ec933d6e6239abc4593ed6b904b232705c9b95afb59d6198b5a03112353563"


def digest(level):
    """The class-list digest of a level 8 list: each listed class with fewer
    than 14 edges stands for its complement too, which has the same
    automorphism group and gets its code from the canonical search here."""
    canonical = [(code, aut) for code, aut, _ in level]
    for code, aut, _ in level:
        if 2 * code.bit_count() < PAIRS:
            adj = mask_to_graph(N, code ^ FULL).adj
            canonical.append((_search(adj, N, _refine(adj, N, [255], [255]))[0], aut))
    return hashlib.sha256(repr(sorted(canonical)).encode()).hexdigest()


def same(kernel, oracle):
    """A check that kernel and oracle answer alike; it counts the graphs the
    kernel's answer is true on."""
    def check(g):
        got = kernel(g)
        return got == oracle(g), bool(got)
    return check


def spider(g):
    # the oracle tries every leg set and every bijection of the legs onto
    # the body; recognize_spider must return one of its partitions, thin
    # whenever a thin one exists, or None when it finds none
    spec, partitions = recognize_spider(g), oracles.spider_partitions(g)
    thin = any(kind == "thin" for kind, *_ in partitions)
    ok = spec in partitions and (spec.kind == "thin" or not thin) if spec else not partitions
    return ok, spec is not None


def p4_sets(g):
    # each vertex set once, and the same sets as the oracle's walk over
    # every 4-set; counted by P4s
    got = [frozenset(bits(m)) for m in enumerate_p4(g)]
    return len(set(got)) == len(got) and set(got) == set(oracles.p4_paths(g)), len(got)


def theorem_e(g):
    # on a P4-extendible graph exactly one case holds: disconnected,
    # co-disconnected, P4 or F0..F6, or a midpoint extension; counted by case
    cases = oracles.theorem_e_cases(g)
    return _check_e(g) == (sum(cases) == 1), cases


def over(graphs, check):
    """A row that runs check on each graph: its value is the sum of the
    counts, by position when they are tuples, and its bad graphs are those
    check fails on."""
    def run():
        results = [(g, *check(g)) for g in graphs]
        counts = [count for _, _, count in results]
        total = tuple(map(sum, zip(*counts))) if isinstance(counts[0], tuple) else sum(counts)
        return total, [g for g, ok, _ in results if not ok]
    return run


def build():
    """Level 8 by generator setting, the 13,992 graphs, the 12,346 classes
    among them and the P4-extendible graphs."""
    classes = [(0, 1, ())]
    for n in range(1, N):
        classes, _ = _classes(n, classes)
    levels = {gens: _classes(N, classes, gens=gens)[0] for gens in (True, False)}
    graphs = masks_to_graphs(N, [m for code, _, _ in levels[False] for m in (code, code ^ FULL)])
    # the complement of a class with 14 edges is a listed class too
    classes = [g for i, g in enumerate(graphs) if i % 2 == 0 or 2 * g.edge_count != PAIRS]
    return levels, graphs, classes, [g for g in graphs if is_p4_extendible(g)]


def rows(levels, graphs, classes, extendible):
    """(name, run, pin): run() returns the row's value and its bad graphs."""
    return [
        ("level 8 with generators, sha256", lambda: (digest(levels[True]), []), DIGEST),
        ("level 8 without generators, sha256", lambda: (digest(levels[False]), []), DIGEST),
        ("_integral_prefixes(8), prefixes", lambda: (len(_integral_prefixes(N)), []), 6026),
        ("_prefix = Faddeev-LeVerrier e_1..e_3, graphs",
         over(graphs, same(_prefix, oracles.fl_prefix)), 13992),
        ("is_l_integral = exact_spectrum, L-integral",
         over(graphs, same(is_l_integral, lambda g: exact_spectrum(g).is_integral)), 586),
        ("enumerate_p4 = p4_paths, as vertex sets, P4s", over(graphs, p4_sets), 166854),
        ("is_p4_extendible = oracle, P4-extendible",
         over(graphs, same(is_p4_extendible, oracles.is_p4_extendible)), 858),
        ("recognize_spider = oracle, thin preferred, spiders", over(graphs, spider), 20),
        ("is_cograph = oracle, cographs", over(graphs, same(is_cograph, oracles.is_cograph)), 552),
        ("is_cograph, cograph classes (OEIS A000084)",
         over(classes, lambda g: (True, is_cograph(g))), 522),
        ("satisfies_q_t(5, 1) = oracle, P4-sparse",
         over(graphs, same(lambda g: satisfies_q_t(g, 5, 1),
                           lambda g: oracles.satisfies_q_t(g, 5, 1))), 690),
        ("satisfies_q_t(7, 3) = oracle",
         over(graphs, same(lambda g: satisfies_q_t(g, 7, 3),
                           lambda g: oracles.satisfies_q_t(g, 7, 3))), 1020),
        ("is_p4_connected = oracle, p4-connected",
         over(graphs, same(is_p4_connected, oracles.is_p4_connected)), 11166),
        # _has_midpoint_extension is exact only on the graphs theorem e asks about
        ("_has_midpoint_extension = oracle on P4-extendible, extensions",
         over(extendible, same(_has_midpoint_extension, oracles.has_midpoint_extension)), 32),
        ("_check_e = theorem_e_cases on P4-extendible, cases", over(extendible, theorem_e),
         (413, 413, 0, 32)),
    ]


def main() -> int:
    start = time.perf_counter()
    levels, graphs, classes, extendible = build()
    print(f"{time.perf_counter() - start:6.2f}s  levels 1..8 built: {len(graphs)} graphs, "
          f"{len(classes)} classes, {len(extendible)} P4-extendible", flush=True)
    table, failed = rows(levels, graphs, classes, extendible), []
    for name, run, pin in table:
        start = time.perf_counter()
        value, bad = run()
        line = f"{time.perf_counter() - start:6.2f}s  {name}: {value}, {len(bad)} disagreements"
        if bad or value != pin:
            failed.append(name)
            line += f"  FAILED: pin {pin}, first bad {[serialize_graph6(g) for g in bad[:5]]}"
        print(line, flush=True)
    if failed:
        print(f"agree_n8: {len(failed)} rows failed: {'; '.join(failed)}", file=sys.stderr)
        return 1
    print(f"agree_n8: all {len(table)} rows agree and hold their pins")
    return 0


if __name__ == "__main__":
    sys.exit(main())
