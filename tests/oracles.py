"""Independent reference implementations used to pin expected values.

Everything here favors obviousness over speed: Fraction arithmetic,
exhaustive searches over orderings and partitions, textbook formulas.
Tests compare the package's fast paths against these.
"""

import itertools
from fractions import Fraction

from p4spec.constructions import CASE_IV_KINDS, FAMILY_IDS, family, graph_to_mask, mask_to_graph
from p4spec.formats import serialize_graph6
from p4spec.graphs import Graph, complement, from_edge_list, induced_subgraph, mask_of
from p4spec.spectral import numeric_spectrum
from p4spec.theorems import DEFAULT_CHECKS, THEOREMS


def laplacian_rows(g: Graph) -> list[list[int]]:
    n = g.n
    rows = [[0] * n for _ in range(n)]
    for u in range(n):
        rows[u][u] = g.degree(u)
        for v in range(n):
            if u != v and g.has_edge(u, v):
                rows[u][v] = -1
    return rows


def labeled_graphs(n: int):
    """Every labeled graph on n vertices, in edge-mask order."""
    return (mask_to_graph(n, mask) for mask in range(1 << n * (n - 1) // 2))


def poly_remainder(num, den) -> list:
    """Remainder of num divided by den, by long division over Fraction;
    ascending coefficients in and out.  den divides num over the rationals
    iff every entry is 0, and over the integers too when den is monic."""
    rem = [Fraction(c) for c in num]
    d = len(den) - 1
    for i in range(len(rem) - 1, d - 1, -1):
        f = rem[i] / den[d]
        for j, c in enumerate(den):
            rem[i - d + j] -= f * c
    return rem[:d]


def bareiss_det(matrix) -> int:
    """Fraction-free Gaussian elimination determinant, exact over ints."""
    m = [list(row) for row in matrix]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                val = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                q, r = divmod(val, prev)
                if r:
                    raise ArithmeticError("Bareiss step is not an exact division")
                m[i][j] = q
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def char_poly_coeffs(matrix) -> list[int]:
    """det(xI - M) by Bareiss evaluation at n+1 points plus Lagrange
    interpolation over Fraction; ascending coefficients."""
    n = len(matrix)
    xs = list(range(n + 1))
    ys = []
    for x in xs:
        shifted = [[(x if i == j else 0) - matrix[i][j] for j in range(n)]
                   for i in range(n)]
        ys.append(bareiss_det(shifted))
    coeffs = [Fraction(0)] * (n + 1)
    for i, xi in enumerate(xs):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, xj in enumerate(xs):
            if j == i:
                continue
            denom *= xi - xj
            basis = [Fraction(0)] + basis
            for k in range(len(basis) - 1):
                basis[k] -= xj * basis[k + 1]
        scale = Fraction(ys[i]) / denom
        for k, b in enumerate(basis):
            coeffs[k] += scale * b
    if any(c.denominator != 1 for c in coeffs):
        raise ArithmeticError("characteristic polynomial has a non-integer coefficient")
    return [int(c) for c in coeffs]


def p4_paths(g: Graph) -> dict:
    """frozenset of 4 vertices -> path order (a, b, c, d), a < d, for every
    4-subset whose induced subgraph is a path, found by trying every 4-subset.
    The graphs on 4 vertices with 3 edges are P4, K_{1,3} and K3 + K1, and P4
    is the one with degrees 1, 1, 2, 2: its ends are the degree-1 vertices,
    each next to one middle vertex."""
    found = {}
    for quad in itertools.combinations(range(g.n), 4):
        inside = mask_of(quad)
        degrees = [(g.adj[v] & inside).bit_count() for v in quad]
        if sorted(degrees) != [1, 1, 2, 2]:
            continue
        a, d = (v for v, k in zip(quad, degrees) if k == 1)
        b = (g.adj[a] & inside).bit_length() - 1
        c = (g.adj[d] & inside).bit_length() - 1
        found[frozenset(quad)] = (a, b, c, d)
    return found


def is_cograph(g: Graph) -> bool:
    return not p4_paths(g)


def satisfies_q_t(g: Graph, q: int, t: int) -> bool:
    return q_t_holds(g.n, list(p4_paths(g)), q, t)


def q_t_holds(n: int, sets: list, q: int, t: int) -> bool:
    """No q-subset of range(n) contains more than t of the given vertex sets."""
    if q > n:
        return True
    for sub in itertools.combinations(range(n), q):
        picked = set(sub)
        inside = sum(1 for w in sets if w <= picked)
        if inside > t:
            return False
    return True


def is_p4_extendible(g: Graph) -> bool:
    sets = list(p4_paths(g))
    for w in sets:
        ext = set()
        for other in sets:
            if other & w:
                ext |= other - w
        if len(ext) > 1:
            return False
    return True


def spider_partitions(g: Graph) -> set:
    """Every spider partition of g, as (kind, legs, body, head) with each
    part an ascending tuple, by exhaustive leg set and bijection search.
    The legs are independent and have no neighbours outside the body, and
    every body vertex is adjacent to a leg (thin: its own, thick: every
    other, k >= 2), so the body is the union of the legs' neighbourhoods:
    each leg set fixes the body and the head."""
    n = g.n
    found = set()
    for k in range(2, n // 2 + 1):
        for s in itertools.combinations(range(n), k):
            legs = mask_of(s)
            body = 0
            for u in s:
                body |= g.adj[u]
            # independent legs, with a body of k vertices
            if body & legs or body.bit_count() != k:
                continue
            c = [v for v in range(n) if body >> v & 1]
            rest = g.full_mask & ~legs  # the body and the head
            # the body is a clique joined to the head
            if any((g.adj[v] | 1 << v) & rest != rest for v in c):
                continue
            head = tuple(v for v in range(n) if (rest & ~body) >> v & 1)
            for perm in itertools.permutations(c):
                thin = all(g.has_edge(s[i], perm[j]) == (i == j)
                           for i in range(k) for j in range(k))
                thick = all(g.has_edge(s[i], perm[j]) == (i != j)
                            for i in range(k) for j in range(k))
                if thin:
                    found.add(("thin", s, tuple(c), head))
                if thick:
                    found.add(("thick", s, tuple(c), head))
    return found


def spider_kinds(g: Graph) -> set:
    """All kinds under which g is a spider."""
    return {kind for kind, *_ in spider_partitions(g)}


def is_p4_connected(g: Graph) -> bool:
    """Definitional check: every bipartition into two nonempty sides is
    crossed by an induced P4."""
    n = g.n
    if n < 2:
        return False
    full = (1 << n) - 1
    sets = [sum(1 << v for v in quad) for quad in p4_paths(g)]
    for a in range(1, 1 << (n - 1)):
        b = full ^ a
        if not any(w & a and w & b for w in sets):
            return False
    return True


def are_isomorphic(g: Graph, h: Graph) -> bool:
    """Backtracking isomorphism test: map the vertices of g in order onto
    unused vertices of h of the same degree, keeping every adjacency."""
    if g.n != h.n:
        return False
    n = g.n
    gdeg = [g.degree(v) for v in range(n)]
    hdeg = [h.degree(v) for v in range(n)]
    if sorted(gdeg) != sorted(hdeg):
        return False
    mapping = [-1] * n

    def extend(i: int, used: int) -> bool:
        if i == n:
            return True
        for w in range(n):
            if used >> w & 1 or hdeg[w] != gdeg[i]:
                continue
            if all(g.has_edge(i, j) == h.has_edge(w, mapping[j]) for j in range(i)):
                mapping[i] = w
                if extend(i + 1, used | 1 << w):
                    return True
        return False

    return extend(0, 0)


def orbit(n: int, mask: int) -> set:
    """Edge masks of all n! relabelings of mask_to_graph(n, mask)."""
    edges = list(mask_to_graph(n, mask).edges())
    return {graph_to_mask(from_edge_list(n, [(p[u], p[v]) for u, v in edges]))
            for p in itertools.permutations(range(n))}


def canonical_form(g: Graph) -> tuple[int, int]:
    """(code, aut_order) from the whole individualization-refinement tree,
    with no automorphism pruning: the largest leaf code, and the number of
    leaves that reach it, which is |Aut(g)| because Aut(g) acts freely on
    the leaves.  The leaves, their codes and the refinement are those of
    the pruned search graphs._search, which test_graphs.canonical_form
    runs, so the two must agree exactly; the cost here grows with |Aut(g)|."""
    n = g.n
    if n < 2:
        return 0, 1
    adj = g.adj
    best = -1
    count = 0

    def refine(cells, splitters):
        while splitters and len(cells) < n:
            w = splitters.pop()
            out = []
            for cell in cells:
                members = [v for v in range(n) if cell >> v & 1]
                groups = {}
                for v in members:
                    k = (adj[v] & w).bit_count()
                    groups[k] = groups.get(k, 0) | 1 << v
                if len(groups) > 1:
                    parts = [groups[k] for k in sorted(groups)]
                    out += parts
                    splitters += parts
                else:
                    out.append(cell)
            cells = out
        return cells

    def search(cells):
        nonlocal best, count
        if len(cells) == n:
            order = [cell.bit_length() - 1 for cell in cells]
            code = 0
            shift = 0
            for v in range(1, n):
                for u in range(v):
                    if g.has_edge(order[v], order[u]):
                        code |= 1 << (shift + u)
                shift += v
            if code > best:
                best, count = code, 1
            elif code == best:
                count += 1
            return
        i = next(i for i, cell in enumerate(cells) if cell & (cell - 1))
        target = cells[i]
        for v in range(n):
            if target >> v & 1:
                single = 1 << v
                search(refine(cells[:i] + [single, target ^ single] + cells[i + 1:],
                              [single]))

    full = g.full_mask
    search(refine([full], [full]))
    return best, count


def has_midpoint_extension(g: Graph) -> bool:
    """Theorem e's case iv by its definition: some proper subset D of 4 or 5
    vertices induces a seed (P4, F3, F4, F5 or F6, up to isomorphism), and
    every vertex outside D is adjacent to exactly the midpoints of the P4s
    inside D."""
    seeds = [family(kind) for kind in CASE_IV_KINDS]
    paths = p4_paths(g).values()
    for size in range(4, min(g.n, 6)):
        for d in itertools.combinations(range(g.n), size):
            dm = mask_of(d)
            mids = mask_of({v for a, b, c, e in paths if {a, b, c, e} <= set(d) for v in (b, c)})
            if any(g.adj[x] & dm != mids for x in range(g.n) if x not in d):
                continue
            if any(are_isomorphic(induced_subgraph(g, dm), seed) for seed in seeds):
                return True
    return False


def is_connected(g: Graph) -> bool:
    """A depth-first search from vertex 0 reaches every vertex."""
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in range(g.n):
            if g.has_edge(u, v) and v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == g.n


def theorem_e_cases(g: Graph) -> tuple[bool, bool, bool, bool]:
    """Which of theorem e's four cases hold for g, on 2 or more vertices, by
    their definitions: disconnected, co-disconnected, isomorphic to P4 or
    one of F0..F6, and a midpoint extension."""
    return (not is_connected(g), not is_connected(complement(g)),
            any(are_isomorphic(g, family(fid)) for fid in FAMILY_IDS),
            has_midpoint_extension(g))


def laplacian_eigenvalues(g: Graph) -> list[float]:
    """Ascending Laplacian eigenvalues from numpy's symmetric eigensolver,
    or from p4spec's Jacobi iteration where numpy is not installed."""
    try:
        import numpy
    except ImportError:
        return numeric_spectrum(g)
    return [float(x) for x in numpy.linalg.eigvalsh(numpy.array(laplacian_rows(g), dtype=float))]


def complement_relation_holds(g: Graph, tol: float = 1e-8) -> bool:
    """With mu_1 <= ... <= mu_n the Laplacian eigenvalues of g, those of the
    complement are 0 together with n - mu_n, ..., n - mu_2."""
    mu = laplacian_eigenvalues(g)
    expected = sorted([0.0] + [g.n - x for x in mu[1:]])
    actual = laplacian_eigenvalues(complement(g))
    return all(abs(a - e) <= tol for a, e in zip(actual, expected))


def labeled_scan(n_max: int, checks: dict | None = None) -> list[dict]:
    """The to_dict() reports of verify_theorems for the graph theorems, from
    a plain scan: every labeled graph on 1..n_max vertices is checked on its
    own, in edge-mask order, with no classes and no complement pairing.
    checks maps theorem ids to check functions (default: DEFAULT_CHECKS)."""
    checks = checks or DEFAULT_CHECKS
    population = "; ".join(f"n={n} exhaustive ({1 << n * (n - 1) // 2})"
                           for n in range(1, n_max + 1))
    reports = {tid: {"theorem": tid, "description": THEOREMS[tid],
                     "population": population, "checked": 0, "violations": 0,
                     "counterexample": None} for tid in sorted(checks)}
    for n in range(1, n_max + 1):
        for mask in range(1 << n * (n - 1) // 2):
            g = mask_to_graph(n, mask)
            for tid, check in sorted(checks.items()):
                report = reports[tid]
                report["checked"] += 1
                if not check(g):
                    report["violations"] += 1
                    if report["counterexample"] is None:
                        report["counterexample"] = serialize_graph6(g)
    return list(reports.values())
