"""analyze-mix: a seeded, closed-loop stream of single-graph requests.

One client sends the next request when the previous one has returned.
80% are analyze requests: a graph as graph6 goes through
`formats.load_document`, `p4.classify`, `to_dict` and `json.dumps`.  The rest
are generate requests: a construction expression goes through
`dsl.parse_dsl` and `formats.serialize`, in graph6 or edge-list format.

Inputs.  Each seed draws a pool of 64 graphs on at most 12 vertices: random
graphs at n = 8..12, thin and thick spiders (k = 2..6, heads from the head
catalog), catalog families, case-iv graphs and union/join forms; and 16
generate expressions, two for each constructor the README documents.  The
stream runs in rounds that send every pool entry once, in shuffled order,
and each analyze request carries its graph under a fresh random vertex
relabeling, so no two requests are likely to carry the same labeled graph.
Every round has the same mix, so a batch's cost varies with the host, not
with the draw.

References.  Each pool graph's expected report comes from the independent
oracles in tests/oracles.py (characteristic polynomial, cograph, (5,1) for
P4-sparse, P4-extendible, spider kinds, p4-connected); a reported spider
partition is checked against the relabeled graph by this module's own code.
A generate request's expected output is the graph built through the
constructions API without the DSL, encoded by this module's own graph6 and
edge-list writers.

The README documents `complement(g)`, but the DSL rejects it with "unknown
constructor 'complement'".  Those requests stay in the stream and count as
failed; `correct` turns false only for other failures.
"""

from __future__ import annotations

import json
import math
import random
import statistics
from array import array
from collections import Counter
from dataclasses import dataclass, field

from hostspeed import HostSpeed, RawClock
from measure import cold_start_s, cpu_s, layer_metrics, peak_rss_mb
from tracer import Tracer, instrument

POOL_SIZE = 64
GENERATE_KINDS = ("atom", "standard", "union", "join", "complement", "spider", "family",
                  "caseiv")
MAX_N = 12
HEADS = {"K1": 1, "K2": 2, "E2": 2, "E3": 3, "P3": 3, "K3": 3, "P4": 4, "C5": 5}
FAMILY_IDS = ("P4", "F0", "F1", "F2", "F3", "F4", "F5", "F6")
CASE_IV_KINDS = ("P4", "F3", "F4", "F5", "F6")
ATOM_SIZES = {"K": (1, 6), "E": (1, 6), "P": (1, 8), "C": (3, 8)}
ATOMS = {"K": "complete", "E": "empty", "P": "path", "C": "cycle"}
CYCLE10 = tuple((1 << (v + 1) % 10) | (1 << (v - 1) % 10) for v in range(10))
KNOWN_DEFECT = "unknown constructor 'complement'"
SETUP_ARGV = ["-m", "p4spec.cli", "analyze", "-", "--format", "g6"]


# -------------------------------------------------------------------------
# graphs and their encodings, independent of p4spec.formats
# -------------------------------------------------------------------------

def encode_graph6(n: int, adj) -> str:
    bits = [adj[j] >> i & 1 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(chr(63 + int("".join(map(str, bits[k:k + 6])), 2))
                   for k in range(0, len(bits), 6))
    return chr(63 + n) + body + "\n"


def encode_edges(n: int, adj) -> str:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if adj[u] >> v & 1]
    return "".join([f"{n} {len(edges)}\n"] + [f"{u} {v}\n" for u, v in edges])


def encode(n: int, adj, fmt: str) -> str:
    return encode_graph6(n, adj) if fmt == "g6" else encode_edges(n, adj)


def relabel(n: int, adj, perm) -> tuple[int, ...]:
    out = [0] * n
    for u in range(n):
        for v in range(n):
            if adj[u] >> v & 1:
                out[perm[u]] |= 1 << perm[v]
    return tuple(out)


def random_graph(rng: random.Random, n: int, density: float) -> tuple[int, ...]:
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return tuple(adj)


# -------------------------------------------------------------------------
# construction expressions: a tree, its DSL text, its vertex count, and the
# graph built through the constructions API
# -------------------------------------------------------------------------

def render(e) -> str:
    kind = e[0]
    if kind == "atom":
        return f"{e[1]}{e[2]}"
    if kind == "standard":
        return f"{e[1]}({e[2]})"
    if kind in ("union", "join"):
        return f"{kind}({','.join(render(x) for x in e[1])})"
    if kind == "complement":
        return f"complement({render(e[1])})"
    if kind == "spider":
        return f"spider({e[1]},k={e[2]}" + (f",head={e[3]})" if e[3] else ")")
    if kind == "family":
        return f"family({e[1]})"
    return f"caseiv({e[1]}" + (f",head={e[2]})" if e[2] else ")")


def size(e) -> int:
    kind = e[0]
    if kind in ("atom", "standard"):
        return e[2]
    if kind in ("union", "join"):
        return sum(size(x) for x in e[1])
    if kind == "complement":
        return size(e[1])
    if kind == "spider":
        return 2 * e[2] + HEADS.get(e[3], 0)
    if kind == "family":
        return 4 if e[1] == "P4" else 5
    return (4 if e[1] == "P4" else 5) + HEADS.get(e[2], 0)


def build(e):
    from p4spec import constructions, graphs
    kind = e[0]
    if kind == "atom":
        return constructions.standard(ATOMS[e[1]], e[2])
    if kind == "standard":
        return constructions.standard(e[1], e[2])
    if kind in ("union", "join"):
        op = graphs.disjoint_union if kind == "union" else graphs.join
        acc = build(e[1][0])
        for x in e[1][1:]:
            acc = op(acc, build(x))
        return acc
    if kind == "complement":
        return graphs.complement(build(e[1]))
    heads = constructions.head_catalog()
    if kind == "spider":
        make = constructions.thin_spider if e[1] == "thin" else constructions.thick_spider
        return make(e[2], heads[e[3]] if e[3] else None)
    if kind == "family":
        return constructions.family(e[1])
    return constructions.case_iv_graph(e[1], heads[e[2]] if e[2] else None)


def small(rng: random.Random, budget: int, form: str | None = None):
    """An atom (K4) or standard (complete(4)) form on at most budget
    vertices; form picks one of the two, else either."""
    letter = rng.choice([c for c, (lo, _) in ATOM_SIZES.items() if lo <= budget])
    lo, hi = ATOM_SIZES[letter]
    n = rng.randint(lo, min(hi, budget))
    if (form or rng.choice(("atom", "standard"))) == "atom":
        return ("atom", letter, n)
    return ("standard", ATOMS[letter], n)


def spider_expr(rng: random.Random, kind: str, k: int):
    heads = [None] + [h for h, s in HEADS.items() if 2 * k + s <= MAX_N]
    return ("spider", kind, k, rng.choice(heads))


def head_of_size(rng: random.Random, h: int):
    """A catalog head on h vertices, or no head when h is 0."""
    return rng.choice([name for name, s in HEADS.items() if s == h]) if h else None


def caseiv_expr(rng: random.Random):
    return ("caseiv", rng.choice(CASE_IV_KINDS), rng.choice([None, *HEADS]))


def operands(rng: random.Random, lo: int, hi: int):
    """Two or three small forms with lo..hi vertices in total."""
    while True:
        parts = [small(rng, 6) for _ in range(rng.randint(2, 3))]
        if lo <= sum(size(p) for p in parts) <= hi:
            return parts


def generate_expr(rng: random.Random, kind: str):
    """An expression whose top-level constructor is kind."""
    if kind in ("atom", "standard"):
        return small(rng, 8, kind)
    if kind in ("union", "join"):
        return (kind, operands(rng, 2, MAX_N))
    if kind == "complement":
        return ("complement", small(rng, 8))
    if kind == "spider":
        return spider_expr(rng, rng.choice(("thin", "thick")), rng.randint(2, 6))
    if kind == "family":
        return ("family", rng.choice(FAMILY_IDS))
    return caseiv_expr(rng)


# -------------------------------------------------------------------------
# pool, references, request stream
# -------------------------------------------------------------------------

@dataclass(frozen=True)
class GenerateEntry:
    text: str
    fmt: str
    expected: str


@dataclass(frozen=True)
class Request:
    kind: str  # "analyze" or "generate"
    text: str
    fmt: str
    index: int  # pool entry
    adj: tuple | None  # the relabeled graph an analyze request carries


def analyze_input(rng: random.Random, i: int) -> tuple[int, tuple[int, ...]]:
    """Pool graph i as (n, adj).

    The pool repeats a template of 16 slots: 10 random graphs (n = 8..12 at
    a low and a high density), 3 spiders, a union or join, a family and a
    case-iv graph.  The slot fixes each graph's kind and vertex count; the
    seed picks only edges, heads of the given size and operands, so the
    cost of the mix hardly depends on the seed.
    """
    cycle, slot = divmod(i, 16)
    if slot < 10:
        n = 8 + slot % 5
        density = 0.25 + 0.5 * (2 * (cycle % 4) + slot // 5 + 0.5) / 8
        return n, random_graph(rng, n, density)
    if slot < 13:
        s = 3 * cycle + slot - 10
        k = 2 + s % 5
        e = ("spider", ("thin", "thick")[s % 2], k, head_of_size(rng, min(s % 6, MAX_N - 2 * k)))
    elif slot == 13:
        n = 8 + cycle % 4
        e = (("union", "join")[cycle % 2], operands(rng, n, n))
    elif slot == 14:
        e = ("family", FAMILY_IDS[cycle % len(FAMILY_IDS)])
    else:
        e = ("caseiv", CASE_IV_KINDS[cycle % len(CASE_IV_KINDS)], head_of_size(rng, cycle % 6))
    g = build(e)
    return g.n, tuple(g.adj)


def pool_inputs(seed: int):
    """(analyze graphs as (n, adj), generate entries) for one seed.

    There is one generate entry per four analyze graphs, at least one per
    constructor kind; entry j has kind j mod 8 and alternates g6 and edges
    output every eight entries.
    """
    rng = random.Random(f"{seed}:pool")
    graphs = [analyze_input(rng, i) for i in range(POOL_SIZE)]
    generate = []
    for j in range(max(len(GENERATE_KINDS), POOL_SIZE // 4)):
        e = generate_expr(rng, GENERATE_KINDS[j % len(GENERATE_KINDS)])
        g = build(e)
        fmt = ("g6", "edges")[j // len(GENERATE_KINDS) % 2]
        generate.append(GenerateEntry(render(e), fmt, encode(g.n, g.adj, fmt)))
    return graphs, generate


def integer_roots(coeffs: list[int], n: int):
    """Integer roots in 0..n with multiplicity, by synthetic division of an
    ascending coefficient list; returns (sorted [[root, mult]], residual)."""
    p = list(coeffs)
    roots = []
    for r in range(n + 1):
        mult = 0
        while len(p) > 1:
            desc = p[::-1]
            q = [desc[0]]
            for c in desc[1:]:
                q.append(c + r * q[-1])
            if q.pop() != 0:
                break
            p = q[::-1]
            mult += 1
        if mult:
            roots.append([r, mult])
    return roots, p


def reference(n: int, adj) -> dict:
    """Expected report fields of one graph, from tests/oracles.py."""
    import oracles
    from p4spec.graphs import Graph
    g = Graph(n, adj)
    roots, residual = integer_roots(oracles.char_poly_coeffs(oracles.laplacian_rows(g)), n)
    sparse = oracles.satisfies_q_t(g, 5, 1)
    extendible = oracles.is_p4_extendible(g)
    return {
        "n": n,
        "m": sum(row.bit_count() for row in adj) // 2,
        "p4_count": len(oracles.p4_paths(g)),
        "is_cograph": oracles.is_cograph(g),
        "is_p4_sparse": sparse,
        "is_p4_extendible": extendible,
        "is_p4_reducible": sparse and extendible,
        "is_p4_connected": oracles.is_p4_connected(g),
        "l_integral": len(residual) == 1,
        "roots": roots,
        "residual": residual,
        "spider_kinds": oracles.spider_kinds(g),
    }


@dataclass(frozen=True)
class Pool:
    graphs: list
    references: list
    generate: list


def build_pool(seed: int) -> Pool:
    graphs, generate = pool_inputs(seed)
    return Pool(graphs, [reference(n, adj) for n, adj in graphs], generate)


def requests(seed: int, graphs, generate):
    """The endless request stream of one seed, in rounds: each round asks
    for every pool graph (freshly relabeled) and every generate entry once,
    in shuffled order, so every round has the same mix."""
    rng = random.Random(f"{seed}:requests")
    while True:
        order = [("analyze", i) for i in range(len(graphs))]
        order += [("generate", j) for j in range(len(generate))]
        rng.shuffle(order)
        for kind, i in order:
            if kind == "generate":
                yield Request(kind, generate[i].text, generate[i].fmt, i, None)
                continue
            n, adj = graphs[i]
            perm = list(range(n))
            rng.shuffle(perm)
            radj = relabel(n, adj, perm)
            yield Request(kind, encode_graph6(n, radj), "g6", i, radj)


def serve(req: Request) -> str:
    """One request, as the CLI would handle it."""
    from p4spec import dsl, formats, p4
    if req.kind == "analyze":
        return json.dumps(p4.classify(formats.load_document(req.text).graph).to_dict())
    return formats.serialize(dsl.parse_dsl(req.text), req.fmt)


# -------------------------------------------------------------------------
# checking responses
# -------------------------------------------------------------------------

REPORT_KEYS = {"n", "m", "p4_count", "is_cograph", "is_p4_sparse", "is_p4_extendible",
               "is_p4_reducible", "is_p4_connected", "spider", "l_integral", "spectrum"}
FLAG_KEYS = ("n", "m", "p4_count", "is_cograph", "is_p4_sparse", "is_p4_extendible",
             "is_p4_reducible", "is_p4_connected", "l_integral")


def spider_partition_holds(n: int, adj, spider: dict) -> bool:
    """The reported legs/body/head partition is a spider of its kind."""
    legs, body, head = spider["legs"], spider["body"], spider["head"]
    lm = sum(1 << v for v in legs)
    bm = sum(1 << v for v in body)
    hm = sum(1 << v for v in head)
    if (len(set(legs + body + head)) != n or lm | bm | hm != (1 << n) - 1
            or len(legs) != len(body) or len(legs) < 2):
        return False
    if any(adj[c] & bm != bm & ~(1 << c) for c in body):
        return False
    if any(adj[r] & bm != bm or adj[r] & lm for r in head):
        return False
    partners = 0
    for s in legs:
        if adj[s] & ~bm:
            return False
        mate = adj[s] if spider["kind"] == "thin" else bm & ~adj[s]
        if mate.bit_count() != 1 or partners & mate:
            return False
        partners |= mate
    return partners == bm


def analyze_ok(out: str, ref: dict, adj) -> bool:
    """The JSON report matches the reference; a malformed one does not."""
    try:
        d = json.loads(out)
        if set(d) != REPORT_KEYS or any(d[k] != ref[k] for k in FLAG_KEYS):
            return False
        spec = d["spectrum"]
        if (sorted(spec["integer_roots"]) != ref["roots"]
                or spec["residual"] != ref["residual"]):
            return False
        spider = d["spider"]
        if spider is None:
            return not ref["spider_kinds"]
        return (spider["kind"] in ref["spider_kinds"]
                and spider_partition_holds(ref["n"], adj, spider))
    except (ValueError, KeyError, TypeError):
        return False


def outcome(req: Request, out: str | None, err: Exception | None, pool: Pool) -> str:
    """"ok", "known" (the documented complement defect), "error" or "wrong"."""
    if err is not None:
        known = (req.kind == "generate" and req.text.startswith("complement(")
                 and KNOWN_DEFECT in str(err))
        return "known" if known else "error"
    if req.kind == "analyze":
        return "ok" if analyze_ok(out, pool.references[req.index], req.adj) else "wrong"
    return "ok" if out == pool.generate[req.index].expected else "wrong"


# -------------------------------------------------------------------------
# the closed loop
# -------------------------------------------------------------------------

@dataclass
class Loop:
    done: int = 0
    raw: float = 0.0  # serving time of the timed batches, wall s
    wall: float = 0.0  # the same on the loop's clock
    cpu: float = 0.0  # process CPU of the timed batches, scaled like wall
    # (kind, pool index) -> latencies of that entry's passing requests, s
    latencies: dict = field(default_factory=dict)
    outcomes: Counter = field(default_factory=Counter)
    errors: list = field(default_factory=list)


def closed_loop(seed: int, pool: Pool, clock, *, seconds: float | None = None,
                count: int | None = None) -> Loop:
    """Serve the seed's stream one round per batch until seconds of timed
    wall time (or count requests) have passed, timing on clock.  Requests are
    made before and checked after each timed batch, so only serving is
    timed."""
    stream = requests(seed, pool.graphs, pool.generate)
    rounds = len(pool.graphs) + len(pool.generate)
    loop = Loop()
    while (loop.raw < seconds) if count is None else (loop.done < count):
        take = rounds if count is None else min(rounds, count - loop.done)
        batch = [next(stream) for _ in range(take)]
        served = []
        c0, k0, r0 = cpu_s(), clock.kernel_cpu, clock.raw()
        t0 = clock.now()
        for req in batch:
            s = clock.now()
            try:
                out, err = serve(req), None
            except Exception as exc:  # a failed request is counted, not fatal
                out, err = None, exc
            served.append((clock.now() - s, out, err))
        wall, raw = clock.now() - t0, clock.raw() - r0
        loop.cpu += (cpu_s() - c0 - (clock.kernel_cpu - k0)) * wall / raw
        loop.raw += raw
        loop.wall += wall
        loop.done += len(batch)
        for req, (dt, out, err) in zip(batch, served):
            result = outcome(req, out, err, pool)
            loop.outcomes[result] += 1
            if result == "ok":
                loop.latencies.setdefault((req.kind, req.index), array("d")).append(dt)
            elif len(loop.errors) < 5:
                loop.errors.append(f"{result}: {req.kind} {req.text.strip()[:60]!r} -> {err!r}")
    return loop


def entry_percentile(latencies: dict, q: float) -> float:
    """Nearest-rank percentile over passing requests, each counted at the
    median latency of its pool entry over the run.

    The host's speed jitters on a millisecond scale: one request sent 150
    times in a row spreads by 1.7x between its 10th and 90th percentile, and
    the reference kernel does the same, so no host-speed sample can scale a
    single request.  The tail of raw latencies measures that jitter more than
    the program.  Each entry is sent about a hundred times a run, and its
    median is steady.
    """
    weighted = sorted((statistics.median(v), len(v)) for v in latencies.values())
    rank = max(1, math.ceil(q * sum(n for _, n in weighted)))
    for median, n in weighted:
        rank -= n
        if rank <= 0:
            return median
    raise ValueError("no latencies")


def report(loop: Loop) -> dict:
    failed = loop.done - loop.outcomes["ok"]
    return {"attempted": loop.done, "failed": failed,
            "correct": loop.outcomes["error"] + loop.outcomes["wrong"] == 0,
            "samples": sum(map(len, loop.latencies.values())),
            "known_defect": loop.outcomes["known"], "errors": loop.errors}


class MixWorkload:
    def run(self, root, seed: int, seconds: float) -> dict:
        pool = build_pool(seed)
        with HostSpeed() as clock:
            loop = closed_loop(seed, pool, clock, seconds=seconds)
        rss = peak_rss_mb()
        metrics = {
            "setup_s": cold_start_s(root, SETUP_ARGV, encode_graph6(10, CYCLE10)),
            "graphs_per_s": loop.done / loop.wall,
            "cpu_us_per_graph": loop.cpu / loop.done * 1e6,
            "req_per_s": loop.done / loop.wall,
            "req_p50_ms": entry_percentile(loop.latencies, 0.5) * 1e3,
            "req_p99_ms": entry_percentile(loop.latencies, 0.99) * 1e3,
            "peak_rss_mb": rss,
        }
        return {**report(loop), "host_scale": loop.wall / loop.raw, "metrics": metrics}

    def trace(self, root, seed: int, seconds: float) -> dict:
        """The same requests untraced, traced and untraced again; the tracing
        overhead is taken against the mean of the two untraced loops."""
        pool = build_pool(seed)
        clock = RawClock()
        before = closed_loop(seed, pool, clock, seconds=seconds / 2)
        tracer = Tracer()
        with instrument(tracer):
            traced = closed_loop(seed, pool, clock, count=before.done)
        after = closed_loop(seed, pool, clock, count=before.done)
        metrics = layer_metrics(tracer, traced.done, traced.wall,
                                (before.wall + after.wall) / 2, 0.0, 0.0)
        reports = [report(loop) for loop in (before, traced, after)]
        return {"attempted": sum(r["attempted"] for r in reports),
                "failed": sum(r["failed"] for r in reports),
                "correct": all(r["correct"] for r in reports),
                "known_defect": sum(r["known_defect"] for r in reports),
                "samples": 1, "errors": [e for r in reports for e in r["errors"]],
                "metrics": metrics}
