"""Command line front end.

Four subcommands: analyze (classification report), spectrum (exact, numeric
or closed-form eigenvalues), generate (construction expressions to edge list
or graph6), verify-theorems (checks over every small graph; under --sample,
over a seeded sample at each n with more labeled graphs than the sample).

Exit codes: 0 success, 1 a theorem violation or a failed certificate, 2 bad
input.
Reports go to stdout and are deterministic; progress and timing go to stderr.
generate and verify-theorems import the dsl and theorems modules when they
run, so that analyze and spectrum start without loading either.
"""

from __future__ import annotations

import argparse
import sys
import time
import warnings

from . import MAX_N, THEOREMS, __version__
from .formats import ParseError, load_document, serialize
from .graphs import Graph, mask_of
from .p4 import ClassificationReport, classify, recognize_spider
from .spectral import char_poly, exact_spectrum, laplacian, numeric_spectrum, \
    thin_spider_closed_form


def _read_text(path: str) -> str:
    """The bytes of a file, or of stdin for "-", decoded as strict ASCII:
    no locale decoding, so one input reads the same from either source."""
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise ParseError(f"non-ASCII byte 0x{data[exc.start]:02x} "
                         f"at offset {exc.start}") from None


def _load_graph(path: str, fmt: str) -> Graph:
    return load_document(_read_text(path), fmt).graph


def _emit(doc: dict) -> None:
    import json  # a text report never needs it
    print(json.dumps(doc, indent=2))


def _render_report(report: ClassificationReport, numeric: list | None) -> str:
    if report.spider is None:
        spider = "none"
    else:
        s = report.spider
        spider = (f"{s.kind} k={s.k} legs={list(s.legs)} "
                  f"body={list(s.body)} head={list(s.head)}")
    roots = ", ".join(f"{v}:{m}" for v, m in report.spectrum.integer_roots)
    spectrum = "{" + roots + "}"
    if report.spectrum.residual.degree > 0:
        spectrum += f" residual {report.spectrum.residual}"
    shown = report._replace(spider=spider, spectrum=spectrum)._asdict()
    lines = [f"{name}: {str(value).lower() if isinstance(value, bool) else value}"
             for name, value in shown.items()]
    if numeric is not None:
        lines.append("numeric_spectrum: " + ", ".join(repr(x) for x in numeric))
    return "\n".join(lines)


def cmd_analyze(args) -> int:
    g = _load_graph(args.input, args.format)
    report = classify(g)
    numeric = numeric_spectrum(g) if args.numeric else None
    if args.json:
        doc = report.to_dict()
        if numeric is not None:
            doc["numeric_spectrum"] = numeric
        _emit(doc)
    else:
        print(_render_report(report, numeric))
    return 0


def cmd_spectrum(args) -> int:
    g = _load_graph(args.input, args.format)
    if args.mode == "exact":
        spec = exact_spectrum(g)
        _emit({**spec.to_dict(), "is_integral": spec.is_integral})
    elif args.mode == "numeric":
        _emit({"eigenvalues": numeric_spectrum(g)})
    else:
        spider = recognize_spider(g)
        if spider is None or spider.kind != "thin" or any(
                g.adj[v] & mask_of(spider.head) for v in spider.head):
            raise ValueError("not a thin spider with edgeless head")
        cf = thin_spider_closed_form(spider.k, len(spider.head))
        # the surds come from formulas: print them only once they expand to g's
        if cf.char_poly() != char_poly(laplacian(g)):
            raise ArithmeticError("closed-form spectrum does not match the "
                                  "characteristic polynomial")
        _emit({
            "entries": [[str(v), m] for v, m in cf.entries],
            "values": cf.values(),
        })
    return 0


def cmd_generate(args) -> int:
    from .dsl import parse_dsl
    g = parse_dsl(args.expression)
    text = serialize(g, args.format)
    sys.stdout.write(text if text.endswith("\n") else text + "\n")
    return 0


def cmd_verify(args) -> int:
    from .theorems import verify_theorems
    theorems = None
    if args.theorems is not None:
        theorems = "".join(part.strip() for part in args.theorems.split(","))
    t0 = time.perf_counter()
    results = verify_theorems(
        args.n_max,
        theorems,
        shards=args.shards,
        shard_id=args.shard_id,
        sample=args.sample,
        workers=args.workers,
        seed=args.seed,
        progress=lambda msg: print(msg, file=sys.stderr),
    )
    total = time.perf_counter() - t0
    _emit({
        "n_max": args.n_max,
        "shards": args.shards,
        "shard_id": args.shard_id,
        "seed": args.seed,
        "results": [r.to_dict() for r in results],
    })
    for r in results:
        print(f"theorem {r.theorem}: {r.check_s:.3f}s in checks (summed over workers)",
              file=sys.stderr)
    print(f"total: {total:.3f}s", file=sys.stderr)
    return 1 if any(r.violations for r in results) else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="p4spec",
        description="Exact Laplacian spectra and P4 structure of small graphs.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="classify a graph and report its spectrum")
    p.add_argument("input", help="edge-list or graph6 file, - for stdin")
    p.add_argument("--format", choices=("auto", "edges", "g6"), default="auto")
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    p.add_argument("--numeric", action="store_true",
                   help="append floating-point eigenvalues")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("spectrum", help="Laplacian spectrum of a graph")
    p.add_argument("input", help="edge-list or graph6 file, - for stdin")
    p.add_argument("--format", choices=("auto", "edges", "g6"), default="auto")
    p.add_argument("--mode", choices=("exact", "numeric", "closed-form"),
                   default="exact")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("generate", help="build a graph from an expression")
    p.add_argument("expression",
                   help="e.g. 'cycle(6)', 'spider(thin,k=4,head=K3)', "
                        "'join(P4,E2)'")
    p.add_argument("--format", choices=("edges", "g6"), default="edges")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("verify-theorems",
                       help="check the structural theorems over all small graphs")
    p.add_argument("--n-max", type=int, required=True,
                   help=f"largest vertex count, 1..{MAX_N}")
    p.add_argument("--theorems",
                   help="comma separated ids from "
                        + ",".join(sorted(THEOREMS)) + " (default all)")
    p.add_argument("--shards", type=int, default=1)
    p.add_argument("--shard-id", type=int, default=0)
    p.add_argument("--sample", type=int,
                   help="sample populations larger than this instead of "
                        "enumerating")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    error = None
    with warnings.catch_warnings(record=True) as caught:
        # record every warning, even under -W error, and report it as a note
        warnings.simplefilter("always")
        try:
            status = args.func(args)
        except (ValueError, OSError) as exc:  # ParseError and DslError included
            error = exc
            status = 2
        except ArithmeticError as exc:
            # a certificate behind an exact claim failed
            error = exc
            status = 1
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
    return status


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
