"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 verification failure,
3 budget-exhausted (some interval verdict inconclusive).  ``pipeline`` exits
with 2 when any ticket failed (``tickets_failed`` in the summary is not
empty); the summary is written all the same, and ``--resume`` runs the
failed tickets again.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from .graphs import (
    Graph6Error,
    graph6_decode,
    graph6_encode,
    random_graphs,
    to_adjacency_json,
)
from .orderly import Filters, SubtreeTicket, enumerate_graphs, list_tickets
from .colouring import export_dimacs_101, solve_101, witness_to_json
from .grids import get_grid, grid_embed
from .constraints import DEFAULT_DELTA
from .embedding import (
    DEFAULT_BUDGET,
    Inconclusive,
    checkpoint_from_json,
    checkpoint_to_json,
    decide_embeddability,
    verdict_to_json,
)
from .polynomial import export_polynomial
from .pipeline import (
    DEFAULT_GRID_LADDER,
    DEFAULT_INTERVAL_BUDGET,
    JobSpec,
    read_records,
    report_counts,
    run_search,
)
from .verify import KNOWN_BUNDLES, verify_known

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2
EXIT_BUDGET = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(EXIT_USAGE)


def _parse_filters(text: str) -> Filters:
    names = {f.strip() for f in text.split(",") if f.strip()}
    known = {"square-free", "connected"}
    bad = names - known
    if bad:
        raise ValueError(f"unknown filters {sorted(bad)}; known: {sorted(known)}")
    return Filters(square_free="square-free" in names, connected="connected" in names)


def _input_graphs(args):
    if args.input and args.input != "-":
        text = open(args.input).read()
    else:
        text = sys.stdin.read()
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            yield graph6_decode(line)
        except Graph6Error as e:
            sys.stderr.write(f"line {lineno}: {e}\n")
            sys.exit(EXIT_USAGE)


def _out_stream(args):
    if args.out and args.out != "-":
        return open(args.out, "w")
    return sys.stdout


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="kssearch", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("enumerate", help="stream canonical graphs as graph6 lines")
    pe.add_argument("--n", type=int, required=True)
    pe.add_argument("--filters", default="square-free,connected")
    pe.add_argument("--tickets-depth", type=int, default=None,
                    help="list subtree tickets at this depth instead of enumerating")
    pe.add_argument("--ticket", default=None, help="enumerate only this subtree")
    pe.add_argument("--adjacency-json", action="store_true",
                    help="emit adjacency-list JSON instead of graph6")
    pe.add_argument("--out", default="-")

    pc = sub.add_parser("colour", help="decide 101-colourability of input graphs")
    pc.add_argument("--in", dest="input", default="-")
    pc.add_argument("--out", default="-")

    pg = sub.add_parser("embed-grid", help="search grid embeddings of input graphs")
    pg.add_argument("--in", dest="input", default="-")
    pg.add_argument("--grid-n", type=int, required=True)
    pg.add_argument("--out", default="-")

    pi = sub.add_parser("embed-interval", help="interval branch-and-prune verdicts")
    pi.add_argument("--in", dest="input", default="-")
    pi.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    pi.add_argument("--delta", type=float, default=DEFAULT_DELTA)
    pi.add_argument("--resume", default=None,
                    help="checkpoint file to resume from: each input needs a line "
                         "of its graph made at the same --delta")
    pi.add_argument("--checkpoint-out", default=None,
                    help="write one checkpoint line per inconclusive input")
    pi.add_argument("--out", default="-")

    pp = sub.add_parser("pipeline", help="full enumerate/filter/colour/embed job")
    pp.add_argument("--n", required=True, help="target size or range a..b")
    pp.add_argument("--filters", default="square-free,connected")
    pp.add_argument("--grid-n", default=",".join(str(g) for g in DEFAULT_GRID_LADDER),
                    help="comma-separated grid ladder")
    pp.add_argument("--budget", type=int, default=DEFAULT_INTERVAL_BUDGET,
                    help="interval budget per 101-uncolourable graph that no ladder grid embeds")
    pp.add_argument("--delta", type=float, default=DEFAULT_DELTA)
    pp.add_argument("--tickets-depth", type=int, default=7)
    pp.add_argument("--workers", type=int, default=1)
    pp.add_argument("--resume", action="store_true",
                    help="continue a job already present in --out")
    pp.add_argument("--out", required=True)

    pv = sub.add_parser("verify-known", help="run a named verification bundle")
    pv.add_argument("name", choices=KNOWN_BUNDLES)
    pv.add_argument("--out", default=None, help="directory for witness artifacts")

    prg = sub.add_parser("random-graphs", help="seeded random graphs (graph6 lines)")
    prg.add_argument("--n", type=int, required=True)
    prg.add_argument("--count", type=int, default=100)
    prg.add_argument("--seed", type=int, default=0)
    prg.add_argument("--filters", default="")
    prg.add_argument("--out", default="-")

    pr = sub.add_parser("report", help="per-n counts CSV with extrapolation column")
    pr.add_argument("--catalog", required=True)
    pr.add_argument("--out", default="-")

    px = sub.add_parser("export-cnf", help="DIMACS CNF of the 101-colouring constraints")
    px.add_argument("--in", dest="input", default="-")
    px.add_argument("--out", default="-")

    py = sub.add_parser("export-poly", help="embedding polynomial with variable legend")
    py.add_argument("--in", dest="input", default="-")
    py.add_argument("--out", default="-")

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (ValueError, OSError) as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_USAGE


def _dispatch(args) -> int:
    cmd = args.command

    if cmd == "enumerate":
        filters = _parse_filters(args.filters)
        out = _out_stream(args)
        if args.tickets_depth is not None and args.ticket is None:
            for t in list_tickets(args.tickets_depth, filters):
                out.write(t.ticket_id + "\n")
            return EXIT_OK
        ticket = SubtreeTicket.from_id(args.ticket) if args.ticket else None
        for g in enumerate_graphs(args.n, filters, ticket):
            out.write(to_adjacency_json(g) + "\n" if args.adjacency_json else graph6_encode(g) + "\n")
        return EXIT_OK

    if cmd == "colour":
        out = _out_stream(args)
        for g in _input_graphs(args):
            w = solve_101(g)
            rec = {"graph6": graph6_encode(g), "colourable": w is not None}
            if w is not None:
                rec["witness"] = json.loads(witness_to_json(w))
            out.write(json.dumps(rec) + "\n")
        return EXIT_OK

    if cmd == "embed-grid":
        out = _out_stream(args)
        sys_ = get_grid(args.grid_n)
        for g in _input_graphs(args):
            emb = grid_embed(g, args.grid_n, sys=sys_)
            rec = {"graph6": graph6_encode(g), "grid_n": args.grid_n,
                   "embedded": emb is not None}
            if emb is not None:
                rec["map"] = {str(v): list(d) for v, d in enumerate(emb.mapping)}
            out.write(json.dumps(rec) + "\n")
        return EXIT_OK

    if cmd == "embed-interval":
        out = _out_stream(args)
        resume: dict[str, tuple] = {}
        if args.resume:
            with open(args.resume) as fh:
                for line in fh:
                    if line.strip():
                        g6, delta, boxes = checkpoint_from_json(line)
                        resume[g6] = (delta, boxes)
        exit_code = EXIT_OK
        with contextlib.ExitStack() as stack:
            ckpt = None
            for g in _input_graphs(args):
                g6 = graph6_encode(g)
                resume_boxes = None
                if args.resume:
                    if g6 not in resume:
                        raise ValueError(f"checkpoint {args.resume} has no line for graph {g6}")
                    resume_delta, resume_boxes = resume[g6]
                    if resume_delta != args.delta:
                        raise ValueError(
                            f"checkpoint of {g6} was made at delta {resume_delta}, "
                            f"not --delta {args.delta}"
                        )
                verdict = decide_embeddability(
                    g, budget=args.budget, delta=args.delta, resume_boxes=resume_boxes
                )
                rec = json.loads(verdict_to_json(verdict, delta=args.delta, budget=args.budget))
                rec["graph6"] = g6
                out.write(json.dumps(rec) + "\n")
                if isinstance(verdict, Inconclusive):
                    exit_code = EXIT_BUDGET
                    if args.checkpoint_out:
                        if ckpt is None:
                            ckpt = stack.enter_context(open(args.checkpoint_out, "w"))
                        ckpt.write(checkpoint_to_json(g, args.delta, verdict) + "\n")
                        ckpt.flush()
        return exit_code

    if cmd == "pipeline":
        text = args.n
        if ".." in text:
            lo, hi = text.split("..")
            n_min, n_max = int(lo), int(hi)
        else:
            n_min = n_max = int(text)
        filters = _parse_filters(args.filters)
        ladder = tuple(int(x) for x in args.grid_n.split(",") if x)
        spec = JobSpec(
            n_min=n_min,
            n_max=n_max,
            out_dir=args.out,
            square_free=filters.square_free,
            connected=filters.connected,
            grid_ladder=ladder,
            interval_budget=args.budget,
            delta=args.delta,
            ticket_depth=args.tickets_depth,
            workers=args.workers,
        )
        import os

        if not args.resume and os.path.exists(os.path.join(args.out, "spec.json")):
            sys.stderr.write("error: job state exists; pass --resume to continue it\n")
            return EXIT_USAGE
        summary = run_search(spec)
        sys.stderr.write(json.dumps(summary, indent=1) + "\n")
        return EXIT_VERIFICATION if summary["tickets_failed"] else EXIT_OK

    if cmd == "verify-known":
        report = verify_known(args.name, args.out)
        print(json.dumps(report, indent=1, default=str))
        return EXIT_OK if report["passed"] else EXIT_VERIFICATION

    if cmd == "random-graphs":
        filters = _parse_filters(args.filters) if args.filters else Filters(False, False)
        out = _out_stream(args)
        for g in random_graphs(
            args.n,
            args.count,
            args.seed,
            require_square_free=filters.square_free,
            require_connected=filters.connected,
        ):
            out.write(graph6_encode(g) + "\n")
        return EXIT_OK

    if cmd == "report":
        records = read_records(args.catalog)
        out = _out_stream(args)
        out.write(report_counts(records))
        return EXIT_OK

    if cmd == "export-cnf":
        out = _out_stream(args)
        for g in _input_graphs(args):
            out.write(f"c graph {graph6_encode(g)}\n")
            out.write(export_dimacs_101(g))
        return EXIT_OK

    if cmd == "export-poly":
        out = _out_stream(args)
        for g in _input_graphs(args):
            poly = export_polynomial(g)
            out.write(f"# graph {graph6_encode(g)}\n")
            out.write("# legend:\n")
            for line in poly.legend_text().splitlines():
                out.write(f"#   {line}\n")
            out.write(poly.text() + "\n")
        return EXIT_OK

    raise AssertionError(f"unhandled command {cmd}")


if __name__ == "__main__":
    sys.exit(main())
