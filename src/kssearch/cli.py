"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 verification failure,
3 budget-exhausted (some interval verdict inconclusive).  ``pipeline`` exits
with 2 when any ticket failed (``tickets_failed`` in the summary is not
empty); the summary is written all the same, and ``--resume`` runs the
failed tickets again.  ``pipeline`` takes SIGTERM as Ctrl-C: the job
stops with its workers, writes one line naming its output directory, and
exits with 130 on Ctrl-C (SIGINT) and 143 on SIGTERM, 128 plus the signal's
number; ``--resume`` continues it.  Any command exits
with 2 when a certificate fails its re-check, such as ``embed-interval``'s
exact one of each refutation.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import signal
import sys

from .graphs import ENUM_MAX_VERTICES, Graph6Error, graph6_decode, graph6_encode
from .orderly import SubtreeTicket, enumerate_graphs, list_tickets
from .colouring import export_dimacs_101, solve_101
from .grids import MAX_GRID_N, get_grid, grid_embed
from .constraints import DEFAULT_DELTA
from .embedding import (
    DEFAULT_BUDGET,
    Inconclusive,
    decide_embeddability,
    verdict_to_json,
)
from .pipeline import (
    DEFAULT_GRID_LADDER,
    DEFAULT_INTERVAL_BUDGET,
    DEFAULT_TICKET_DEPTH,
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


def _n_range(text: str) -> tuple[int, int]:
    lo, dots, hi = text.partition("..")
    try:
        return int(lo), int(hi if dots else lo)
    except ValueError:
        raise ValueError(f"--n must be N or A..B, not {text!r}") from None


def _grid_ladder(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x)
    except ValueError:
        raise ValueError(f"--grid-n must be comma-separated integers, not {text!r}") from None


def _input_graphs(args, stack: contextlib.ExitStack):
    if args.input and args.input != "-":
        text = stack.enter_context(open(args.input)).read()
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


def _out_stream(args, stack: contextlib.ExitStack):
    if args.out and args.out != "-":
        return stack.enter_context(open(args.out, "w"))
    return sys.stdout


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="kssearch", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("enumerate", help="stream canonical graphs as graph6 lines")
    pe.add_argument("--n", type=int, required=True)
    walk = pe.add_mutually_exclusive_group()
    walk.add_argument("--tickets-depth", type=int, default=None,
                      help="list subtree tickets at this depth (1..N) instead of enumerating")
    walk.add_argument("--ticket", default=None, help="enumerate only this subtree")
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
    pi.add_argument("--out", default="-")

    pp = sub.add_parser("pipeline", help="full enumerate/filter/colour/embed job")
    pp.add_argument("--n", required=True, help="target size or range a..b")
    pp.add_argument("--grid-n", default=",".join(str(g) for g in DEFAULT_GRID_LADDER),
                    help="comma-separated grid ladder")
    pp.add_argument("--budget", type=int, default=DEFAULT_INTERVAL_BUDGET,
                    help="interval budget per 101-uncolourable graph that no ladder grid embeds")
    pp.add_argument("--delta", type=float, default=DEFAULT_DELTA)
    pp.add_argument("--tickets-depth", type=int, default=DEFAULT_TICKET_DEPTH)
    pp.add_argument("--workers", type=int, default=1)
    pp.add_argument("--resume", action="store_true",
                    help="continue a job already present in --out")
    pp.add_argument("--out", required=True)

    pv = sub.add_parser("verify-known", help="run a named verification bundle")
    pv.add_argument("name", choices=KNOWN_BUNDLES)
    pv.add_argument("--out", default=None, help="directory for witness artifacts")

    pr = sub.add_parser("report", help="per-n counts CSV with extrapolation column")
    pr.add_argument("--catalog", required=True)
    pr.add_argument("--out", default="-")

    px = sub.add_parser("export-cnf", help="DIMACS CNF of the 101-colouring constraints")
    px.add_argument("--in", dest="input", default="-")
    px.add_argument("--out", default="-")

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with contextlib.ExitStack() as stack:
            return _dispatch(args, stack)
    except (ValueError, OSError) as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_USAGE
    except AssertionError as e:  # a certificate failed its independent re-check
        sys.stderr.write(f"error: verification failed: {e}\n")
        return EXIT_VERIFICATION


def _dispatch(args, stack: contextlib.ExitStack) -> int:
    """Run one command; files it opens are closed when ``stack`` is."""
    cmd = args.command

    if cmd == "enumerate":
        if not 1 <= args.n <= ENUM_MAX_VERTICES:
            raise ValueError(f"--n must lie in 1..{ENUM_MAX_VERTICES}, not {args.n}")
        depth = args.tickets_depth
        if depth is not None and not 1 <= depth <= args.n:
            raise ValueError(f"--tickets-depth must lie in 1..{args.n} (--n), not {depth}")
        out = _out_stream(args, stack)
        if depth is not None:
            for t in list_tickets(depth):
                out.write(t.ticket_id + "\n")
            return EXIT_OK
        ticket = SubtreeTicket.from_id(args.ticket) if args.ticket else None
        for g in enumerate_graphs(args.n, ticket):
            out.write(graph6_encode(g) + "\n")
        return EXIT_OK

    if cmd == "colour":
        out = _out_stream(args, stack)
        for g in _input_graphs(args, stack):
            w = solve_101(g)
            rec = {"graph6": graph6_encode(g), "colourable": w is not None}
            if w is not None:
                rec["witness"] = {str(v): int(a) for v, a in enumerate(w)}
            out.write(json.dumps(rec) + "\n")
        return EXIT_OK

    if cmd == "embed-grid":
        if not 1 <= args.grid_n <= MAX_GRID_N:
            raise ValueError(f"--grid-n must lie in 1..{MAX_GRID_N}, not {args.grid_n}")
        out = _out_stream(args, stack)
        sys_ = get_grid(args.grid_n)
        for g in _input_graphs(args, stack):
            emb = grid_embed(g, args.grid_n, sys=sys_)
            rec = {"graph6": graph6_encode(g), "grid_n": args.grid_n,
                   "embedded": emb is not None}
            if emb is not None:
                rec["map"] = {str(v): list(d) for v, d in enumerate(emb.mapping)}
            out.write(json.dumps(rec) + "\n")
        return EXIT_OK

    if cmd == "embed-interval":
        out = _out_stream(args, stack)
        exit_code = EXIT_OK
        for g in _input_graphs(args, stack):
            verdict = decide_embeddability(
                g, budget=args.budget, delta=args.delta, verify_refutations=True
            )
            rec = json.loads(verdict_to_json(verdict, delta=args.delta, budget=args.budget))
            rec["graph6"] = graph6_encode(g)
            out.write(json.dumps(rec) + "\n")
            if isinstance(verdict, Inconclusive):
                exit_code = EXIT_BUDGET
        return exit_code

    if cmd == "pipeline":
        n_min, n_max = _n_range(args.n)
        spec = JobSpec(
            n_min=n_min,
            n_max=n_max,
            out_dir=args.out,
            grid_ladder=_grid_ladder(args.grid_n),
            interval_budget=args.budget,
            delta=args.delta,
            ticket_depth=args.tickets_depth,
            workers=args.workers,
        )
        import os

        if not args.resume and os.path.exists(os.path.join(args.out, "spec.json")):
            sys.stderr.write("error: job state exists; pass --resume to continue it\n")
            return EXIT_USAGE
        # SIGTERM stops a job as Ctrl-C does, so that run_search ends its workers
        stopped_by = signal.SIGINT

        def terminate(signum, frame):
            nonlocal stopped_by
            stopped_by = signum
            raise KeyboardInterrupt

        term = signal.signal(signal.SIGTERM, terminate)
        try:
            summary = run_search(spec)
        except KeyboardInterrupt:
            sys.stderr.write(f"stopped: rerun with --resume to continue the job in {args.out}\n")
            return 128 + stopped_by
        finally:
            signal.signal(signal.SIGTERM, term)
        sys.stderr.write(json.dumps(summary, indent=1) + "\n")
        return EXIT_VERIFICATION if summary["tickets_failed"] else EXIT_OK

    if cmd == "verify-known":
        report = verify_known(args.name, args.out)
        print(json.dumps(report, indent=1, default=str))
        return EXIT_OK if report["passed"] else EXIT_VERIFICATION

    if cmd == "report":
        records = read_records(args.catalog)
        out = _out_stream(args, stack)
        out.write(report_counts(records))
        return EXIT_OK

    if cmd == "export-cnf":
        out = _out_stream(args, stack)
        for g in _input_graphs(args, stack):
            out.write(f"c graph {graph6_encode(g)}\n")
            out.write(export_dimacs_101(g))
        return EXIT_OK

    raise AssertionError(f"unhandled command {cmd}")


if __name__ == "__main__":
    sys.exit(main())
