"""Command-line interface: parses arguments, calls the library (the
cross-check chain lives in `checks`) and prints its results as JSON.

All commands write JSON to stdout (except PGM file output) and
diagnostics to stderr.  Exit codes: 0 success, 1 verification failure,
2 usage error, 3 size cap exceeded.
"""

import argparse
import json
import sys
from math import gcd

from . import checks
from .errors import SizeCapError
from .graphs import board_graph
from .symmetry import grid_identity
from .tilings import a_seq_upto, count_matchings, enumerate_matchings

EXIT_OK, EXIT_DISAGREE, EXIT_USAGE, EXIT_SIZE = 0, 1, 2, 3

# perfbench/make_refs.py reads these four names from here; they go once
# the benchmark change (ROADMAP item 1) points it at `checks`.
_sym_laplacian = checks.sym_laplacian
_tiling_board = checks.tiling_board
_verify_rows = checks.verify_rows
_row_agrees = checks.row_agrees


def cmd_count_symmetric(args):
    parity, m, n, methods = checks.count_methods(args.rows, args.cols)
    if args.method != "all":
        value = methods[args.method]()
        print(json.dumps({"rows": args.rows, "cols": args.cols,
                          "method": args.method, "value": value}))
        return EXIT_OK
    values = {}
    for name, fn in methods.items():
        try:
            values[name] = fn()
        except SizeCapError as exc:
            print(f"method {name} failed: {exc}", file=sys.stderr)
            values[name] = f"error: {exc}"
    agree = checks.row_agrees({"kind": parity, "values": values})
    print(json.dumps({"rows": args.rows, "cols": args.cols, "parity": parity,
                      "m": m, "n": n, "values": values, "agree": agree}))
    return EXIT_OK if agree else EXIT_DISAGREE


def cmd_count_tilings(args):
    kind = args.board.replace("-", "_")
    board = board_graph(kind, args.rows, args.cols)
    listed = {}
    if args.enumerate:  # its cap is far below counting's, so check it first
        matchings = enumerate_matchings(board)
        listed["matchings"] = [
            {"edges": [[list(u), list(v)] for u, v in edges], "weight": w}
            for edges, w in matchings
        ]
        listed["weight_sum"] = sum(w for _, w in matchings)
    print(json.dumps({"board": args.board, "rows": args.rows, "cols": args.cols,
                      "count": count_matchings(board), **listed}))
    return EXIT_OK


def cmd_order(args):
    fill = 1 if args.config == "all-ones" else 2
    order = checks.grid_config_order(args.rows, args.cols, fill)
    report = {"rows": args.rows, "cols": args.cols, "config": args.config,
              "order": order}
    if args.config == "all-ones":
        # 2c has order |c| / gcd(|c|, 2) in the cyclic group c generates.
        report["all_twos_order"] = order // gcd(order, 2)
        report["ratio"] = gcd(order, 2)
    print(json.dumps(report))
    return EXIT_OK


def cmd_identity(args):
    e = grid_identity(args.rows, args.cols)
    grid = [list(e[r * args.cols:(r + 1) * args.cols]) for r in range(args.rows)]
    if args.format == "pgm":
        lines = [f"P2\n{args.cols} {args.rows}\n3\n"]
        lines += [" ".join(map(str, row)) + "\n" for row in grid]
        data = "".join(lines)
    else:
        data = json.dumps(grid) + "\n"
    try:
        with open(args.out, "w") as fh:
            fh.write(data)
    except OSError as exc:
        print(f"cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_USAGE
    print(json.dumps({"rows": args.rows, "cols": args.cols, "out": args.out,
                      "format": args.format}))
    return EXIT_OK


def cmd_verify(args):
    ok = True
    # verify_rows returns only when every row is computed, so a size cap
    # prints no rows
    for row in checks.verify_rows(args.max_m, args.max_n):
        row["agree"] = checks.row_agrees(row)
        ok = ok and row["agree"]
        print(json.dumps(row))
        if not row["agree"]:
            print(f"disagreement at {row['kind']} m={row['m']} n={row['n']}",
                  file=sys.stderr)
    return EXIT_OK if ok else EXIT_DISAGREE


def cmd_a_seq(args):
    values = a_seq_upto(args.n)
    print(json.dumps({"values": values,
                      "all_odd": all(v % 2 == 1 for v in values)}))
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sandpiles",
        description="Sandpile-group counts on grid graphs, with "
                    "domino-tiling and Chebyshev cross-checks.")
    sub = parser.add_subparsers(dest="command", required=True)
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--rows", type=int, required=True)
    grid.add_argument("--cols", type=int, required=True)

    p = sub.add_parser("count-symmetric", parents=[grid],
                       help="count symmetric recurrent configurations")
    p.add_argument("--method", default="det",
                   choices=["det", "enumerate", "product", "chebyshev",
                            "tilings", "all"])
    p.set_defaults(fn=cmd_count_symmetric)

    p = sub.add_parser("count-tilings", parents=[grid],
                       help="count weighted domino tilings")
    p.add_argument("--board", default="plain",
                   choices=["plain", "mobius", "mobius-weighted",
                            "two-weighted"])
    p.add_argument("--enumerate", action="store_true")
    p.set_defaults(fn=cmd_count_tilings)

    p = sub.add_parser("order", parents=[grid],
                       help="order of a constant configuration")
    p.add_argument("--config", default="all-twos",
                   choices=["all-ones", "all-twos"])
    p.set_defaults(fn=cmd_order)

    p = sub.add_parser("identity", parents=[grid],
                       help="render the group identity")
    p.add_argument("--out", required=True)
    p.add_argument("--format", default="pgm", choices=["pgm", "json"])
    p.set_defaults(fn=cmd_identity)

    p = sub.add_parser("verify", help="run the cross-method verification matrix")
    p.add_argument("--max-m", type=int, default=3)
    p.add_argument("--max-n", type=int, default=3)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("a-seq", help="staircase group orders a_1..a_N")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=cmd_a_seq)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    for name in ("rows", "cols", "n", "max_m", "max_n"):
        if getattr(args, name, 1) < 1:
            print(f"{name} must be positive", file=sys.stderr)
            return EXIT_USAGE
    # The int -> str digit limit guards the parsing of untrusted text;
    # the counts printed here are the program's own integers, which pass
    # 4300 digits from about 186 x 186.  Releases without it read None.
    digits = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digits is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.fn(args)
    except SizeCapError as exc:
        print(f"size cap exceeded: {exc}", file=sys.stderr)
        return EXIT_SIZE
    except ValueError as exc:
        print(f"invalid request: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if digits is not None:
            sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
