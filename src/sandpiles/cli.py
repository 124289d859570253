"""Command-line interface.

All commands write JSON to stdout (except PGM file output) and
diagnostics to stderr.  Exit codes: 0 success, 1 verification failure,
2 usage error, 3 size cap exceeded.
"""

import argparse
import json
import sys
from math import gcd

from .blocks import grid_parity, parity_blocks
from .engine import config_order, identity_config
from .errors import SizeCapError
from .formulas import block_tridiag_det, closed_form_count, lu_wu_count
from .graphs import board_graph, grid_sandpile, p_graph, reduced_laplacian
from .linalg import det_int
from .symmetry import (
    enumerate_symmetric_recurrents,
    klein_action,
    symmetric_config_order,
    symmetrized_laplacian,
)
from .tilings import a_seq, count_matchings, enumerate_matchings, pn_embed
from .tilings import diagonal_config, distance_config

EXIT_OK, EXIT_DISAGREE, EXIT_USAGE, EXIT_SIZE = 0, 1, 2, 3


def _sym_laplacian(rows, cols):
    return symmetrized_laplacian(grid_sandpile(rows, cols), klein_action(rows, cols))


def _tiling_board(parity, m, n):
    """The board whose tilings count the symmetric recurrents."""
    if parity == "even_even":
        return board_graph("plain", 2 * m, 2 * n)
    if parity == "even_odd":
        if n == 1:
            return board_graph("mobius_weighted", 2 * m - 1, 2)
        return board_graph("mobius_weighted", 2 * m, 2 * n)
    return board_graph("two_weighted", 2 * m, 2 * n)


def _count_methods(rows, cols):
    parity, m, n, transposed = grid_parity(rows, cols)

    def enumerate_count():
        g = grid_sandpile(rows, cols)
        return len(enumerate_symmetric_recurrents(g, klein_action(rows, cols)))

    methods = {
        "det": lambda: det_int(_sym_laplacian(rows, cols)),
        "enumerate": enumerate_count,
        "product": lambda: closed_form_count(parity, m, n, "product"),
        "chebyshev": lambda: closed_form_count(parity, m, n, "chebyshev"),
        "tilings": lambda: count_matchings(_tiling_board(parity, m, n)),
    }
    return parity, m, n, methods


def cmd_count_symmetric(args):
    parity, m, n, methods = _count_methods(args.rows, args.cols)
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
    numeric = [v for v in values.values() if isinstance(v, int)]
    agree = len(set(numeric)) == 1
    print(json.dumps({"rows": args.rows, "cols": args.cols, "parity": parity,
                      "m": m, "n": n, "values": values, "agree": agree}))
    return EXIT_OK if agree else EXIT_DISAGREE


def cmd_count_tilings(args):
    kind = args.board.replace("-", "_")
    board = board_graph(kind, args.rows, args.cols)
    report = {"board": args.board, "rows": args.rows, "cols": args.cols,
              "count": count_matchings(board)}
    if args.enumerate:
        matchings = enumerate_matchings(board)
        report["matchings"] = [
            {"edges": [[list(u), list(v)] for u, v in edges], "weight": w}
            for edges, w in matchings
        ]
        report["weight_sum"] = sum(w for _, w in matchings)
    print(json.dumps(report))
    return EXIT_OK


def cmd_order(args):
    g = grid_sandpile(args.rows, args.cols)
    action = klein_action(args.rows, args.cols)
    fill = 1 if args.config == "all-ones" else 2
    order = symmetric_config_order(g, action, (fill,) * g.vertex_count)
    report = {"rows": args.rows, "cols": args.cols, "config": args.config,
              "order": order}
    if args.config == "all-ones":
        twos = symmetric_config_order(g, action, (2,) * g.vertex_count)
        report["all_twos_order"] = twos
        report["ratio"] = order // twos
    print(json.dumps(report))
    return EXIT_OK


def cmd_identity(args):
    g = grid_sandpile(args.rows, args.cols)
    e = identity_config(g)
    grid = [list(e[r * args.cols:(r + 1) * args.cols]) for r in range(args.rows)]
    if args.format == "pgm":
        lines = [f"P2\n{args.cols} {args.rows}\n3\n"]
        lines += [" ".join(map(str, row)) + "\n" for row in grid]
        data = "".join(lines)
    else:
        data = json.dumps(grid) + "\n"
    with open(args.out, "w") as fh:
        fh.write(data)
    print(json.dumps({"rows": args.rows, "cols": args.cols, "out": args.out,
                      "format": args.format}))
    return EXIT_OK


def _verify_rows(max_m, max_n):
    for m in range(1, max_m + 1):
        for n in range(1, max_n + 1):
            for parity, rows, cols in (
                ("even_even", 2 * m, 2 * n),
                ("even_odd", 2 * m, 2 * n - 1),
                ("odd_odd", 2 * m - 1, 2 * n - 1),
            ):
                values = {
                    "det": det_int(_sym_laplacian(rows, cols)),
                    "block": block_tridiag_det(*parity_blocks(parity, n), m),
                    "product": closed_form_count(parity, m, n, "product"),
                    "chebyshev": closed_form_count(parity, m, n, "chebyshev"),
                    "tilings": count_matchings(_tiling_board(parity, m, n)),
                }
                if parity == "even_odd":
                    values["mobius"] = count_matchings(
                        board_graph("mobius", 2 * m, 2 * n))
                    values["lu_wu"] = lu_wu_count(m, n)
                yield {"kind": parity, "m": m, "n": n, "rows": rows,
                       "cols": cols, "values": values}

    for n in range(1, min(max_n, 6) + 1):
        an = a_seq(n)
        values = {"a_n": an, "odd": an % 2 == 1}
        if n <= 5:
            tilings = count_matchings(board_graph("plain", 2 * n, 2 * n))
            values["tilings_2n"] = tilings
            g = gcd(tilings, an**2)
            values["tilings_over_a_sq"] = (
                tilings // g if g == an**2 else f"{tilings // g}/{an**2 // g}")
            values["power_of_two_check"] = tilings == 2**n * an**2
        order_sq = symmetric_config_order(
            grid_sandpile(2 * n, 2 * n), klein_action(2 * n, 2 * n),
            (2,) * (4 * n * n))
        values["order_two_grid"] = order_sq
        values["divides_a_n"] = an % order_sq == 0
        pg = p_graph(n)
        values["order_two_staircase"] = config_order(
            pg, (2,) * pg.vertex_count)
        values["order_transfer"] = values["order_two_staircase"] == order_sq
        lap = reduced_laplacian(pg)
        s, t = distance_config(n), diagonal_config(n)
        values["distance_maps_to_diagonal"] = tuple(
            sum(row[j] * s[j] for j in range(len(s))) for row in lap
        ) == t
        phi_ok = _phi_check(n)
        values["embedding_compatible"] = phi_ok
        yield {"kind": "staircase", "m": n, "n": n, "values": values}


def _phi_check(n):
    """Laplacian compatibility of the staircase-to-grid unfolding on a
    deterministic test configuration."""
    pg = p_graph(n)
    big = grid_sandpile(2 * n, 2 * n)
    c = tuple((7 * k + 3) % 5 for k in range(pg.vertex_count))
    lap_p = reduced_laplacian(pg)
    image_p = tuple(sum(row[j] * c[j] for j in range(len(c))) for row in lap_p)
    lap_g = reduced_laplacian(big)
    emb = pn_embed(n, c)
    image_g = tuple(
        sum(row[j] * emb[j] for j in range(len(emb))) for row in lap_g)
    target = list(pn_embed(n, image_p))
    for idx, (i, j) in enumerate(big.labels):
        if i == j or i + j == 2 * n + 1:
            target[idx] *= 2
    return list(image_g) == target


def _row_agrees(row):
    if row["kind"] == "staircase":
        checks = [v for k, v in row["values"].items()
                  if isinstance(v, bool)]
        return all(checks)
    return len(set(row["values"].values())) == 1


def cmd_verify(args):
    ok = True
    for row in _verify_rows(args.max_m, args.max_n):
        row["agree"] = _row_agrees(row)
        ok = ok and row["agree"]
        print(json.dumps(row))
        if not row["agree"]:
            print(f"disagreement at {row['kind']} m={row['m']} n={row['n']}",
                  file=sys.stderr)
    return EXIT_OK if ok else EXIT_DISAGREE


def cmd_a_seq(args):
    values = [a_seq(k) for k in range(1, args.n + 1)]
    print(json.dumps({"values": values,
                      "all_odd": all(v % 2 == 1 for v in values)}))
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sandpiles",
        description="Sandpile-group counts on grid graphs, with "
                    "domino-tiling and Chebyshev cross-checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count-symmetric",
                       help="count symmetric recurrent configurations")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--method", default="det",
                   choices=["det", "enumerate", "product", "chebyshev",
                            "tilings", "all"])
    p.set_defaults(fn=cmd_count_symmetric)

    p = sub.add_parser("count-tilings", help="count weighted domino tilings")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--board", default="plain",
                   choices=["plain", "mobius", "mobius-weighted",
                            "two-weighted"])
    p.add_argument("--enumerate", action="store_true")
    p.set_defaults(fn=cmd_count_tilings)

    p = sub.add_parser("order", help="order of a constant configuration")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--config", default="all-twos",
                   choices=["all-ones", "all-twos"])
    p.set_defaults(fn=cmd_order)

    p = sub.add_parser("identity", help="render the group identity")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
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
    try:
        return args.fn(args)
    except SizeCapError as exc:
        print(f"size cap exceeded: {exc}", file=sys.stderr)
        return EXIT_SIZE
    except ValueError as exc:
        print(f"invalid request: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
