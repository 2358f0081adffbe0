"""Command-line interface: grid sweeps, one-off matching, self-verification.

Machine-readable results go to stdout (or the requested files); progress and
diagnostics go to stderr. Every subcommand is deterministic given its flags.
`sweep` and `selftest` import the harness and the oracle suites when they run,
so `match` loads neither.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .align import AlignConfig, eigen_align, projected_power_align
from .graphs import parse_edge_list
from .operator import DENSE_ORACLE_CAP, DegenerateBalanceError

__all__ = ["main"]


def _list_parser(convert, kind: str):
    """An argparse type for a non-empty comma list of `convert`ed values."""
    def parse(text: str) -> list:
        try:
            values = [convert(part) for part in text.split(",") if part.strip() != ""]
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {kind}, got {text!r}")
        if not values:
            raise argparse.ArgumentTypeError("list must be non-empty")
        return values
    return parse


_parse_int_list = _list_parser(int, "integers")
_parse_float_list = _list_parser(float, "reals")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    defaults = AlignConfig()
    parser.add_argument("--epsilon", type=float, default=defaults.epsilon,
                        help="scoring regularizer (default %(default)s)")
    parser.add_argument("--eigen-tol", type=float, default=defaults.eigen_tol,
                        help="power iteration tolerance (default %(default)s)")
    parser.add_argument("--eigen-max-iters", type=int, default=defaults.eigen_max_iters,
                        help="power iteration cap (default %(default)s)")
    parser.add_argument("--ppa-max-iters", type=int, default=defaults.ppa_max_iters,
                        help="projected power iteration cap (default %(default)s)")


def _config_from(args: argparse.Namespace) -> AlignConfig:
    return AlignConfig(epsilon=args.epsilon, eigen_tol=args.eigen_tol,
                       eigen_max_iters=args.eigen_max_iters,
                       ppa_max_iters=args.ppa_max_iters)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netalign",
        description="Graph matching via spectral and projected-power methods.")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a planted-instance (n, lambda) recovery sweep")
    sweep.add_argument("--n", type=_parse_int_list, default=[10, 20, 30, 40, 50],
                       help="comma list of graph sizes (default 10,20,30,40,50)")
    sweep.add_argument("--p", type=float, default=0.2,
                       help="edge probability (default 0.2)")
    sweep.add_argument("--lambda", dest="lambdas", type=_parse_float_list,
                       default=[round(0.05 * k, 2) for k in range(11)],
                       help="comma list of noise levels (default 0,0.05,...,0.5)")
    # GridSpec's defaults, written out so `match` need not import the harness;
    # test_cli pins them to GridSpec's.
    sweep.add_argument("--trials", type=int, default=20,
                       help="trials per grid cell (default %(default)s)")
    sweep.add_argument("--seed", type=int, default=0,
                       help="base seed (default %(default)s)")
    sweep.add_argument("--algo", choices=["eigenalign", "ppa", "both"], default="both")
    sweep.add_argument("--csv", required=True, help="output CSV path")
    sweep.add_argument("--heatmap", default=None,
                       help="output PGM path; one file per algorithm, algorithm "
                            "name inserted before the extension")
    sweep.add_argument("--log-scale", action="store_true",
                       help="log-compress the heatmap gray mapping")
    sweep.add_argument("--workers", type=int, default=1,
                       help="parallel worker processes (default 1)")
    _add_config_flags(sweep)
    sweep.set_defaults(func=cmd_sweep)

    match = sub.add_parser("match", help="align two edge-list graphs")
    match.add_argument("--g1", required=True, help="first graph edge-list file")
    match.add_argument("--g2", required=True, help="second graph edge-list file")
    match.add_argument("--algo", choices=["eigenalign", "ppa"], default="ppa")
    match.add_argument("--out", default=None,
                       help="write the correspondence here instead of stdout")
    _add_config_flags(match)
    match.set_defaults(func=cmd_match)

    selftest = sub.add_parser("selftest", help="run the built-in oracle suites")
    selftest.add_argument("--max-n", type=int, default=6,
                          help=f"largest graph size for dense oracles, 2..{DENSE_ORACLE_CAP} "
                               "(default %(default)s)")
    selftest.add_argument("--seed", type=int, default=0)
    selftest.set_defaults(func=cmd_selftest)
    return parser


def cmd_sweep(args: argparse.Namespace) -> int:
    from .harness import (ALGORITHMS, GridSpec, pool_size, render_heatmap,
                          run_grid, summarize, write_csv, write_heatmap_legend)

    if args.workers < 1:
        print("error: --workers must be positive", file=sys.stderr)
        return 2
    algorithms = ALGORITHMS if args.algo == "both" else (args.algo,)
    try:
        grid = GridSpec(n_list=tuple(args.n), lambda_list=tuple(args.lambdas),
                        p=args.p, trials=args.trials, algorithms=algorithms,
                        base_seed=args.seed, cfg=_config_from(args))
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    total = len(grid.specs())
    print(f"sweep: {total} trials over {len(args.n)}x{len(args.lambdas)} cells, "
          f"p={args.p}, workers={pool_size(total, args.workers)}", file=sys.stderr)
    started = time.perf_counter()
    records = run_grid(grid, workers=args.workers)
    elapsed = time.perf_counter() - started
    print(f"sweep: finished in {elapsed:.1f}s", file=sys.stderr)

    failures = [r for r in records if r.failure is not None]
    for rec in failures:
        print(f"warning: trial (n={rec.n}, lambda={rec.lam}, trial={rec.trial_index}, "
              f"algo={rec.algorithm}) failed: {rec.failure}", file=sys.stderr)

    csv_path = Path(args.csv)
    try:
        with csv_path.open("w") as sink:
            write_csv(records, sink)
    except OSError as err:
        print(f"error: cannot write CSV {csv_path}: {err}", file=sys.stderr)
        return 1
    print(f"wrote {csv_path} ({len(records)} records)", file=sys.stderr)

    if args.heatmap:
        summary = summarize(records)
        base = Path(args.heatmap)
        for algo in algorithms:
            path = base.with_name(f"{base.stem}.{algo}{base.suffix or '.pgm'}")
            legend = path.with_name(path.name + ".legend.txt")
            try:
                with path.open("w") as sink:
                    render_heatmap(summary, sink, algo, log_scale=args.log_scale)
                with legend.open("w") as sink:
                    write_heatmap_legend(summary, sink, algo, log_scale=args.log_scale)
            except OSError as err:
                print(f"error: cannot write heatmap {path}: {err}", file=sys.stderr)
                return 1
            print(f"wrote {path} and {legend}", file=sys.stderr)
    return 0


def cmd_match(args: argparse.Namespace) -> int:
    try:
        cfg = _config_from(args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    graphs = []
    for label, path_text in (("--g1", args.g1), ("--g2", args.g2)):
        path = Path(path_text)
        try:
            graphs.append(parse_edge_list(path.read_text(encoding="utf-8-sig")))
        except OSError as err:
            print(f"error: cannot read {label} file {path}: {err}", file=sys.stderr)
            return 1
        except ValueError as err:
            print(f"error: {label} file {path}: {err}", file=sys.stderr)
            return 1
    g1, g2 = graphs
    if g1.n != g2.n:
        print(f"error: size mismatch: {args.g1} has {g1.n} vertices, "
              f"{args.g2} has {g2.n}", file=sys.stderr)
        return 1
    parsed = time.perf_counter()
    print(f"match: parsed two {g1.n}-vertex graphs in {parsed - started:.3f}s",
          file=sys.stderr)
    runner = eigen_align if args.algo == "eigenalign" else projected_power_align
    try:
        result = runner(g1, g2, cfg)
    except DegenerateBalanceError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(f"match: {args.algo} finished in {time.perf_counter() - parsed:.3f}s",
          file=sys.stderr)
    lines = [f"{i} -> {result.permutation(i)}" for i in range(g1.n)]
    lines.append(f"matched_edges: {result.matched_edges}")
    lines.append(f"objective: {result.objective:.6g}")
    lines.append(f"iterations: {result.iterations}")
    lines.append(f"converged: {str(result.converged).lower()}")
    text = "\n".join(lines) + "\n"
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as err:
            print(f"error: cannot write {args.out}: {err}", file=sys.stderr)
            return 1
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def cmd_selftest(args: argparse.Namespace) -> int:
    from .selftest import check_max_n, run_all_suites

    try:
        check_max_n(args.max_n)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    results = run_all_suites(max_n=args.max_n, seed=args.seed)
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.name}: {res.detail}")
        failed += 0 if res.passed else 1
    print(f"{len(results) - failed}/{len(results)} suites passed")
    return 0 if failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
