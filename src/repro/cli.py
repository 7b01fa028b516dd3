"""Command-line front-end: ``repro-qec`` / ``python -m repro``.

Examples:
    repro-qec list
    repro-qec run fig11 --param cycles=5000 --param seed=7
    repro-qec fig11 --workers 4                      # "run" may be omitted
    repro-qec fig11 --workers 4 --target-ci-width 0.01
    repro-qec fig12 --param distances=3,5,7 --chunk-cycles 2000
    repro-qec run fig14 --param trials=200 --workers 1
    repro-qec run fig14 --scale paper --workers 8
    repro-qec fig11 --workers 4 --chunk-cycles auto
    repro-qec fig14 --scale paper --adaptive --target-ci-width 0.02
    repro-qec fig14 --scale paper --store results/   # resume on re-run
    repro-qec fig14 --scale paper --store results/ --force
    repro-qec fig14 --scale paper --max-retries 4 --shard-timeout 300
    repro-qec store compact results/                 # GC a long-lived store
    repro-qec lint src/repro                         # static contract checks
    repro-qec lint --format json src/ benchmarks/    # stable output for CI
    repro-qec lint --list-rules

Every sweep point is measured in shards, deterministic per seed
independent of the worker count.  fig14 spreads fixed-size trial shards
over ``--workers`` processes (by default the CPU count, capped at the shard
count).  ``--chunk-cycles`` sets the coverage shard size, and ``--workers``
spreads fig11/fig12/fig16's shards over processes (by default one
in-process worker for a small run and the CPU count for a large one).
``--target-ci-width`` switches coverage points to Wilson-converged adaptive
sampling, and ``--adaptive`` does the same for fig14's logical-error-rate
points (budget-capped by the scale's trial budgets).  ``--scale paper``
extends fig14 to the paper's d=3–11 grid with per-distance trial budgets.
fig14 always decodes through the paper's Clique+MWPM hierarchy; see
README.md → "Decoder cascades".  ``--store DIR`` persists every sweep point
of the fig11/fig12/fig14/fig16 sweeps as it completes and makes re-runs resume
(``--resume``, the default) or recompute (``--force``); ``store compact
DIR`` garbage-collects a long-lived store directory; see README.md →
"Results and resume".  ``--max-retries`` / ``--shard-timeout`` tune fig14's
shard fault tolerance (retried shards replay their RNG streams
bit-identically, so neither flag ever changes results); see README.md →
"Fault tolerance".  Sweeps drive every pending point's shards through one
persistent worker pool; see README.md → "Sweep scheduling".  ``lint``
statically enforces the repo's contract rules (seeding/determinism, store
keys, lazy heavy imports, dtype discipline, sharded-kernel picklability)
with ``ruff``-style findings, ``--select/--ignore``, a ``# repro:
allow[RULE]`` pragma, and exit codes 0/1/2; see README.md → "Static
analysis".
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro._version import __version__
from repro.exceptions import ReproError
from repro.experiments.registry import available_experiments, run_experiment


def _parse_scalar(text: str) -> object:
    """Guess int/float/bool for one scalar token, falling back to the string.

    Python's numeric literals accept underscore digit separators
    (``int("1_0") == 10``), which on a command line is far more likely a typo
    than intent — numeric-looking tokens containing ``_`` are rejected with a
    clear error rather than silently parsed (non-numeric strings like
    ``fig_14`` pass through untouched).
    """
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for parse in (int, float):
        try:
            value = parse(text)
        except ValueError:
            continue
        if "_" in text:
            raise argparse.ArgumentTypeError(
                f"digit separators are not allowed in parameter values: {text!r} "
                f"(did you mean {text.replace('_', '')!r}?)"
            )
        return value
    return text


def _int_or_auto(text: str) -> object:
    """Parse an integer-valued flag that also accepts the ``auto`` spelling."""
    if text == "auto":
        return text
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'auto', got {text!r}"
        ) from None


def _parse_param(raw: str) -> tuple[str, object]:
    """Parse a ``key=value`` override, guessing int/float/bool where possible.

    Comma-separated values become tuples (``distances=3,5,7`` — a trailing
    comma like ``distances=3,`` forces a one-element tuple), matching the
    tuple-typed sweep-grid parameters the experiment runners take.  Empty
    values (``trials=``) and empty tuple elements (``distances=3,,5``) are
    rejected: both are silent-typo magnets, and an empty string reaching an
    experiment runner as a keyword value never means what was typed.
    """
    if "=" not in raw:
        raise argparse.ArgumentTypeError(f"expected key=value, got {raw!r}")
    key, text = raw.split("=", 1)
    if text == "":
        raise argparse.ArgumentTypeError(f"empty value for parameter {key!r}: {raw!r}")
    if "," in text:
        parts = text.split(",")
        if parts[-1] == "":
            # The documented trailing-comma one-element form (``distances=3,``).
            parts = parts[:-1]
        if not parts or any(part == "" for part in parts):
            raise argparse.ArgumentTypeError(
                f"empty element in tuple value for parameter {key!r}: {raw!r}"
            )
        return key, tuple(_parse_scalar(part) for part in parts)
    return key, _parse_scalar(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-qec",
        description=(
            "Reproduction of 'Better Than Worst-Case Decoding for Quantum "
            "Error Correction' (ASPLOS 2023)"
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list available experiments")

    run_parser = subparsers.add_parser("run", help="run one experiment and print its table")
    run_parser.add_argument("experiment", help="experiment id (see 'list')")
    run_parser.add_argument(
        "--param",
        action="append",
        type=_parse_param,
        default=[],
        metavar="KEY=VALUE",
        help="override a runner keyword argument (repeatable)",
    )
    run_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help=(
            "worker processes for the sweep shards: fig14 "
            "(default: CPU count, capped at the shard count) and the "
            "fig11/fig12/fig16 coverage shards (default: 1, in-process, "
            "below 1e7 cycles x distance^2 of work, else CPU count); results "
            "never depend on the value"
        ),
    )
    run_parser.add_argument(
        "--chunk-cycles",
        type=_int_or_auto,
        default=None,
        metavar="N",
        help=(
            "cycles per shard of the coverage experiments (fig11/fig12/"
            "fig16; default 5000); with the seed it fully determines "
            "results. 'auto' sizes shards per point from the budget, worker "
            "count, and code distance"
        ),
    )
    run_parser.add_argument(
        "--target-ci-width",
        type=float,
        default=None,
        metavar="W",
        help=(
            "adaptive sampling: stop each sweep point once the Wilson "
            "interval on its tracked proportion (coverage for fig11/fig12/"
            "fig16, logical error rate for fig14, where it implies "
            "--adaptive) is at most this wide, instead of burning the full "
            "fixed budget"
        ),
    )
    run_parser.add_argument(
        "--adaptive",
        action="store_true",
        help=(
            "fig14: Wilson-converged adaptive trial allocation (see "
            "--target-ci-width; the scale's per-point trial budget becomes "
            "the cap)"
        ),
    )
    run_parser.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="N",
        help=(
            "fig14 shard fault tolerance: failed or timed-out shard "
            "attempts re-dispatched per shard before the run gives up "
            "(default 2; retried shards replay their RNG streams "
            "bit-identically, so results never depend on the value)"
        ),
    )
    run_parser.add_argument(
        "--shard-timeout",
        type=float,
        default=None,
        metavar="SECS",
        help=(
            "fig14: wall-clock budget per shard attempt: a hung "
            "worker pool is killed, respawned, and the shard re-dispatched "
            "(charged one retry; see --max-retries)"
        ),
    )
    run_parser.add_argument(
        "--scale",
        choices=("laptop", "paper"),
        default=None,
        help=(
            "fig14 sweep scale: 'laptop' (d=3-7, flat budget, default) or "
            "'paper' (d=3-11 with per-distance trial budgets)"
        ),
    )
    run_parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help=(
            "persistent result store for the sweep experiments (fig11/fig12/"
            "fig14/fig16): every sweep point is written to DIR as it "
            "completes, and a re-run against the same DIR skips points that "
            "are already present (adaptive points additionally checkpoint "
            "per Wilson wave, so a killed run resumes mid-point)"
        ),
    )
    resume_group = run_parser.add_mutually_exclusive_group()
    resume_group.add_argument(
        "--resume",
        action="store_true",
        default=True,
        help=(
            "with --store: reuse already-present points and compute only the "
            "missing ones (the default)"
        ),
    )
    resume_group.add_argument(
        "--force",
        action="store_true",
        help="with --store: recompute every point and overwrite stored results",
    )

    lint_parser = subparsers.add_parser(
        "lint",
        help=(
            "statically check contract rules (determinism, store keys, "
            "import hygiene, dtypes, picklability) over source paths"
        ),
    )
    lint_parser.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help=(
            "files or directories to lint (default: the installed repro "
            "package itself)"
        ),
    )
    lint_parser.add_argument(
        "--select",
        default=None,
        metavar="IDS",
        help="comma-separated rule ids to run exclusively (e.g. DET001,KEY001)",
    )
    lint_parser.add_argument(
        "--ignore",
        default=None,
        metavar="IDS",
        help="comma-separated rule ids to skip",
    )
    lint_parser.add_argument(
        "--format",
        dest="output_format",
        choices=("text", "json"),
        default="text",
        help=(
            "output format: 'text' (file:line:col lines) or 'json' (stable "
            "sorted payload for editors/CI)"
        ),
    )
    lint_parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table (id, contract) and exit",
    )

    store_parser = subparsers.add_parser(
        "store", help="maintain a result-store directory"
    )
    store_sub = store_parser.add_subparsers(dest="store_command", required=True)
    compact_parser = store_sub.add_parser(
        "compact",
        help=(
            "rewrite DIR/results.jsonl keeping only the last-write-wins "
            "record per key, and delete adaptive checkpoints orphaned by "
            "already-persisted results"
        ),
    )
    compact_parser.add_argument("dir", metavar="DIR", help="result-store directory")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    # `python -m repro fig11 --workers 4` shorthand: a first token that is not
    # a subcommand or an option is an experiment id for the `run` subcommand.
    if argv and argv[0] not in ("list", "run", "store", "lint") and not argv[0].startswith(
        "-"
    ):
        argv.insert(0, "run")
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        for experiment_id in available_experiments():
            print(experiment_id)
        return 0

    if args.command == "lint":
        from repro.analysis.lint_cli import run_lint

        return run_lint(args)

    if args.command == "store":
        if args.store_command == "compact":
            from repro.store import ResultStore

            try:
                summary = ResultStore(args.dir).compact()
            except (ReproError, OSError) as error:
                print(f"error: {error}", file=sys.stderr)
                return 1
            quarantined = (
                f" ({summary['lines_quarantined']} of them corrupt/quarantined)"
                if summary["lines_quarantined"]
                else ""
            )
            print(
                f"compacted {args.dir}: kept {summary['records_kept']} records, "
                f"dropped {summary['lines_dropped']} stale lines{quarantined} and "
                f"{summary['checkpoints_dropped']} orphaned checkpoints"
            )
            return 0
        parser.error(f"unknown store command {args.store_command!r}")  # pragma: no cover

    if args.command == "run":
        if args.force and args.store is None:
            parser.error("--force is only meaningful with --store DIR")
        params = dict(args.param)
        for flag in (
            "workers",
            "scale",
            "chunk_cycles",
            "target_ci_width",
            "max_retries",
            "shard_timeout",
        ):
            value = getattr(args, flag)
            if value is not None:
                params[flag] = value
        if args.adaptive:
            params["adaptive"] = True
        if args.store is not None:
            params["store"] = args.store
            if args.force:
                params["force"] = True
        try:
            result = run_experiment(args.experiment, **params)
        except (ReproError, TypeError, ValueError, OSError) as error:
            # TypeError / ValueError typically mean a malformed --param value
            # (e.g. a scalar where the runner expects a tuple); OSError an
            # unusable --store directory discovered mid-run.
            print(f"error: {error}", file=sys.stderr)
            return 1
        print(result.format_table())
        return 0

    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
