"""Command-line entry point.

Subcommands: generate-data, select, train, rollout, evaluate, run, report.
Exit codes: 0 success, 1 usage error, 2 data/validation error. All log output
goes to stderr; data goes to files under --out. Log level comes from the
STRATACAST_LOG environment variable (error/warn/info/debug).
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
from pathlib import Path

from . import dataset as dsmod
from . import synthetic
from .dataset import COUNT, FRACTION, SEED, STEP_HOURS, DatasetError, SplitSpec, check_object
from .experiment import (ExperimentConfig, emit_report, eval_init_times, load_standardized,
                         run_experiment, training_candidates)
from .forecast import (
    VALID_KINDS,
    ForecastError,
    ForecasterSpec,
    load_forecast,
    load_forecaster,
    rollout,
    save_forecast,
    save_forecaster,
    train,
)
from .metrics import area_weights, evaluate_forecast, read_records, records_to_csv
from .selection import STRATEGIES, SelectionBudget, SelectionError, SubsetSelection, run_strategy

log = logging.getLogger("stratacast")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; here 2 is reserved for data errors
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _setup_logging():
    level = os.environ.get("STRATACAST_LOG", "warn").lower()
    levels = {"error": logging.ERROR, "warn": logging.WARNING,
              "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(
        stream=sys.stderr,
        level=levels.get(level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )


# Flag types, read by argparse: ``argument --leads: invalid leads value: '5,x'``
def years(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    return (int(lo), int(hi or lo))


def leads(text: str) -> list[int]:
    return [int(x) for x in text.split(",")]


def _add_common(p: argparse.ArgumentParser, seed_help="random seed (default 0)", seed_default=0):
    if seed_help:  # None for a command that reads no seed
        p.add_argument("--seed", type=int, default=seed_default, help=seed_help)
    p.add_argument("--out", required=True, help="output directory")


# flags with a range and the rule each must pass, checked before a command reads anything
_FLAGS = {"--seed": (SEED, False), "--members": (COUNT, False), "--steps": (COUNT, False),
          "--fraction": (FRACTION, False)}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="stratacast", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("generate-data", help="generate a synthetic toy-climate dataset")
    _add_common(p, "generator seed (default: the config's seed, else 0)", None)
    p.add_argument("--config", required=True, help="synthetic config JSON")

    p = sub.add_parser("select", help="run one selection strategy")
    _add_common(p)
    p.add_argument("--data", required=True, help="field-tensor dataset path")
    p.add_argument("--strategy", required=True, choices=sorted(STRATEGIES))
    p.add_argument("--fraction", type=float, default=0.2)
    p.add_argument("--train-years", type=years, required=True, help="Y0:Y1 training year range")

    p = sub.add_parser("train", help="train a forecaster on a selection")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--selection", required=True, help="selection JSON path")
    p.add_argument("--forecaster", required=True, choices=VALID_KINDS)
    p.add_argument("--train-years", type=years, required=True)
    p.add_argument("--hyper", default="{}", help="hyperparameters as JSON")

    p = sub.add_parser("rollout", help="autoregressive ensemble rollout")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True, help="forecaster file prefix")
    p.add_argument("--members", type=int, default=8)
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--train-years", type=years, required=True)
    p.add_argument("--test-years", type=years, required=True)

    p = sub.add_parser("evaluate", help="score a forecast against truth")
    _add_common(p, None)
    p.add_argument("--data", required=True)
    p.add_argument("--forecast", required=True, help="forecast file prefix")
    p.add_argument("--train-years", type=years, required=True)
    p.add_argument("--leads", type=leads, default="5,10", help="comma-separated lead days")
    p.add_argument("--flat-grid", action="store_true", help="uniform area weights")
    p.add_argument("--method", default="", help="method label for the records")

    p = sub.add_parser("run", help="full experiment from a config file")
    _add_common(p, "base random seed (default: the config's base_seed)", None)
    p.add_argument("--config", required=True, help="experiment config JSON")

    p = sub.add_parser("report", help="emit report tables from records JSON")
    _add_common(p, None)
    p.add_argument("--records", required=True, help="records.json from a run")

    return parser


def cmd_generate_data(args) -> int:
    cfg = dsmod.read_json(args.config, DatasetError)
    if isinstance(cfg, dict):  # from_dict refuses anything else
        cfg = {"seed": 0, **cfg} if args.seed is None else {**cfg, "seed": args.seed}
    ds = synthetic.generate(synthetic.SyntheticConfig.from_dict(cfg))
    path = dsmod.save_dataset(ds, Path(args.out) / "synthetic.ften")
    log.info("wrote dataset: path=%s n_times=%d", path, ds.n_times)
    return 0


def cmd_select(args) -> int:
    split = SplitSpec(args.train_years)
    ds = load_standardized(args.data, split)
    candidates = training_candidates(ds, split)
    sel = run_strategy(
        args.strategy, ds, candidates, SelectionBudget(args.fraction), args.seed
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sel.save(out / f"{args.strategy}_seed{args.seed}.json")
    return 0


def cmd_train(args) -> int:
    split = SplitSpec(args.train_years)
    ds = load_standardized(args.data, split)
    sel = SubsetSelection.load(args.selection)
    candidates = set(training_candidates(ds, split))
    for i in sel.indices:
        if i not in candidates:
            raise SelectionError(f"{args.selection}: index {i} is not a training candidate of "
                                 f"{args.data} for train years {'%d:%d' % args.train_years}")
    hyper = dsmod.parse_json(args.hyper, "--hyper is not JSON", ForecastError)
    spec = ForecasterSpec(args.forecaster, hyper)
    model = train(spec, ds, sel, seed=args.seed, split=split)
    save_forecaster(model, Path(args.out) / args.forecaster)
    return 0


def cmd_rollout(args) -> int:
    split = SplitSpec(args.train_years, test_years=args.test_years)
    ds = load_standardized(args.data, split)
    model = load_forecaster(args.model)
    inits = eval_init_times(ds, split, args.steps, STEP_HOURS)
    fc = rollout(model, ds, inits, args.members, n_steps=args.steps, seed=args.seed)
    save_forecast(fc, Path(args.out) / "forecast")
    return 0


def cmd_evaluate(args) -> int:
    ds = load_standardized(args.data, SplitSpec(args.train_years))
    fc = load_forecast(args.forecast)
    w = area_weights(ds.grid, flat=args.flat_grid)
    records = evaluate_forecast(fc, ds, leads_days=args.leads, w=w, method=args.method)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "metrics.csv").write_text(records_to_csv(records))
    return 0


def cmd_run(args) -> int:
    cfg = ExperimentConfig.from_json(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, base_seed=args.seed)
    records = run_experiment(cfg, args.out)
    emit_report(records, args.out)
    return 0


def cmd_report(args) -> int:
    emit_report(read_records(args.records), args.out)
    return 0


COMMANDS = {
    "generate-data": cmd_generate_data,
    "select": cmd_select,
    "train": cmd_train,
    "rollout": cmd_rollout,
    "evaluate": cmd_evaluate,
    "run": cmd_run,
    "report": cmd_report,
}


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    flags = {f: getattr(args, f[2:]) for f in _FLAGS if getattr(args, f[2:], None) is not None}
    try:
        check_object(flags, _FLAGS, "command-line", DatasetError)
        return COMMANDS[args.command](args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
