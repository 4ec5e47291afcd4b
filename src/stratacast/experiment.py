"""End-to-end experiment orchestration: select -> train -> rollout -> evaluate.

A config describes a dataset (file path or synthetic generator), a list of
selection strategies, a forecaster and seed/ensemble settings. Every
(strategy, seed) cell selects first; then the cells train, roll out and
evaluate one after another. The full-data baseline is always included.
Unknown config keys are refused; the retired ``jobs`` is accepted and ignored.
Records and per-variable report tables are written under the output directory.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from . import dataset as dsmod
from . import synthetic
from .dataset import (ANY, BOOLEAN, COUNT, FRACTION, INTEGER, INTEGERS, OBJECT, POSITIVE, SEED,
                      STEP_HOURS, STRING, STRINGS, GriddedDataset, Rule, SplitSpec, check_object,
                      list_of, or_null)
from .forecast import ForecasterSpec, rollout, train
from .metrics import (METRICS, MetricRecord, area_weights, check_leads, evaluate_forecast,
                      records_to_csv, write_records)
from .selection import FULL, STRATEGIES, SelectionBudget, SubsetSelection, run_strategy

log = logging.getLogger("stratacast")


class ExperimentError(ValueError):
    pass


_YEARS = list_of(INTEGER, "a list of two integers", 2)
_STRATEGIES = Rule(lambda v: STRINGS.ok(v) and len(v) > 0, "a non-empty list of strings")
_LEADS = Rule(lambda v: INTEGERS.ok(v) and len(v) > 0, "a non-empty list of integers", tuple)
# The run config keys that are ExperimentConfig fields of the same name, each
# with the rule its value must pass, in the order they are checked.
_FIELDS = {"strategies": (_STRATEGIES, True), "fraction": (FRACTION, False),
           "n_members": (COUNT, False), "n_seeds": (COUNT, False), "base_seed": (SEED, False),
           "n_steps": (COUNT, False), "leads_days": (_LEADS, False),
           "eval_stride_hours": (POSITIVE, False), "flat_grid": (BOOLEAN, False)}
# Run config keys: what each must be and whether it is required.
_CONFIG_KEYS = {
    **_FIELDS,
    "split": ({"train_years": (_YEARS, True), "val_years": (or_null(_YEARS), False),
               "test_years": (or_null(_YEARS), False)}, True),
    "forecaster": ({"kind": (STRING, True), "hyperparameters": (OBJECT, False)}, True),
    "dataset_path": (or_null(STRING), False), "synthetic": (OBJECT, False),
    "jobs": (ANY, False),  # retired; ignored
}


@dataclass
class ExperimentConfig:
    strategies: list[str]
    forecaster: ForecasterSpec
    split: SplitSpec
    dataset_path: str | None = None
    synthetic: synthetic.SyntheticConfig | None = None
    fraction: float = 0.2
    n_members: int = 8
    n_seeds: int = 1
    base_seed: int = 0
    leads_days: tuple = (5, 10)
    n_steps: int = 10
    eval_stride_hours: float = STEP_HOURS
    flat_grid: bool = False

    def __post_init__(self):
        """Refuses a config that cannot run, before any data is read: each
        field by its run config row, which stores ``8.0`` as 8, then the rules
        across keys."""
        vars(self).update(check_object({key: getattr(self, key) for key in _FIELDS}, _FIELDS,
                                       "run config", ExperimentError))
        for i, name in enumerate(self.strategies):
            if name not in STRATEGIES:
                raise ExperimentError(f"unknown strategy {name!r}; known: {', '.join(STRATEGIES)}")
            if name in self.strategies[:i]:
                raise ExperimentError(f"strategy {name!r} is listed more than once")
        if (self.dataset_path is None) == (self.synthetic is None):
            raise ExperimentError("exactly one of dataset_path / synthetic required")
        check_leads(self.leads_days, self.n_steps, ExperimentError)

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        path = Path(path)
        d = check_object(dsmod.read_json(path, ExperimentError), _CONFIG_KEYS, "run config",
                         ExperimentError)
        synth = None
        if "synthetic" in d:
            synth = synthetic.SyntheticConfig.from_dict(d["synthetic"])
        ds_path = d.get("dataset_path")
        if ds_path is not None:
            ds_path = str((path.parent / ds_path).resolve())
        split = d["split"]
        return cls(
            forecaster=ForecasterSpec(**d["forecaster"]),
            split=SplitSpec(
                tuple(split["train_years"]),
                tuple(split["val_years"]) if split.get("val_years") else None,
                tuple(split["test_years"]) if split.get("test_years") else None,
            ),
            dataset_path=ds_path,
            synthetic=synth,
            **{key: d[key] for key in _FIELDS if key in d},  # else the field's default
        )


def load_standardized(
    source: str | Path | synthetic.SyntheticConfig, split: SplitSpec
) -> GriddedDataset:
    """The dataset file at ``source`` (or generated from a synthetic config),
    standardized on the split's training years; the raw archive is freed
    when this returns."""
    if isinstance(source, synthetic.SyntheticConfig):
        raw = synthetic.generate(source)
    else:
        raw = dsmod.load_dataset(source)
    return dsmod.standardize(raw, dsmod.fit_standardization(raw, split))


def training_candidates(ds: GriddedDataset, split: SplitSpec) -> list[int]:
    """Indices of ``ds`` that may be selected for training: the training
    split less its first and last forecast step, so every candidate has a
    step of history and its successor in the split; raises when there are none."""
    candidates = dsmod.valid_init_times(ds, split, "train", max_lead_hours=STEP_HOURS)
    if not candidates:
        raise ExperimentError("training split yields no candidate times")
    return candidates


def eval_init_times(
    ds: GriddedDataset, split: SplitSpec, n_steps: int, eval_stride_hours: float
) -> list[int]:
    """Test-split init indices with room for ``n_steps`` forecast steps, one
    per ``eval_stride_hours``; raises when there are none or when
    ``eval_stride_hours`` is not a whole number of dataset strides."""
    inits = dsmod.valid_init_times(ds, split, which="test", max_lead_hours=n_steps * STEP_HOURS)
    if not inits:
        raise ExperimentError("test split yields no valid init times")
    return inits[::ds.steps(eval_stride_hours, f"eval_stride_hours {eval_stride_hours:g}")]


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path) -> list[MetricRecord]:
    """Run all (strategy, seed) cells; returns per-seed records plus mean rows."""
    out_dir = Path(out_dir)
    (out_dir / "selections").mkdir(parents=True, exist_ok=True)

    source = cfg.synthetic if cfg.dataset_path is None else cfg.dataset_path
    ds = load_standardized(source, cfg.split)
    candidates = training_candidates(ds, cfg.split)
    eval_inits = eval_init_times(ds, cfg.split, cfg.n_steps, cfg.eval_stride_hours)
    w = area_weights(ds.grid, flat=cfg.flat_grid)

    strategies = list(cfg.strategies)
    if FULL not in strategies:
        strategies.insert(0, FULL)
    budget = SelectionBudget(cfg.fraction)

    # Every cell selects before any cell trains, so the PCA transient of
    # the feature-space strategies lands on the heap as set-up left it, not
    # on the one that fits, rollouts and evaluations have grown. One function
    # per stage frees a cell's model and forecast before the next cell.
    def select(strategy: str, seed: int) -> SubsetSelection:
        log.info("cell select: strategy=%s seed=%d", strategy, seed)
        sel = run_strategy(strategy, ds, candidates, budget, seed)
        sel.save(out_dir / "selections" / f"{strategy}_seed{seed}.json")
        return sel

    def score(strategy: str, seed: int, sel: SubsetSelection) -> list[MetricRecord]:
        log.info("cell start: strategy=%s seed=%d", strategy, seed)
        model = train(cfg.forecaster, ds, sel, seed=seed, split=cfg.split)
        fc = rollout(model, ds, eval_inits, cfg.n_members, n_steps=cfg.n_steps, seed=seed)
        return evaluate_forecast(
            fc, ds, leads_days=cfg.leads_days, w=w, method=strategy, seed=seed
        )

    def in_cell(stage, strategy: str, seed: int, *args):
        try:
            return stage(strategy, seed, *args)
        except Exception as e:  # tag the failing cell for the caller
            raise ExperimentError(f"cell ({strategy}, seed {seed}) failed: {e}") from e

    cells = [(strategy, seed) for strategy in strategies
             for seed in range(cfg.base_seed, cfg.base_seed + cfg.n_seeds)]
    selections = [in_cell(select, *cell) for cell in cells]
    per_seed: list[MetricRecord] = []
    for cell, sel in zip(cells, selections):
        per_seed.extend(in_cell(score, *cell, sel))
    per_seed.sort(key=lambda r: (r.method, r.variable, r.lead_days, r.seed))
    means = aggregate_means(per_seed)

    records = per_seed + means
    write_records(records, out_dir / "records.json")
    (out_dir / "metrics.csv").write_text(records_to_csv(means))
    (out_dir / "metrics_by_seed.csv").write_text(records_to_csv(per_seed))
    return records


def _seed_groups(records: Iterable[MetricRecord]) -> dict[tuple, list[MetricRecord]]:
    """``records`` grouped by (method, variable, lead_days): keys in the order
    they first occur, each group's records in record order."""
    groups: dict[tuple, list[MetricRecord]] = {}
    for r in records:
        groups.setdefault((r.method, r.variable, r.lead_days), []).append(r)
    return groups


def _seed_mean(group: list[MetricRecord]) -> MetricRecord:
    """The seed-mean row (seed=None) of one group: each metric's mean."""
    r = group[0]
    return MetricRecord(r.method, r.variable, r.lead_days,
                        **{m: float(np.mean([getattr(g, m) for g in group])) for m in METRICS})


def aggregate_means(records: list[MetricRecord]) -> list[MetricRecord]:
    """Seed-mean rows (seed=None), one per (method, variable, lead), sorted."""
    groups = _seed_groups(r for r in records if r.seed is not None)
    return [_seed_mean(groups[key]) for key in sorted(groups)]


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

def _fmt(v: float) -> str:
    s = f"{v:.2f}".rstrip("0").rstrip(".")
    return s if s else "0"


def _cell(values: list[float]) -> str:
    mean = float(np.mean(values))
    std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
    if std > 0.0 and _fmt(std) != "0":
        return f"{_fmt(mean)}±{_fmt(std)}"
    return _fmt(mean)


REPORT_HEADER = "strategy,crps_5d,crps_10d,rmse_5d,rmse_10d,ssr_5d,ssr_10d"


def emit_report(records: list[MetricRecord], out_dir: str | Path) -> dict:
    """Per-variable CSV + JSON summary and per-lead SSR curve data.

    Table cells are seed means at 5d/10d (mean±std when seeds disagree);
    the SSR curves carry every lead present in the records.
    """
    if not records:
        raise ExperimentError("no records to report")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    per_seed = [r for r in records if r.seed is not None] or list(records)
    groups = _seed_groups(per_seed)

    summary: dict = {}
    for variable in sorted({v for _, v, _ in groups}):
        cells = {(m, lead): rs for (m, v, lead), rs in groups.items() if v == variable}
        means = {key: _seed_mean(rs) for key, rs in cells.items()}
        methods = list(dict.fromkeys(m for m, _ in cells))

        lines = [REPORT_HEADER]
        json_rows = []
        for method in methods:
            row = [method]
            jrow = {"strategy": method}
            for metric in METRICS:
                for lead in (5, 10):
                    rs = cells.get((method, lead))
                    row.append(_cell([getattr(r, metric) for r in rs]) if rs else "")
                    jrow[f"{metric}_{lead}d"] = getattr(means[method, lead], metric) if rs else None
            lines.append(",".join(row))
            json_rows.append(jrow)
        (out_dir / f"report_{variable}.csv").write_text("\n".join(lines) + "\n")

        # plot-ready SSR-vs-lead data
        curve_lines = ["strategy,lead_days,ssr"]
        curves: dict[str, list] = {}
        for method in methods:
            for lead in sorted(lead for m, lead in cells if m == method):
                value = means[method, lead].ssr
                curve_lines.append(f"{method},{lead},{value:.6g}")
                curves.setdefault(method, []).append({"lead_days": lead, "ssr": value})
        (out_dir / f"ssr_curve_{variable}.csv").write_text("\n".join(curve_lines) + "\n")

        summary[variable] = {"table": json_rows, "ssr_curves": curves}
    (out_dir / "report.json").write_text(json.dumps(summary, indent=2))
    return summary
