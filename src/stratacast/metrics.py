"""Probabilistic forecast verification: RMSE, fair ensemble CRPS, SSR.

All field metrics accept area weights normalized to mean 1 (cos-latitude on
real grids, uniform on flat synthetic grids). The CRPS estimator is the fair
(unbiased) ensemble form with the 1/(2M(M-1)) pairwise term; SSR carries the
sqrt((M+1)/M) finite-ensemble correction.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .dataset import (INTEGER, NUMBER, STATE_DIMS, STEP_HOURS, STRING, DatasetError,
                      GriddedDataset, GridSpec, at_least, check_entries, check_object, or_null,
                      read_json)
from .forecast import TRAJECTORY_ENTRY


class MetricError(ValueError):
    pass


COS_FLOOR = 1e-6


def area_weights(grid: GridSpec, flat: bool = False) -> np.ndarray:
    """[lat, lon] weights, cos(latitude) normalized to mean 1; all ones when flat."""
    if flat:
        return np.ones((grid.n_lat, grid.n_lon))
    cos = np.maximum(np.cos(np.deg2rad(grid.lats)), COS_FLOOR)
    w_lat = cos / cos.mean()
    return np.repeat(w_lat[:, None], grid.n_lon, axis=1)


def rmse(ens_mean: np.ndarray, truth: np.ndarray, w: np.ndarray) -> float:
    """sqrt of the weighted mean squared error over cases and grid cells."""
    ens_mean = np.asarray(ens_mean, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if ens_mean.shape != truth.shape:
        raise MetricError(f"shape mismatch {ens_mean.shape} vs {truth.shape}")
    err2 = (ens_mean - truth) ** 2
    return float(np.sqrt(np.mean(err2 * w)))


def crps_ensemble(members: np.ndarray, y) -> np.ndarray:
    """Pointwise fair CRPS.

    ``members`` has the ensemble on axis 0; ``y`` matches the remaining axes.
    For M = 1 the pairwise term is 0 and the score reduces to |x1 - y|.
    """
    members = np.asarray(members, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    m = members.shape[0]
    if m < 1:
        raise MetricError("need at least one ensemble member")
    err = members - y
    term1 = np.mean(np.abs(err, out=err), axis=0)
    if m == 1:
        return term1
    # sum_{i<j} |x_i - x_j| = sum_i (2i - M - 1) x_(i) over sorted members,
    # i = 1..M (Ferro 2014): O(M log M) instead of the O(M^2) pair loop
    coef = (2.0 * np.arange(1, m + 1) - m - 1).reshape((m,) + (1,) * (members.ndim - 1))
    pair = np.sort(members, axis=0)
    pair *= coef
    return term1 - pair.sum(axis=0) / (m * (m - 1))


def ssr(members: np.ndarray, truth: np.ndarray, w: np.ndarray) -> float:
    """Spread/skill ratio with the sqrt((M+1)/M) correction.

    ``members``: [M, case, lat, lon]; ``truth``: [case, lat, lon].
    """
    members = np.asarray(members, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    m = members.shape[0]
    if m < 2:
        raise MetricError("SSR requires at least 2 ensemble members")
    skill = rmse(members.mean(axis=0), truth, w)
    if skill == 0.0:
        raise MetricError("SSR undefined for zero forecast error")
    return float(np.sqrt((m + 1) / m) * ensemble_spread(members, w) / skill)


def ensemble_spread(members: np.ndarray, w: np.ndarray) -> float:
    """Weighted-mean unbiased ensemble spread (the SSR numerator before correction)."""
    members = np.asarray(members, dtype=np.float64)
    return float(np.sqrt(np.mean(members.var(axis=0, ddof=1) * w)))


# the scores of a MetricRecord, in the column order of every output
METRICS = ("crps", "rmse", "ssr")


@dataclass
class MetricRecord:
    """One row of the report: (method, variable, lead) -> scores."""

    method: str
    variable: str
    lead_days: int
    crps: float
    rmse: float
    ssr: float
    seed: int | None = None

    def __post_init__(self):
        check_object(asdict(self), _RECORD_KEYS, "record", MetricError)


# records.json row keys and what a record's values must be, read or built
_RECORD_KEYS = {"method": (STRING, True), "variable": (STRING, True),
                "lead_days": (at_least(INTEGER, 1), True),
                **dict.fromkeys(METRICS, (NUMBER, True)), "seed": (or_null(INTEGER), True)}


def write_records(records: Iterable[MetricRecord], path: str | Path) -> None:
    """Write ``records`` as a ``records.json``: a list of rows, one per record."""
    Path(path).write_text(json.dumps([asdict(r) for r in records], indent=2))


def read_records(path: str | Path) -> list[MetricRecord]:
    """The rows of a ``records.json``; a key that is missing, unknown or of
    the wrong type raises MetricError naming it."""
    rows = read_json(path, MetricError)
    if not isinstance(rows, list):
        raise MetricError(f"{path} must hold a list of records")
    return [MetricRecord(**check_object(row, _RECORD_KEYS, "record", MetricError)) for row in rows]


def records_to_csv(records: Iterable[MetricRecord]) -> str:
    """CSV with one line per record; a ``seed`` column follows ``method``
    when the records carry seeds (per-seed rows, not seed means)."""
    records = list(records)
    keys = ["method", *(["seed"] if any(r.seed is not None for r in records) else []),
            "variable", "lead_days"]
    lines = [",".join(keys + list(METRICS))]
    for r in records:
        lines.append(",".join([*(str(getattr(r, k)) for k in keys),
                               *(f"{getattr(r, m):.6g}" for m in METRICS)]))
    return "\n".join(lines) + "\n"


def check_leads(leads, n_steps: int, error: type[Exception]) -> None:
    """Raise ``error`` unless ``leads`` are distinct lead days within 1..``n_steps``."""
    for i, lead in enumerate(leads):
        if not 1 <= lead <= n_steps:
            raise error(f"lead {lead}d outside 1..{n_steps} rollout steps")
        if lead in leads[:i]:
            raise error(f"lead {lead}d is listed more than once")


def evaluate_forecast(
    forecast,
    truth: GriddedDataset,
    leads_days=(5, 10),
    w: np.ndarray | None = None,
    method: str = "",
    seed: int | None = None,
) -> list[MetricRecord]:
    """One MetricRecord per (variable, lead). Raises, in this order,
    MetricError for a forecast with no inits or whose state shape is not the
    truth's and for a lead listed twice, past the forecast's steps or
    not among a leads-only forecast's ``lead_days``,
    DatasetError for a lead off the truth's time grid, MetricError for an
    init index that is not an integer (a float, 3.0 included, or a bool) or
    lies outside the truth, and DatasetError for a lead whose truth is past
    its end.

    CRPS is the weighted mean of pointwise fair CRPS over all cases and grid
    cells. Degenerate cases (deterministic ensemble or zero error) record
    ssr = 0.0 instead of raising.
    """
    if not len(forecast.init_indices):
        raise MetricError("forecast has no inits to score")
    check_entries(TRAJECTORY_ENTRY, vars(forecast), "forecast", MetricError,
                  dict(zip(STATE_DIMS, truth.data.shape[1:]), init=len(forecast.init_indices)))
    kept = forecast.lead_days  # a leads-only forecast's step leads, else None
    check_leads(leads_days, forecast.n_steps if kept is None else max(kept, default=0),
                MetricError)
    missing = [lead for lead in leads_days if kept is not None and lead not in kept]
    if missing:
        raise MetricError(f"lead {missing[0]}d is not among the forecast's leads {list(kept)}")
    offsets = [truth.steps(lead * STEP_HOURS, f"lead {lead}d") for lead in leads_days]
    inits = truth.check_indices(forecast.init_indices, "init index", MetricError)
    if w is None:
        w = np.ones((truth.grid.n_lat, truth.grid.n_lon))
    records = []
    for lead, off in zip(leads_days, offsets):
        step = int(lead) - 1 if kept is None else kept.index(lead)  # one step per day
        truth_idx = inits + off
        bad = truth_idx >= truth.n_times
        if bad.any():
            target = truth.timestamps[0] + truth_idx[bad.argmax()] * truth.stride
            raise DatasetError(f"timestamp {target.item()} not in dataset")
        for v, name in enumerate(truth.variables):
            # members: [M, case, lat, lon]; RMSE takes the float32 ensemble
            # mean, CRPS and SSR share one float64 cast
            members = forecast.trajectories[:, :, step, v].transpose(1, 0, 2, 3)
            members64 = np.asarray(members, dtype=np.float64)
            obs = truth.data[truth_idx, v].astype(np.float64)
            crps_val = float(np.mean(crps_ensemble(members64, obs) * w))
            rmse_val = rmse(members.mean(axis=0), obs, w)
            try:
                ssr_val = ssr(members64, obs, w)
            except MetricError:
                ssr_val = 0.0
            records.append(
                MetricRecord(method, name, int(lead), crps_val, rmse_val, ssr_val, seed)
            )
    return records
