#!/usr/bin/env python3
"""stratacast benchmark: end-to-end and per-layer timings of ``stratacast run``.

Usage, from the root of a source checkout (nothing needs installing)::

    python3 perfbench/run.py --workload reference --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seconds 40      # every workload

Each workload runs in its own process with ``jobs=1`` and one BLAS thread
(``BLAS_THREADS``). One run is ``run_experiment`` + ``emit_report``,
exactly what ``stratacast run`` does. Runs repeat while the next one is
expected to finish within ``--seconds`` (at least ``MIN_RUNS``). After each
one a fixed calibration kernel (``calibrate.py``) runs until it has taken
``CAL_SHARE`` of the run's time, at least once. ``host_slowdown`` is the
kernel's median time over ``calibrate.REF_S``.

``--trace 0`` reports the end-to-end metrics, all untraced:

* ``setup_s``: median over ``SETUP_REPEATS`` fresh interpreter processes of
  the time from spawn to ready-to-run: importing stratacast and, on the desk
  workloads, generating the archive and writing it as an FTEN file; divided
  by ``host_slowdown``.
* ``run_s``: median wall time of one run, divided by ``host_slowdown``: the
  time the run takes on a host where the kernel takes ``calibrate.REF_S``.
  This takes out most of the drift in host speed that a shared machine shows
  over minutes (see ``calibrate.py``). Without it, the IQR/median spread of
  the wall-clock median over ten ``reference`` processes reached 37%.
* ``member_steps_per_s``: (cells x inits x members x steps) / ``run_s``.
* ``peak_rss_mb``: peak resident memory of the workload process through its
  first run, which is what one ``stratacast run`` holds; later repetitions
  only add heap fragmentation (+12 MB in some desk_select processes).

The wall-clock medians of set-up and run and ``host_slowdown`` are printed
and kept in the result file. ``failed_share`` (failed cells and output checks
over those attempted) is printed in the table and carried by the result's
``failed``/``attempted``.

``--trace 1`` alternates untraced and traced runs and reports per-layer
metrics from spans recorded around the public functions the runner calls
(``spans.py``), plus ``trace.overhead_s``. Spans stay in memory and are
written to ``--out`` when the process ends, next to a result file holding the
machine info, the workload seeds, every sample and every failed check.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_RUNS = 3
CAL_SHARE = 0.1
SETUP_REPEATS = 5
# never start a run expected to end later than this after measuring began
HARD_LIMIT_S = 140.0
# One BLAS thread. With two OpenBLAS threads on the two CPUs of the machine
# the benchmark was defined on, spin-waiting threads made run_s vary by ~20%
# between processes; k-means selections also change with the thread count.
BLAS_THREADS = 1

TRAIN_KINDS = ("stochastic_linear", "toy_diffusion")
GROUPS = {
    "synthetic.generate_s": {"synthetic.generate"},
    "dataset.load_s": {"dataset.load_dataset"},
    "dataset.standardize_s": {"dataset.fit_standardization", "dataset.standardize"},
    "dataset.split_s": {"dataset.split_time_indices", "dataset.valid_init_times"},
    "features.pca_s": {"features.pca_features"},
    "selection.kmeans_s": {"selection.kmeans"},
    "forecast.rollout_s": {"forecast.rollout"},
    "metrics.evaluate_s": {"metrics.evaluate_forecast"},
}
# counts that depend on shapes only, so they must repeat exactly between runs
COUNTERS = ("features.pca_calls", "selection.kmeans_calls", "forecast.rollout_calls",
            "forecast.rollout_member_steps", "forecast.rollout_gflop",
            "metrics.crps_pairs", "trace.spans")


class BenchError(RuntimeError):
    """The checkout cannot be benchmarked: sources or inputs are missing."""


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0,
                   help="offset added to the workload's default synthetic seed and base_seed")
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, default=ROOT / ".perfbench_out",
                   help="directory for the result file and span records")
    p.add_argument("--setup-only", type=Path, default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _prepare_interpreter() -> None:
    """Fix the BLAS thread count and import stratacast from this checkout's src/."""
    src = ROOT / "src"
    if not (src / "stratacast" / "__init__.py").is_file():
        raise BenchError(f"no stratacast sources under {src}")
    if not (ROOT / "benchmarks" / "synthetic_benchmark.json").is_file():
        raise BenchError("benchmarks/synthetic_benchmark.json is missing")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))
    import stratacast

    if Path(stratacast.__file__).resolve().parent != (src / "stratacast").resolve():
        raise BenchError(f"imported stratacast from {stratacast.__file__}, not {src}")


def _openblas():
    """ctypes handle of numpy's bundled OpenBLAS and its symbol prefix/suffix, or None."""
    import ctypes

    import numpy as np

    for lib in sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for pre, post in (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", "")):
            if hasattr(handle, f"{pre}get_num_threads{post}"):
                return handle, pre, post
    return None


def blas_signature() -> dict:
    """What fixes BLAS reduction order: version, kernel core and thread count."""
    import ctypes

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    sig = {"blas_name": blas.get("name"), "blas_version": blas.get("version"),
           "blas_core": None, "blas_threads": None}
    found = _openblas()
    if found is not None:
        handle, pre, post = found
        threads = getattr(handle, f"{pre}get_num_threads{post}")
        threads.restype = ctypes.c_int
        core = getattr(handle, f"{pre}get_corename{post}")
        core.restype = ctypes.c_char_p
        sig["blas_threads"] = int(threads())
        sig["blas_core"] = core().decode()
    return sig


def machine_info() -> dict:
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **blas_signature(),
    }


# ---------------------------------------------------------------------------
# Set-up and shapes
# ---------------------------------------------------------------------------

def setup_once(wl, seed: int, work: Path) -> None:
    """What a fresh process does before it can run: write the archive, read the config."""
    work.mkdir(parents=True, exist_ok=True)
    if wl.archive is not None:
        workloads.write_archive(wl, seed, work)
    workloads.load_config(wl, seed, ROOT, work)


def timed_setups(args, work: Path) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only", str(work)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"set-up process failed:\n{proc.stderr}")
    return times


def workload_shape(wl, cfg, seed: int, work: Path) -> dict:
    """Shape-derived counts of one run, from the config and inputs alone."""
    import numpy as np
    from stratacast import dataset, synthetic

    if wl.archive is None:
        ds = synthetic.generate(cfg.synthetic)
        roundtrip = []
    else:
        ds = dataset.load_dataset(cfg.dataset_path)
        fresh = workloads.write_archive(wl, seed, work / "regen")
        same = np.array_equal(fresh.data, ds.data) and np.array_equal(
            np.asarray(fresh.timestamps), np.asarray(ds.timestamps))
        roundtrip = [] if same else ["FTEN file does not reproduce the generated archive"]
    inits = dataset.valid_init_times(ds, cfg.split, which="test",
                                     max_lead_hours=cfg.n_steps * 24.0)
    every = max(int(round(cfg.eval_stride_hours / ds.stride_hours)), 1)
    n_inits = len(inits[::every])
    strategies = list(dict.fromkeys(["full", *cfg.strategies]))
    cells = [checks.cell_key(s, cfg.base_seed + i) for s in strategies for i in range(cfg.n_seeds)]
    _, n_var, n_lat, n_lon = ds.data.shape
    m = cfg.n_members
    member_steps = len(cells) * n_inits * m * cfg.n_steps
    gflop = 0.0
    if cfg.forecaster.kind == "toy_diffusion":
        per_step = workloads.diffusion_flop_per_member_step(
            cfg.forecaster.hyperparameters, n_var * n_lat * n_lon)
        gflop = member_steps * per_step / 1e9
    return {
        "cells": cells,
        "strategies": strategies,
        "variables": list(ds.variables),
        "n_inits": n_inits,
        "member_steps": member_steps,
        "crps_pairs": len(cells) * m * (m - 1) // 2 * n_inits * n_lat * n_lon * n_var
        * len(cfg.leads_days),
        "gflop": gflop,
        "roundtrip_errors": roundtrip,
    }


# ---------------------------------------------------------------------------
# Per-layer metrics from one traced run
# ---------------------------------------------------------------------------

def layer_unit(name: str) -> str:
    for suffix, unit in (("_gflop_per_s", "GFLOP/s"), ("_gflop", "GFLOP"),
                         ("_us_per_member_step", "us"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "count"


def layer_metrics(tracer: spans.Tracer, root: spans.Span, cfg) -> dict:
    recorded = tracer.spans

    def total(names, keep=lambda s: True):
        return sum(s.duration for s in spans.outermost(recorded, names, keep))

    out = {name: total(names) for name, names in GROUPS.items()}
    out["experiment.traced_run_s"] = root.duration
    out["experiment.self_s"] = spans.self_time(recorded, root)
    for strategy in workloads.ALL_STRATEGIES:
        out[f"selection.strategy_{strategy}_s"] = total(
            {"selection.run_strategy"}, lambda s, st=strategy: s.attrs.get("strategy") == st)
    for kind in TRAIN_KINDS:
        out[f"forecast.train_{kind}_s"] = total(
            {"forecast.train"}, lambda s, k=kind: s.attrs.get("kind") == k)

    rollouts = spans.outermost(recorded, {"forecast.rollout"})
    steps = sum(s.attrs.get("member_steps", 0) for s in rollouts)
    out["forecast.rollout_calls"] = len(rollouts)
    out["forecast.rollout_member_steps"] = steps
    out["forecast.rollout_us_per_member_step"] = out["forecast.rollout_s"] / steps * 1e6 if steps else 0.0
    diffusion = [s for s in rollouts if s.attrs.get("kind") == "toy_diffusion"]
    gflop = sum(
        s.attrs.get("member_steps", 0) * workloads.diffusion_flop_per_member_step(
            cfg.forecaster.hyperparameters, s.attrs.get("state_size", 0))
        for s in diffusion) / 1e9
    diffusion_s = sum(s.duration for s in diffusion)
    out["forecast.rollout_gflop"] = gflop
    out["forecast.rollout_gflop_per_s"] = gflop / diffusion_s if diffusion_s else 0.0

    out["features.pca_calls"] = len(spans.outermost(recorded, {"features.pca_features"}))
    out["selection.kmeans_calls"] = sum(s.name == "selection.kmeans" for s in recorded)
    out["metrics.crps_pairs"] = sum(s.attrs.get("crps_pairs", 0) for s in recorded
                                    if s.name == "metrics.evaluate_forecast")
    out["trace.spans"] = len(recorded)
    out["trace.failed_spans"] = sum(s.failed for s in recorded)
    return out


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

class WorkloadRuns:
    """Every run of one workload process: samples, checks and failure counts."""

    def __init__(self, cfg, shape: dict, checker: checks.OutputChecker, work: Path):
        self.cfg, self.shape, self.checker, self.work = cfg, shape, checker, work
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples = {False: [], True: []}  # traced? -> run seconds
        self.calibrations: list[float] = []
        self.peak_rss_mb = None
        self.layers: list[dict] = []
        self.span_records: list[dict] = []

    def count(self, label: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.problems.extend(f"{label}: {e}" for e in errors)

    def run(self, n: int, traced: bool) -> None:
        from stratacast.experiment import emit_report, run_experiment

        label = f"run {n}{' traced' if traced else ''}"
        out = self.work / f"out{n}"
        tracer = spans.Tracer() if traced else None
        gc.collect()
        if tracer is not None:
            tracer.install()
            root = tracer.begin_run()
        t0 = time.perf_counter()
        ok = False
        try:
            records = run_experiment(self.cfg, out)
            emit_report(records, out)
            ok = True
        except Exception as e:  # a failed run fails all its cells; keep measuring
            self.attempted += len(self.shape["cells"])
            self.failed += len(self.shape["cells"])
            self.problems.append(f"{label}: run raised {type(e).__name__}: {e}")
        finally:
            self.samples[traced].append(time.perf_counter() - t0)
            if self.peak_rss_mb is None:
                self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if tracer is not None:
                tracer.close(root, failed=not ok)
                tracer.uninstall()
        if tracer is not None:
            layers = layer_metrics(tracer, root, self.cfg)
            self.layers.append(layers)
            self.span_records.extend(dict(s, run=n) for s in tracer.records())
        if ok:
            self.check_outputs(label, records, out)
            if tracer is not None:
                self.check_trace(label, tracer, root, layers)
        shutil.rmtree(out, ignore_errors=True)

    def check_outputs(self, label: str, records, out: Path) -> None:
        for key, errors in self.checker.check(checks.run_outputs(records, out)).items():
            self.count(f"{label} {key}", errors)
        errors = []
        report = out / "report.json"
        summary = json.loads(report.read_text()) if report.is_file() else {}
        for var in self.shape["variables"]:
            rows = [r["strategy"] for r in summary.get(var, {}).get("table", [])]
            if sorted(rows) != sorted(self.shape["strategies"]):
                errors.append(f"report.json rows for {var}: {rows}")
        if self.checker.golden and self.checker.golden.get("crps_order_holds"):
            errors += checks.crps_ordering(records, self.shape["variables"][0])
        self.count(f"{label} report", errors)

    def check_trace(self, label: str, tracer: spans.Tracer, root: spans.Span,
                    layers: dict) -> None:
        errors = []
        # self-test: the run's child spans plus experiment.self_s make up its duration
        kids = spans.children(tracer.spans, root)
        if abs(sum(k.duration for k in kids) + layers["experiment.self_s"] - root.duration) > 1e-6:
            errors.append("child spans overlap or fall outside the run")
        if any(math.isnan(s.end) for s in tracer.spans):
            errors.append("unclosed span")
        if tracer.missing:
            errors.append(f"functions to trace not found: {tracer.missing}")
        errors += [f"span attrs: {s.attrs['attr_error']}" for s in tracer.spans
                   if "attr_error" in s.attrs]
        self.count(f"{label} span self-test", errors)

        errors = []
        for metric, key in (("forecast.rollout_member_steps", "member_steps"),
                            ("metrics.crps_pairs", "crps_pairs"),
                            ("forecast.rollout_gflop", "gflop")):
            if layers[metric] != self.shape[key]:
                errors.append(f"{metric}={layers[metric]} but the shapes give {self.shape[key]}")
        for metric in COUNTERS:
            if layers[metric] != self.layers[0][metric]:
                errors.append(f"{metric} changed between runs")
        self.count(f"{label} counters", errors)


def measure(runs: WorkloadRuns, seconds: float, traced: bool) -> None:
    """Run rounds (one untraced run, plus a traced one when ``traced``) while the next fits."""
    start = time.perf_counter()
    rounds = 0
    while True:
        r0 = time.perf_counter()
        runs.run(2 * rounds, traced=False)
        if traced:
            runs.run(2 * rounds + 1, traced=True)
        # after the run, so that the kernel's arrays stay out of peak_rss_mb
        spent = 0.0
        while spent == 0.0 or spent < CAL_SHARE * (time.perf_counter() - r0 - spent):
            runs.calibrations.append(calibrate.timed())
            spent += runs.calibrations[-1]
        rounds += 1
        now = time.perf_counter()
        elapsed, last = now - start, now - r0
        if elapsed + last > HARD_LIMIT_S:
            break
        if rounds >= (1 if traced else MIN_RUNS) and elapsed + last > seconds:
            break


def bench(args, wl) -> int:
    work = ROOT / ".perfbench_work" / f"{wl.name}-seed{args.seed}-{os.getpid()}"
    try:
        setup_times = timed_setups(args, work)
        cfg = workloads.load_config(wl, args.seed, ROOT, work)
        shape = workload_shape(wl, cfg, args.seed, work)
        golden, golden_note = checks.golden_for(wl.name, args.seed, blas_signature())
        checker = checks.OutputChecker(shape["cells"], cfg.fraction, golden)
        runs = WorkloadRuns(cfg, shape, checker, work)
        runs.count("archive round trip", shape["roundtrip_errors"])
        measure(runs, args.seconds, traced=bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = runs.samples[False]
    run_wall_s = statistics.median(untraced)
    setup_wall_s = statistics.median(setup_times)
    host_slowdown = statistics.median(runs.calibrations) / calibrate.REF_S
    run_s = run_wall_s / host_slowdown
    if args.trace == 0:
        table = [  # (name, value, unit, samples)
            ("setup_s", setup_wall_s / host_slowdown, "s", len(setup_times)),
            ("run_s", run_s, "s", len(untraced)),
            ("member_steps_per_s", shape["member_steps"] / run_s, "1/s", len(untraced)),
            ("peak_rss_mb", runs.peak_rss_mb, "MB", 1),
        ]
    else:
        traced = runs.samples[True]
        table = [("trace.overhead_s", statistics.median(traced) - run_wall_s, "s", len(traced))]
        for name in runs.layers[0]:
            values = [layers[name] for layers in runs.layers]
            table.append((name, statistics.median(values), layer_unit(name), len(values)))

    synth_seed, base_seed = wl.seeds(args.seed)
    result = {
        "workload": wl.name,
        "seed": args.seed,
        "synthetic_seed": synth_seed,
        "base_seed": base_seed,
        "default_synthetic_seed": wl.default_synthetic_seed,
        "default_base_seed": wl.default_base_seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "machine": machine_info(),
        "shape": {k: v for k, v in shape.items() if k != "roundtrip_errors"},
        "golden": golden_note,
        "setup_samples_s": setup_times,
        "run_samples_s": untraced,
        "calibration_samples_s": runs.calibrations,
        "setup_wall_s": setup_wall_s,
        "run_wall_s": run_wall_s,
        "host_slowdown": host_slowdown,
        "traced_run_samples_s": runs.samples[True],
        "layer_samples": runs.layers,
        "metrics": {name: {"value": v, "unit": u, "samples": n} for name, v, u, n in table},
        "failed_share": runs.failed / runs.attempted,
        "attempted": runs.attempted,
        "failed": runs.failed,
        "problems": runs.problems,
    }
    write_result(args, result, runs.span_records)
    print_result(result, table)
    return 0


def write_result(args, result: dict, span_records: list[dict]) -> None:
    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"{result['workload']}-seed{args.seed}-trace{args.trace}"
    (args.out / f"{stem}.json").write_text(json.dumps(result, indent=1))
    if span_records:
        with open(args.out / f"{stem}-spans.jsonl", "w") as f:
            for rec in span_records:
                f.write(json.dumps(rec) + "\n")


def print_result(result: dict, table: list[tuple]) -> None:
    """The metric table for people, then the one-line JSON result."""
    r = result
    print(f"workload {r['workload']}: seed {r['seed']} (synthetic seed {r['synthetic_seed']}, "
          f"base_seed {r['base_seed']}; defaults {r['default_synthetic_seed']}/"
          f"{r['default_base_seed']}), trace {r['trace']}, golden: {r['golden']}")
    print("machine " + json.dumps(r["machine"]))
    print(f"{'metric':40s} {'value':>14s} {'unit':8s} samples")
    for name, value, unit, n in table:
        print(f"{name:40s} {value:14.6g} {unit:8s} {n}")
    for name, unit, n in (("setup_wall_s", "s", len(r["setup_samples_s"])),
                          ("run_wall_s", "s", len(r["run_samples_s"])),
                          ("host_slowdown", "1", len(r["calibration_samples_s"]))):
        print(f"({name}){'':{38 - len(name)}s} {r[name]:14.6g} {unit:8s} {n}")
    print(f"{'failed_share':40s} {r['failed_share']:14.6g} {'1':8s} "
          f"{r['failed']}/{r['attempted']} attempted")
    for problem in r["problems"][:20]:
        print(f"FAILED {problem}")
    print(json.dumps({
        "correct": r["failed"] == 0,
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, v, u, _ in table},
    }))


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(args.out)]
        proc = subprocess.run(cmd, timeout=600)
        status = status or proc.returncode
        print(flush=True)
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        _prepare_interpreter()
        if args.workload == "all":
            return run_all(args)
        wl = workloads.WORKLOADS[args.workload]
        if args.setup_only is not None:
            setup_once(wl, args.seed, args.setup_only)
            return 0
        return bench(args, wl)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
