#!/usr/bin/env python3
"""Capture the reference outputs that ``checks.py`` compares every run against.

    python3 perfbench/make_golden.py --workload desk_select --seeds 0-24

For each workload seed this runs the workload once and stores, per
(strategy, seed) cell, a digest of the selected indices and the per-seed
metric records (12 significant digits), plus whether the acceptance-7 CRPS
ordering held. The committed file was captured from the code the benchmark
was defined on; regenerating it to make a failing check pass defeats it.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

import checks
import run
import workloads


def capture(wl, seed: int, work: Path) -> dict:
    from stratacast.experiment import emit_report, run_experiment

    run.setup_once(wl, seed, work)
    cfg = workloads.load_config(wl, seed, run.ROOT, work)
    records = run_experiment(cfg, work / "out")
    emit_report(records, work / "out")
    cells = checks.run_outputs(records, work / "out")
    entry = {"cells": {
        key: {"selection": checks.digest(cell["indices"]),
              "records": [r[:2] + [float(f"{x:.12g}") for x in r[2:]] for r in cell["records"]]}
        for key, cell in sorted(cells.items())
    }}
    if wl.name == "reference":
        variable = records[0].variable
        entry["crps_order_holds"] = not checks.crps_ordering(records, variable)
    return entry


def dump(golden: dict) -> str:
    """JSON with one line per (workload, seed) entry."""
    lines = ["{", f'"blas": {json.dumps(golden["blas"], sort_keys=True)},']
    names = sorted(k for k in golden if k != "blas")
    for i, name in enumerate(names):
        seeds = sorted(golden[name], key=int)
        lines.append(f'"{name}": {{')
        lines += [f'"{seed}": {json.dumps(golden[name][seed], sort_keys=True)}'
                  + ("," if j < len(seeds) - 1 else "") for j, seed in enumerate(seeds)]
        lines.append("}" + ("," if i < len(names) - 1 else ""))
    return "\n".join(lines + ["}"]) + "\n"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    p.add_argument("--seeds", default="0", help="first-last, inclusive")
    args = p.parse_args(argv)
    run._prepare_interpreter()
    lo, _, hi = args.seeds.partition("-")
    golden = json.loads(checks.GOLDEN.read_text()) if checks.GOLDEN.exists() else {}
    if golden.get("blas", run.blas_signature()) != run.blas_signature():
        raise SystemExit(f"golden.json was captured under {golden['blas']}; start a new file")
    golden["blas"] = run.blas_signature()
    wl = workloads.WORKLOADS[args.workload]
    for seed in range(int(lo), int(hi or lo) + 1):
        work = run.ROOT / ".perfbench_work" / f"golden-{wl.name}-{seed}"
        try:
            golden.setdefault(wl.name, {})[str(seed)] = capture(wl, seed, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(f"{wl.name} seed {seed} captured", flush=True)
        checks.GOLDEN.write_text(dump(golden))
    return 0


if __name__ == "__main__":
    sys.exit(main())
