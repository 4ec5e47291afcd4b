"""Golden bytes of every file ``run`` and then ``report`` write.

``golden_outputs.json`` holds the sha256 of each file that
``stratacast run --config benchmarks/synthetic_benchmark.json`` writes
(selections, ``records.json``, both metric CSVs and the report files), and
of each file ``stratacast report`` then writes from that ``records.json``
into a directory of its own. A refactor of the record, CSV or report code
must reproduce them byte for byte.

The config selects with ``full``, ``random`` and ``stratified_time`` only,
so no PCA or k-means runs and the digests do not depend on the BLAS build.

Capture (only from a commit whose outputs are the reference)::

    PYTHONPATH=src python tests/test_golden_outputs.py
"""

import hashlib
import json
import tempfile
from pathlib import Path

from stratacast.cli import main

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "benchmarks" / "synthetic_benchmark.json"
GOLDEN = Path(__file__).with_name("golden_outputs.json")


def output_digests(work: Path) -> dict[str, str]:
    """sha256 of every file under ``work`` after ``run`` into ``run/`` and
    ``report`` from its records into ``report/``, keyed by relative path."""
    run, report = work / "run", work / "report"
    assert main(["run", "--config", str(CONFIG), "--out", str(run)]) == 0
    assert main(["report", "--records", str(run / "records.json"), "--out", str(report)]) == 0
    return {p.relative_to(work).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(work.rglob("*")) if p.is_file()}


def test_run_and_report_outputs_match_golden(tmp_path):
    want = json.loads(GOLDEN.read_text())
    got = output_digests(tmp_path)
    assert sorted(got) == sorted(want)
    assert [k for k in sorted(want) if got[k] != want[k]] == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        digests = output_digests(Path(work))
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
