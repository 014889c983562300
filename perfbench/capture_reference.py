"""Capture the reference outputs of the pipeline workloads.

Usage: ``PYTHONPATH=src python3 perfbench/capture_reference.py`` from the
repository root. It runs each pipeline workload once through ``cli.main``
and stores the checked files, gzipped with a fixed timestamp, under
``perfbench/reference/<workload>/``. Run it only on a commit whose outputs
are known to be right: every later benchmark run is checked against them.
"""

from __future__ import annotations

import gzip
import sys
import tempfile
from pathlib import Path

from check import PIPELINE_FILES, REFERENCE_DIR
from run import WORKLOADS


def main() -> int:
    from screenopt import cli

    for workload, spec in WORKLOADS.items():
        if spec["kind"] != "pipeline":
            continue
        with tempfile.TemporaryDirectory(dir=REFERENCE_DIR.parent) as tmp:
            if cli.main(spec["argv"] + ["--out", tmp]) != 0:
                print(f"{workload}: pipeline failed", file=sys.stderr)
                return 1
            target = REFERENCE_DIR / workload
            target.mkdir(parents=True, exist_ok=True)
            for name in PIPELINE_FILES:
                data = (Path(tmp) / name).read_bytes()
                (target / f"{name}.gz").write_bytes(
                    gzip.compress(data, compresslevel=9, mtime=0))
        print(f"captured {workload}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
