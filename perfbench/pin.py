"""Regenerate pins.json: the digest of every operation for the default seed.

    python3 perfbench/pin.py

Certificate bytes and verdicts are the fixed point of the benchmark, so run
this only for a deliberate change of the certificate format or of a workload.
It refuses to pin a pass that fails any other check.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    run.load_program()
    import workloads

    pins: dict = {"seed": run.DEFAULT_SEED}
    run.WORK_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="pin-", dir=run.WORK_DIR))
    try:
        for workload in workloads.WORKLOADS:
            ops, paths = run.set_up(workload, run.DEFAULT_SEED, False, scratch / workload)
            checker = run.Checker(ops, paths)
            for i in range(len(ops)):
                checker.execute(i)
            if checker.failures:
                print("\n".join(checker.failures), file=sys.stderr)
                return 1
            pins[workload] = {op.name: checker.digests[i] for i, op in enumerate(ops)}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            run.WORK_DIR.rmdir()
        except OSError:
            pass
    run.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
