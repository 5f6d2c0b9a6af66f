#!/usr/bin/env python3
"""Regenerate references.json: the table every preset call writes, for each
workload and each data seed, with its invariant's verdict printed.

    python3 perfbench/record_references.py

References are recorded once, at the seed commit; a later change that has
to re-record them changes what the benchmark checks, and must say so.
"""

import json
import shutil
import sys

import run
from layers import Instrument
from workloads import DATA_SEEDS, WORKLOADS, read_table


def main() -> int:
    cli = run.import_package()
    refs, bad = {}, 0
    with Instrument(spans=False) as watch:
        for workload in WORKLOADS.values():
            for seed in range(DATA_SEEDS):
                for preset in workload.presets:
                    cfg = preset.config(seed)
                    out = run.OUT / "record" / preset.name
                    shutil.rmtree(out, ignore_errors=True)
                    watch.halts.clear()
                    if cli.main(preset.argv(cfg, out)) != 0 or watch.halts:
                        raise SystemExit(f"{preset.name} at seed {seed} failed")
                    rows = read_table(out / "table.csv")
                    verdict = preset.invariant(cfg, rows)
                    bad += verdict is not None
                    print(workload.name, seed, preset.name, verdict or "ok",
                          json.dumps(rows[-1]), flush=True)
                    refs.setdefault(workload.name, {}).setdefault(
                        str(seed), {})[preset.name] = rows
    with open(run.HERE / "references.json", "w") as f:
        json.dump(refs, f, indent=0, sort_keys=True)
        f.write("\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
