"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload NAME

Runs ``run.py`` once for each of the seeds 1-10, one run at a time, from
the current directory, for BENCHMARK.json's ``run_seconds``.  Then prints
for each end-to-end metric its median and the distance between its first
and third quartile as a share of the median, next to the metric's bound from
BENCHMARK.json.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    values = {}
    for seed in range(1, 11):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        line = " ".join("%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items())
        print("seed %d correct %s failed %d %s" % (seed, result["correct"], result["failed"], line), flush=True)
        for key, metric in result["metrics"].items():
            values.setdefault(key, []).append(metric["value"])
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        spread = stats.quartile_spread(vals)
        print("%-14s median %.6g %s  spread %.4f  bound %.2f  (spread/bound %.2f)" % (
            m["name"], statistics.median(vals), m["unit"], spread, m["bound"], spread / m["bound"]))


if __name__ == "__main__":
    main()
