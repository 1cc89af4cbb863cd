"""fyk benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a fyk checkout.  Each pass runs the workload's job list
in a fresh interpreter (``child.py``), one pass at a time, with BLAS threads
pinned before numpy loads, so every pass pays what a CLI user pays and
nothing carries over between passes.  Passes repeat until the next one would
end after ``--seconds``; at least two always run, so each job's output is
compared with its first pass, and with ``--trace 1`` untraced and traced
passes alternate, one of each at least.  Every job is
checked against an independent oracle (``checks.py``).  The last line of
standard output is one JSON object: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
"""
import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import jobs
import stats

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5
# two passes at least, so every run compares each job's table with its first
# pass; with --trace 1 passes alternate plain, traced, so both kinds run
MIN_PASSES = 2
DEADLINE_S = 170.0  # the whole run must end well inside 180 s
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    pass


def _threads():
    return min(2, len(os.sched_getaffinity(0)))


def _env(threads):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in BLAS_VARS:  # must be set before numpy loads OpenBLAS
        env[var] = str(threads)
    return env


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class Runner:
    def __init__(self, workload, seed, threads):
        self.workload = workload
        self.seed = seed
        self.env = _env(threads)
        self.t0 = time.perf_counter()
        self.spawned = 0

    def elapsed(self):
        return time.perf_counter() - self.t0

    def spawn(self, jobs_=None, trace=False):
        """Run child.py once; returns its result and the process wall time."""
        self.spawned += 1
        stem = OUT / ("%s_%d_%d" % (self.workload, self.seed, self.spawned))
        spec_path, result_path = stem.with_suffix(".spec.json"), stem.with_suffix(".result.json")
        spec = {
            "src": str(ROOT / "src"),
            "jobs": jobs_,
            "trace": trace,
            "spans": str(OUT / ("spans_%s.npz" % self.workload)),
        }
        spec_path.write_text(json.dumps(spec))
        if result_path.exists():
            result_path.unlink()
        budget = DEADLINE_S - self.elapsed()
        if budget <= 0:
            raise BenchError("out of time before pass %d" % self.spawned)
        t = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-s", str(HERE / "child.py"), str(spec_path), str(result_path)],
                env=self.env, cwd=ROOT, capture_output=True, text=True, timeout=budget,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError("pass %d did not finish within %.0f s" % (self.spawned, budget)) from exc
        wall = time.perf_counter() - t
        if proc.returncode != 0:
            raise BenchError("pass %d exited %d:\n%s" % (self.spawned, proc.returncode, proc.stderr[-2000:]))
        result = json.loads(result_path.read_text())
        spec_path.unlink()
        result_path.unlink()
        return result, wall


def fingerprint(record):
    payload = record["stdout"] if "stdout" in record else json.dumps(record["value"], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def judge(passes, job_specs):
    """Check every job of every pass; returns per-pass and per-job findings."""
    by_name = {job["name"]: job for job in job_specs}
    first = {}  # job name -> (sha, record) of its first pass
    verdicts = []  # one list of (record, sha, verdict, problems, defects) per pass
    for result in passes:
        rows = []
        for record in result["jobs"]:
            name = record["name"]
            problems, defects, verdict, sha = [], [], None, None
            if "error" in record:
                problems.append("raised: " + record["error"].strip().splitlines()[-1])
            else:
                sha = fingerprint(record)
                sha0, record0 = first.setdefault(name, (sha, record))
                if sha != sha0:
                    if name in jobs.KNOWN_UNSTABLE and checks.same_numbers(record0["stdout"], record["stdout"]):
                        defects.append("known defect: bytes differ from the first pass, numbers agree to %g"
                                       % checks.SAME_NUMBERS_REL)
                    else:
                        problems.append("output differs from the first pass")
                try:
                    verdict = checks.checker(by_name[name])(record)
                except (KeyError, ValueError, IndexError, ZeroDivisionError) as exc:
                    problems.append("unreadable output: %r" % exc)
                else:
                    problems += verdict.problems
                    if not verdict.tol_ok and name not in jobs.KNOWN_MISSES:
                        problems.append("misses its acceptance tolerance")
            rows.append((record, sha, verdict, problems, defects))
        verdicts.append(rows)
    return verdicts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    baseline = json.loads((HERE / "baseline.json").read_text())
    if not (ROOT / "src" / "fyk" / "__init__.py").is_file():
        raise BenchError("no fyk sources under %s" % (ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    # the build step of a pure-Python package: byte-compile once, outside any timing
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "fyk")], check=True,
                   capture_output=True)

    threads = _threads()
    job_specs = jobs.job_list(args.workload, args.seed)
    runner = Runner(args.workload, args.seed, threads)

    setup = [runner.spawn()[0]["setup_s"] for _ in range(SETUP_SAMPLES)]

    passes, traced_flags, durations = [], [], []
    t_measure = runner.elapsed()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        result, wall = runner.spawn(job_specs, trace=traced)
        passes.append(result)
        traced_flags.append(traced)
        durations.append(wall)
        used = runner.elapsed() - t_measure
        if len(passes) >= MIN_PASSES and used + statistics.median(durations) > args.seconds:
            break

    setup += [p["setup_s"] for p in passes]  # every pass also imports fyk.cli afresh
    verdicts = judge(passes, job_specs)
    attempted = sum(len(rows) for rows in verdicts)
    failed = sum(1 for rows in verdicts for _, _, _, problems, _ in rows if problems)
    tol_frac = [
        sum(1 for _, _, v, problems, _ in rows if v is not None and v.tol_ok and not problems) / len(rows)
        for rows in verdicts
    ]
    figures = {}
    for rows in verdicts:
        for _, _, v, _, _ in rows:
            for key, val in (v.figures.items() if v else ()):
                figures.setdefault(key, []).append(val)
    figures = {key: statistics.median(vals) for key, vals in figures.items()}

    plain = [p for p, t in zip(passes, traced_flags) if not t]
    traced_passes = [p for p, t in zip(passes, traced_flags) if t]
    wall = [p["wall_s"] for p in plain]

    # -- human-readable report ---------------------------------------------
    first = passes[0]
    print("workload %s  seed %d  seconds %g  trace %d" % (args.workload, args.seed, args.seconds, args.trace))
    print("machine: %s; nproc %d; python %s numpy %s scipy %s; BLAS threads requested %d, loaded %s" % (
        _cpu_model(), os.cpu_count(), first["versions"]["python"], first["versions"]["numpy"],
        first["versions"]["scipy"], threads, json.dumps(first["blas_threads"], sort_keys=True)))
    base_sha = baseline.get("cli_sha256", {})
    for k, rows in enumerate(verdicts):
        kind = "traced" if traced_flags[k] else "plain"
        for record, sha, v, problems, defects in rows:
            name = record["name"]
            if problems:
                verdict = "WRONG: " + "; ".join(problems)
            elif v.tol_ok:
                verdict = "ok"
            else:
                verdict = "known tolerance miss"
            if defects:
                verdict += " (" + "; ".join(defects) + ")"
            same = ""
            if name in base_sha and sha:
                same = " (baseline table)" if base_sha[name] == sha else " (table differs from baseline)"
            print("pass %d %-6s %-24s %7.3f s  %s  %s  sha256 %s%s" % (
                k + 1, kind, name, record["seconds"], verdict, v.note if v else "", sha, same))
    for key in sorted(figures):
        print("accuracy %-24s %r (baseline %r)" % (key, figures[key], baseline["figures"][key]))

    if args.trace:
        metrics = per_layer_metrics(spec, plain, traced_passes)
        for name, m in metrics.items():
            print("layer  %-40s %.6g %s" % (name, m["value"], m["unit"]))
    else:
        values = {
            "setup_s": (statistics.median(setup), stats.describe(setup, "s")),
            "wall_s": (statistics.median(wall), stats.describe(wall, "s")),
            "peak_rss_mb": (statistics.median(p["maxrss_mb"] for p in plain), "median over passes"),
            "tol_pass_frac": (statistics.median(tol_frac), "jobs meeting their acceptance tolerance"),
            "err_drift": (
                max((figures[key] / baseline["figures"][key] for key in figures), default=0.0),
                "largest accuracy figure over its baseline value",
            ),
        }
        metrics = {}
        for m in spec["end_to_end"]:
            value, how = values[m["name"]]
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print("metric %-16s %.6g %s  (%s)" % (m["name"], value, m["unit"], how))
    print("checked %d jobs, %d wrong" % (attempted, failed))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))


def per_layer_metrics(spec, plain, traced):
    def med(values):
        return statistics.median(values) if values else 0.0

    layers = {}
    for p in traced:
        m = dict(p["layers"])
        m["bubble.s_rule_hits"], m["bubble.s_rule_misses"] = p["s_rule"]
        for key, val in m.items():
            layers.setdefault(key, []).append(val)
    layers = {key: med(vals) for key, vals in layers.items()}
    layers["proc.cpu_s"] = med([p["cpu_s"] for p in plain])
    layers["proc.wall_s"] = med([p["wall_s"] for p in plain])
    layers["proc.blas_threads"] = max(plain[0]["blas_threads"].values(), default=0)
    layers["trace.overhead_s"] = med([p["wall_s"] for p in traced]) - layers["proc.wall_s"]
    return {m["name"]: {"value": layers.get(m["name"], 0), "unit": m["unit"]} for m in spec["per_layer"]}


if __name__ == "__main__":
    try:
        main()
    except BenchError as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        sys.exit(2)
