"""perigraph benchmark: closed-loop CLI jobs over three workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload growth --seed 1 --seconds 35 --trace 0

Workloads: ``growth``, ``certify``, ``lattice`` (see perfbench/README.md).
The inputs are generated from ``--seed`` into ``perfbench/_work``.  A fresh
interpreter (worker.py) runs one client that sends the next job when the
previous one returns, for ``--seconds``.  Answers are checked afterwards,
untimed.  The last line of stdout is one JSON object: end-to-end metrics
with ``--trace 0``, per-layer metrics from a separate traced run with
``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 8   # before and again after the measured loop
WORKER_TIMEOUT_S = 100


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    # fixed string hashing, so exact counts repeat between runs
    env["PYTHONHASHSEED"] = "0"
    return env


def setup_sample():
    """Wall time of a fresh interpreter importing perigraph.cli."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import perigraph.cli"],
                   env=child_env(), check=True, timeout=60)
    return perf_counter() - t0


def tail(times):
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(times)
    if n <= 10:
        return 0, min(times)
    pct = math.floor(100 * (n - 10) / n)
    ordered = sorted(times)
    # nearest rank: the sample with pct% of samples at or below it
    return pct, ordered[max(0, math.ceil(pct * n / 100) - 1)]


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(result, setup):
    times = [job["t"] for job in result["jobs"]]
    pct, tail_s = tail(times)
    print(f"jobs: {len(times)}; job_tail_s is p{pct} of {len(times)} jobs")
    return {
        "setup_s": metric(statistics.median(setup), "s"),
        "job_p50_s": metric(statistics.median(times), "s"),
        "job_tail_s": metric(tail_s, "s"),
        "jobs_per_s": metric(len(times) / result["wall_s"], "1/s"),
        "peak_rss_mb": metric(result["peak_rss_mb"], "MB"),
    }


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(result, escapes):
    """Counts per traced pass; self times in seconds per traced job."""
    counts, self_s, passes = result["counts"], result["self_s"], result["passes"]
    jobs = len(result["traced_t"])

    def count(name):
        return metric(counts.get(name, 0), "count")

    def per_job(*spans):
        return metric(sum(self_s.get(s, 0.0) for s in spans) / jobs, "s")

    def prefixed(layer):
        return [s for s in self_s if s.split(".")[0] == layer]

    ball_s = self_s.get("quotient.ball", 0.0)
    count_s = self_s.get("ehrhart.count", 0.0)
    return {
        "quotient.ball_calls": count("quotient.ball.calls"),
        "quotient.ball_self_s": per_job("quotient.ball"),
        "quotient.states_settled": count("quotient.states_settled"),
        "quotient.states_per_s": metric(_ratio(
            counts.get("quotient.states_settled", 0) * passes, ball_s), "1/s"),
        "quotient.relaxations": count("quotient.relaxations"),
        "quotient.max_ball_states": count("quotient.max_ball_states"),
        "geometry.box_points": count("geometry.box_points"),
        "geometry.region_tests": count("geometry.region.calls"),
        "geometry.region_hit_ratio": metric(_ratio(
            counts.get("geometry.region_hits", 0),
            counts.get("geometry.region.calls", 0)), "ratio"),
        "geometry.region_self_s": per_job("geometry.region"),
        "geometry.gauge_calls": count("geometry.gauge.calls"),
        "geometry.gauge_self_s": per_job("geometry.gauge"),
        "geometry.hull_calls": count("geometry.hull.calls"),
        "geometry.hull_self_s": per_job("geometry.hull"),
        "field.solve_calls": count("field.solve.calls"),
        "field.solve_self_s": per_job("field.solve"),
        "field.det_calls": count("field.det.calls"),
        "invariants.c1_self_s": per_job("invariants.c1"),
        "invariants.c2_self_s": per_job("invariants.c2"),
        "invariants.c2_ball_calls": count("invariants.c2_ball_calls"),
        "invariants.support_self_s": per_job("invariants.support"),
        "invariants.wa_self_s": per_job("invariants.wa"),
        "invariants.region_targets": count("invariants.region_targets"),
        "cycles.enumerate_calls": count("cycles.enumerate.calls"),
        "cycles.self_s": per_job(*prefixed("cycles")),
        "series.fit_self_s": per_job("series.fit"),
        "series.reduce_self_s": per_job("series.reduce"),
        "series.reciprocity_self_s": per_job("series.reciprocity"),
        "series.interpolate_calls": count("series.interpolate.calls"),
        "series.interpolate_self_s": per_job("series.interpolate"),
        "ehrhart.count_calls": count("ehrhart.count.calls"),
        "ehrhart.count_self_s": per_job("ehrhart.count"),
        "ehrhart.points_counted": count("ehrhart.points_counted"),
        "ehrhart.points_per_s": metric(_ratio(
            counts.get("ehrhart.points_counted", 0) * passes, count_s), "1/s"),
        "ehrhart.fit_self_s": per_job("ehrhart.fit"),
        "ehrhart.reciprocity_self_s": per_job("ehrhart.reciprocity"),
        "ehrhart.gamma_q_self_s": per_job("ehrhart.gamma_q"),
        "netfile.parse_calls": count("netfile.parse.calls"),
        "netfile.self_s": per_job(*prefixed("netfile")),
        "cli.self_s": per_job("cli"),
        "cli.budget_escapes": metric(escapes, "count"),
        "trace.job_mean_s": metric(statistics.fmean(result["traced_t"]), "s"),
        "trace.overhead_ratio": metric(
            statistics.median(result["traced_t"]) /
            statistics.median(result["untraced_t"]), "ratio"),
        "trace.spans": metric(result["spans"], "count"),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("growth", "certify", "lattice"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "perigraph", "cli.py")):
        fail(f"no perigraph sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import oracles
    import workloads

    work = os.path.join(HERE, "_work", f"{args.workload}-{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    rounds = workloads.rounds(args.workload, args.seed,
                              os.path.relpath(work, ROOT))
    jobs_path = os.path.join(work, "jobs.json")
    with open(jobs_path, "w", encoding="utf-8") as fh:
        json.dump({"rounds": [[{"id": j["id"], "calls": j["calls"]}
                               for j in rnd] for rnd in rounds]}, fh)

    # set-up is an end-to-end metric: the traced run does not time it
    samples = 0 if args.trace else SETUP_SAMPLES
    setup = [setup_sample() for _ in range(samples)]
    out_path = os.path.join(work, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), jobs_path,
           str(args.seconds), str(args.trace), out_path,
           os.path.join(work, "spans.tsv")]
    try:
        subprocess.run(cmd, env=child_env(), check=True,
                       timeout=args.seconds + WORKER_TIMEOUT_S)
    except (subprocess.CalledProcessError,
            subprocess.TimeoutExpired) as exc:
        fail(f"worker failed: {exc}")
    setup += [setup_sample() for _ in range(samples)]
    with open(out_path, encoding="utf-8") as fh:
        result = json.load(fh)

    by_id = {j["id"]: j for rnd in rounds for j in rnd}
    failed, escapes = 0, 0
    for done in result["jobs"]:
        job = by_id[done["id"]]
        reason = oracles.check(job, done["calls"])
        if reason is not None:
            failed += 1
            print(f"job {done['id']} ({job['kind']} {job['label']}): {reason}",
                  file=sys.stderr)
        elif job["kind"] == "over-budget" and done["calls"][0]["exc"]:
            escapes += 1
    if args.trace:
        # each traced pass also ran the round once untraced
        escapes //= 2 * result["passes"]
    print(f"over-budget jobs where ResourceLimit escaped run_command "
          f"instead of exit 2: {escapes}")

    metrics = (per_layer(result, escapes) if args.trace
               else end_to_end(result, setup))
    attempted = len(result["jobs"])
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
