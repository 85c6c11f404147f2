"""Closed-loop job runner, started in a fresh interpreter per workload.

Usage: python3 worker.py JOBS_JSON SECONDS TRACE OUT_JSON [SPANS_TSV]

One client, one thread: each job is a list of in-process
``perigraph.cli.run_command(argv)`` calls with stdout and stderr captured,
and the next job starts when the previous one has returned.

Untraced (TRACE=0): run the rounds of JOBS_JSON in order, wrapping around,
and start no job after SECONDS.  Traced (TRACE=1): repeat pairs of one
untraced and one traced pass over the first round until SECONDS have
passed; the counters of every traced pass must agree exactly, and the
spans of the first traced pass are written to SPANS_TSV.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
from time import perf_counter

import perigraph.cli

import tracing


def run_job(job):
    """Run one job's CLI calls; return per-call outcomes."""
    outcomes = []
    for argv in job["calls"]:
        out, err = io.StringIO(), io.StringIO()
        rc, exc = None, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = perigraph.cli.run_command(argv)
            except SystemExit as stop:
                rc = stop.code
            except Exception as error:  # an escaped exception is an outcome
                exc = f"{type(error).__name__}: {error}"
        outcomes.append({"rc": rc, "exc": exc, "out": out.getvalue(),
                         "err": err.getvalue()})
        if rc != 0:
            break
    return outcomes


def timed(job):
    t0 = perf_counter()
    outcomes = run_job(job)
    return perf_counter() - t0, outcomes


def untraced_loop(rounds, seconds):
    jobs = [job for rnd in rounds for job in rnd]
    results = []
    t0 = perf_counter()
    i = 0
    while perf_counter() - t0 < seconds:
        job = jobs[i % len(jobs)]
        elapsed, outcomes = timed(job)
        results.append({"id": job["id"], "t": elapsed, "calls": outcomes})
        i += 1
    return {"jobs": results, "wall_s": perf_counter() - t0}


def traced_loop(rounds, seconds, spans_path):
    jobs = rounds[0]
    untraced, traced, results = [], [], []
    self_s, first, passes = {}, None, 0
    t0 = perf_counter()
    while not traced or perf_counter() - t0 < seconds:
        for job in jobs:
            elapsed, outcomes = timed(job)
            untraced.append(elapsed)
            results.append({"id": job["id"], "t": elapsed, "calls": outcomes})
        tracer = tracing.Tracer()
        cli_id = tracer.intern("cli")
        swaps = tracing.install(tracer)
        try:
            for job in jobs:
                tracer.job_id = job["id"]
                tracer.open(cli_id)
                try:
                    outcomes = run_job(job)
                finally:
                    elapsed = tracer.close()
                traced.append(elapsed)
                results.append({"id": job["id"], "t": elapsed,
                                "calls": outcomes})
        finally:
            tracing.remove(swaps)
        passes += 1
        if first is None:
            first = tracer
        elif tracer.counts != first.counts:
            raise RuntimeError("traced passes disagree on exact counts")
        for name, value in tracer.self_s.items():
            self_s[name] = self_s.get(name, 0.0) + value
    first.write(spans_path)
    return {"jobs": results, "untraced_t": untraced, "traced_t": traced,
            "passes": passes, "counts": dict(first.counts),
            "self_s": self_s, "spans": len(first.start)}


def main():
    jobs_path, seconds, trace, out_path = sys.argv[1:5]
    with open(jobs_path, encoding="utf-8") as fh:
        rounds = json.load(fh)["rounds"]
    if trace == "1":
        result = traced_loop(rounds, float(seconds), sys.argv[5])
    else:
        result = untraced_loop(rounds, float(seconds))
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
