#!/usr/bin/env python3
"""Convert raw benchmark JSON output into a compact BENCH_*.json.

Default mode reads the Google Benchmark JSON emitted by

    bench_fig5_runtime --benchmark_filter='BM_MonteCarloBatched' \
        --benchmark_format=json

from a file (or stdin) and distills the Monte-Carlo throughput series of
the batched engine into samples/sec per circuit, with the host (CPU model,
kernel variant, build type) the bench stamped into its context.  When the
run used --benchmark_repetitions, the median aggregate is preferred;
otherwise the median over the plain iteration entries is taken.

With --estimators the input is instead the JSON document printed by
bench_estimator_variance (across-replication variance per circuit, metric,
estimator) and the output is BENCH_estimators.json: the same means and
variances plus the variance-reduction factor of every variance-reduced
estimator against the plain-MC baseline of its (circuit, metric).  That
factor is the sample-count reduction at equal variance, and it is what the
CI estimator-quality gate pins floors on.

With --opt the input is the JSON document printed by bench_opt_throughput
(wall seconds and optimizer iterations per second of the flat-SoA engine on
every benchmarked circuit) and the output is BENCH_opt.json: per-circuit
seconds / iterations / commits / moves-per-second under "flat", plus the
host (CPU model, vCPUs, build type) the bench stamped and the commit of the
checkout the tool runs in.

Timing artifacts from debug builds are meaningless for the perf trajectory,
so any input that carries a build-type marker saying "debug" is refused
unless --allow-debug is passed (intended for pipeline debugging only; the
output then records the debug provenance honestly).

Usage:
    bench_to_json.py [raw_benchmark.json] [-o BENCH_mc.json]
    bench_to_json.py --estimators [raw_estimators.json] \
        [-o BENCH_estimators.json]
    bench_to_json.py --opt [raw_opt.json] [-o BENCH_opt.json]

With no -o the result is printed to stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def distill(raw: dict) -> dict:
    """Reduce benchmark entries to {circuit: {"batched": samples/s}}."""
    # circuit -> list of items_per_second; medians are stored separately
    # and win over per-iteration samples when present.
    samples: dict[str, list[float]] = {}
    medians: dict[str, float] = {}
    for entry in raw.get("benchmarks", []):
        if not entry.get("name", "").startswith("BM_MonteCarloBatched"):
            continue
        if "items_per_second" not in entry:
            continue
        circuit = entry.get("label", "")
        if not circuit:
            continue
        if entry.get("run_type") == "aggregate":
            if entry.get("aggregate_name") == "median":
                medians[circuit] = entry["items_per_second"]
            continue
        samples.setdefault(circuit, []).append(entry["items_per_second"])

    circuits: dict[str, dict] = {}
    for circuit in sorted(set(samples) | set(medians)):
        sps = medians.get(circuit)
        if sps is None:
            sps = statistics.median(samples[circuit])
        circuits[circuit] = {"batched": {"samples_per_second": round(sps, 1)}}

    context = raw.get("context", {})
    return {
        "schema_version": 1,
        "generated_by": "tools/bench_to_json.py",
        "benchmark": "bench_fig5_runtime:BM_MonteCarloBatched",
        "unit": "monte-carlo samples per second, single thread",
        "host": {
            "cpu_model": context.get("cpu_model"),
            "num_cpus": context.get("num_cpus"),
            "mhz_per_cpu": context.get("mhz_per_cpu"),
            # The variant of the MC draws and delay loop the host ran.
            "mc_kernel_isa": context.get("mc_kernel_isa"),
            # The build type of the timed statleak code, stamped by the
            # bench via AddCustomContext (see build_type_of()).
            "build_type": context.get("statleak_build_type"),
        },
        "circuits": circuits,
    }


def distill_estimators(raw: dict) -> dict:
    """Reduce bench_estimator_variance output to variance-reduction factors.

    Output shape:
        circuits.<circuit>.<metric>.plain = {mean, variance}
        circuits.<circuit>.<metric>.<estimator> =
            {mean, variance, variance_reduction[, ess_mean]}
    """
    if raw.get("bench") != "estimator_variance":
        raise ValueError("input is not bench_estimator_variance output")

    baseline: dict[tuple[str, str], float] = {}
    for entry in raw.get("results", []):
        if entry["estimator"] == "plain":
            baseline[(entry["circuit"], entry["metric"])] = entry["variance"]

    circuits: dict[str, dict] = {}
    for entry in raw.get("results", []):
        circuit, metric = entry["circuit"], entry["metric"]
        record = {
            "mean": entry["mean"],
            "variance": entry["variance"],
        }
        if entry["estimator"] != "plain":
            key = (circuit, metric)
            if key not in baseline:
                raise ValueError(
                    f"no plain baseline for {circuit}/{metric}")
            if entry["variance"] > 0:
                record["variance_reduction"] = round(
                    baseline[key] / entry["variance"], 2)
            else:
                record["variance_reduction"] = float("inf")
            # ESS only means something for weighted (importance-sampled)
            # estimators; QMC/CV runs keep every weight at 1.
            if entry.get("ess_mean", 0) and \
                    entry["ess_mean"] != raw.get("samples_per_run"):
                record["ess_mean"] = round(entry["ess_mean"], 1)
        circuits.setdefault(circuit, {}).setdefault(
            metric, {})[entry["estimator"]] = record

    return {
        "schema_version": 1,
        "generated_by": "tools/bench_to_json.py --estimators",
        "benchmark": "bench_estimator_variance",
        "replications": raw.get("replications"),
        "samples_per_run": raw.get("samples_per_run"),
        "note": ("variance_reduction = var(plain) / var(estimator) across "
                 "replications = sample-count reduction at equal variance"),
        "circuits": circuits,
    }


def checkout_commit() -> str:
    """`git describe --always --dirty` of the tool's checkout, or "unknown"."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def distill_opt(raw: dict) -> dict:
    """Reduce bench_opt_throughput output to per-circuit flat-engine entries.

    Output shape:
        circuits.<circuit>.flat = {seconds, iterations, commits,
                                   moves_per_second}
    """
    if raw.get("bench") != "opt_throughput":
        raise ValueError("input is not bench_opt_throughput output")

    circuits = {
        entry["circuit"]: {"flat": {
            "num_cells": entry["num_cells"],
            "seconds": round(entry["seconds"], 4),
            "iterations": entry["iterations"],
            "commits": entry["commits"],
            "moves_per_second": round(entry["moves_per_second"], 1),
        }}
        for entry in raw.get("results", [])
    }
    return {
        "schema_version": 1,
        "generated_by": "tools/bench_to_json.py --opt",
        "benchmark": "bench_opt_throughput",
        "unit": ("statistical-optimizer wall seconds and loop iterations "
                 "per second, single thread, min over back-to-back "
                 "repetitions"),
        "host": {
            "cpu_model": raw.get("cpu_model", "unknown"),
            "vcpus": raw.get("vcpus"),
            "build_type": raw.get("build_type"),
            "commit": checkout_commit(),
        },
        "threads": raw.get("threads"),
        "note": ("the benchmark asserts the c880p trajectory (482 "
                 "iterations, 416 commits) before reporting any timing"),
        "circuits": circuits,
    }


def build_type_of(raw: dict) -> str | None:
    """Best-effort build-type marker of a raw benchmark document.

    Preference order: the document's own "build_type" (our JSON benches),
    then the custom "statleak_build_type" context key (google-benchmark
    benches stamp the build type of the TIMED code there), and only then
    google-benchmark's "library_build_type" — which describes the harness
    library, not the code under test (the distro package reports "debug"
    even under a Release build of statleak).
    """
    context = raw.get("context", {})
    for marker in (raw.get("build_type"),
                   context.get("statleak_build_type"),
                   context.get("library_build_type")):
        if isinstance(marker, str):
            return marker
    return None


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("input", nargs="?", default="-",
                        help="raw benchmark JSON file (default: stdin)")
    parser.add_argument("-o", "--output", default="-",
                        help="output path (default: stdout)")
    parser.add_argument("--estimators", action="store_true",
                        help="input is bench_estimator_variance JSON; emit "
                             "variance-reduction factors")
    parser.add_argument("--opt", action="store_true",
                        help="input is bench_opt_throughput JSON; emit "
                             "per-circuit optimizer throughput")
    parser.add_argument("--allow-debug", action="store_true",
                        help="accept timing input from a debug build "
                             "(refused by default: debug timings are not "
                             "comparable perf artifacts)")
    args = parser.parse_args(argv)

    if args.input == "-":
        raw = json.load(sys.stdin)
    else:
        with open(args.input) as f:
            raw = json.load(f)

    build = build_type_of(raw)
    if build is not None and "debug" in build.lower() and \
            not args.allow_debug:
        print("bench_to_json: input was produced by a debug build "
              f"(build type {build!r}); timing artifacts must come from a "
              "Release build. Pass --allow-debug to override.",
              file=sys.stderr)
        return 1

    if args.estimators:
        try:
            result = distill_estimators(raw)
        except ValueError as err:
            print(f"bench_to_json: {err}", file=sys.stderr)
            return 1
    elif args.opt:
        try:
            result = distill_opt(raw)
        except ValueError as err:
            print(f"bench_to_json: {err}", file=sys.stderr)
            return 1
    else:
        result = distill(raw)
        if not result["circuits"]:
            print("bench_to_json: no BM_MonteCarloBatched entries in input",
                  file=sys.stderr)
            return 1

    text = json.dumps(result, indent=2) + "\n"
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w") as f:
            f.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
