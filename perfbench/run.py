"""End-to-end benchmark of the xmlad detector: fit, detect and evaluate.

    python3 perfbench/run.py --workload {fit,detect,evaluate} --seed N \
        --seconds S --trace {0,1}
    python3 perfbench/run.py --smoke

Run from the repository root; the program is imported from ./src.  One run
prepares seeded inputs in a child process, samples set-up time in fresh
child interpreters (one at a time), runs whole rounds of the workload for S
seconds in this process, checks the outputs, writes a JSON record under
perfbench/out/records/ and prints one JSON result as its last stdout line.
Every time it reports is scaled to a reference speed by a kernel timed
alongside (speed.py); the record keeps the times as measured too.
With --trace 1 the untraced phase lasts S/2 seconds, the same rounds then
run again with every layer traced, and the result holds the per-layer
metrics instead of the end-to-end ones.  ``--smoke`` runs all three
workloads at small sizes, traced, in seconds.  BENCHMARK.json lists detect
and evaluate; fit stays here for measuring training by hand.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PROBE_GAUGE_S = 0.3  # gauge sample before, between and after the probes

E2E_UNITS = {"setup_s": "s", "docs_per_s": "1/s", "latency_p50_ms": "ms",
             "latency_p90_ms": "ms", "peak_rss_mb": "MB", "auc": "ratio"}


def child_env():
    paths = [str(SRC)] + ([os.environ["PYTHONPATH"]]
                          if os.environ.get("PYTHONPATH") else [])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


def prepare(workload, seed, work, size):
    subprocess.run([sys.executable, str(HERE / "inputs.py"), workload,
                    str(seed), str(work), size],
                   env=child_env(), stdout=subprocess.DEVNULL, check=True)
    return json.loads((work / "inputs.json").read_text(encoding="utf-8"))


def probe(workload, work):
    """Process start to ready, in seconds, and the probe's own breakdown."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "probe.py"), workload,
                           str(work)], env=child_env(),
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        proc.communicate()
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"set-up probe exited {proc.returncode}")
    return {"ready_s": ready, **json.loads(line)}


def machine_info():
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def latency_ms(latencies, rounds, q):
    """The q-th percentile of operation latency, in ms.

    With several operations a round (detect), the percentile of each round
    is averaged over the rounds.  The machine's speed changes in episodes
    of seconds, and a percentile over the whole run jumps from one speed to
    the other as the share of the run spent in either crosses 1 - q/100;
    the mean over rounds moves in proportion to that share instead.  With
    one operation a round (fit, evaluate), it is the percentile over the
    rounds."""
    lat = np.asarray(latencies).reshape(rounds, -1) * 1e3
    if lat.shape[1] == 1:
        return float(np.percentile(lat, q))
    return float(np.percentile(lat, q, axis=1).mean())


def end_to_end(setup, rate, latencies, rounds, peak_rss_mb, auc):
    """Every end-to-end metric; times and rates are at reference speed."""
    values = {
        "setup_s": setup,
        "docs_per_s": rate,
        "latency_p50_ms": latency_ms(latencies, rounds, 50),
        "latency_p90_ms": latency_ms(latencies, rounds, 90),
        "peak_rss_mb": peak_rss_mb,
        "auc": auc,
    }
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}


# spans reported as time per root span ("<span>_s") and per call ("<span>_us")
PER_ROOT_SPANS = (
    "cli.evaluate", "persist.loads", "flatten.from_csv", "adifa.train",
    "adifa.score_batch", "model_io.load_model",
    *(f"baselines.{a}_{f}" for a in ("pga", "gde", "lof")
      for f in ("train", "scores")),
    *(f"evaluate.cv_5x2.{t}" for t in ("adifa-gm", "pga", "gde", "lof")),
    "evaluate.roc_curve",
)
PER_CALL_SPANS = ("extract.extract_row", "flatten.flatten_row",
                  "adifa.classify")
# the ingest pipeline only `fit` runs; it is not in BENCHMARK.json, so these
# are reported on `fit` alone
FIT_ROOT_SPANS = (
    "cli.extract", "cli.flatten", "cli.train", "extract.build_feature_matrix",
    "persist.dumps", "flatten.build_dictionary", "flatten.flatten_matrix",
    "flatten.to_csv", "model_io.save_model",
)


def per_layer(workload, spans, scale, imports, untraced_rate, traced_rate):
    """Every per-layer metric, times at reference speed (`scale` is the
    traced phase's factor); a layer the workload never calls reads 0."""
    import tracing
    layers = tracing.layer_metrics(spans)
    root_spans = PER_ROOT_SPANS + (FIT_ROOT_SPANS if workload == "fit" else ())
    out = {f"{span}_s": (layers.get(span, {}).get("per_root_s", 0.0) * scale,
                         "s")
           for span in root_spans}
    out.update({f"{span}_us": (layers.get(span, {}).get("call_us", 0.0)
                               * scale, "us")
                for span in PER_CALL_SPANS})

    def counts(span, key):
        return [c[key] for c in layers.get(span, {}).get("counts", [])
                if key in c]

    def kind_bytes(kinds):
        found = [c["bytes"] for name in ("persist.dumps", "persist.loads")
                 for c in layers.get(name, {}).get("counts", [])
                 if c["kind"] in kinds]
        return max(found, default=0)

    per_round_evals = {}
    for s in spans:
        if s.name == "adifa.train" and s.counts:
            per_round_evals[s.root] = (per_round_evals.get(s.root, 0)
                                       + s.counts["kernel_evals"])
    out.update({
        "cli.import_s": (imports if workload != "detect" else 0.0, "s"),
        "persist.model_bytes": (kind_bytes({"adifa", "pga", "gde", "lof"}),
                                "bytes"),
        "adifa.train_peak_alloc_mb": (
            max(counts("adifa.train", "peak_alloc_bytes"), default=0) / 2**20,
            "MB"),
        "adifa.train_kernel_evals": (
            statistics.median(per_round_evals.values())
            if per_round_evals else 0, "count"),
        "adifa.score_batch_peak_alloc_mb": (
            max(counts("adifa.score_batch", "peak_alloc_bytes"), default=0)
            / 2**20, "MB"),
        "trace.overhead_pct": ((untraced_rate / traced_rate - 1.0) * 100.0,
                               "%"),
    })
    if workload == "fit":
        out["persist.fm_bytes"] = (kind_bytes({"fm"}), "bytes")
    return {k: {"value": v, "unit": u} for k, (v, u) in sorted(out.items())}


def run(workload, seed, seconds, traced, size):
    """One benchmark run; returns (result line, full record)."""
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        t0 = time.perf_counter()
        facts = prepare(workload, seed, work, size)
        prep_s = time.perf_counter() - t0
        import inputs
        import workloads
        n_probes = inputs.SIZES[size]["probes"]
        probe_gauge = speed.Gauge()
        probe_gauge.sample(PROBE_GAUGE_S)
        probes = []
        for _ in range(n_probes):
            probes.append(probe(workload, work))
            probe_gauge.sample(PROBE_GAUGE_S)
        setup_scale = probe_gauge.scale()
        setup = statistics.median(p["ready_s"] for p in probes) * setup_scale
        imports = statistics.median(p["import_s"] for p in probes) * setup_scale

        w = workloads.WORKLOADS[workload](work, seed, inputs.SIZES[size])
        w.ready()
        gauge = speed.Gauge()
        took = w.timed(gauge, seconds=seconds / 2 if traced else seconds)
        rounds = len(took)
        scale = gauge.scale()
        rate = rounds * w.docs_per_round / (sum(took) * scale)
        raw_latencies = list(w.latencies)
        latencies = [v * scale for v in raw_latencies]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        record_extra = {}
        if traced:
            import tracing
            tracer = tracing.Tracer()
            tracer.install()
            try:
                with tracer.span("setup"):
                    w.ready()
                traced_gauge = speed.Gauge()
                traced_took = w.timed(traced_gauge, rounds=rounds,
                                      span=tracer.span)
            finally:
                tracer.uninstall()
            traced_scale = traced_gauge.scale()
            traced_rate = rounds * w.docs_per_round / (sum(traced_took)
                                                       * traced_scale)
            layer = per_layer(workload, tracer.spans, traced_scale, imports,
                              rate, traced_rate)
            record_extra = {
                "per_layer": layer,
                "traced_round_s": traced_took,
                "traced_gauge_samples": traced_gauge.samples,
                "self_time_share": tracing.self_time_shares(tracer.spans),
                "spans": [[s.name, s.start, s.end, s.parent, s.counts]
                          for s in tracer.spans],
            }
        problems, auc = w.check()
        problems += w.unexpected
        metrics = end_to_end(setup, rate, latencies, rounds, peak_rss_mb, auc)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {"correct": not problems, "attempted": w.attempted,
              "failed": w.failed,
              "metrics": record_extra["per_layer"] if traced else metrics}
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(traced), "size": size, "machine": machine_info(),
              "inputs": facts, "prepare_s": prep_s, "rounds": rounds,
              "round_s": took, "latencies_s": raw_latencies,
              "gauge_nominal_s": speed.NOMINAL_S,
              "gauge_samples": gauge.samples,
              "setup_probes": probes,
              "setup_gauge_samples": probe_gauge.samples,
              "end_to_end": metrics, "attempted": w.attempted,
              "failed": w.failed, "problems": problems, **record_extra}
    return result, record


def write_record(record):
    records = OUT / "records"
    records.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = records / (f"{record['workload']}-seed{record['seed']}-"
                      f"trace{record['trace']}-{stamp}-{os.getpid()}.json")
    path.write_text(json.dumps(record), encoding="utf-8")
    return path


def smoke(seed):
    ok = True
    for workload in ("fit", "detect", "evaluate"):
        start = time.perf_counter()
        result, record = run(workload, seed, 0.0, True, "smoke")
        write_record(record)
        ok = ok and result["correct"]
        print(f"smoke {workload}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"in {time.perf_counter() - start:.1f}s", file=sys.stderr)
        for problem in record["problems"]:
            print(f"  {problem}", file=sys.stderr)
    print(json.dumps({"smoke": "pass" if ok else "fail"}))
    return 0 if ok else 1


def main(argv=None):
    # a terminated run still removes its work directory and waits for its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=["fit", "detect", "evaluate"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "xmlad" / "__init__.py").is_file():
        print(f"perfbench: no xmlad sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke(args.seed)
    if args.workload is None:
        parser.error("--workload is required")
    result, record = run(args.workload, args.seed, args.seconds,
                         bool(args.trace), "full")
    path = write_record(record)
    print(f"record: {path.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
