#!/usr/bin/env python3
"""arousalkit benchmark.

    python3 perfbench/run.py --workload demo-train --seed 1 --seconds 20 --trace 0

Runs one workload (see ``workloads.py`` and ``README.md``) in this process
and a fresh work directory under ``.perfbench/`` of the checkout. With
``--trace 0`` the last stdout line holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run; the line before it is
a report with sample counts, digests and the environment, also written to
``.perfbench/out/<workload>-seed<n>-trace<t>/``.

End-to-end timings are seconds at a reference host speed: every timed
interval is corrected by the host-speed samples ``speedprobe.py`` takes
while it runs. The report keeps the uncorrected wall times beside them.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from speedprobe import SpeedSampler  # noqa: E402
from tracing import STAGES, Tracer, layer_metrics  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: end-to-end timings as sets of stage labels. Each episode kind that ran
#: any of the stages (set-up, upstream, round) is reduced to the median of
#: its episodes, and the medians are added.
STAGE_METRICS = {
    "pipeline_s": STAGES,
    "sheet_ready_s": STAGES[:STAGES.index("sheet") + 1],
    "tables_ready_s": STAGES[STAGES.index("ratings"):],
    "rescore_s": ("score", "evaluate", "score_b", "evaluate_b"),
}
ALL_STAGES = STAGES + ("score_b", "evaluate_b")
PERCENTILES = (99, 95, 90, 75, 50)


def pin_blas_threads() -> dict:
    """Cap the BLAS pools at the usable cores before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    pinned = {}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))
        pinned[var] = int(os.environ[var])
    return {"nproc": nproc, "cpu_count": os.cpu_count(), **pinned}


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_record() -> dict:
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"src_lines": lines, "src_files": len(files), "src_sha256": digest.hexdigest()[:16]}


def speed_probe_ms(reps: int = 7) -> float:
    """Median of a fixed pure-Python loop: shows machine-speed drift."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        table: dict[int, int] = {}
        for i in range(200_000):
            key = i & 1023
            table[key] = table.get(key, 0) + i
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def summary(values: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    out = {"n": len(values), "median": statistics.median(values) if values else None,
           "samples": values}
    for pct in PERCENTILES:
        if len(values) * (100 - pct) / 100 >= 10:
            cuts = statistics.quantiles(values, n=100, method="inclusive")
            out[f"p{pct}"] = cuts[pct - 1]
            break
    return out


def stage_metric(episodes, labels, traced=False) -> tuple[float, dict]:
    value = 0.0
    samples = {}
    for kind in dict.fromkeys(e.kind for e in episodes):
        sums = [sum(e.stages.get(label, 0.0) for label in labels)
                for e in episodes
                if e.kind == kind and e.complete and e.traced == traced
                and any(label in e.stages for label in labels)]
        if sums:
            value += statistics.median(sums)
            samples[kind] = summary(sums)
    if not samples:
        raise statistics.StatisticsError(f"no complete episode ran {labels}")
    return value, samples


def end_to_end(session, import_s: float) -> tuple[dict, dict]:
    metrics, detail = {}, {}
    for name, labels in STAGE_METRICS.items():
        metrics[name], detail[name] = stage_metric(session.episodes, labels)
    setups = [e.wall for e in session.episodes if e.kind == "setup" and e.complete]
    metrics["setup_s"] = import_s + statistics.median(setups)
    detail["setup_s"] = {
        "import_s": import_s, "setup": summary(setups),
        "raw_setup": [e.raw_wall for e in session.episodes
                      if e.kind == "setup" and e.complete]}
    if session.peak_rss_mb is None:
        raise statistics.StatisticsError("the first timed unit did not complete")
    metrics["peak_rss_mb"] = session.peak_rss_mb
    metrics["ok_ops_ratio"] = (session.attempted - session.failed) / session.attempted
    return metrics, detail


def per_layer(session, tracer, sampler, env: dict) -> tuple[dict, dict]:
    totals: dict[str, float] = {}
    for kind in dict.fromkeys(e.kind for e in session.episodes):
        labels = [e.label for e in session.episodes
                  if e.kind == kind and e.traced and e.complete]
        if not labels:
            continue
        per_episode = [tracer.episode_totals(label) for label in labels]
        for key in per_episode[0]:
            totals[key] = totals.get(key, 0.0) + statistics.median(
                [t[key] for t in per_episode])
    metrics = layer_metrics(totals)

    timed = [e for e in session.episodes if e.kind != "setup"]
    untraced, untraced_detail = stage_metric(timed, ALL_STAGES, traced=False)
    traced, traced_detail = stage_metric(timed, ALL_STAGES, traced=True)
    metrics["trace.overhead_pct"] = 100 * (traced / untraced - 1)
    metrics["setup.generate_s"] = statistics.median(
        [e.generate_s for e in session.episodes if e.kind == "setup"])
    metrics["env.speed_probe_ms"] = env["speed_probe_ms"]
    metrics["env.slowdown"] = sampler.slowdown(T0, time.perf_counter())
    metrics["env.src_lines"] = env["src_lines"]
    detail = {
        "timed_untraced_s": untraced_detail,
        "timed_traced_s": traced_detail,
        "knn_query_s": summary(tracer.durations("embedding.nearest_neighbors")),
        "spans": len(tracer.spans),
        "absent": tracer.absent,
        "count_errors": tracer.count_errors,
    }
    return metrics, detail


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    env = pin_blas_threads()
    # numpy is first imported here, after the BLAS pools are pinned
    sampler = SpeedSampler()
    sampler.start()
    try:
        return run(args, parser, env, sampler)
    finally:
        sampler.stop()


def run(args, parser, env: dict, sampler: SpeedSampler) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if not (SRC / "arousalkit" / "__init__.py").is_file():
        print(f"perfbench: no arousalkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    import workloads
    import_end = time.perf_counter()

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    env.update(source_record(), git_sha=git_sha(), python=platform.python_version(),
               numpy=numpy.__version__, scipy=scipy.__version__,
               machine=platform.machine(), speed_probe_ms=speed_probe_ms())

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_root = ROOT / ".perfbench" / "work" / f"{tag}-{os.getpid()}"
    out_dir = ROOT / ".perfbench" / "out" / tag
    shutil.rmtree(work_root, ignore_errors=True)
    tracer = Tracer() if args.trace else None
    session = workloads.Session(workloads.WORKLOADS[args.workload], args.seed,
                                work_root, tracer)
    try:
        workloads.run_workload(session, args.seconds, traced=bool(args.trace))
    except workloads.StageFailed:
        pass
    finally:
        sampler.stop()
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work_root, ignore_errors=True)
    for episode in session.episodes:
        if episode.complete:
            episode.normalise(sampler)
    import_s = sampler.normalise(T0, import_end)
    env["sampler"] = sampler.summary()

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        if args.trace:
            values, detail = per_layer(session, tracer, sampler, env)
            tracer.write(out_dir)
        else:
            values, detail = end_to_end(session, import_s)
    except (statistics.StatisticsError, ZeroDivisionError) as exc:
        print(f"perfbench: no complete sample to report ({exc})", file=sys.stderr)
        return 1
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        print(f"perfbench: metrics not produced: {missing}", file=sys.stderr)
        return 1

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "detail": detail,
        "digests": session.digests, "failures": session.failures,
        "episodes": [{"label": e.label, "traced": e.traced, "complete": e.complete,
                      "wall": e.wall, "raw_wall": e.raw_wall, "generate_s": e.generate_s,
                      "stages": e.stages, "raw_stages": e.raw_stages}
                     for e in session.episodes],
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(json.dumps(report, indent=2) + "\n",
                                         encoding="utf-8")
    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
