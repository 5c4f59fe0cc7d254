"""kgrec benchmark: one workload per run, printed as one JSON line.

    python3 perfbench/run.py --workload train_large --seed 7 --seconds 35 --trace 0

`--trace 0` times the workload untraced and prints the end-to-end metrics.
`--trace 1` runs a fixed plan twice, untraced and then traced, and prints
the per-layer metrics from the spans plus the tracing overhead. `--smoke`
shrinks every input so all code paths run in seconds. `--workload all`
runs every workload, each in its own process. Metric names and units come
from BENCHMARK.json next to this directory; perfbench/README.md lists what
each one means and which layer should move it.

The run reads the library from `src/` of the same checkout and writes only
under `perfbench/_out/`. Generated inputs depend only on (workload, seed).
"""

import os

# One BLAS/OpenMP thread, set before numpy loads, as `kgrec --deterministic` does.
THREAD_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_ENV_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
WORKLOADS = ("train_large", "eval_large", "fusion_toy")
DEFAULT_SEED = 7
HELD_OUT_SEED = 1009  # for checking a claim on a seed its author did not tune on
GATE_METRIC = "recall_at_20"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs; checks the code paths only")
    p.add_argument("--generate", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def load_metric_table():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ([(m["name"], m["unit"]) for m in spec["end_to_end"]],
            [(m["name"], m["unit"]) for m in spec["per_layer"]])


# --- provenance --------------------------------------------------------------


def _git(*args):
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(workload, seed, bundle):
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted((SRC / "kgrec").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    revision = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no") if revision else None
    store, graph = bundle.store, bundle.graph
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "thread_env": {var: os.environ.get(var) for var in THREAD_ENV_VARS},
        "git_revision": revision,
        "git_dirty": None if status is None else bool(status),
        "source_sha256": digest.hexdigest(),
        "dataset": {
            "users": store.num_users,
            "items": store.num_items,
            "entities": graph.num_entities,
            "edges": graph.num_edges,
            "train_interactions": int(sum(len(v) for v in store.train)),
        },
    }


# --- metrics -----------------------------------------------------------------


RATE_PERCENTILE = 90


def end_to_end_values(rec):
    """setup_s is the median set-up time. A rate is the 90th percentile of
    the per-call rates: calls are spread over the whole run, and other
    tenants of the machine slow some of them by up to half, so the upper
    tail repeats from run to run where the median does not."""
    import numpy as np

    values = {}
    for name, pairs in rec.samples.items():
        if name == "setup_s":
            values[name] = statistics.median(s for _, s in pairs)
        elif pairs:
            values[name] = float(np.percentile([u / s for u, s in pairs], RATE_PERCENTILE))
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return values


def per_layer_values(names, tracer, untraced, traced):
    import numpy as np

    from spans import HARNESS_LAYER, LAYERS, layer_metrics

    lm = layer_metrics(tracer)
    counters = tracer.counters
    values = {}
    for name in names:
        head, _, tail = name.rpartition(".")
        if head == "overhead":
            base = tail
            values[name] = (traced.get(base, 0.0) - untraced.get(base, 0.0)) if base in traced else 0.0
        elif head in LAYERS and tail in ("busy_s", "self_s", "calls"):
            table = {"busy_s": lm["layer_busy"], "self_s": lm["layer_self"], "calls": lm["layer_calls"]}[tail]
            values[name] = table.get(head, 0)
        elif name == "trace.wall_s":
            values[name] = lm["wall"]
        elif name == "trace.unexplained_s":
            values[name] = lm["unexplained"]
        elif name == "trace.harness_s":
            values[name] = lm["layer_self"].get(HARNESS_LAYER, 0.0)
        elif name == "trace.spans":
            values[name] = len(tracer.spans)
        elif name == "trace.missing_wrappers":
            values[name] = len(tracer.missing)
        elif name == "sampling.accept_ratio":
            draws = counters.get("sampling.table_draws", 0.0)
            values[name] = counters.get("sampling.negatives", 0.0) / draws if draws else 0.0
        elif tail in ("p50_us", "p99_us"):
            durations = lm["durations"].get(head, [])
            q = 50 if tail == "p50_us" else 99
            values[name] = float(np.percentile(durations, q)) * 1e6 if durations else 0.0
        elif name in COUNTER_METRICS:
            values[name] = counters.get(name, 0.0)
        elif tail == "s":
            values[name] = lm["total"].get(head, 0.0)
        elif tail == "self_s":
            values[name] = lm["self"].get(head, 0.0)
        elif tail == "calls":
            values[name] = lm["calls"].get(head, 0)
        else:
            raise ValueError(f"no rule computes per-layer metric {name!r}")
    return values, lm


COUNTER_METRICS = {
    "sampling.negatives", "sampling.table_draws", "model.conv_layer.edges", "model.checkpoint_bytes",
    "optim.adam_step.scalars", "content.bytes_written", "content.bytes_read",
}


# --- one workload ------------------------------------------------------------


def traced_pass(workloads, args, in_dir, work_dir, sizes, plan, untraced, layer_table):
    """The plan again with every wrapper installed. Returns the recorder,
    the per-layer values and report lines; span-level problems are added
    to the recorder."""
    from spans import Tracer, split_share

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.root():
            rec, _ = workloads.run(args.workload, in_dir, work_dir, args.seed, sizes, plan, tracer)
    finally:
        tracer.uninstall()
    for problem in tracer.problems:
        rec.fail("sample_negatives", problem)
    values, lm = per_layer_values([n for n, _ in layer_table], tracer, untraced, end_to_end_values(rec))
    self_total = lm["unexplained"] + sum(lm["layer_self"].values())
    rec.check("span accounting", [] if abs(self_total - lm["wall"]) <= 1e-6 * max(1.0, lm["wall"]) else
              [f"span self times add up to {self_total!r}, traced wall is {lm['wall']!r}"])
    tracer.write_spans(OUT / f"{args.workload}-seed{args.seed}{'-smoke' if args.smoke else ''}.spans.jsonl")

    total = lm["total"]
    test_s, rank_s = split_share(tracer, "test", "evaluation.evaluate", "evaluation.rank_items")
    lines = []
    for label, part, whole in (
        ("(model.forward.s + model.backward.s) / training.train.s",
         total.get("model.forward", 0.0) + total.get("model.backward", 0.0), total.get("training.train", 0.0)),
        ("evaluation.rank_items.s / evaluation.evaluate.s on test", rank_s, test_s),
        ("optim.adam_step.content.s / content.train_content.s",
         total.get("optim.adam_step.content", 0.0), total.get("content.train_content", 0.0)),
    ):
        lines.append(f"share {label} " + (f"{part / whole:.3f}" if whole else "n/a"))
    if tracer.missing:
        lines.append("missing wrappers (renamed or deleted): " + ", ".join(tracer.missing))
    return rec, values, lines


def run_workload(args):
    sys.path.insert(0, str(SRC))
    import workloads

    e2e_table, layer_table = load_metric_table()
    sizes = workloads.SMOKE_SIZES if args.smoke else workloads.Sizes()
    seconds = 1.0 if args.smoke else args.seconds
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}{'-smoke' if args.smoke else ''}"
    scratch = Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=OUT))
    in_dir, work_dir = scratch / "input", scratch / "work"
    work_dir.mkdir()
    try:
        # the generator runs in its own process, so its peak memory is not ours
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--generate", str(in_dir)] + (["--smoke"] if args.smoke else [])
        subprocess.run(cmd, check=True, timeout=600)

        plan = workloads.plan_for(args.workload, seconds, traced=bool(args.trace))
        rec, bundle = workloads.run(args.workload, in_dir, work_dir, args.seed, sizes, plan)
        values, table, lines = end_to_end_values(rec), e2e_table, []
        attempted, failed, problems = rec.attempted, rec.failed, list(rec.problems)
        if args.trace:
            traced, values, lines = traced_pass(workloads, args, in_dir, work_dir, sizes, plan, values, layer_table)
            table = layer_table
            attempted += traced.attempted
            failed += traced.failed
            problems += traced.problems
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    prov = provenance(args.workload, args.seed, bundle)
    missing = [name for name, _ in table if name not in values]
    if missing:
        problems.append("no sample for " + ", ".join(missing))
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in table}
    result = {"correct": failed == 0 and attempted > 0 and not missing, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    lines.append("provenance " + json.dumps(prov, sort_keys=True))
    for name, unit in table:
        n = 0 if args.trace else len(rec.samples.get(name, []))
        lines.append(f"metric {name} {metrics[name]['value']!r} {unit}" + (f" ({n} calls)" if n else ""))
    if GATE_METRIC in rec.info:
        lines.append(f"check {GATE_METRIC} {rec.info[GATE_METRIC]!r} (test split, fused model)")
    lines.append("wait time: not measured; one caller drives the library in a closed loop on one thread, "
                 "so no layer waits for another")
    lines.extend(f"failed: {p}" for p in problems)
    (OUT / f"{tag}-trace{args.trace}.json").write_text(
        json.dumps({"provenance": prov, "result": result, "problems": problems, "info": rec.info,
                    "samples": rec.samples}, indent=1),
        encoding="utf-8")
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


def run_all(args):
    """Every workload in its own process, one after another."""
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        print(f"== {workload}")
        print(done.stdout, end="")
        sys.stderr.write(done.stderr)
        last = done.stdout.strip().splitlines()[-1:] if done.returncode == 0 else []
        if not last or not json.loads(last[0])["correct"]:
            status = 1
    return status


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "kgrec" / "__init__.py").is_file():
        print(f"error: no kgrec sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.generate:
        sys.path.insert(0, str(SRC))
        import workloads

        workloads.generate(args.workload, args.seed, args.smoke, Path(args.generate))
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
