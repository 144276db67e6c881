"""graspscore benchmark: one seeded workload, timed end to end or traced.

Usage (from the repository root)::

    python3 perfbench/run.py --workload label-dense --seed 0 --seconds 20 --trace 0

Each operation is one in-process ``graspscore.cli.main`` call on files the
workload generated from ``--seed``. Operations repeat until ``--seconds``
have passed (whole cycles over the workload's inputs). Every output is
checked; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 1``
the metrics are the per-layer ones from a traced run, which alternates
untraced and traced operations. See perfbench/README.md.

graspscore is imported from this checkout's ``src`` directory, by absolute
path, so the benchmark needs no installed package.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DEFAULT_SEED = 0
# Input generation runs this many times per run; setup_s takes the median.
SETUP_REPEATS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "PYTHONHASHSEED")

# graspscore comes from this checkout's src/ and from nowhere else.
if not os.path.isfile(os.path.join(SRC, "graspscore", "__init__.py")):
    sys.exit(f"error: no graspscore sources under {SRC}")
sys.path.insert(0, SRC)
import graspscore  # noqa: E402
from graspscore import cli  # noqa: E402

if os.path.dirname(os.path.abspath(graspscore.__file__)) != os.path.join(SRC, "graspscore"):
    sys.exit(f"error: imported graspscore from {graspscore.__file__}, not from {SRC}")

import spans  # noqa: E402
import workloads  # noqa: E402


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": " ".join((os.uname().sysname, os.uname().release, os.uname().machine)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "graspscore": graspscore.__version__,
        "git_sha": _git_sha(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def _git_sha():
    """HEAD of the checkout, read from .git without running git; None outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.isfile(loose):
            with open(loose, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


class Runner:
    """Runs one workload's operations and checks their outputs."""

    def __init__(self, workload, seed, digests):
        self.workload = workload
        self.seed = seed
        self.digests = digests
        self.reference = {}     # op key -> sha256 of its first checked output
        self.failures = []

    def call(self, argv):
        """One in-process CLI call; returns (exit code, stdout)."""
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # noqa: BLE001 - an op that raises counts as failed
            traceback.print_exc(file=sys.stderr)
            rc = -1
        return rc, out.getvalue()

    def run_label(self, argv):
        rc, _ = self.call(argv)
        if rc != 0:
            raise RuntimeError(f"input generation: graspscore {' '.join(argv)} exited {rc}")

    def check(self, op, rc, stdout, traced):
        """Return None when the output is right, else the reason it is not."""
        if rc != 0:
            return f"exit code {rc}"
        if not os.path.isfile(op.output):
            return f"no output {op.output}"
        digest = workloads.sha256_file(op.output)
        ref = self.reference.get(op.key)
        if ref is not None:
            if digest != ref:
                kind = "traced" if traced else "untraced"
                return f"{op.key}: {kind} output bytes differ from the first run ({digest})"
            return None
        try:
            op.check(stdout, op.output)
        except workloads.CheckFailed as exc:
            return str(exc)
        if self.seed == DEFAULT_SEED:
            want = self.digests.get(self.workload.name, {}).get(op.key)
            if digest != want:
                return f"{op.key}: sha256 {digest} differs from the recorded {want}"
        self.reference[op.key] = digest
        return None


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    # graspscore logs one INFO line per label run; a root handler makes
    # cli.main's basicConfig a no-op, so those lines are dropped.
    logging.getLogger().addHandler(logging.NullHandler())
    with open(os.path.join(HERE, "digests.json"), encoding="ascii") as fh:
        digests = json.load(fh)
    import_s = time.perf_counter() - _T0

    runner = Runner(workload, args.seed, digests)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(HERE, "_work", f"{tag}-{os.getpid()}")
    results_dir = os.path.join(HERE, "_results")
    os.makedirs(results_dir, exist_ok=True)
    try:
        result = measure(args, runner, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment()
    print("# env " + json.dumps(env, sort_keys=True))
    for line in result["summary"]:
        print("# " + line)
    with open(os.path.join(results_dir, f"{tag}.json"), "w", encoding="ascii") as fh:
        json.dump({"args": vars(args), "env": env, **{k: v for k, v in result.items() if k != "spans"}},
                  fh, indent=1)
        fh.write("\n")
    if result["spans"] is not None:
        result["spans"].write(os.path.join(results_dir, f"{tag}.spans.jsonl"))
    print(json.dumps({
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


def measure(args, runner, workdir, import_s):
    """Set up, run and check the ops of one run; return metrics and records."""
    workload = runner.workload
    # Set-up: generate the inputs several times; all copies must be identical.
    gen_times, ops, first = [], None, None
    for rep in range(SETUP_REPEATS):
        d = os.path.join(workdir, f"inputs{rep}")
        t = time.perf_counter()
        rep_ops = workload.generate(d, args.seed, runner.run_label)
        gen_times.append(time.perf_counter() - t)
        tree = _tree_digest(d)
        if ops is None:
            ops, first = rep_ops, tree
        else:
            if tree != first:
                raise RuntimeError(f"inputs for seed {args.seed} differ between generations")
            shutil.rmtree(d)
    setup_s = import_s + statistics.median(gen_times)

    tracer = spans.Tracer(graspscore) if args.trace else None
    period = len(ops) * (2 if tracer else 1)
    records = []
    deadline = time.perf_counter() + args.seconds
    i = 0
    while True:
        op = ops[i % len(ops)]
        traced = tracer is not None and i % 2 == 1
        if os.path.exists(op.output):
            os.remove(op.output)
        # Start every op with the same collector state, so a full collection
        # left over from the previous op does not land in this one's time.
        gc.collect()
        with tracer.installed(i) if traced else contextlib.nullcontext():
            t = time.perf_counter()
            rc, stdout = runner.call(op.argv)
            dt = time.perf_counter() - t
        problem = runner.check(op, rc, stdout, traced)
        if problem:
            runner.failures.append(f"op {i} ({op.key}): {problem}")
        records.append({"op": i, "key": op.key, "traced": traced, "seconds": dt,
                        "items": op.items, "ok": problem is None})
        i += 1
        if i % period == 0 and time.perf_counter() >= deadline:
            break

    plain = [r for r in records if not r["traced"]]
    op_times = [r["seconds"] for r in plain]
    rates = [r["items"] / r["seconds"] for r in plain]
    op_s = statistics.median(op_times)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = sum(not r["ok"] for r in records)
    q1, q3 = _quartiles(op_times)
    summary = [
        f"workload {workload.name} seed {args.seed} trace {args.trace}: "
        f"{len(records)} ops, {failed} failed (failed_ratio {failed / len(records):.4f})",
        f"op_s median {op_s:.4f} (q1 {q1:.4f}, q3 {q3:.4f}, n={len(op_times)}); "
        f"items_per_s median {statistics.median(rates):.1f} (n={len(rates)}); "
        f"items per op {sorted({r['items'] for r in plain})}",
        f"setup_s {setup_s:.4f} = imports {import_s:.4f} + median generation "
        f"{statistics.median(gen_times):.4f} (n={len(gen_times)}); peak_rss_mb {peak_rss_mb:.1f}",
    ]
    summary += [f"FAILED {f}" for f in runner.failures[:20]]

    if tracer is None:
        metrics = {
            "items_per_s": {"value": statistics.median(rates), "unit": "items/s"},
            "op_s": {"value": op_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }
    else:
        metrics, lines = traced_metrics(tracer, records, op_s)
        summary += lines

    return {
        "attempted": len(records),
        "failed": failed,
        "failures": runner.failures,
        "metrics": metrics,
        "summary": summary,
        "ops": records,
        "setup": {"import_s": import_s, "generation_s": gen_times},
        "digests": runner.reference,
        "spans": tracer,
    }


def traced_metrics(tracer, records, op_s):
    traced = [r for r in records if r["traced"]]
    n = len(traced)
    traced_op_s = statistics.median(r["seconds"] for r in traced)
    counters = {}
    for per_op in tracer.counters.values():
        for k, v in per_op.items():
            counters[k] = counters.get(k, 0) + v
    layers = spans.layer_metrics(tracer.spans, counters, n)
    layers["trace.overhead_ratio"] = traced_op_s / op_s
    layers["trace.spans_per_op"] = len(tracer.spans) / n
    metrics = {k: {"value": v, "unit": spans.metric_unit(k)} for k, v in layers.items()}

    mean_traced = sum(r["seconds"] for r in traced) / n
    lines = [
        f"traced op_s median {traced_op_s:.4f} vs untraced {op_s:.4f}: "
        f"overhead ratio {traced_op_s / op_s:.4f} ({n} traced ops)",
        "self time per traced op (mean over traced ops):",
        *spans.self_time_table(tracer.spans, n, mean_traced).splitlines(),
        "stage shares of the mean traced op "
        f"({mean_traced:.4f} s): "
        f"raycast {layers['geometry.raycast_s'] / mean_traced:.1%}, "
        f"nms+collision {(layers['scene.nms_s'] + layers['scene.collision_s']) / mean_traced:.1%}, "
        f"score {layers['pipeline.score_s'] / mean_traced:.1%}, "
        f"write {layers['labels.write_s'] / mean_traced:.1%}, "
        f"read {layers['labels.read_s'] / mean_traced:.1%}",
    ]
    return metrics, lines


def _tree_digest(directory):
    out = {}
    for base, _, files in os.walk(directory):
        for name in files:
            path = os.path.join(base, name)
            out[os.path.relpath(path, directory)] = workloads.sha256_file(path)
    return out


if __name__ == "__main__":
    sys.exit(main())
