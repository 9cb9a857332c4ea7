"""Benchmark of the spherepd CLI, end to end and per module.

Run from the repository root:

    python3 bench/run.py --workload psd-sweep --seed 1 --seconds 25 --trace 0

One process, one thread, one client in a closed loop: the op list of the
workload is run in whole passes through `spherepd.cli.main(argv)` until
`--seconds` have passed, with stdout captured.  After the timed phase
every op's printed report is checked by `oracles.py` and repeated ops
must print the same report.  Each op's time is the median of its wall
times over the passes.  The last stdout line is one JSON object:
with `--trace 0` the end-to-end metrics, with `--trace 1` the per-layer
metrics from wrapped spherepd functions.  See README.md.
"""

import os

# one BLAS/OpenMP thread, pinned before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
MODULES = ("cli", "codebounds", "constraints", "gegenbauer", "randgen",
           "serialize", "simplex", "spherical", "symlin")
SETUP_REPEATS = 5
# highest whole percentile with at least ten ops beyond it in the shortest
# expected run of the workload (README.md lists the op counts)
TAIL_PERCENTILE = {"psd-sweep": 90, "integrals": 75, "bounds": 99, "hierarchy": 99}

END_TO_END = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
    "bound_rel_excess": "ratio",
}
PER_LAYER = {
    "cli.main.calls": "count",
    "cli.main.busy_s": "s",
    "cli.RunReport.to_json.self_s": "s",
    "spherical.sample_sphere.self_s": "s",
    "spherical.kernel_values.calls": "count",
    "spherical.kernel_values.self_s": "s",
    "gegenbauer.orthogonality_quad.calls": "count",
    "gegenbauer.orthogonality_quad.self_s": "s",
    "gegenbauer.orthogonality_mc.self_s": "s",
    "gegenbauer.addition_residual.self_s": "s",
    "gegenbauer.addition_coefficients.calls": "count",
    "gegenbauer.addition_coefficients.self_s": "s",
    "gegenbauer.eval_1d.self_s": "s",
    "symlin.is_psd.calls": "count",
    "symlin.is_psd.self_s": "s",
    "symlin.psd_rank.self_s": "s",
    "symlin.realize.self_s": "s",
    "constraints.lambda_member.calls": "count",
    "constraints.lambda_member.self_s": "s",
    "constraints.delta_member.self_s": "s",
    "constraints.reconstruct.self_s": "s",
    "simplex.solve_lp.calls": "count",
    "simplex.solve_lp.self_s": "s",
    "simplex.solve_lp.iterations": "count",
    "codebounds.delsarte_lp.self_s": "s",
    "codebounds.poly_max_on_interval.self_s": "s",
    "codebounds.verify_nonpositive.self_s": "s",
    "codebounds.delsarte_bound.self_s": "s",
    "codebounds.theorem61_bound.self_s": "s",
    "codebounds.theorem61_bound.scanned": "count",
    "codebounds.greedy_code.self_s": "s",
    "serialize.pair_from_json.self_s": "s",
}


def import_program():
    """spherepd from this checkout's src/, never from anywhere else."""
    if not (SRC / "spherepd" / "__init__.py").is_file():
        sys.exit(f"error: no spherepd sources under {SRC}")
    sys.path.insert(0, str(SRC))
    spherepd = importlib.import_module("spherepd")
    importlib.import_module("spherepd.cli")
    if Path(spherepd.__file__).resolve().parent != SRC / "spherepd":
        sys.exit(f"error: spherepd was imported from {spherepd.__file__}")
    return spherepd


def import_seconds() -> float:
    """Median wall time for a fresh interpreter to start and import the CLI."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import spherepd.cli"], cwd=ROOT, env=env,
                       check=True)
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def run_op(cli, argv) -> tuple:
    """(exit code or None if it raised, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.main(argv)
        except Exception:  # an op that crashes is a failed op, not a failed run
            return None, traceback.format_exc()
    return rc, buf.getvalue()


def clear_caches(spherepd) -> None:
    for short in MODULES:
        for value in vars(getattr(spherepd, short)).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def timed_phase(cli, ops, seconds: float, tracer) -> tuple[list, float]:
    """Whole passes over ops until `seconds` have passed."""
    records = []  # (op index, exit code, stdout, seconds)
    gc.collect()
    start = time.perf_counter()
    while True:
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id = len(records)
            t = time.perf_counter()
            rc, text = run_op(cli, op.argv)
            records.append((i, rc, text, time.perf_counter() - t))
        if time.perf_counter() - start >= seconds:
            return records, time.perf_counter() - start


def verify(records, ops, spherepd, known_failing) -> tuple[int, list]:
    """Failed op count and unexpected failures.  The first run of each op
    is checked by its oracle; every repeat must print the same report."""
    import oracles

    first = {}
    failed = 0
    unexpected = []
    for i, rc, text, _ in records:
        if i not in first:
            problems = (oracles.check(ops[i], rc, text, spherepd) if rc is not None
                        else [text.strip().splitlines()[-1]])
            first[i] = (rc, oracles.normalized(text), problems)
            if problems:
                print(f"FAIL {ops[i].label}: {len(problems)} problem(s); {problems[0]}")
        rc0, text0, problems = first[i]
        if problems or rc != rc0 or oracles.normalized(text) != text0:
            failed += 1
            if tuple(ops[i].argv) != known_failing and ops[i] not in unexpected:
                unexpected.append(ops[i])
    return failed, unexpected


def bound_rel_excess(workload, records, ops, cli, spherepd, workloads) -> tuple[float, list]:
    """Largest (bound - optimum) / optimum over the LP ops at theta = pi/3
    with n = 8 and 24, and the problems found in the ops it came from.
    Outside `bounds` the same two ops run once after the timed phase;
    they are checked but not counted as attempted."""
    import oracles

    if workload == "bounds":
        # checked with the rest of the workload
        outputs = [next((op, rc, text) for i, rc, text, _ in records if ops[i] is op)
                   for op in workloads.excess_ops(ops)]
        problems = []
    else:
        outputs = [(op, *run_op(cli, op.argv)) for op in workloads.excess_probe(WORKDIR / workload)]
        problems = [p for op, rc, text in outputs for p in oracles.check(op, rc, text, spherepd)]

    def excess(op, text) -> float:
        optimum = workloads.known_optimum(op.meta["n"], op.meta["theta"])
        return (oracles.parse(text)[0] - optimum) / optimum

    return max(excess(op, text) for op, _, text in outputs), problems


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spherepd = import_program()
    cli = spherepd.cli
    import_s = import_seconds()
    WORKDIR.mkdir(exist_ok=True)
    workdir = WORKDIR / args.workload
    workdir.mkdir(exist_ok=True)

    def quiet_main(op_argv):
        rc, text = run_op(cli, op_argv)
        if rc is None:
            sys.exit(f"error: warm-up op {' '.join(op_argv)} raised:\n{text}")

    setups = []
    for _ in range(SETUP_REPEATS):
        clear_caches(spherepd)
        t = time.perf_counter()
        ops = workloads.WORKLOADS[args.workload](args.seed, workdir)
        workloads.warm_up(args.workload, quiet_main, ops, spherepd, workdir)
        setups.append(time.perf_counter() - t)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(spherepd, MODULES)
    records, wall = timed_phase(cli, ops, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.op_id = -1
        layer_values = {key: tracer.metric(key) for key in PER_LAYER}
        tracer.write(WORKDIR / f"trace-{args.workload}.npz")

    failed, unexpected = verify(records, ops, spherepd, workloads.KNOWN_FAILING)
    excess, probe_problems = bound_rel_excess(
        args.workload, records, ops, cli, spherepd, workloads)
    for problem in probe_problems:
        print(f"FAIL bound_rel_excess probe: {problem}")

    attempted = len(records)
    # an op's time is the median of its wall times over the run's passes
    op_time = {i: statistics.median(r[3] for r in records if r[0] == i)
               for i in range(len(ops))}
    for i in sorted(op_time, key=op_time.get):
        print(f"  {op_time[i] * 1e3:10.3f} ms  {ops[i].label}")
    times = [op_time[r[0]] for r in records]
    throughput = len(ops) / sum(op_time.values())
    print(f"set-up: imports {import_s:.4f} s, repetitions " + " ".join(f"{t:.4f}" for t in setups))
    print(f"{args.workload}: {attempted // len(ops)} passes of {len(ops)} ops, "
          f"{attempted} ops in {wall:.3f} s, {failed} failed "
          f"({len(unexpected)} unexpected op(s)); "
          f"{'traced' if tracer else 'untraced'} throughput {throughput:.6g} ops/s "
          f"({attempted / wall:.6g} ops/s over the whole timed phase)")
    if tracer is not None:
        values = layer_values
        units = PER_LAYER
    else:
        values = {
            "setup_s": import_s + statistics.median(setups),
            "throughput_ops_s": throughput,
            "op_p50_s": statistics.median(times),
            "op_tail_s": float(np.percentile(times, TAIL_PERCENTILE[args.workload])),
            "peak_rss_mb": peak_rss_mb,
            "bound_rel_excess": excess,
        }
        units = END_TO_END
    result = {
        "correct": not unexpected and not probe_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
