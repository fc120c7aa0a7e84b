"""ymrelax benchmark: one workload per invocation, one JSON line of results.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
its ``src`` directory, and the run stops with exit code 2 when that is
missing.  BLAS is pinned to one thread: the load is one process with
one compute thread.

With ``--trace 0`` the run makes one warm-up round (checked, not
timed), then repeats the workload's round until ``S`` seconds have
passed and at least MIN_ROUNDS rounds are made.  A round takes a few
seconds, so a run holds about a dozen.  ``wall_s``, ``solve_s`` and
``certify_s`` are medians over the timed rounds: the speed of a shared
host drifts by tens of percent from one second to the next, and a
median over many short rounds spread across the run follows it far
less than any one round.  ``setup_s`` is the median of several fresh
interpreters, each timing its imports and the problem or config build.

With ``--trace 1`` the run makes one untraced round and then two traced
rounds with the same seed.  It reports the per-layer metrics of
``BENCHMARK.json`` (times averaged over the two traced rounds), the unit
costs of ``Mat`` construction and energy evaluation, and the tracing
overhead against the untraced round.  Every count must repeat exactly
between the two traced rounds.

In both modes the outputs of every round and pass are checked, and
they must be byte-identical to the first round's (criterion 10).  The last
line of standard output is the result object; everything before it is
a readable summary.
"""

# pin BLAS before numpy is imported, here and in every child process
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")

sys.path.insert(0, HERE)
from workloads import GAP_FLOOR, WORKLOADS, Round  # noqa: E402

SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60
MIN_ROUNDS = 5


def _fail_setup(msg: str):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _use_checkout_source():
    if not os.path.isfile(os.path.join(SRC, "ymrelax", "__init__.py")):
        _fail_setup(f"no ymrelax package under {SRC}; run from the root of "
                    "a source checkout")
    sys.path.insert(0, SRC)


def _check_imported_from_checkout():
    mod = sys.modules.get("ymrelax")
    path = os.path.abspath(getattr(mod, "__file__", "") or "")
    if not path.startswith(os.path.join(SRC, "")):
        _fail_setup(f"ymrelax was imported from {path}, not from {SRC}")


# -- set-up time --------------------------------------------------------------


def _probe(workload: str, seed: int, workdir: str) -> int:
    """Child-process entry: time imports plus the workload's set-up."""
    t0 = time.perf_counter()
    WORKLOADS[workload]().setup(seed, workdir)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


def _setup_seconds(workload: str, seed: int, workdir: str) -> float:
    times = []
    for i in range(SETUP_PROBES):
        probe_dir = os.path.join(workdir, f"probe-{i}")
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed),
             "--workdir", probe_dir],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        shutil.rmtree(probe_dir, ignore_errors=True)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(times)


# -- rounds -------------------------------------------------------------------


def _round(wl, tracer=None) -> Round:
    rnd = Round()
    cpu0 = time.process_time()
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        if tracer is None:
            wl.execute(rnd)
        else:
            wl.execute(rnd, tracer.testfn)
    finally:
        rnd.wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.restore()
    rnd.cpu = time.process_time() - cpu0
    wl.check(rnd)
    return rnd


def _check_determinism(rounds):
    """Criterion 10: same-seed rounds give byte-identical results; an
    operation whose result differs from round 1 fails."""
    first = rounds[0].blobs
    for rnd in rounds[1:]:
        for name, blob in rnd.blobs.items():
            if name in first and blob != first[name]:
                rnd.fail(name, "result differs from round 1 with the same seed")


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _end_to_end(rounds, timed, setup_s: float) -> dict:
    """Timings are medians over the timed rounds; the other metrics
    cover every round of the run."""
    gaps = [g for r in rounds for g in r.gaps]
    statuses = [s for r in rounds for s in r.cert_checks]

    def median_s(seconds):
        return _metric(statistics.median(seconds(r) for r in timed), "s")

    return {
        "wall_s": median_s(lambda r: r.wall),
        "setup_s": _metric(setup_s, "s"),
        "solve_s": median_s(lambda r: r.seconds("solve")),
        "certify_s": median_s(lambda r: r.seconds("certify")),
        "energy_gap": _metric(max([GAP_FLOOR] + gaps) if gaps else 1.0, "1"),
        "cert_pass_frac": _metric(
            statuses.count("pass") / len(statuses) if statuses else 0.0, "ratio"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


# -- per-layer metrics ----------------------------------------------------------

# (name, unit): the per-layer metrics, in BENCHMARK.json order
SPAN_STATS = (
    ("relax.relax_solve", ("calls", "s", "self_s")),
    ("relax.refine_atoms", ("calls", "s")),
    ("relax.lp_weights", ("calls", "s")),
    ("envelope.qinv_oracle_1d", ("calls", "s")),
    ("envelope.qinv_laminate_upper", ("calls", "s")),
    ("envelope.qinv_fe_upper", ("calls", "s")),
    ("meshdef.MeshDeformation.energy", ("calls", "s")),
    ("meshdef.MeshDeformation.cell_gradients", ("calls", "s")),
    ("measure.pair", ("calls",)),
    ("measure.classify", ("calls", "s")),
    ("certify.check_thm3", ("calls", "s", "self_s")),
    ("certify.check_thm12", ("calls", "s")),
    ("laminate.verify_generation", ("calls", "s")),
    ("laminate.build_laminate_sequence", ("calls", "s")),
    ("laminate.boundary_glue", ("calls", "s")),
    ("cli.main", ("calls", "s", "self_s")),
)
EXTRA_COUNTS = ("relax.lp_weights.infeasible", "relax.outer_iterations",
                "relax.atoms_final", "envelope.laminate.evaluations",
                "envelope.fe.sweeps", "certify.jensen_rows",
                "cli.artifact_bytes")
ENERGIES = ("double_well_inv", "shear_well_2d", "quartic_well_1d")


def _counts(tracer, rnd, run_id: int) -> dict:
    """Every deterministic count of one traced round."""
    out = {"matcore.Mat.new": tracer.mat_new_by_run[run_id][0]}
    evals = tracer.evals_by_run[run_id]
    out["testfn.evaluate.calls"] = sum(c for c, _ in evals.values())
    out["testfn.evaluate.infinite"] = sum(i for _, i in evals.values())
    for label in ENERGIES:
        calls, inf = evals.get(label, (0, 0))
        out[f"testfn.evaluate.{label}.calls"] = calls
        out[f"testfn.evaluate.{label}.infinite"] = inf
    stats = tracer.span_stats(run_id)
    for name, _ in SPAN_STATS:
        out[f"{name}.calls"] = stats.get(name, (0, 0.0, 0.0))[0]
    extra = {**tracer.extra_by_run[run_id], **rnd.facts}
    for key in EXTRA_COUNTS + ("relax.refine_atoms.found",):
        out[key] = extra.get(key, 0)
    return out


def _frac(num, den) -> float:
    return num / den if den else 0.0


def _per_layer(tracer, traced, baseline_round) -> tuple:
    counts = _counts(tracer, traced[0], 1)
    failures = []
    again = _counts(tracer, traced[1], 2)
    for key, value in counts.items():
        if again[key] != value and key != "cli.artifact_bytes":
            failures.append(f"count {key} differs between traced rounds: "
                            f"{value} vs {again[key]}")
    stats = [tracer.span_stats(1), tracer.span_stats(2)]
    m = {}
    m["matcore.Mat.new"] = _metric(counts["matcore.Mat.new"], "count")
    m["testfn.evaluate.calls"] = _metric(counts["testfn.evaluate.calls"], "count")
    m["testfn.evaluate.inf_frac"] = _metric(
        _frac(counts["testfn.evaluate.infinite"], counts["testfn.evaluate.calls"]),
        "ratio")
    for label in ENERGIES:
        calls = counts[f"testfn.evaluate.{label}.calls"]
        m[f"testfn.evaluate.{label}.calls"] = _metric(calls, "count")
        m[f"testfn.evaluate.{label}.inf_frac"] = _metric(
            _frac(counts[f"testfn.evaluate.{label}.infinite"], calls), "ratio")
    for name, fields in SPAN_STATS:
        for field in fields:
            if field == "calls":
                m[f"{name}.calls"] = _metric(counts[f"{name}.calls"], "count")
                continue
            col = 1 if field == "s" else 2
            m[f"{name}.{field}"] = _metric(statistics.fmean(
                st.get(name, (0, 0.0, 0.0))[col] for st in stats), "s")
    m["relax.refine_atoms.found_frac"] = _metric(
        _frac(counts["relax.refine_atoms.found"],
              counts["relax.refine_atoms.calls"]), "ratio")
    for key in EXTRA_COUNTS:
        m[key] = _metric(counts[key], "bytes" if key == "cli.artifact_bytes"
                         else "count")
    wall = statistics.fmean(r.wall for r in traced)
    cpu = statistics.fmean(r.cpu for r in traced)
    m["proc.cpu_s"] = _metric(cpu, "s")
    m["proc.cpu_util"] = _metric(cpu / wall, "ratio")
    m["trace.overhead_frac"] = _metric(wall / baseline_round.wall - 1.0, "ratio")
    return m, failures


def _unit_costs() -> dict:
    """Unit costs on fixed inputs after warm-up, median of 7 batches."""
    from ymrelax.matcore import Mat
    from ymrelax.testfn import builtin_energy

    def unit_us(fn, arg, reps):
        for _ in range(reps // 10):
            fn(*arg)
        batches = []
        for _ in range(7):
            t0 = time.perf_counter()
            for _ in range(reps):
                fn(*arg)
            batches.append((time.perf_counter() - t0) / reps * 1e6)
        return _metric(statistics.median(batches), "us")

    dw = builtin_energy("double_well_inv", {"gamma": 1e-3, "p": 2.0})
    sw = builtin_energy("shear_well_2d", {"kappa": 1.0, "gamma": 0.0})
    mid = Mat.from_rows([[1.0, 0.5], [0.0, 1.0]])
    return {
        "matcore.Mat.new_us.1x1": unit_us(Mat, (1, (0.3,)), 20000),
        "matcore.Mat.new_us.2x2": unit_us(Mat, (2, mid.flat), 20000),
        "testfn.evaluate.double_well_inv.unit_us":
            unit_us(dw.evaluate, (Mat.scalar(0.3),), 4000),
        "testfn.evaluate.shear_well_2d.unit_us":
            unit_us(sw.evaluate, (mid,), 4000),
    }


def _as_declared(metrics: dict, section: str) -> tuple:
    """The metrics BENCHMARK.json declares, in its order; a declared
    metric the run did not produce is a failure."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = [m["name"] for m in json.load(fh)[section]]
    missing = [f"metric {name} was not measured" for name in declared
               if name not in metrics]
    return {k: metrics[k] for k in declared if k in metrics}, missing


# -- main -----------------------------------------------------------------------


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--workdir", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    _use_checkout_source()
    if args.setup_probe:
        return _probe(args.workload, args.seed, args.workdir)

    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        return _bench(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _bench(args, workdir: str) -> int:
    wl = WORKLOADS[args.workload]()
    wl.setup(args.seed, os.path.join(workdir, "main"))
    _check_imported_from_checkout()
    setup_s = _setup_seconds(args.workload, args.seed, workdir)
    wl.prepare()

    failures = []  # benchmark-level checks; operation failures live in rounds
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        rounds = [_round(wl)]
        for run_id in (1, 2):
            tracer.start_run(run_id)
            rounds.append(_round(wl, tracer))
        tracer.dump(os.path.join(WORK, f"trace-{args.workload}-{args.seed}.json"))
        metrics, count_failures = _per_layer(tracer, rounds[1:], rounds[0])
        failures += count_failures
        metrics.update(_unit_costs())
        # only the untraced first round counts end to end
        e2e = _end_to_end(rounds, rounds[:1], setup_s)
    else:
        rounds = [_round(wl)]  # warm-up: lazy imports and first-call costs
        start = time.perf_counter()
        while (len(rounds) <= MIN_ROUNDS
               or time.perf_counter() - start < args.seconds):
            rounds.append(_round(wl))
        e2e = _end_to_end(rounds, rounds[1:], setup_s)
    _check_determinism(rounds)
    if not args.trace:
        metrics = e2e
    metrics, missing = _as_declared(metrics, "per_layer" if args.trace
                                    else "end_to_end")
    failures += missing
    op_failures = [f"round {i}: {f}"
                   for i, rnd in enumerate(rounds, start=1)
                   for f in rnd.failures()]

    attempted = sum(len(r.ops) for r in rounds)
    failed = min(attempted, len(op_failures) + len(failures))
    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)}  "
          f"trace {args.trace}")
    for key, m in e2e.items():
        print(f"  {key:<16} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':<16} {failed / attempted:.6g} "
          f"({failed} of {attempted} operations)")
    if args.trace:
        for key, m in metrics.items():
            print(f"  {key:<44} {m['value']:.6g} {m['unit']}")
    for f in op_failures + failures:
        print(f"FAILED {f}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
