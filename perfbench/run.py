"""CPU-time benchmark of the coopmec solver on three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload acceptance-batch --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One run imports the solver from ./src, generates the workload's instances
(the seed shuffles their order), warms up, then solves whole rounds of the
workload until `--seconds` have passed, checks every answer (outside the
timed region), and prints its metrics. The last line of standard output
is one JSON object: end-to-end metrics with `--trace 0`, per-layer
metrics from a traced run with `--trace 1`. See perfbench/README.md.
"""

import os

# one thread everywhere, before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from functools import partial  # noqa: E402
from pathlib import Path  # noqa: E402

import check  # noqa: E402
import instances  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("acceptance-batch", "fig4-sweep", "capacity-edge")
SETUP_REPEATS = 5
#: operations of each workload's first round checked against scipy's minimizer
CROSS_CHECKED = {
    "acceptance-batch": {0, 1, 2},
    "fig4-sweep": {("joint-partial", 10.0), ("joint-partial", 50.0),
                   ("joint-partial", 100.0)},
}


def cpu_seconds() -> float:
    """User + system CPU of this process and its waited-for children."""
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


@dataclass
class Op:
    scheme: str
    params: object
    report: object
    cpu_s: float
    tag: object = None  # workload-specific identity of the op


def fresh_import():
    """Import coopmec from ./src anew, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "coopmec" or m.startswith("coopmec.")]:
        del sys.modules[name]
    return importlib.import_module("coopmec")


def make_inputs(workload: str, cm, seed: int):
    if workload == "acceptance-batch":
        return instances.acceptance_ops(cm, seed)
    if workload == "fig4-sweep":
        return instances.fig4_scenario(cm)
    return instances.capacity_edge(cm, seed)


def setup(workload: str, seed: int):
    """Import and generate SETUP_REPEATS times; keep the last, time the median.

    numpy is already imported (by the benchmark's own modules), so the
    import timed here is coopmec's own.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = cpu_seconds()
        cm = fresh_import()
        inputs = make_inputs(workload, cm, seed)
        times.append(cpu_seconds() - t0)
    return cm, inputs, statistics.median(times)


def warm_up(cm) -> None:
    # one joint solve reaches every layer: LPs, dual, ellipsoid, recovery
    cm.run_benchmark("joint-partial", instances.desk(cm, T=0.03, L=2e4))


def timed(fn, *args):
    t0 = cpu_seconds()
    out = fn(*args)
    return out, cpu_seconds() - t0


# -- one round of each workload -----------------------------------------------


def acceptance_round(cm, batch, tracer):
    ops = []
    for i, p in batch:
        if tracer:
            rep, dt = timed(tracer.op, "joint-partial", cm.solve_p1, p)
        else:
            rep, dt = timed(cm.solve_p1, p)
        ops.append(Op("joint-partial", p, rep, dt, tag=i))
    return ops


def edge_round(cm, edge_ops, tracer):
    ops = []
    for name, scheme, frac, p in edge_ops:
        if tracer:
            rep, dt = timed(tracer.op, scheme, cm.run_benchmark, scheme, p)
        else:
            rep, dt = timed(cm.run_benchmark, scheme, p)
        ops.append(Op(scheme, p, rep, dt, tag=(name, frac)))
    return ops


class SweepRound:
    """Runs the sweep through `coopmec.cli.run_sweep`, timing each row at
    the `run_benchmark` call the CLI makes for it."""

    def __init__(self, cm, scenario, tracer):
        self.cli = cm.cli
        self.scenario = scenario
        self.tracer = tracer
        self.rows: list[Op] = []
        self.csv_paths: list[Path] = []
        inner = self.cli.run_benchmark

        def run_benchmark(scheme, p):
            rep, dt = timed(inner, scheme, p)
            self.rows.append(Op(scheme, p, rep, dt))
            return rep

        self.cli.run_benchmark = run_benchmark

    def __call__(self):
        path = OUT / f"fig4-sweep-{os.getpid()}-{len(self.csv_paths)}.csv"
        self.csv_paths.append(path)
        start = len(self.rows)
        if self.tracer:
            reps = self.tracer.span("run_sweep", self.cli.run_sweep, self.scenario, str(path))
        else:
            reps = self.cli.run_sweep(self.scenario, str(path))
        ops = self.rows[start:]
        values = self.scenario.sweep_values()
        schemes = self.scenario.schemes
        for k, op in enumerate(ops):
            op.tag = (op.scheme, values[k // len(schemes)])
        if len(reps) != len(ops):
            raise RuntimeError(f"{len(reps)} sweep rows, {len(ops)} timed")
        return ops

    def csv_hashes(self) -> list[str]:
        out = []
        for path in self.csv_paths:
            out.append(hashlib.sha256(path.read_bytes()).hexdigest())
            path.unlink()
        return out


# -- checking -----------------------------------------------------------------


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "coopmec").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_ops(workload, cm, ops, round_size):
    """Per op: the reasons it fails (empty if it passes). Also the number
    of ops whose reported capacity differs from the LP."""
    checker = check.Checker(cm.oracle.kkt_residuals)
    subset = CROSS_CHECKED.get(workload, set())
    reasons = []
    capacity_off = 0
    for k, op in enumerate(ops):
        bad, off = checker.op(op.scheme, op.params, op.report,
                              cross_check=k < round_size and op.tag in subset)
        reasons.append(bad)
        capacity_off += off
    if workload == "fig4-sweep":
        for r in range(0, len(ops), round_size):
            rows = [(op.tag[1], op.scheme, op.report) for op in ops[r:r + round_size]]
            for i, problems in check.sweep_properties(rows).items():
                reasons[r + i] += problems
    return reasons, capacity_off


def check_csv(hashes: list[str]) -> list[str]:
    """The sweep CSV must be byte-identical on every round and every run
    of the same code in this checkout."""
    problems = []
    if len(set(hashes)) != 1:
        problems.append(f"sweep CSV differs between rounds: {sorted(set(hashes))}")
    record = OUT / f"fig4-sweep-{source_digest()}.sha256"
    if record.exists():
        earlier = record.read_text().strip()
        if earlier != hashes[0]:
            problems.append(f"sweep CSV {hashes[0][:16]} differs from an earlier "
                            f"run of the same code ({earlier[:16]})")
    else:
        record.write_text(hashes[0] + "\n")
    return problems


# -- metrics ------------------------------------------------------------------


def end_to_end(ops, failed, rounds, round_size, run_cpu, setup_s, peak_rss_mb):
    times = sorted(op.cpu_s for op in ops)
    # the highest percentile with at least ten operations beyond it per round
    tail_index = rounds * (round_size - 10) - 1
    done = len(ops) - sum(failed)
    return {
        "setup_s": (setup_s, "s"),
        "solve_cpu_p50_s": (statistics.median(times), "s"),
        "solve_cpu_tail_s": (times[tail_index], "s"),
        "solves_per_cpu_s": (done / run_cpu, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def run_workload(args) -> int:
    if not (ROOT / "src" / "coopmec" / "__init__.py").is_file():
        print(f"error: no solver sources under {ROOT / 'src' / 'coopmec'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)

    cm, inputs, setup_s = setup(args.workload, args.seed)
    warm_up(cm)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install({name: sys.modules.get(name) for name in (
            "coopmec.ellipsoid", "coopmec.p1", "coopmec.p2", "coopmec.bench",
            "coopmec.cli")})
    if args.workload == "acceptance-batch":
        one_round = partial(acceptance_round, cm, inputs, tracer)
        round_size = len(inputs)
    elif args.workload == "capacity-edge":
        one_round = partial(edge_round, cm, inputs, tracer)
        round_size = len(inputs)
    else:
        one_round = SweepRound(cm, inputs, tracer)
        round_size = len(inputs.sweep_values()) * len(inputs.schemes)

    ops: list[Op] = []
    rounds = 0
    wall0, cpu0 = time.perf_counter(), cpu_seconds()
    while True:
        ops += one_round()
        rounds += 1
        if time.perf_counter() - wall0 >= args.seconds:
            break
    run_cpu = cpu_seconds() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()

    reasons, capacity_off = check_ops(args.workload, cm, ops, round_size)
    failed = [bool(bad) for bad in reasons]
    run_problems = []
    if isinstance(one_round, SweepRound):
        hashes = one_round.csv_hashes()
        run_problems = check_csv(hashes)
    attempted, n_failed = len(ops), sum(failed)
    correct = not run_problems

    pct = 100.0 * (round_size - 10) / round_size
    print(f"workload {args.workload}  seed {args.seed}  rounds {rounds}  "
          f"attempted {attempted}  failed {n_failed}  correct {str(correct).lower()}")
    print(f"  run_cpu_s {run_cpu:.4f} s  (tracing {'on' if tracer else 'off'}; "
          f"tail is p{pct:.4g}: ten operations beyond it per round)")
    print(f"  reported capacities that differ from the LP: {capacity_off}")
    if isinstance(one_round, SweepRound):
        print(f"  sweep CSV sha256 {hashes[0][:16]}")
    for line in run_problems:
        print(f"  WRONG {line}")
    for op, bad in zip(ops, reasons):
        if bad:
            print(f"  FAILED {op.scheme} {op.tag}: {'; '.join(bad)}")

    if tracer:
        path = OUT / f"spans-{args.workload}.npz"
        tracer.save(str(path))
        print(f"  spans: {len(tracer.kind)} written to {path.relative_to(ROOT)}")
        if tracer.absent:
            print(f"  absent (not traced): {', '.join(tracer.absent)}")
        layers = tracer.layer_metrics(rounds)
        layers["capacity.disagreements"] = capacity_off / rounds
        metrics = {name: (value, unit_of(name)) for name, value in layers.items()}
    else:
        metrics = end_to_end(ops, failed, rounds, round_size, run_cpu, setup_s,
                             peak_rss_mb)
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("us_per_iter", "us_per_eval", "us_per_solve")):
        return "us"
    if name.endswith("_per_call"):
        return "count/call"
    return "count"


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        out = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(out[:-1]))
        if proc.returncode != 0:
            return proc.returncode
        results[workload] = json.loads(out[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=instances.ACCEPTANCE_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
