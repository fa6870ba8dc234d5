"""Run one workload in-process and turn its timings into metrics.

Each operation is timed alone: a CLI command through
``puritynet.cli.main`` (output written to a file, then parsed and checked
outside the timed region) or one lattice pipeline item.  A pass runs one
freshly drawn item list once.  ``wall_s`` is the median over passes of a
pass's operation latencies added up (one pass's time to solution, checks
excluded); ``op_p50_s`` and ``op_tail_s`` are taken over every timed
operation of the run.  The end-to-end timings are in reference seconds
(see ``hostspeed.py``); the run's record also gives them in raw seconds.
"""

from __future__ import annotations

import math
import platform
from array import array
import resource
import statistics
import time
from pathlib import Path

import numpy as np

import puritynet
import puritynet.cli
from checks import check_output, check_pipeline, reference
from hostspeed import HostSpeed
from tracer import LAYERS, Tracer, analyse, covered
from workloads import CAT_RUNS, MIN_PASSES, generate, warmup_items

clock = time.perf_counter

#: Latency recorded for a failed operation: it misses every latency limit.
MISSED_S = 1e9
#: Traced passes stop once this many spans are held in memory.
MAX_SPANS = 1_000_000

END_TO_END = [
    ("wall_s", "s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

FACTORIES = (
    "states.linear_cluster",
    "states.cluster_family_state",
    "states.collision_phase_state",
    "states.ghz",
    "states.cat_state",
)

#: Inclusive seconds (``.s``), self seconds (``.self_s``) or call counts
#: (``.calls``) of single spans.
SPAN_METRICS = [
    "separability.all_subset_purities.s",
    "separability.all_subset_purities.self_s",
    "separability.all_subset_purities.calls",
    "qstate.partial_trace.s",
    "qstate.partial_trace.calls",
    "qstate.to_density.s",
    "qstate.purity.s",
    "qstate.purity.calls",
    "separability.fig2a_violations.s",
    "separability.check_chain.s",
    "bs_network.joint_sign_probabilities.self_s",
    "bs_network.sign_probabilities_from_purities.s",
    "bs_network.walsh_hadamard.s",
    "bs_network.walsh_hadamard.calls",
    "bs_network.pair_projection_probabilities.s",
    "states.estimate_epsilon.s",
    "states.estimate_epsilon.calls",
    "lattice.sample_loss.s",
    "lattice.sample_loss.calls",
    "lattice.build_fock_basis.s",
    "lattice.build_hamiltonians.s",
    "lattice.propagator.s",
    "lattice.propagator.calls",
    "lattice.embed_two_copies.s",
    "lattice.occupancy_probabilities.s",
    "lattice.apply_mode_unitary.s",
    "lattice.interaction_phase_check.s",
    "lattice.hopping_bs_check.self_s",
    "cli.parse_state_spec.s",
    "cli.write_json.s",
    "cli.write_csv.s",
]

PER_LAYER = (
    [(name, "count" if name.endswith(".calls") else "s") for name in SPAN_METRICS]
    + [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [
        ("separability.tables_per_probe", "calls/probe"),
        ("qstate.partial_trace.bytes_computed", "B"),
        ("states.build.s", "s"),
        ("states.build.calls", "count"),
        ("states.closed_form_per_estimate", "calls/estimate"),
        ("lattice.fock_dim_max", "count"),
        ("trace.wall_s", "s"),
        ("trace.untraced_wall_s", "s"),
        ("trace.overhead_s", "s"),
    ]
)


class Runner:
    """Executes and checks items; records each operation's interval and
    failures."""

    def __init__(self, work_dir: Path, tracer: Tracer | None = None):
        self.work_dir = work_dir
        self.tracer = tracer
        self.refs: dict[int, dict] = {}
        self.spec_paths: dict[int, str] = {}
        self.reset()

    def reset(self) -> None:
        #: (t0, t1, failed) of every operation, in order
        self.ops: list[tuple[float, float, bool]] = []
        #: operations per pass
        self.pass_sizes: list[int] = []
        self.failures: list[str] = []
        self.op_kinds: list[str] = []

    def prepare(self, items) -> None:
        """Write spec files and compute reference values, untimed."""
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.refs.clear()
        self.spec_paths.clear()
        for i, item in enumerate(items):
            self.refs[id(item)] = reference(item)
            if item.kind == "probe":
                path = self.work_dir / f"spec_{i}.txt"
                path.write_text(item.params["spec"])
                self.spec_paths[id(item)] = str(path)

    def argv(self, item) -> tuple[list[str], Path]:
        p = item.params
        if item.kind == "probe":
            out = self.work_dir / "probe.json"
            return ["probe", "--spec", self.spec_paths[id(item)], "--out", str(out)], out
        if item.kind == "fig2a":
            out = self.work_dir / "fig2a.csv"
            return ["fig2a", "--n", "3", "--points", str(item.size), "--family", p["family"], "--out", str(out)], out
        if item.kind == "fig2b":
            out = self.work_dir / "fig2b.csv"
            m = ",".join(str(k) for k in p["m"])
            return ["fig2b", "--n", str(p["n"]), "--m", m, "--points", str(item.size), "--out", str(out)], out
        if item.kind == "cat-experiment":
            out = self.work_dir / "cat.json"
            argv = ["cat-experiment", "--n", str(item.size), "--epsilon", repr(p["epsilon"]),
                    "--survival", repr(p["survival"]), "--runs", str(CAT_RUNS), "--seed", str(p["seed"])]
            return argv + ["--out", str(out)], out
        out = self.work_dir / "validate.json"
        argv = ["lattice-validate", "--j", repr(p["J"]), "--u", repr(p["U"]), "--seed", str(p["seed"])]
        return argv + ["--out", str(out)], out

    def pipeline(self, item) -> list[float]:
        """Two-copy pipeline at 2 columns: P(one boson per row) per column."""
        lat = puritynet.lattice
        rho = puritynet.qstate.DensityOperator(2, item.state)
        basis, ensemble = lat.embed_two_copies(rho)
        params = lat.LatticeParams(n_sites=2, J=item.params["J"])
        h_bs, _ = lat.build_hamiltonians(params, basis)
        u = lat.propagator(h_bs, params.t_bs)
        evolved = [(w, lat.FockState(basis, u @ s.amplitudes)) for w, s in ensemble]
        return [lat.occupancy_probabilities(evolved, col).p_diff_mode for col in (1, 2)]

    def execute(self, item) -> tuple[float, float, str | None]:
        """Run one item; return its start and end times and the reason it
        failed, if any."""
        ref = self.refs[id(item)]
        tr = self.tracer
        if tr is not None:
            tr.op_id = len(self.op_kinds)
            tr.active = True
        self.op_kinds.append(item.kind)
        t0 = clock()
        try:
            if item.kind == "pipeline":
                result = self.pipeline(item)
            else:
                argv, out = self.argv(item)
                out.unlink(missing_ok=True)
                t0 = clock()
                code = puritynet.cli.main(argv)
            t1 = clock()
        except (Exception, SystemExit) as exc:  # any escape is a failed operation
            return t0, clock(), f"{item.kind}: raised {exc!r}"
        finally:
            if tr is not None:
                tr.active = False
        try:
            if item.kind == "pipeline":
                error = check_pipeline(result, item, ref)
            elif code != 0:
                error = f"exit code {code}"
            else:
                error = check_output(item, out.read_text(), ref, puritynet)
        except (ValueError, KeyError, TypeError, OSError, IndexError) as exc:
            error = f"output does not parse: {exc!r}"
        if error is not None:
            error = f"{item.kind} (N={item.size}): {error}"
        return t0, t1, error

    def run_pass(self, items) -> None:
        for item in items:
            t0, t1, error = self.execute(item)
            self.ops.append((t0, t1, error is not None))
            if error is not None:
                self.failures.append(error)
        self.pass_sizes.append(len(items))


def run_passes(runner: Runner, workload: str, seed: int, seconds: float, min_passes: int, max_spans=None) -> None:
    """At least ``min_passes`` passes, each on fresh inputs; more while the
    next one fits in ``seconds``."""
    durations: list[float] = []
    start = clock()
    while True:
        t0 = clock()
        items = generate(workload, seed, len(durations) + 1)
        runner.prepare(items)
        runner.run_pass(items)
        durations.append(clock() - t0)
        if max_spans is not None and len(runner.tracer) >= max_spans:
            break
        if len(durations) >= min_passes and clock() - start + statistics.median(durations) > seconds:
            break


def latencies(runner: Runner, seconds_of) -> list[float]:
    """Every operation's latency, ``seconds_of(t0, t1)``; a failed one is
    missed."""
    return [MISSED_S if failed else seconds_of(t0, t1) for t0, t1, failed in runner.ops]


def pass_walls(lat: list[float], pass_sizes: list[int]) -> list[float]:
    """Each pass's time to solution: its operation latencies added up."""
    walls, pos = [], 0
    for size in pass_sizes:
        walls.append(math.fsum(lat[pos : pos + size]))
        pos += size
    return walls


def timing_metrics(lat: list[float], pass_sizes: list[int]) -> dict[str, float]:
    return {
        "wall_s": statistics.median(pass_walls(lat, pass_sizes)),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": nearest_rank(lat, tail_percentile(len(lat))),
    }


def tail_percentile(n_samples: int) -> int:
    """Highest whole percentile with at least ten of ``n_samples`` beyond it."""
    return math.floor(100 * (n_samples - 10) / n_samples)


def nearest_rank(values, percentile: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(percentile / 100 * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux: KiB


def warmed_runner(workload: str, seed: int, work_dir: Path, tracer=None) -> Runner:
    """A runner after an untimed warm-up on the inputs of pass 0."""
    runner = Runner(work_dir, tracer)
    items = generate(workload, seed, 0)
    runner.prepare(items)
    for item in warmup_items(items):
        runner.execute(item)
    runner.reset()
    return runner


def run_untraced(workload: str, seed: int, seconds: float, work_dir: Path):
    """End-to-end metrics (all but setup_s) and the run's record."""
    runner = warmed_runner(workload, seed, work_dir)
    speed = HostSpeed(clock)
    with speed:
        run_passes(runner, workload, seed, seconds, MIN_PASSES[workload])
    metrics = timing_metrics(latencies(runner, speed.reference_seconds), runner.pass_sizes)
    metrics["peak_rss_mb"] = peak_rss_mb()
    raw = timing_metrics(latencies(runner, speed.net_seconds), runner.pass_sizes)
    record = {
        "passes": len(runner.pass_sizes),
        "tail_percentile": tail_percentile(len(runner.ops)),
        "tail_samples": len(runner.ops),
        "raw_seconds": raw,
        "host_speed": speed.summary(),
    }
    return metrics, runner, record


def run_traced(workload: str, seed: int, seconds: float, work_dir: Path):
    """Per-layer metrics: untraced passes for half the time, then traced
    ones.  All times are in reference seconds."""
    tracer = Tracer()
    runner = warmed_runner(workload, seed, work_dir, tracer)
    speed = HostSpeed(clock)
    with speed:
        run_passes(runner, workload, seed, seconds / 2, 1)
        split_ops, split_passes = len(runner.ops), len(runner.pass_sizes)
        runner.op_kinds.clear()  # tracer.op indexes the traced operations
        tracer.install(puritynet, clock)
        try:
            run_passes(runner, workload, seed, seconds / 2, 1, MAX_SPANS)
        finally:
            tracer.uninstall()
    for column in (tracer.start, tracer.end):
        column[:] = array("d", speed.reference_time(np.frombuffer(column)).tobytes())
    tracer.write(work_dir / f"spans_{workload}.tsv")
    passes = len(runner.pass_sizes) - split_passes
    metrics = layer_metrics(tracer, runner.op_kinds, passes)
    lat = latencies(runner, speed.reference_seconds)
    metrics["trace.wall_s"] = statistics.median(pass_walls(lat[split_ops:], runner.pass_sizes[split_passes:]))
    metrics["trace.untraced_wall_s"] = statistics.median(pass_walls(lat[:split_ops], runner.pass_sizes[:split_passes]))
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    record = {"passes": split_passes, "traced_passes": passes, "spans": len(tracer), "host_speed": speed.summary()}
    return metrics, runner, record


def layer_metrics(tracer: Tracer, op_kinds: list[str], passes: int) -> dict[str, float]:
    """Per-layer metrics from the spans, each per traced pass."""
    stats = analyse(tracer)
    out = {}
    for metric in SPAN_METRICS:
        name, field = metric.rsplit(".", 1)
        out[metric] = stats.get(name, {}).get(field, 0.0) / passes
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v["self_s"] for k, v in stats.items() if k.startswith(layer + ".")) / passes

    names = [tracer.names[i] for i in tracer.name_id]
    probe_ops = sum(1 for k in op_kinds if k == "probe")
    tables = sum(
        1 for i, nm in enumerate(names) if nm == "separability.all_subset_purities" and op_kinds[tracer.op[i]] == "probe"
    )
    out["separability.tables_per_probe"] = tables / probe_ops if probe_ops else 0.0
    out["qstate.partial_trace.bytes_computed"] = tracer.partial_trace_bytes / passes

    builds = [i for i, nm in enumerate(names) if nm in FACTORIES]
    out["states.build.s"] = covered((tracer.start[i], tracer.end[i]) for i in builds) / passes
    outer = [i for i in builds if tracer.parent[i] < 0 or names[tracer.parent[i]] not in FACTORIES]
    out["states.build.calls"] = len(outer) / passes

    estimates = stats.get("states.estimate_epsilon", {}).get("calls", 0)
    inner = sum(
        1
        for i, nm in enumerate(names)
        if nm == "states.cat_purity_closed_form"
        and tracer.parent[i] >= 0
        and names[tracer.parent[i]] == "states.estimate_epsilon"
    )
    out["states.closed_form_per_estimate"] = inner / estimates if estimates else 0.0
    out["lattice.fock_dim_max"] = float(tracer.fock_dim_max)
    return out


def environment(seed: int, blas_threads: str, nproc: int, caches: dict) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": nproc,
        "blas_threads": blas_threads,
        **caches,
        "seed": seed,
    }
