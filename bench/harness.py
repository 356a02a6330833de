"""The aflsim benchmark: seeded market workloads timed through the public API.

A run builds one workload's config from `--seed` and repeats whole passes
(one pass = the workload's worlds simulated to the horizon through
`simcli.run_preset` or `simcli.run_scenario`, with set-up timed beside it)
for about `--seconds`.  A single process simulates one world at a time: the
load is a closed batch with no threads or pools.  Every pass is checked for
correctness: each cell, one (policy, seed) world, must not raise, must pass
one audit per step, and must reproduce its output digest.

Untraced runs report the end-to-end metrics; they wrap only `simcli.step`
with a timer, since that call is what the step-time metrics are defined on.
They rescale every time to a reference host speed read from `speed_gauge`,
because the host's own speed drifts more than any useful bound.
Traced runs alternate untraced passes with passes under the layer hooks of
`layers.py` and report the per-layer metrics and the tracing overhead.
"""

import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time, process_time_ns

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from aflsim import config as afl_config  # noqa: E402
from aflsim import market, simcli  # noqa: E402

import layers  # noqa: E402
from spans import Installed, Tracer  # noqa: E402

DEFAULT_SEED = 1
DIGESTS_PATH = BENCH_DIR / "digests.json"
OUT_DIR = ROOT / ".bench_out"

# Every registered policy, in registry order; hard-coded so the generated
# config stays fixed if the registry grows.
ALL_POLICIES = (
    "pas-afl",
    "rand-rand",
    "rand-greedy",
    "ampp-rand",
    "ampp-greedy",
    "lin-rand",
    "lin-greedy",
    "pas-nopricing-rand",
    "pas-nopricing-ampp",
    "pas-nopricing-lin",
    "pas-nosubdel-rand",
    "pas-nosubdel-greedy",
)

TAIL_LADDER = (99.0, 98.0, 95.0, 90.0, 80.0, 50.0)
SETUPS_PER_PASS = 2
# What the speed gauge reads at the reference host speed, to which the
# end-to-end times are rescaled: about its mean inside the baseline runs.
GAUGE_REF_NS = 600_000
GAUGE_WINDOW = 3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_dos: int
    horizon: int
    edge_prob: float
    min_passes: int
    preset: bool = False          # the compare preset with CSVs, else one world, no CSV
    cell: str = "pas-afl"         # cell name of a single-world workload
    cycle_policies: bool = False  # per-DO assignment cycling through ALL_POLICIES
    overrides: dict = field(default_factory=dict)

    def cells(self) -> tuple[str, ...]:
        return tuple(simcli.COMPARE_POLICIES) if self.preset else (self.cell,)

    def steps_per_pass(self) -> int:
        return len(self.cells()) * self.horizon

    def tail_pct(self) -> float:
        """Highest ladder percentile with at least ten step samples beyond it,
        counted over the fewest passes a run makes, so every run reports the
        same percentile."""
        n = self.min_passes * self.steps_per_pass()
        for pct in TAIL_LADDER:
            if n - math.ceil(pct / 100.0 * n) >= 10:
                return pct
        return TAIL_LADDER[-1]


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="compare-n100",
            why="the compare preset users run: 7 policies on the default world, "
            "auction arrivals, CSV output; the runner and CSV layers only work here",
            n_dos=100,
            horizon=200,
            edge_prob=0.7,
            min_passes=3,
            preset=True,
        ),
        Workload(
            name="dense-n800",
            why="scaling case: pas-afl on 800 DOs with ~560 neighbours each, so "
            "context building dominates steps and the trust graph dominates set-up",
            n_dos=800,
            # The first few, backlogged steps are far slower than the rest and
            # form the tail.  With T = 50, p95 leaves 2.5 steps of every pass
            # beyond it, which is the middle of the third-slowest step of the
            # passes rather than the edge between two of those slow steps.
            horizon=50,
            edge_prob=0.7,
            min_passes=4,
        ),
        Workload(
            name="demand-mixed-n400",
            why="auction bypassed: demand-model arrivals, square rho, threshold work, "
            "all 12 policies cycled per DO on a sparse graph",
            n_dos=400,
            horizon=250,
            edge_prob=0.05,
            min_passes=4,
            cell="mixed",
            cycle_policies=True,
            overrides={
                "market": {"arrival_mode": "demand-model"},
                "do_params": {"rho_schedule": {"kind": "square", "period": 25}},
                "policy": {"work_mode": "threshold"},
            },
        ),
    )
}


def raw_config(wl: Workload, seed: int) -> dict:
    """The JSON-shaped scenario the program receives for this workload and seed."""
    raw = json.loads(json.dumps(wl.overrides))
    raw.update(
        n_dos=wl.n_dos, horizon_T=wl.horizon, trust_edge_prob=wl.edge_prob, seeds=[seed]
    )
    if wl.cycle_policies:
        names = [ALL_POLICIES[i % len(ALL_POLICIES)] for i in range(wl.n_dos)]
        raw.setdefault("policy", {})["assignment"] = names
    return raw


_GAUGE_RNG = np.random.default_rng(0)
_GAUGE_TABLE = _GAUGE_RNG.random(1 << 23)   # 64 MiB: its random reads go to memory
_GAUGE_PICKS = _GAUGE_RNG.integers(0, 1 << 23, 8000)
GAUGE_TABLE_MIB = _GAUGE_TABLE.nbytes / 2**20


def _gauge_objects() -> float:
    rows = [(i, i * 0.5, str(i)) for i in range(800)]
    by_key = {row[2]: row for row in rows}
    ranked = sorted(rows, key=lambda row: -row[1])
    total = 0.0
    for row in ranked:
        total += by_key[row[2]][1] * 1.0001
    return total


def speed_gauge() -> int:
    """CPU nanoseconds for a fixed piece of work shaped like a market step.

    The host's speed drifts by up to half between phases lasting seconds to
    minutes, and aflsim's steps slow down with it.  Reading this gauge next
    to each timed section tells how fast the host ran at that moment.  Like
    a step, the work builds, indexes and sorts small Python objects and
    reads memory at random.  It runs none of aflsim's code.  The object work
    runs twice and only the second run is timed, so that the state the
    program left in the caches and the heap does not move the reading; the
    memory reads go to a table far larger than any cache, so they miss
    whatever the program did.  The collector is held off meanwhile, so that
    the gauge neither does nor defers collections the program triggers.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        _gauge_objects()
        t0 = process_time_ns()
        _gauge_objects()
        float(np.take(_GAUGE_TABLE, _GAUGE_PICKS).sum())
        return process_time_ns() - t0
    finally:
        if enabled:
            gc.enable()


def to_reference(elapsed, gauges) -> float:
    """`elapsed` rescaled to the host speed at which the gauge reads
    GAUGE_REF_NS, taking the host speed from the mean of `gauges`."""
    return elapsed * GAUGE_REF_NS * len(gauges) / sum(gauges)


def steps_at_reference(samples, gauges) -> list[float]:
    """A pass's step times rescaled one by one.  `gauges[i]` and
    `gauges[i + 1]` bracket step i; the mean also takes GAUGE_WINDOW readings
    on either side, since a single reading is noisy and the tail of the
    rescaled times would pick out the steps whose readings ran slow."""
    return [
        to_reference(t, gauges[max(0, i - GAUGE_WINDOW): i + 2 + GAUGE_WINDOW])
        for i, t in enumerate(samples)
    ]


class StepProbe:
    """Times every `simcli.step` call in CPU time and keeps each stepped
    world's audit count.  It holds no world past its pass: a world kept
    alive makes the next pass's collections walk it, which slowed the first,
    allocation-heavy steps of later passes by up to 45%.

    With `gauged`, it reads the speed gauge before a pass's first step and
    after every step, outside the step's timer, so that each step is
    bracketed by two readings.
    """

    def __init__(self, gauged: bool = False):
        self.gauged = gauged
        self.samples_ns: list[int] = []     # this pass's step times
        self.gauges_ns: list[int] = []      # this pass's gauge readings
        self.audits: list[int] = []         # audit count of each world of this pass
        self._world = None
        self._step = None

    def start_pass(self) -> None:
        self.audits.clear()
        self.samples_ns.clear()
        self.gauges_ns.clear()

    def end_pass(self) -> None:
        self._world = None

    def __enter__(self):
        self._step = simcli.step
        step = self._step
        samples = self.samples_ns
        gauges = self.gauges_ns if self.gauged else None
        audits = self.audits

        def timed_step(world):
            if gauges is not None and not gauges:
                gauges.append(speed_gauge())
            t0 = process_time_ns()
            records = step(world)
            elapsed = process_time_ns() - t0
            samples.append(elapsed)
            if gauges is not None:
                gauges.append(speed_gauge())
            if world is not self._world:
                self._world = world
                audits.append(0)
            audits[-1] = getattr(world, "audit_checks", None)
            return records

        simcli.step = timed_step
        return self

    def __exit__(self, *exc):
        simcli.step = self._step


@dataclass
class PassResult:
    wall_s: float | None              # None when the pass raised
    digests: dict[str, str | None]    # cell -> output digest, None when the cell failed
    csv_bytes: int = 0
    cpu_s: float | None = None        # CPU seconds of the same call


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def result_digest(result) -> str:
    """Digest of a RunResult: means, per-step arrays and audit/degenerate counters."""
    means = (result.mean_utility, result.mean_backlog, result.mean_price, result.acceptance_rate)
    header = json.dumps(
        [[float(v).hex() for v in means], result.audit_checks, result.price_degenerate_steps]
    )
    return _sha(
        header.encode(),
        np.ascontiguousarray(result.per_step_mean_q, dtype="<f8").tobytes(),
        np.ascontiguousarray(result.per_step_max_Q, dtype="<f8").tobytes(),
    )


def _preset_digests(out: Path, seed: int, cells) -> tuple[dict, int]:
    """Per policy: digest of its metrics CSV plus its row of summary.json."""
    rows = {row["policy"]: row for row in json.loads((out / "summary.json").read_text())["rows"]}
    digests = {}
    csv_bytes = 0
    for policy in cells:
        data = (out / policy / f"metrics_seed{seed}.csv").read_bytes()
        csv_bytes += len(data)
        digests[policy] = _sha(data, json.dumps(rows[policy], sort_keys=True).encode())
    return digests, csv_bytes


def run_pass(wl: Workload, seed: int, workdir: Path, probe: StepProbe, tracer=None) -> PassResult:
    """Simulate every cell of the workload once; only the run call is timed."""
    cells = wl.cells()
    raw = raw_config(wl, seed)
    probe.start_pass()
    out = Path(tempfile.mkdtemp(prefix="pass-", dir=workdir)) if wl.preset else None
    try:
        cfg = afl_config.resolve_config(raw)
        span = tracer.open(tracer.name_index(layers.RUNNER_SPAN)) if tracer else None
        t0, c0 = perf_counter(), process_time()
        try:
            if wl.preset:
                simcli.run_preset(cfg, simcli.COMPARE_POLICIES, out_dir=out)
            else:
                result = simcli.run_scenario(cfg, seed)
        finally:
            wall, cpu = perf_counter() - t0, process_time() - c0
            if tracer:
                tracer.close(span)
        if wl.preset:
            digests, csv_bytes = _preset_digests(out, seed, cells)
            audits = list(probe.audits)
        else:
            digests, csv_bytes = {wl.cell: result_digest(result)}, 0
            audits = [result.audit_checks]
    except Exception:  # a failing pass is counted, reported and survived
        traceback.print_exc(file=sys.stderr)
        return PassResult(None, {cell: None for cell in cells})
    finally:
        probe.end_pass()
        if out is not None:
            shutil.rmtree(out, ignore_errors=True)
    for i, cell in enumerate(cells):
        if i >= len(audits) or audits[i] != wl.horizon:
            print(f"cell {cell}: audit count {audits[i:i + 1]} != horizon {wl.horizon}",
                  file=sys.stderr)
            digests[cell] = None
    return PassResult(wall, digests, csv_bytes, cpu)


def count_failures(result: PassResult, reference: dict, stored: bool) -> int:
    """Failed cells of one pass.  Without a stored reference the first
    successful digest of each cell becomes the reference for later passes."""
    failed = 0
    for cell, digest in result.digests.items():
        if digest is None:
            failed += 1
        elif cell not in reference and not stored:
            reference[cell] = digest
        elif reference.get(cell) != digest:
            print(f"cell {cell}: digest {digest[:16]} != reference "
                  f"{str(reference.get(cell))[:16]}", file=sys.stderr)
            failed += 1
    return failed


def time_setup(wl: Workload, raw: dict, seed: int) -> tuple[float, float]:
    """CPU seconds for resolve_config + build_world over every world of the
    workload, raw and at the reference speed."""
    overrides = wl.cells() if wl.preset else (None,)
    gc.collect()
    before = speed_gauge()
    t0 = process_time()
    cfg = afl_config.resolve_config(raw)
    worlds = [market.build_world(cfg, seed, policy_override=p) for p in overrides]
    elapsed = process_time() - t0
    after = speed_gauge()
    del worlds
    return elapsed, to_reference(elapsed, (before, after))


def percentile(sorted_values, pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(0, math.ceil(pct / 100.0 * len(sorted_values)) - 1)
    return sorted_values[k]


@dataclass
class RunOutcome:
    attempted: int
    failed: int
    metrics: dict[str, tuple[float | None, str]]
    notes: dict
    consistent: bool = True
    tracer: Tracer | None = None

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.consistent


def _keep_going(done: int, minimum: int, durations, start: float, seconds: float) -> bool:
    """Run at least `minimum` iterations, then another while it is expected
    to end within `seconds` of `start`."""
    if done < minimum:
        return True
    return perf_counter() - start + statistics.median(durations) <= seconds


def measure_untraced(wl: Workload, seed: int, seconds: float, reference=None,
                     workdir: Path = OUT_DIR) -> RunOutcome:
    stored = reference is not None
    reference = dict(reference or {})
    raw = raw_config(wl, seed)
    attempted = failed = 0
    walls, cpus, scaled_cpus, durations, setups = [], [], [], [], []
    raw_samples, samples = [], []
    start = perf_counter()
    with StepProbe(gauged=True) as probe:
        while _keep_going(len(durations), wl.min_passes, durations, start, seconds):
            t0 = perf_counter()
            # Set-up is sampled beside every pass, so that it sees the same
            # machine conditions as the passes do.
            setups += [time_setup(wl, raw, seed) for _ in range(SETUPS_PER_PASS)]
            gc.collect()
            result = run_pass(wl, seed, workdir, probe)
            durations.append(perf_counter() - t0)
            attempted += len(result.digests)
            failed += count_failures(result, reference, stored)
            if result.wall_s is not None:
                # The pass minus its gauge readings: its steps rescaled one
                # by one, the rest (world building, runner, CSV) by the
                # pass's mean gauge reading.
                scaled = steps_at_reference(probe.samples_ns, probe.gauges_ns)
                steps = sum(probe.samples_ns) / 1e9
                rest = result.cpu_s - steps - sum(probe.gauges_ns) / 1e9
                walls.append(result.wall_s)
                cpus.append(result.cpu_s)
                scaled_cpus.append(sum(scaled) / 1e9 + to_reference(rest, probe.gauges_ns))
                raw_samples += probe.samples_ns
                samples += scaled
    samples.sort()
    raw_samples.sort()
    tail = wl.tail_pct()
    do_steps = wl.n_dos * wl.steps_per_pass()
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 - GAUGE_TABLE_MIB
    metrics = {
        "do_steps_per_s": (do_steps / statistics.median(scaled_cpus) if walls else 0.0,
                           "DO-steps/s"),
        "step_ms_p50": (statistics.median(samples) / 1e6 if samples else 0.0, "ms"),
        "step_ms_p99": (percentile(samples, tail) / 1e6 if samples else 0.0, "ms"),
        "setup_s": (statistics.median(s for _, s in setups), "s"),
        # The gauge's table is resident from the start, so it adds exactly
        # its size to the peak.
        "peak_rss_mb": (peak_rss, "MiB"),
    }
    notes = {
        "failed_share": failed / attempted,
        "passes": len(walls),
        "step_samples": len(samples),
        "step_ms_p99_percentile": tail,
        "gauge_ref_ms": GAUGE_REF_NS / 1e6,
        "raw_do_steps_per_s": do_steps / statistics.median(cpus) if walls else 0.0,
        "wall_do_steps_per_s": do_steps / statistics.median(walls) if walls else 0.0,
        "raw_step_ms_p50": statistics.median(raw_samples) / 1e6 if raw_samples else 0.0,
        "raw_step_ms_p99": percentile(raw_samples, tail) / 1e6 if raw_samples else 0.0,
        "raw_setup_s": statistics.median(r for r, _ in setups),
        "pass_wall_s": walls,
        "digests": reference,
    }
    return RunOutcome(attempted, failed, metrics, notes)


def measure_traced(wl: Workload, seed: int, seconds: float, reference=None,
                   workdir: Path = OUT_DIR, hooks=layers.HOOKS) -> RunOutcome:
    stored = reference is not None
    reference = dict(reference or {})
    tracer = Tracer()
    attempted = failed = 0
    plain_walls, traced, durations = [], [], []
    absent = set()
    start = perf_counter()
    with StepProbe() as probe:
        while _keep_going(len(durations), 2, durations, start, seconds):
            t0 = perf_counter()
            for tracing in (False, True):
                gc.collect()
                if not tracing:
                    result = run_pass(wl, seed, workdir, probe)
                    if result.wall_s is not None:
                        plain_walls.append(result.wall_s)
                else:
                    tracer.reset()
                    installed = Installed(tracer, hooks)
                    try:
                        result = run_pass(wl, seed, workdir, probe, tracer)
                    finally:
                        installed.uninstall()
                    absent = {h.span or h.attr for h in hooks if not installed.working(h)}
                    traced.append(layers.pass_metrics(tracer, installed, result.csv_bytes))
                    tracer.worlds.clear()  # see StepProbe: no world outlives its pass
                attempted += len(result.digests)
                failed += count_failures(result, reference, stored)
            durations.append(perf_counter() - t0)

    consistent = True
    values = {}
    for name, unit, deterministic in layers.LAYER_METRICS:
        if name not in traced[0]:
            continue
        seen = [m[name] for m in traced]
        if any(v is None for v in seen):
            values[name] = None
        elif deterministic:
            if len(set(seen)) != 1:
                print(f"{name} differs between traced passes: {seen}", file=sys.stderr)
                consistent = False
            values[name] = seen[0]
        else:
            values[name] = statistics.median(seen)
    plain = statistics.median(plain_walls) if plain_walls else None
    overhead = None if plain is None else values["simcli.runner_s"] - plain
    values["trace.untraced_pass_s"] = plain
    values["trace.overhead_s"] = overhead
    values["trace.overhead_share"] = None if plain is None else overhead / plain
    metrics = {name: (values[name], unit) for name, unit, _ in layers.LAYER_METRICS}
    notes = {
        "failed_share": failed / attempted,
        "traced_passes": len(traced),
        "untraced_passes": len(plain_walls),
        "absent_hooks": sorted(absent),
    }
    return RunOutcome(attempted, failed, metrics, notes, consistent, tracer)


def git_commit() -> str:
    """HEAD commit read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(wl: Workload, seed: int, trace: int) -> dict:
    return {
        "workload": wl.name,
        "seed": seed,
        "trace": trace,
        "n_dos": wl.n_dos,
        "horizon_T": wl.horizon,
        "trust_edge_prob": wl.edge_prob,
        "cells": len(wl.cells()),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "commit": git_commit(),
    }


def load_stored_digests() -> dict:
    if not DIGESTS_PATH.is_file():
        return {}
    payload = json.loads(DIGESTS_PATH.read_text())
    if payload.get("seed") != DEFAULT_SEED:
        return {}
    return payload.get("workloads", {})


def record_digests(workdir: Path) -> dict:
    """Run every workload twice at the default seed and store its cell digests."""
    found = {}
    with StepProbe() as probe:
        for wl in WORKLOADS.values():
            reference = {}
            for _ in range(2):
                result = run_pass(wl, DEFAULT_SEED, workdir, probe)
                failed = count_failures(result, reference, False)
                if failed:
                    raise RuntimeError(f"{wl.name}: {failed} cells failed while recording")
            found[wl.name] = reference
    DIGESTS_PATH.write_text(
        json.dumps({"seed": DEFAULT_SEED, "workloads": found}, indent=2, sort_keys=True) + "\n"
    )
    return found
