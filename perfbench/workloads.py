"""The four workloads: seeded inputs, set-up, the timed loop, and checks.

Inputs are pure functions of ``(seed, op index)``.  The seed chooses
*values* — batch sizes, fusion buffer bytes, straggler magnitudes and
the ranks they hit, fault windows, ``bo_seed`` — and never the *mix*:
op ``k`` has the same (scheduler, model, fabric, algorithm) tuples for
every seed, so two seeds cost the same up to the values.  Every op of
``sweep_cold``, ``straggler_1024`` and ``bo_tune`` is never seen before
(pairwise-distinct fingerprints), so each one misses the cache;
``serve_warm`` repeats entries of a pool the set-up wrote into the
server's cache, so each request hits.

Every call runs with one job (``run_many(..., jobs=1)``, ``serve
--jobs 1``) against a cache directory private to the run.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import random
import resource
import select
import subprocess
import sys
import threading
import time
from typing import Optional

from perfbench import hostspeed

__all__ = [
    "ALGORITHMS",
    "FABRICS",
    "MODELS",
    "SWEEP_SCHEDULERS",
    "WORKLOADS",
    "bo_op",
    "make_workload",
    "serve_pool",
    "serve_request",
    "straggler_op",
    "sweep_op",
]

#: Every scheduler of the sweep; DeAR runs with explicit buffer fusion
#: (its default is the BO tuner, which costs ~20x a plain run).
SWEEP_SCHEDULERS = (
    "wfbp", "ddp", "horovod", "mg_wfbp", "zero", "bytescheduler", "dear",
)
MODELS = ("resnet50", "densenet201", "inception_v4", "bert_base", "bert_large")
FABRICS = ("10gbe", "100gbib")
ALGORITHMS = ("ring", "auto")
#: (fabric, algorithm) quadrants a sweep batch runs on, one per 5 batches.
_QUADRANTS = tuple((fabric, algorithm) for algorithm in ALGORITHMS for fabric in FABRICS)
#: 7 schedulers x 20 batches = 140 = schedulers x models x fabrics x algorithms.
SWEEP_BATCHES_PER_CYCLE = len(MODELS) * len(_QUADRANTS)
#: Timed sweep batch sizes are drawn without replacement from here, so a
#: (scheduler, model, fabric, algorithm) tuple never repeats a value.
_SWEEP_BATCH_SIZES = range(16, 257)

#: straggler_1024: the rotating count of slowed ranks.
SLOW_COUNTS = (1, 16, 256)
STRAGGLER_NODES = 256  # x 4 GPUs = 1024 ranks
STRAGGLER_MODEL = "resnet50"
#: 64-rank shape of the straggler correctness sample (event kernel).
SAMPLE_NODES = 16

#: Ops checked against the event kernel after the timed window.
SWEEP_SAMPLE = 4
STRAGGLER_SAMPLE = 2

#: Concurrent closed-loop clients of serve_warm (= nproc of the box the
#: benchmark was sized on).
SERVE_CLIENTS = 2
#: Load runs in segments this long, each after its own host-speed probe.
SERVE_SEGMENT_S = 1.0

REL_TOL = 1e-9

#: In-process peak memory is read after this many timed ops: a peak is
#: a maximum over ops, and straggler_1024's per-op peaks vary with the
#: seeded values, so read at the window's end it rose with the number
#: of ops that fit in the window.
RSS_OPS = 20

#: bo_tune: every (model, fabric) once per block, with this batch-size ladder.
BO_BLOCK = len(MODELS) * len(FABRICS)
_BO_BATCH_SIZES = tuple(range(16, 129, 12))
assert len(_BO_BATCH_SIZES) == BO_BLOCK

#: Seed of the warm-up op (k = -1) every set-up runs.
WARMUP_SEED = 0


def _rng(seed: int, *key) -> random.Random:
    return random.Random(":".join(str(part) for part in (seed,) + key))


# -- generators ---------------------------------------------------------------


class _SweepSizes:
    """Per-tuple seeded permutation of batch sizes (cycle c -> perm[c])."""

    def __init__(self, seed: int):
        self.seed = seed
        self._perms: dict[tuple, list[int]] = {}

    def get(self, combo: tuple, cycle: int) -> int:
        perm = self._perms.get(combo)
        if perm is None:
            perm = list(_SWEEP_BATCH_SIZES)
            _rng(self.seed, "sweep-bs", *combo).shuffle(perm)
            self._perms[combo] = perm
        return perm[cycle]


def sweep_op(seed: int, k: int, sizes: Optional[_SweepSizes] = None) -> list[dict]:
    """Op ``k`` of sweep_cold: one spec per scheduler, as plain dicts.

    Batch ``j = k % 20``: scheduler ``i`` runs model ``(i + j) % 5`` on
    quadrant ``j // 5``, so over one 20-batch cycle every scheduler
    visits every (model, fabric, algorithm) once and every batch holds
    all seven schedulers and all five models.  ``k = -1`` is the
    warm-up op, with batch sizes outside the timed range.
    """
    sizes = sizes if sizes is not None else _SweepSizes(seed)
    j = k % SWEEP_BATCHES_PER_CYCLE
    cycle = k // SWEEP_BATCHES_PER_CYCLE
    fabric, algorithm = _QUADRANTS[j // len(MODELS)]
    values = _rng(seed, "sweep", k)
    specs = []
    for i, scheduler in enumerate(SWEEP_SCHEDULERS):
        model = MODELS[(i + j) % len(MODELS)]
        combo = (scheduler, model, fabric, algorithm)
        batch_size = 8 + i if k < 0 else sizes.get(combo, cycle)
        options = {}
        if scheduler == "dear":
            options = {
                "fusion": "buffer",
                "buffer_bytes": float(values.randrange(5_000_000, 50_000_001)),
            }
        specs.append({
            "scheduler": scheduler, "model": model, "cluster": fabric,
            "algorithm": algorithm, "batch_size": batch_size,
            "options": options,
        })
    return specs


def straggler_op(seed: int, k: int, nodes: int = STRAGGLER_NODES) -> dict:
    """Op ``k`` of straggler_1024 as a plain dict.

    Policy ``k % 5`` on ResNet-50; the slowed-rank count steps through
    ``SLOW_COUNTS`` every three ops (scaled to the world for smaller
    samples), and two ops in three carry a timing-fault plan.  The seed
    picks which ranks are slow, by how much, and how hard the fault
    windows hit.

    A fault plan makes an op ~3.5x costlier whatever its windows, so
    with faults on every other op the median op would sit on the edge
    between the two cost modes and jump between them from run to run.
    Two in three keep the median inside the faulty mode, whose longer
    ops are less exposed to host-speed swings than the healthy ones.
    """
    from repro.schedulers.multirank import POLICIES

    world = nodes * 4
    values = _rng(seed, "straggler", nodes, k)
    slow = max(1, SLOW_COUNTS[(k // 3) % len(SLOW_COUNTS)] * world // 1024)
    scales = [1.0] * world
    for rank in values.sample(range(world), slow):
        scales[rank] = round(values.uniform(1.1, 2.0), 12)
    op = {
        "policy": POLICIES[k % len(POLICIES)],
        "model": STRAGGLER_MODEL,
        "nodes": nodes,
        # The model's own batch size: the batch size sets the iteration
        # length, and with it how much of the run the fixed fault windows
        # cover — which moves the op's cost and memory by up to 1.5x.
        "batch_size": None,
        "compute_scales": scales,
        "faults": None,
    }
    if k % 3 != 2:
        # Fixed windows, seeded magnitudes: how many collectives a window
        # covers sets the op's cost (up to 2.5x), so the seed may not move it.
        op["faults"] = {
            "straggler": (0.02, 0.2, round(values.uniform(1.2, 2.0), 12)),
            "link": (0.05, 0.25, round(values.uniform(1.5, 3.0), 12)),
        }
    return op


def bo_op(seed: int, k: int) -> dict:
    """Op ``k`` of bo_tune: DeAR with run-time BO fusion tuning.

    Each block of ``BO_BLOCK`` ops runs every (model, fabric) once.  The
    batch size moves an op's cost by up to 2x, so the seed deals each
    block the same ladder of batch sizes in its own order rather than
    drawing them freely; it draws ``bo_seed`` freely.
    """
    sizes = list(_BO_BATCH_SIZES)
    _rng(seed, "bo-bs", k // BO_BLOCK).shuffle(sizes)
    return {
        "model": MODELS[k % len(MODELS)],
        "cluster": FABRICS[(k // len(MODELS)) % len(FABRICS)],
        "batch_size": sizes[k % BO_BLOCK],
        "bo_seed": _rng(seed, "bo", k).randrange(2**31),
    }


def serve_pool(seed: int) -> list[dict]:
    """The stratified serve_warm pool: every scheduler x every model.

    Payloads in the ``/v1/simulate`` wire format.
    """
    pool = []
    for j, model in enumerate(MODELS):
        for i, scheduler in enumerate(SWEEP_SCHEDULERS):
            values = _rng(seed, "serve", scheduler, model)
            options = {}
            if scheduler == "dear":
                options = {
                    "fusion": "buffer",
                    "buffer_bytes": float(values.randrange(5_000_000, 50_000_001)),
                }
            pool.append({
                "scheduler": scheduler, "model": model,
                "cluster": FABRICS[(i + j) % len(FABRICS)],
                "batch_size": values.randrange(16, 129), "options": options,
            })
    return pool


def serve_request(n: int, pool_size: int) -> int:
    """Pool index of the ``n``-th timed request (a fixed rotation)."""
    return n % pool_size


# -- spec building ------------------------------------------------------------


def sweep_spec(entry: dict):
    from repro.runner.spec import RunSpec

    return RunSpec.create(
        entry["scheduler"], entry["model"], entry["cluster"],
        batch_size=entry["batch_size"], algorithm=entry["algorithm"],
        **entry["options"],
    )


def straggler_spec(op: dict):
    from repro.faults.plan import FaultPlan, LinkFault, StragglerFault
    from repro.network.presets import cluster_10gbe
    from repro.runner.spec import RunSpec

    faults = None
    if op["faults"] is not None:
        s_start, s_end, factor = op["faults"]["straggler"]
        l_start, l_end, beta = op["faults"]["link"]
        faults = FaultPlan(
            stragglers=(StragglerFault(s_start, s_end, compute_factor=factor),),
            link_faults=(LinkFault(l_start, l_end, beta_factor=beta),),
        )
    return RunSpec.create(
        op["policy"], op["model"], cluster_10gbe(nodes=op["nodes"]),
        batch_size=op["batch_size"], faults=faults,
        compute_scales=tuple(op["compute_scales"]),
    )


def bo_spec(op: dict):
    from repro.runner.spec import RunSpec

    return RunSpec.create(
        "dear", op["model"], op["cluster"], batch_size=op["batch_size"],
        fusion="bo", bo_seed=op["bo_seed"],
    )


def without_fastpath(spec):
    """The same spec forced onto the event kernel."""
    options = dict(spec.options)
    options["fastpath"] = False
    return dataclasses.replace(spec, options=tuple(sorted(options.items())))


# -- checks -------------------------------------------------------------------


def invariant_errors(result, iterations: int) -> list[str]:
    """Finite positive iteration time, exposed <= iteration, iteration count."""
    errors = []
    value = result.iteration_time
    if not (isinstance(value, float) and math.isfinite(value) and value > 0.0):
        errors.append(f"iteration_time {value!r} is not finite and positive")
    exposed = getattr(result, "exposed_comm", None)
    if exposed is not None and not exposed <= value:
        errors.append(f"exposed_comm {exposed!r} > iteration_time {value!r}")
    if len(result.iteration_times) != iterations - 1:
        errors.append(
            f"{len(result.iteration_times)} iteration gaps, "
            f"expected {iterations - 1}"
        )
    return errors


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def match_errors(fast, slow) -> list[str]:
    """Fields where two results differ by more than 1e-9 relative."""
    errors = []
    names = ["iteration_time"]
    names += [n for n in ("t_ff", "t_bp", "exposed_comm", "exposed_rs", "exposed_ag")
              if hasattr(fast, n)]
    for name in names:
        if not _close(getattr(fast, name), getattr(slow, name)):
            errors.append(
                f"{name}: {getattr(fast, name)!r} vs event kernel "
                f"{getattr(slow, name)!r}"
            )
    if len(fast.iteration_times) != len(slow.iteration_times) or not all(
        _close(a, b) for a, b in zip(fast.iteration_times, slow.iteration_times)
    ):
        errors.append("iteration_times differ from the event kernel")
    return errors


# -- the timed loop -----------------------------------------------------------


@dataclasses.dataclass
class Window:
    """What one timed window produced.

    ``latencies``, ``wall`` and ``cpu`` are on the reference-speed scale
    (:mod:`perfbench.hostspeed`); the ``raw_*`` fields are as measured.
    """

    latencies: list = dataclasses.field(default_factory=list)
    raw_latencies: list = dataclasses.field(default_factory=list)
    records: list = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed_ops: set = dataclasses.field(default_factory=set)
    errors: list = dataclasses.field(default_factory=list)
    wall: float = 0.0
    raw_wall: float = 0.0
    cpu: float = 0.0
    raw_cpu: float = 0.0
    peak_rss_mb: float = 0.0
    counters: dict = dataclasses.field(default_factory=dict)
    started: float = 0.0
    ended: float = 0.0

    def fail(self, op: Optional[int], message: str) -> None:
        self.failed_ops.add(op if op is not None else ("extra", len(self.errors)))
        self.errors.append(f"op {op}: {message}" if op is not None else message)

    def add_time(self, wall: float, cpu: float, factor: float) -> None:
        self.raw_wall += wall
        self.wall += wall * factor
        self.raw_cpu += cpu
        self.cpu += cpu * factor

    def add_latency(self, seconds: float, factor: float) -> None:
        self.raw_latencies.append(seconds)
        self.latencies.append(seconds * factor)

    @property
    def factor(self) -> float:
        """The window's time-weighted host-speed factor."""
        return self.wall / self.raw_wall if self.raw_wall else 1.0


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _counter_total(registry, name: str, **labels) -> float:
    family = registry.families().get(name)
    if family is None:
        return 0.0
    total = 0.0
    for child in family.children:
        if all(child.label_dict().get(k) == v for k, v in labels.items()):
            total += child.value
    return total


def _histogram_totals(registry, name: str) -> tuple[float, float]:
    family = registry.families().get(name)
    if family is None:
        return 0.0, 0.0
    return (sum(c.total for c in family.children),
            sum(c.count for c in family.children))


def registry_counters(registry) -> dict:
    """The runner/cost-model counters the per-layer ratios are built from."""
    group_sum, group_count = _histogram_totals(registry, "runner.batched.group_size")
    return {
        "cache.hits": _counter_total(registry, "runner.cache.hits"),
        "cache.misses": _counter_total(registry, "runner.cache.misses"),
        "specs.computed": _counter_total(registry, "runner.specs", outcome="computed"),
        "batched.batched": _counter_total(
            registry, "runner.batched.specs", outcome="batched"),
        "group_size.sum": group_sum,
        "group_size.count": group_count,
        "costmodel.queries": _counter_total(registry, "costmodel.queries"),
        "costmodel.memo_hits": _counter_total(registry, "costmodel.memo_hits"),
    }


class _Spoiled:
    """A result whose iteration time reads NaN (``--inject-failure``)."""

    iteration_time = math.nan

    def __init__(self, result):
        self._result = result

    def __getattr__(self, name):
        return getattr(self._result, name)


class InProcessWorkload:
    """One caller, each op one ``run_many(jobs=1)`` call in this process."""

    name = ""
    #: A timed window ends only after a whole number of these blocks of
    #: ops, each of which holds the workload's mix in equal shares, so
    #: that how many ops fit in the window never tilts the mix.
    block = 1

    def __init__(self, seed: int, cache_dir: str, recorder=None):
        from repro.runner.cache import ResultCache

        self.seed = seed
        self.cache = ResultCache(root=cache_dir)
        self.recorder = recorder

    # Subclasses: inputs for op k (plain data) and the specs they build.
    def op_input(self, k: int, seed: Optional[int] = None):
        raise NotImplementedError

    def specs(self, op_input) -> list:
        raise NotImplementedError

    def setup(self) -> None:
        # The warm-up op (k = -1) is the same for every seed, so set-up
        # costs the same whatever values the seed picks.
        self._run(self.specs(self.op_input(-1, seed=WARMUP_SEED)))

    def _run(self, specs):
        from repro.runner import executor

        return executor.run_many(specs, jobs=1, cache=self.cache)

    def run_window(self, seconds: float, max_ops: Optional[int]) -> Window:
        from repro.telemetry.registry import default_registry

        recorder = self.recorder
        clock = recorder.now if recorder is not None else time.perf_counter
        window = Window()
        registry = default_registry()
        counters0 = registry_counters(registry)
        probe_counts0 = dict(recorder.counts) if recorder is not None else {}
        window.started = clock()
        before = hostspeed.probe()
        k = 0
        while max_ops is None or k < max_ops:
            specs = self.specs(self.op_input(k))
            window.attempted += 1
            if recorder is not None:
                recorder.op = k
            cpu0 = _cpu_seconds()
            op_started = clock()
            try:
                if recorder is not None:
                    with recorder.span("bench.op"):
                        results = self._run(specs)
                else:
                    results = self._run(specs)
            except Exception as exc:  # an op that raises is a failed op
                results = None
                window.fail(k, f"raised {type(exc).__name__}: {exc}")
            elapsed = clock() - op_started
            cpu = _cpu_seconds() - cpu0
            if recorder is not None:
                recorder.op = None
            after = hostspeed.probe()
            factor = hostspeed.scale(before, after)
            before = after
            window.add_time(elapsed, cpu, factor)
            if results is not None:
                window.add_latency(elapsed, factor)
                window.records.append((k, specs, results))
            k += 1
            if k == RSS_OPS:
                window.peak_rss_mb = _peak_rss_mb()
            # Stop on reference-speed time, so a run does the same work
            # however busy the host is: which ops ran sets p50 and memory.
            if max_ops is None and window.wall >= seconds and k % self.block == 0:
                break
        window.ended = clock()
        if k < RSS_OPS:
            window.peak_rss_mb = _peak_rss_mb()
        counters1 = registry_counters(registry)
        window.counters = {key: counters1[key] - counters0[key] for key in counters1}
        if recorder is not None:
            for key in ("costmodel.queries", "costmodel.memo_hits"):
                probe = f"probe.{key}"
                window.counters[key] -= (
                    recorder.counts.get(probe, 0) - probe_counts0.get(probe, 0)
                )
        return window

    def check(self, window: Window, sample: bool) -> None:
        for k, specs, results in window.records:
            for spec, result in zip(specs, results):
                for error in invariant_errors(result, spec.iterations):
                    window.fail(k, f"{spec.label}: {error}")
                for error in self.result_errors(spec, result):
                    window.fail(k, f"{spec.label}: {error}")
        if sample:
            self.sample_check(window)

    def result_errors(self, spec, result) -> list[str]:
        return []

    def spoil(self, window: Window) -> None:
        """Corrupt the first result, so that its checks must fail."""
        k, specs, results = window.records[0]
        window.records[0] = (k, specs, [_Spoiled(results[0]), *results[1:]])

    def sample_check(self, window: Window) -> None:
        pass

    def teardown(self) -> None:
        pass


class SweepCold(InProcessWorkload):
    name = "sweep_cold"
    block = len(MODELS)  # every scheduler runs every model once

    def __init__(self, seed, cache_dir, recorder=None):
        super().__init__(seed, cache_dir, recorder)
        self._sizes = _SweepSizes(seed)

    def setup(self) -> None:
        from repro.network.autotuner import ensure_table
        from repro.network.presets import paper_testbed

        for fabric in FABRICS:
            ensure_table(paper_testbed(fabric))
        super().setup()

    def op_input(self, k, seed=None):
        if seed is not None:
            return sweep_op(seed, k)
        return sweep_op(self.seed, k, self._sizes)

    def specs(self, op_input):
        return [sweep_spec(entry) for entry in op_input]

    def sample_check(self, window):
        flat = [(k, spec, result) for k, specs, results in window.records
                for spec, result in zip(specs, results)]
        chosen = _rng(self.seed, "sweep-sample").sample(
            range(len(flat)), min(SWEEP_SAMPLE, len(flat)))
        for index in chosen:
            k, spec, result = flat[index]
            for error in match_errors(result, without_fastpath(spec).run()):
                window.fail(k, f"{spec.label}: {error}")


class Straggler1024(InProcessWorkload):
    name = "straggler_1024"

    def op_input(self, k, seed=None):
        return straggler_op(self.seed if seed is None else seed, k)

    def specs(self, op_input):
        return [straggler_spec(op_input)]

    def sample_check(self, window):
        count = min(STRAGGLER_SAMPLE, max(1, len(window.records)))
        for k in range(count):
            spec = straggler_spec(straggler_op(self.seed, k, nodes=SAMPLE_NODES))
            fast = self._run([spec])[0]
            for error in (invariant_errors(fast, spec.iterations)
                          + match_errors(fast, without_fastpath(spec).run())):
                window.fail(None, f"64-rank sample {k}: {error}")


class BOTune(InProcessWorkload):
    name = "bo_tune"
    block = BO_BLOCK

    def op_input(self, k, seed=None):
        return bo_op(self.seed if seed is None else seed, k)

    def specs(self, op_input):
        return [bo_spec(op_input)]

    def result_errors(self, spec, result):
        options = dict(spec.options)
        trials = options.get("bo_trials", 15)
        low = options.get("bo_low", 1e6)
        high = options.get("bo_high", 100e6)
        errors = []
        history = result.extras.get("bo_history", ())
        if len(history) != trials:
            errors.append(f"{len(history)} BO history entries, expected {trials}")
        chosen = result.extras.get("buffer_bytes")
        if chosen is None or not low <= chosen <= high:
            errors.append(f"buffer_bytes {chosen!r} outside [{low}, {high}]")
        return errors


# -- serve_warm ---------------------------------------------------------------


def _proc_cpu_seconds(pid: int) -> float:
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # utime and stime are fields 14 and 15 of stat(5); index 0 here is field 3.
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


def _metric_total(snapshot: dict, name: str, field: str = "value") -> float:
    family = snapshot.get(name)
    if family is None:
        return 0.0
    return float(sum(entry.get(field, 0.0) for entry in family["values"]))


def serve_counters(snapshot: dict) -> dict:
    return {
        "cache.hits": _metric_total(snapshot, "runner.cache.hits"),
        "cache.misses": _metric_total(snapshot, "runner.cache.misses"),
        "dedup": _metric_total(snapshot, "serve.dedup_hits"),
        "batch_size.sum": _metric_total(snapshot, "serve.batch_size", "sum"),
        "batch_size.count": _metric_total(snapshot, "serve.batch_size", "count"),
    }


class ServeWarm:
    """A ``dear-repro serve --jobs 1`` subprocess and two closed-loop clients."""

    name = "serve_warm"

    def __init__(self, seed: int, cache_dir: str, spans_out: Optional[str] = None):
        self.seed = seed
        self.cache_dir = cache_dir
        self.spans_out = spans_out
        self.pool = serve_pool(seed)
        self.proc: Optional[subprocess.Popen] = None
        self.client = None

    def setup(self) -> None:
        from repro.serve.client import ServeClient

        if self.spans_out is None:
            command = [sys.executable, "-m", "repro.cli", "serve"]
        else:
            command = [sys.executable, "-m", "perfbench.serve_host",
                       "--spans-out", self.spans_out]
        command += ["--port", "0", "--jobs", "1"]
        env = dict(os.environ, DEAR_CACHE_DIR=self.cache_dir)
        self.proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, env=env,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], 60.0)
        line = self.proc.stdout.readline() if ready else ""
        if "listening on" not in line:
            raise RuntimeError(f"serve did not start: {line!r}")
        self.client = ServeClient(line.split()[-1], timeout=60.0)
        # Prefill: every pool entry once, from the same two clients.
        self._drive(0, lambda n: n < len(self.pool), lambda n: self.pool[n])
        self.client.simulate(self.pool[0])  # warm-up op (a hit)

    def _drive(self, first: int, more, payload_of, on_done=None) -> int:
        """Closed loop from request ``first``: each client sends its next
        request when its last returns, while ``more(n)``.  Returns the
        next request index."""
        lock = threading.Lock()
        counter = [first]
        failures: list[BaseException] = []

        def client_loop():
            while True:
                with lock:
                    n = counter[0]
                    if not more(n):
                        return
                    counter[0] += 1
                started = time.perf_counter()
                try:
                    reply = self.client.simulate(payload_of(n))
                except Exception as exc:  # recorded as a failed request
                    reply = exc
                ended = time.perf_counter()
                if on_done is not None:
                    on_done(n, started, ended, reply)
                elif isinstance(reply, Exception):
                    failures.append(reply)
                    return

        threads = [threading.Thread(target=client_loop) for _ in range(SERVE_CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if failures:
            raise failures[0]
        return counter[0]

    def run_window(self, seconds: float, max_ops: Optional[int]) -> Window:
        """Segments of SERVE_SEGMENT_S load, each after its own host probe."""
        window = Window()
        replies: dict[int, tuple] = {}
        counters0 = serve_counters(self.client.metrics())
        window.started = time.perf_counter()
        n = 0
        before = hostspeed.probe()
        while (n < max_ops) if max_ops is not None else (window.wall < seconds):
            cpu0 = _proc_cpu_seconds(self.proc.pid)
            started = time.perf_counter()
            stop = started + SERVE_SEGMENT_S
            segment: list = []

            def more(n):
                if max_ops is not None:
                    return n < max_ops and time.perf_counter() < stop
                return time.perf_counter() < stop

            def on_done(n, sent, answered, reply):
                segment.append((n, answered - sent, reply))

            n = self._drive(
                n, more, lambda n: self.pool[serve_request(n, len(self.pool))],
                on_done,
            )
            elapsed = time.perf_counter() - started
            cpu = _proc_cpu_seconds(self.proc.pid) - cpu0
            after = hostspeed.probe()
            factor = hostspeed.scale(before, after)
            before = after
            window.add_time(elapsed, cpu, factor)
            for n_done, latency, reply in segment:
                replies[n_done] = (latency, reply, factor)
        window.ended = time.perf_counter()
        window.peak_rss_mb = _proc_peak_rss_mb(self.proc.pid)
        counters1 = serve_counters(self.client.metrics())
        window.counters = {key: counters1[key] - counters0[key] for key in counters1}
        window.attempted = len(replies)
        for n in sorted(replies):
            latency, reply, factor = replies[n]
            if isinstance(reply, Exception):
                window.fail(n, f"request failed: {reply}")
                continue
            window.add_latency(latency, factor)
            window.records.append((n, reply))
        return window

    def check(self, window: Window, sample: bool) -> None:
        from repro.api import config_from_payload
        from repro.runner.cache import ResultCache, result_to_dict
        from repro.runner.executor import run_many

        specs = [config_from_payload(payload).to_spec() for payload in self.pool]
        reference = run_many(specs, jobs=1, cache=ResultCache(enabled=False))
        expected = [
            (spec.fingerprint, json.loads(json.dumps(result_to_dict(result))))
            for spec, result in zip(specs, reference)
        ]
        for n, reply in window.records:
            fingerprint, result = expected[serve_request(n, len(self.pool))]
            if reply.get("fingerprint") != fingerprint:
                window.fail(n, "fingerprint differs from the in-process spec")
            elif reply.get("result") != result:
                window.fail(n, "result differs from the in-process result")
        counters = window.counters
        if counters["cache.misses"] != 0:
            window.fail(None, f"{counters['cache.misses']:.0f} cache misses in a warm window")
        if counters["cache.hits"] + counters["dedup"] != window.attempted:
            window.fail(
                None,
                f"{counters['cache.hits']:.0f} hits + {counters['dedup']:.0f} "
                f"deduped != {window.attempted} requests",
            )

    def spoil(self, window: Window) -> None:
        """Corrupt the first reply, so that its check must fail."""
        n, reply = window.records[0]
        window.records[0] = (n, dict(reply, result=None))

    def teardown(self) -> None:
        if self.proc is None:
            return
        try:
            if self.client is not None and self.proc.poll() is None:
                self.client.shutdown()
            self.proc.wait(timeout=30.0)
        except Exception:
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdout.close()


WORKLOADS = ("sweep_cold", "serve_warm", "straggler_1024", "bo_tune")


def make_workload(name: str, seed: int, cache_dir: str, recorder=None,
                  spans_out: Optional[str] = None):
    if name == "serve_warm":
        return ServeWarm(seed, cache_dir, spans_out=spans_out)
    classes = {cls.name: cls for cls in (SweepCold, Straggler1024, BOTune)}
    return classes[name](seed, cache_dir, recorder)
