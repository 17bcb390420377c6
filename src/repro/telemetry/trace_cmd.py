"""The ``dear-repro trace`` subcommand: one run, fully observed.

Simulates one scheduler x model x fabric configuration with the tracer
attached and writes three artifacts:

- ``trace_<scheduler>_<model>_<fabric>.json`` — a Chrome/Perfetto
  trace-event file with per-rank compute/comm rows, counter tracks
  (bytes in flight, comm-queue depth) and flow arrows following each
  fusion group's gradient lifecycle (grad-ready -> RS -> AG -> update);
- ``metrics_<scheduler>_<model>_<fabric>.json`` — the metrics-registry
  snapshot of everything the run touched: simulator streams, cost-model
  memoization, runner cache, data-level transport byte counters;
- a terminal breakdown table decomposing the steady-state iteration
  into per-category total / hidden / exposed time (the Fig. 8 view).

The exposed-communication figure printed in the table is recomputed
from the trace and cross-checked against ``ScheduleResult.exposed_comm``,
which the run measured from its job timestamps without spans; the two
must be equal, and a mismatch exits non-zero, making the command a
self-validating smoke test of the whole telemetry path.

The command is a thin shell over the stable facade (:mod:`repro.api`):
it builds one :class:`~repro.api.SimulationConfig` and executes it via
``run_simulation`` / ``run_collective``.  ``--slow-link FACTOR``
attaches a whole-run link-degradation fault, which shows up as
``fault.degraded_link`` instant events in the Perfetto trace.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

__all__ = ["trace_main"]

#: Default fusion-buffer threshold when none is given (paper Fig. 7).
_DEFAULT_BUFFER_BYTES = 25e6

#: Ranks used by the data-level collective exercise (kept small: the
#: point is populating transport counters, not re-running Table V).
_DATA_LEVEL_RANKS = 8

#: Elements per rank in the data-level exercise buffers.
_DATA_LEVEL_ELEMENTS = 4096


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dear-repro trace",
        description=(
            "Simulate one configuration and write a Perfetto trace, a "
            "metrics snapshot, and a per-category time breakdown."
        ),
    )
    parser.add_argument(
        "--scheduler", default="dear",
        help="scheduler registry name (default: dear)",
    )
    parser.add_argument(
        "--model", default="resnet50",
        help="model zoo name (default: resnet50)",
    )
    parser.add_argument(
        "--fabric", default="10gbe",
        help="paper testbed fabric, e.g. 10gbe or 100gbib (default: 10gbe)",
    )
    parser.add_argument(
        "--algorithm", default="ring",
        help="collective algorithm family (default: ring)",
    )
    parser.add_argument(
        "--fusion", default=None,
        help="DeAR fusion mode: none, layers, buffer, bo (default: buffer)",
    )
    parser.add_argument(
        "--buffer-bytes", type=float, default=None, metavar="BYTES",
        help="fusion buffer threshold (default: 25e6 where applicable)",
    )
    parser.add_argument(
        "--iterations", type=int, default=5, metavar="N",
        help="simulated iterations (default: 5)",
    )
    parser.add_argument(
        "--iteration-compute", type=float, default=None, metavar="SECONDS",
        help="single-GPU compute override for uncalibrated models",
    )
    parser.add_argument(
        "--slow-link", type=float, default=None, metavar="FACTOR",
        help=(
            "degrade every link by FACTOR (alpha and beta) for the whole "
            "run; emits fault.degraded_link instants into the trace"
        ),
    )
    parser.add_argument(
        "--output", default=".", metavar="DIR",
        help="directory for the trace and metrics files (default: cwd)",
    )
    return parser


def _scheduler_options(args: argparse.Namespace) -> dict:
    """Map the generic flags onto the chosen scheduler's constructor."""
    options: dict = {}
    if args.scheduler == "dear":
        options["fusion"] = args.fusion if args.fusion is not None else "buffer"
        if options["fusion"] in ("buffer", "bo"):
            options["buffer_bytes"] = (
                args.buffer_bytes if args.buffer_bytes is not None
                else _DEFAULT_BUFFER_BYTES
            )
    elif args.buffer_bytes is not None:
        options["buffer_bytes"] = args.buffer_bytes
    return options


def _fault_plan(args: argparse.Namespace):
    """The timing-level fault plan implied by the CLI flags (or None)."""
    if args.slow_link is None:
        return None
    if args.slow_link <= 0:
        raise ValueError(f"--slow-link must be positive, got {args.slow_link}")
    from repro.faults.plan import FaultPlan, LinkFault

    # A window far longer than any simulated run = the whole run.
    return FaultPlan(
        link_faults=(
            LinkFault(
                start=0.0,
                end=1e9,
                alpha_factor=args.slow_link,
                beta_factor=args.slow_link,
                link="both",
            ),
        )
    )


def _exercise_runner_cache(config) -> None:
    """Route the same configuration through the cached runner.

    The first call is a miss (or a hit from a previous invocation), the
    second is a guaranteed hit — so the metrics snapshot always carries
    non-trivial ``runner.cache.*`` counters.
    """
    from repro.api import run_simulation

    run_simulation(config, cached=True)
    run_simulation(config, cached=True)


def _exercise_data_level(algorithm: str) -> None:
    """Push one decoupled RS+AG pair and one fused all-reduce through
    the data-level transport, so per-rank byte counters and the
    readiness-coordinator rendezvous costs land in the snapshot."""
    from repro.api import run_collective
    from repro.collectives.communicator import Communicator
    from repro.collectives.coordinator import ReadinessCoordinator

    world = _DATA_LEVEL_RANKS
    gpus_per_node = 2 if algorithm == "hierarchical" else None
    try:
        run_collective(
            "rs_ag",
            world,
            nelems=_DATA_LEVEL_ELEMENTS,
            algorithm=algorithm,
            gpus_per_node=gpus_per_node,
        )
        run_collective(
            "all_reduce",
            world,
            nelems=_DATA_LEVEL_ELEMENTS,
            algorithm=algorithm,
            gpus_per_node=gpus_per_node,
        )
    except ValueError:
        run_collective("rs_ag", world, nelems=_DATA_LEVEL_ELEMENTS)
        run_collective("all_reduce", world, nelems=_DATA_LEVEL_ELEMENTS)

    comm = Communicator(world)
    coordinator = ReadinessCoordinator(comm.transport)
    for rank in range(world):
        coordinator.report(rank, ["grad.0", "grad.1"])
    coordinator.cycle()


def _file_stem(args: argparse.Namespace) -> str:
    raw = f"{args.scheduler}_{args.model}_{args.fabric}"
    return re.sub(r"[^A-Za-z0-9_.-]+", "-", raw)


def trace_main(argv: list[str]) -> int:
    """Entry point for ``dear-repro trace`` (returns an exit code)."""
    args = _build_parser().parse_args(argv)

    from repro.api import SimulationConfig, run_simulation
    from repro.telemetry.breakdown import (
        format_breakdown_table,
        steady_state_window,
        trace_breakdown,
    )
    from repro.telemetry.registry import MetricsRegistry, set_default_registry

    # A fresh registry scopes the snapshot to exactly this invocation.
    registry = MetricsRegistry()
    set_default_registry(registry)

    options = _scheduler_options(args)
    try:
        config = SimulationConfig.create(
            args.scheduler,
            args.model,
            args.fabric,
            algorithm=args.algorithm,
            iterations=args.iterations,
            iteration_compute=args.iteration_compute,
            faults=_fault_plan(args),
            **options,
        )
    except (KeyError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    model, cluster = config.model, config.cluster

    try:
        result = run_simulation(config, trace=True)
    except (KeyError, ValueError, TypeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if result.tracer is None:
        print("error: run produced no trace", file=sys.stderr)
        return 1

    _exercise_runner_cache(config)
    _exercise_data_level(args.algorithm)

    tracer = result.tracer
    window = steady_state_window(tracer)
    rows = trace_breakdown(tracer, window)
    comm_rows = [row for row in rows if row.category == "comm (all)"]
    trace_exposed = comm_rows[0].exposed if comm_rows else 0.0

    directory = Path(args.output)
    directory.mkdir(parents=True, exist_ok=True)
    stem = _file_stem(args)
    trace_path = directory / f"trace_{stem}.json"
    trace_path.write_text(tracer.to_chrome_trace())
    metrics_path = directory / f"metrics_{stem}.json"
    metrics_path.write_text(registry.to_json() + "\n")

    print(
        f"== trace: {args.scheduler} x {model.name} x {cluster.name} "
        f"({getattr(result, 'extras', {}).get('fusion', '') or args.algorithm}) =="
    )
    print(
        f"iteration {result.iteration_time * 1e3:.3f} ms, "
        f"throughput {result.throughput:.1f} samples/s "
        f"({result.world_size} GPUs)"
    )
    print()
    print(format_breakdown_table(rows, window))
    print()
    print(f"trace written to {trace_path} (load in ui.perfetto.dev)")
    print(f"metrics written to {metrics_path}")

    matches = trace_exposed == result.exposed_comm
    status = "OK" if matches else "MISMATCH"
    print(
        f"exposed-comm cross-check [{status}]: trace {trace_exposed:.9e} s "
        f"vs result {result.exposed_comm:.9e} s"
    )
    if not matches:
        print(
            "error: trace-derived exposed communication disagrees with the "
            "simulator's",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(trace_main(sys.argv[1:]))
