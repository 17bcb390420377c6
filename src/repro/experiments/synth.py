"""Synthesized vs preset collectives across fabrics and scales.

Not a paper figure — the DeAR paper prices hand-written presets only —
but the ROADMAP item 3 study: schedules *derived* from the declared
topology (SCCL-style, see :mod:`repro.collectives.synthesis` and
docs/SYNTHESIS.md) against the best hand-written preset the autotuner
can reach.

Three sections of rows:

- ``priced`` — per (fabric, world, size): the best preset candidate
  (over algorithm x protocol x channels) vs the best synthesized
  candidate, both priced by the protocol-aware model.  Speedup > 1
  means the synthesized schedule beats everything hand-written.
- ``auto`` — how many selection-table buckets each fabric/world hands
  to a synthesized schedule once they join the candidate pool, i.e.
  what ``algorithm="auto"`` will actually pick.
- ``exec`` — data-level proof: the synthesized schedule executed over
  the real transport is bit-exact against the ring schedule, with its
  measured wire traffic.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.common import format_table

__all__ = ["run", "format_rows", "WORLD_SIZES", "FABRICS", "SWEEP_SIZES"]

WORLD_SIZES = (64, 256, 1024)
FABRICS = ("10gbe", "100gbib", "nvlink")

#: Priced sweep: latency-bound, crossover, and bandwidth-bound points.
SWEEP_SIZES = (4096.0, 2.0**20, 2.0**26)

_SYNTH = ("synth_lat", "synth_bw")


def _cluster(fabric: str, world: int):
    from repro.network.presets import paper_testbed

    base = paper_testbed(fabric)
    return base.with_nodes(world // base.gpus_per_node)


def _best_times(cluster, sizes: np.ndarray):
    """(best preset, best synth) per size: label + time arrays."""
    from repro.network.autotuner import candidate_selections
    from repro.network.protocol import collective_times

    best: dict[bool, tuple[np.ndarray, list]] = {}
    for selection in candidate_selections(cluster):
        synthesized = selection.algorithm in _SYNTH
        times = collective_times(
            "all_reduce", sizes, cluster,
            algorithm=selection.algorithm,
            protocol=selection.protocol,
            channels=selection.channels,
        )
        if synthesized not in best:
            best[synthesized] = (times, [selection.label] * sizes.size)
            continue
        current, labels = best[synthesized]
        improved = times < current
        best[synthesized] = (
            np.where(improved, times, current),
            [selection.label if flip else label
             for flip, label in zip(improved, labels)],
        )
    return best[False], best[True]


def _priced_rows() -> list[dict]:
    sizes = np.array(SWEEP_SIZES)
    rows = []
    for fabric in FABRICS:
        for world in WORLD_SIZES:
            cluster = _cluster(fabric, world)
            (preset_t, preset_l), (synth_t, synth_l) = _best_times(cluster, sizes)
            for index, nbytes in enumerate(sizes):
                rows.append(
                    {
                        "section": "priced",
                        "fabric": fabric,
                        "world": world,
                        "bytes": int(nbytes),
                        "best_preset": preset_l[index],
                        "preset_ms": float(preset_t[index]) * 1e3,
                        "best_synth": synth_l[index],
                        "synth_ms": float(synth_t[index]) * 1e3,
                        "speedup": float(preset_t[index] / synth_t[index]),
                    }
                )
    return rows


def _auto_rows() -> list[dict]:
    from repro.network.autotuner import build_selection_table

    rows = []
    for fabric in FABRICS:
        for world in WORLD_SIZES:
            cluster = _cluster(fabric, world)
            table = build_selection_table(cluster)
            selections = [
                selection
                for buckets in table.entries.values()
                for selection in buckets.values()
            ]
            synth_buckets = sum(
                1 for selection in selections if selection.algorithm in _SYNTH
            )
            example = table.lookup("all_reduce", 4096.0)
            rows.append(
                {
                    "section": "auto",
                    "fabric": fabric,
                    "world": world,
                    "buckets": len(selections),
                    "synth_buckets": synth_buckets,
                    "synth_share": synth_buckets / len(selections),
                    "ar_4KiB_winner": example.label,
                }
            )
    return rows


def _exec_rows() -> list[dict]:
    from repro.collectives.synthesis import (
        Topology,
        algorithm_schedule,
        run_schedule,
        schedule_for,
    )
    from repro.collectives.transport import Transport

    rows = []
    rng = np.random.default_rng(0)
    for nodes, gpus in ((1, 5), (2, 3), (4, 4)):
        topology = Topology.from_shape(nodes, gpus)
        world = topology.world_size
        data = rng.integers(-8, 8, size=(world, 1000)).astype(np.float64)
        ring_buffers = [row.copy() for row in data]
        ring_transport = Transport(world)
        run_schedule(ring_transport, ring_buffers,
                     algorithm_schedule("ring", "all_reduce", world))
        for objective in ("latency", "bandwidth"):
            schedule = schedule_for(topology, "all_reduce", objective)
            buffers = [row.copy() for row in data]
            transport = Transport(world)
            run_schedule(transport, buffers, schedule)
            max_diff = max(
                float(np.abs(got - want).max())
                for got, want in zip(buffers, ring_buffers)
            )
            rows.append(
                {
                    "section": "exec",
                    "topology": topology.name,
                    "objective": objective,
                    "steps": schedule.num_steps,
                    "wire_bytes": transport.stats.bytes,
                    "ring_wire_bytes": ring_transport.stats.bytes,
                    "max_abs_diff": max_diff,
                }
            )
    return rows


def run() -> list[dict]:
    """All three sections; one list, distinguished by ``row["section"]``."""
    return _priced_rows() + _auto_rows() + _exec_rows()


def format_rows(rows: list[dict]) -> str:
    sections = []
    for name in ("priced", "auto", "exec"):
        body = [
            {key: value for key, value in row.items() if key != "section"}
            for row in rows
            if row["section"] == name
        ]
        if body:
            sections.append(f"-- {name} --\n{format_table(body)}")
    return "\n\n".join(sections)
