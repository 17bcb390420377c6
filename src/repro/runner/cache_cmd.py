"""The ``dear-repro cache`` subcommand: inspect and prune the result store.

The serve daemon and the CI bench/chaos jobs all share one
``.dear-cache/`` directory (see :mod:`repro.runner.cache`); this command
is the operational face of that store::

    dear-repro cache stats                     # entries, bytes, hit counters
    dear-repro cache stats --json
    dear-repro cache prune --max-age-days 30   # drop cold entries
    dear-repro cache prune --max-bytes 50000000
    dear-repro cache prune --max-age-days 7 --dry-run

Pruning is safe by construction: every entry is a recomputable
memoisation, so the worst a prune can do is force a recompute.  Age uses
the entry's mtime, which the cache refreshes on every hit — old means
*cold*, not merely *written long ago*.  Size pruning evicts
oldest-first until the store fits the budget.

The lifetime counters lag each running process by fewer than
:data:`~repro.runner.cache.FLUSH_EVERY` lookups and puts; they are exact
once it has exited (or, for ``dear-repro serve``, drained).

Exit codes: 0 success, 2 bad usage / unreadable root.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.runner.cache import FLUSH_EVERY, ResultCache, _read_counters

__all__ = ["cache_main", "scan_store", "prune_store"]


def _iter_entries(root: Path):
    """Yield ``(schema, path, stat)`` per cache entry file.

    Only ``<schema>/<aa>/<fingerprint>.json`` leaves count; the
    top-level counters file and stray temp files are not entries.
    Entries that vanish mid-scan (a concurrent prune) are skipped.
    """
    if not root.is_dir():
        return
    for schema_dir in sorted(path for path in root.iterdir() if path.is_dir()):
        for path in sorted(schema_dir.glob("*/*.json")):
            try:
                yield schema_dir.name, path, path.stat()
            except OSError:
                continue


def scan_store(root: Path) -> dict:
    """Stats payload for the store at ``root``."""
    schemas: dict[str, dict] = {}
    total_entries = 0
    total_bytes = 0
    oldest = newest = None
    for schema, _path, stat in _iter_entries(root):
        body = schemas.setdefault(schema, {"entries": 0, "bytes": 0})
        body["entries"] += 1
        body["bytes"] += stat.st_size
        total_entries += 1
        total_bytes += stat.st_size
        oldest = stat.st_mtime if oldest is None else min(oldest, stat.st_mtime)
        newest = stat.st_mtime if newest is None else max(newest, stat.st_mtime)
    counters = _read_counters(root)
    hits = counters.get("hits", 0)
    misses = counters.get("misses", 0)
    lookups = hits + misses
    return {
        "root": str(root),
        "entries": total_entries,
        "bytes": total_bytes,
        "schemas": schemas,
        "oldest_age_s": (time.time() - oldest) if oldest is not None else None,
        "newest_age_s": (time.time() - newest) if newest is not None else None,
        "counters": {
            "hits": hits,
            "misses": misses,
            "puts": counters.get("puts", 0),
            "hit_rate": (hits / lookups) if lookups else 0.0,
        },
    }


def prune_store(
    root: Path,
    max_age_days: float | None = None,
    max_bytes: int | None = None,
    dry_run: bool = False,
) -> dict:
    """Remove entries past the age cutoff, then oldest-first to the byte budget."""
    entries = [(path, stat.st_mtime, stat.st_size)
               for _schema, path, stat in _iter_entries(root)]
    doomed: list[tuple[Path, float, int]] = []
    survivors = list(entries)
    if max_age_days is not None:
        cutoff = time.time() - max_age_days * 86400.0
        doomed = [entry for entry in survivors if entry[1] < cutoff]
        survivors = [entry for entry in survivors if entry[1] >= cutoff]
    if max_bytes is not None:
        kept_bytes = sum(size for _path, _mtime, size in survivors)
        survivors.sort(key=lambda entry: entry[1])
        index = 0
        while kept_bytes > max_bytes and index < len(survivors):
            doomed.append(survivors[index])
            kept_bytes -= survivors[index][2]
            index += 1
    removed_bytes = 0
    removed = 0
    for path, _mtime, size in doomed:
        if not dry_run:
            try:
                path.unlink()
            except OSError:
                continue
            # Fingerprint shards and schema dirs vanish when emptied.
            for parent in (path.parent, path.parent.parent):
                try:
                    parent.rmdir()
                except OSError:
                    break
        removed += 1
        removed_bytes += size
    return {
        "root": str(root),
        "removed": removed,
        "removed_bytes": removed_bytes,
        "kept": len(entries) - removed,
        "dry_run": dry_run,
    }


def _format_bytes(count: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if count < 1024 or unit == "GiB":
            return f"{count:.1f}{unit}" if unit != "B" else f"{int(count)}B"
        count /= 1024.0
    return f"{count:.1f}GiB"


def _format_age(seconds: float | None) -> str:
    if seconds is None:
        return "-"
    if seconds < 3600:
        return f"{seconds / 60:.0f}m"
    if seconds < 86400:
        return f"{seconds / 3600:.1f}h"
    return f"{seconds / 86400:.1f}d"


def cache_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="dear-repro cache",
        description="Inspect and prune the shared on-disk result cache.",
    )
    parser.add_argument(
        "--root", metavar="DIR", default=None,
        help="cache directory (default: DEAR_CACHE_DIR or .dear-cache)",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    stats_help = (
        "entries, bytes, and lifetime hit counters (a running process "
        f"writes its counts every {FLUSH_EVERY} lookups and puts, and "
        "when it exits)"
    )
    stats_parser = commands.add_parser(
        "stats", help=stats_help, description=stats_help
    )
    stats_parser.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    prune_parser = commands.add_parser(
        "prune", help="drop entries by age and/or shrink to a byte budget"
    )
    prune_parser.add_argument(
        "--max-age-days", type=float, default=None, metavar="DAYS",
        help="drop entries not touched for DAYS days",
    )
    prune_parser.add_argument(
        "--max-bytes", type=int, default=None, metavar="N",
        help="then evict oldest-first until at most N bytes remain",
    )
    prune_parser.add_argument(
        "--dry-run", action="store_true",
        help="report what would be removed without deleting anything",
    )
    args = parser.parse_args(argv)

    # ResultCache resolves the default root through core.env, so the CLI
    # honours DEAR_CACHE_DIR exactly like the runtime does.
    root = Path(args.root) if args.root else ResultCache().root

    if args.command == "stats":
        payload = scan_store(root)
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
            return 0
        counters = payload["counters"]
        print(f"cache root: {payload['root']}")
        print(
            f"entries: {payload['entries']} "
            f"({_format_bytes(payload['bytes'])} total)"
        )
        for schema, body in sorted(payload["schemas"].items()):
            print(
                f"  {schema}: {body['entries']} entries, "
                f"{_format_bytes(body['bytes'])}"
            )
        print(
            f"ages: newest {_format_age(payload['newest_age_s'])}, "
            f"oldest {_format_age(payload['oldest_age_s'])}"
        )
        print(
            f"lifetime: {counters['hits']} hits / {counters['misses']} misses "
            f"/ {counters['puts']} puts "
            f"(hit rate {100.0 * counters['hit_rate']:.0f}%)"
        )
        return 0

    if args.max_age_days is None and args.max_bytes is None:
        print(
            "error: prune needs --max-age-days and/or --max-bytes",
            file=sys.stderr,
        )
        return 2
    payload = prune_store(
        root,
        max_age_days=args.max_age_days,
        max_bytes=args.max_bytes,
        dry_run=args.dry_run,
    )
    verb = "would remove" if payload["dry_run"] else "removed"
    print(
        f"{verb} {payload['removed']} entries "
        f"({_format_bytes(payload['removed_bytes'])}), "
        f"{payload['kept']} kept under {payload['root']}"
    )
    return 0
