"""``dear-repro serve`` with the benchmark's layer spans installed.

Used by the traced ``serve_warm`` run in place of ``python -m repro.cli
serve``: it installs :func:`perfbench.tracing.install`, runs the daemon
with the remaining arguments, and after the daemon drains writes every
span to ``--spans-out`` as JSON.  Timestamps are ``perf_counter``
(the system-wide monotonic clock), comparable with the client's.
"""

from __future__ import annotations

import argparse
import json
import sys

from perfbench import tracing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spans-out", required=True)
    args, rest = parser.parse_known_args(argv)
    recorder = tracing.Recorder()
    tracing.install(recorder)
    from repro.serve.daemon import main as serve_main

    code = serve_main(rest)
    with open(args.spans_out, "w") as handle:
        json.dump([span.as_dict() for span in recorder.spans], handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
