"""Start ``repro serve`` with the traced run's wrappers installed.

    python3 perfbench/serve_launcher.py --spans-out FILE -- --model M --port 0

Installs the gateway wrappers (tracing.install_gateway), then runs the
same code path as ``repro serve`` with the remaining arguments. Recording
starts on SIGUSR1 and stops on SIGUSR2, so the benchmark can trace one
phase of a run and leave the others untraced; each switch snapshots the
backend's cache counters. Spans stay in memory and are written to FILE
once, when the server has drained and exits.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Patcher, Recorder  # noqa: E402
import tracing  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans-out", required=True)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = [a for a in args.serve_args if a != "--"]

    from repro import cli
    from repro.gateway.server import GatewayServer

    recorder = Recorder()
    recorder.enabled = False
    patcher = Patcher()
    tracing.install_gateway(patcher, recorder)
    servers: list = []
    patcher.patch(GatewayServer, "__init__", lambda f: _capture(f, servers))
    cache_marks: list[dict] = []

    def cache_info() -> dict:
        info = servers[0].backend.cache_info() if servers else {}
        return {"hits": int(info.get("hits", 0)), "misses": int(info.get("misses", 0))}

    def start(_signum, _frame) -> None:
        cache_marks.append(cache_info())
        recorder.enabled = True

    def stop(_signum, _frame) -> None:
        recorder.enabled = False
        cache_marks.append(cache_info())

    signal.signal(signal.SIGUSR1, start)
    signal.signal(signal.SIGUSR2, stop)
    try:
        return cli.main(["serve", *serve_args])
    finally:
        recorder.enabled = False
        patcher.restore()
        payload = {
            "spans": [span.to_dict() for span in recorder.spans],
            "counts": dict(recorder.counts),
            "cache_marks": cache_marks,
        }
        Path(args.spans_out).write_text(json.dumps(payload), encoding="utf-8")


def _capture(init, servers: list):
    def wrapper(self, *args, **kwargs):
        init(self, *args, **kwargs)
        servers.append(self)

    return wrapper


if __name__ == "__main__":
    sys.exit(main())
