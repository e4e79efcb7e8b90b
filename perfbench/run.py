"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload fit --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. Workloads (README.md says why each
exists): ``fit``, ``stream``, ``serve_hot``, ``serve_cold``. With
``--trace 0`` the result holds the end-to-end metrics; with ``--trace 1``
the per-layer metrics of a traced run. The line before the result is a
JSON ``detail`` record: the host stamp, the tail percentile and sample
count, and per-workload extras.

Everything the run writes stays under ``.bench_build/`` in the checkout.
The exit code is 0 only when every correctness gate passed; a failed gate
prints its reason on stderr and no result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORKLOADS = ("fit", "stream", "serve_hot", "serve_cold")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _prepare_environment() -> Path:
    """Point every file the program writes into ``.bench_build``."""
    build = ROOT / ".bench_build"
    (build / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_CC_CACHE_DIR"] = str(build / "cc")
    os.environ["TMPDIR"] = str(build / "tmp")
    os.environ.pop("REPRO_COMPILED_DISABLE", None)
    os.environ.pop("REPRO_SWEEP_KERNEL", None)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    return build


def main(argv=None) -> int:
    args = _parse(argv)
    # a terminated run still unwinds, so the server it started is stopped
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            "perfbench: src/repro not found; run from the root of a checkout",
            file=sys.stderr,
        )
        return 2
    build = _prepare_environment()

    from repro.core._compiled import backend_status

    available, reason = backend_status()  # one-time kernel build, before set-up
    if not available:
        print(f"perfbench: compiled sweep kernel unavailable: {reason}", file=sys.stderr)
        return 1

    import common
    import hostprobe

    if args.workload == "fit":
        import wl_fit as workload
    elif args.workload == "stream":
        import wl_stream as workload
    else:
        import wl_serve as workload
    started = time.perf_counter()
    try:
        if args.workload.startswith("serve_"):
            result = workload.run(args.workload, args.seed, args.seconds, bool(args.trace), build)
        else:
            result = workload.run(args.seed, args.seconds, bool(args.trace))
    except (common.GateFailure, hostprobe.HostCompetition) as error:
        print(f"perfbench: {args.workload}: gate failed: {error}", file=sys.stderr)
        return 1
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "elapsed_s": round(time.perf_counter() - started, 3),
        "host": hostprobe.host_stamp(ROOT, common.KERNEL, result.details.get("probe_ms", 0.0)),
        **result.details,
    }
    print(json.dumps({"detail": detail}, default=float))
    print(json.dumps({
        "correct": True,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": result.metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
