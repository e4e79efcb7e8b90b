"""Parallel inference: segmentation, knapsack scheduling, parallel E-step.

Walks through the paper's Sect. 4.3 pipeline: segment users by dominant
LDA topic, estimate per-segment workloads, knapsack-allocate them to
workers, and fit CPD with the thread-parallel E-step. Reports the
estimated vs actual per-worker times (the paper's Fig. 11) and the
wall-clock comparison against a serial fit (Fig. 10).

Note: wall-clock speedup requires multiple physical cores; on a single-core
machine the run still demonstrates the full scheduling machinery.

Run:  python examples/parallel_scaling.py
"""

import os
import time

from repro import CPDConfig, CPDModel, FitOptions, twitter_scenario
from repro.parallel import ParallelEStepRunner


def main() -> None:
    graph, _truth = twitter_scenario("small", rng=4)
    print(graph)
    print(f"machine reports {os.cpu_count()} CPU core(s)")

    config = CPDConfig(
        n_communities=6, n_topics=12, n_iterations=10, rho=0.5, alpha=0.5
    )

    # serial reference fit
    started = time.perf_counter()
    serial_result = CPDModel(config, rng=0).fit(graph)
    serial_seconds = time.perf_counter() - started
    print(f"\nserial fit: {serial_seconds:.2f}s "
          f"({config.n_iterations} EM iterations)")

    # parallel fit with 2 workers
    n_workers = 2
    with ParallelEStepRunner(graph, config, n_workers=n_workers, rng=0) as runner:
        print(f"\nsegmentation: {len(runner.segments)} segments "
              f"(users grouped by dominant LDA topic)")
        for segment in runner.segments:
            print(f"  segment {segment.segment_id}: {segment.n_users} users, "
                  f"{segment.n_documents} docs, "
                  f"{segment.n_friendship_links}F/{segment.n_diffusion_links}E links")
        print("\nknapsack allocation (estimated seconds per worker):",
              [f"{s:.3f}" for s in runner.schedule.estimated_worker_seconds()])

        started = time.perf_counter()
        parallel_result = CPDModel(config, rng=0).fit(
            graph, FitOptions(document_sweeper=runner)
        )
        parallel_seconds = time.perf_counter() - started
        actual = runner.stats.mean_worker_seconds()

    print(f"\nparallel fit ({n_workers} workers): {parallel_seconds:.2f}s "
          f"-> speedup {serial_seconds / parallel_seconds:.2f}x")
    print("actual mean E-step seconds per worker:", [f"{s:.3f}" for s in actual])

    # the two fits solve the same problem
    print("\nserial profiles vs parallel profiles (both valid fits):")
    print(f"  serial   top community sizes: "
          f"{sorted(int((serial_result.pi.argmax(axis=1) == c).sum()) for c in range(6))}")
    print(f"  parallel top community sizes: "
          f"{sorted(int((parallel_result.pi.argmax(axis=1) == c).sum()) for c in range(6))}")


if __name__ == "__main__":
    main()
