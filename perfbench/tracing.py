"""Where the traced run wraps the program, layer by layer.

Each ``install_*`` function patches named callables at the place their
caller looks them up and records into a :class:`spans.Recorder`. Undo
with the :class:`spans.Patcher` it was given.
"""

from __future__ import annotations

from spans import Patcher, Recorder, wrap_async, wrap_count, wrap_sync


def _sweep_attrs(args, kwargs, result):
    return {"docs": result.n_docs, "kernel": result.kernel} if result is not None else {}


def install_sampler(patcher: Patcher, recorder: Recorder) -> None:
    """E-step sweep, Pólya-Gamma augmentation and the eta re-estimate."""
    from repro.core.gibbs import CPDSampler

    patcher.patch(CPDSampler, "sweep_documents",
                  lambda f: wrap_sync(recorder, f, "core.sweep", _sweep_attrs))
    for name in ("sample_lambdas", "sample_deltas"):
        patcher.patch(CPDSampler, name,
                      lambda f: wrap_sync(recorder, f, "sampling.augment"))
    patcher.patch(CPDSampler, "aggregate_eta",
                  lambda f: wrap_sync(recorder, f, "core.eta"))


def install_fit(patcher: Patcher, recorder: Recorder) -> None:
    """The sampler plus the M-step's diffusion factor-weight fit.

    ``CPDModel._fit_factor_weights`` is the M-step's only boundary; its
    self time (pair components, design-matrix stacking) is reported as
    ``diffusion.design_ms`` around the negative sampling and logistic
    fit it calls.
    """
    import repro.core.model as model
    import repro.diffusion.negative_sampling as negative_sampling
    from repro.diffusion.logistic import LogisticTrainer

    install_sampler(patcher, recorder)
    patcher.patch(model.CPDModel, "_fit_factor_weights",
                  lambda f: wrap_sync(recorder, f, "diffusion.design"))
    patcher.patch(model.CPDModel, "_build_result",
                  lambda f: wrap_sync(recorder, f, "fit.build_result"))
    patcher.patch(
        model, "sample_negative_diffusion_pairs",
        lambda f: wrap_sync(
            recorder, f, "diffusion.negatives",
            lambda args, kwargs, result: {
                "requested": args[1] if len(args) > 1 else kwargs["n_samples"],
                "got": len(result),
            },
        ),
    )
    patcher.patch(negative_sampling, "build_word_document_index",
                  lambda f: wrap_count(recorder, f, "diffusion.index_builds"))
    patcher.patch(
        LogisticTrainer, "fit",
        lambda f: wrap_sync(recorder, f, "diffusion.logistic",
                            lambda args, kwargs, result: {"steps": result.n_iterations}),
    )


def install_stream(patcher: Patcher, recorder: Recorder) -> None:
    """Fold-in, warm appends, refresh (with the sampler inside) and swap."""
    from repro.serving import ProfileStore
    from repro.stream import IncrementalRefresher, Snapshotter

    install_sampler(patcher, recorder)
    patcher.patch(
        ProfileStore, "fold_in",
        lambda f: wrap_sync(recorder, f, "serving.foldin",
                            lambda args, kwargs, result: {"docs": len(args[1])}),
    )
    for name in ("append_documents", "append_links"):
        patcher.patch(IncrementalRefresher, name,
                      lambda f: wrap_sync(recorder, f, "stream.append"))
    patcher.patch(
        IncrementalRefresher, "refresh",
        lambda f: wrap_sync(
            recorder, f, "stream.refresh",
            lambda args, kwargs, result: {
                "dirty": result.n_documents, "reassigned": result.n_reassigned,
            },
        ),
    )
    patcher.patch(Snapshotter, "hot_swap",
                  lambda f: wrap_sync(recorder, f, "stream.swap"))


def install_gateway(patcher: Patcher, recorder: Recorder) -> None:
    """The request path of ``repro serve``, store or shard router backend.

    A request runs on its connection's task from ``parse_request`` to
    ``render_response``; the parse wrapper opens a trace id that the
    coroutine spans on the same task inherit. Batches run on executor
    threads and are linked to their requests afterwards (see serve.py).
    """
    import repro.gateway.server as server
    from repro.gateway.admission import AdmissionController
    from repro.gateway.batcher import RankBatcher
    from repro.serving import ProfileStore
    from repro.shard.router import ShardRouter

    def parse_wrapper(f):
        inner = wrap_sync(recorder, f, "gateway.parse")

        def wrapper(*args, **kwargs):
            if recorder.enabled:
                recorder.trace_id.set(recorder.new_id())
            return inner(*args, **kwargs)

        return wrapper

    patcher.patch(server, "parse_request", parse_wrapper)
    patcher.patch(server, "render_response",
                  lambda f: wrap_sync(recorder, f, "gateway.render"))
    patcher.patch(AdmissionController, "acquire",
                  lambda f: wrap_async(recorder, f, "gateway.admission_wait"))
    patcher.patch(
        RankBatcher, "rank",
        lambda f: wrap_async(recorder, f, "gateway.batcher",
                             lambda args, kwargs, result: {"query": args[1]}),
    )
    patcher.patch(
        server.GatewayServer, "_run_batch",
        lambda f: wrap_async(recorder, f, "gateway.batch",
                             lambda args, kwargs, result: {"queries": list(args[1])}),
    )
    for name in ("_rank_batch_sync", "_gather_batch_sync"):
        patcher.patch(server.GatewayServer, name,
                      lambda f: wrap_sync(recorder, f, "gateway.backend"))
    for name in ("rank", "rank_many"):
        patcher.patch(ProfileStore, name,
                      lambda f: wrap_sync(recorder, f, "serving.rank"))
    patcher.patch(ShardRouter, "gather",
                  lambda f: wrap_sync(recorder, f, "shard.gather"))
    patcher.patch(ShardRouter, "_call_shard",
                  lambda f: wrap_sync(recorder, f, "shard.call"))
