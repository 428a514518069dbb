"""Which package functions the traced run wraps, and the per-layer metrics.

Each target is wrapped at the module attribute its callers resolve at call
time (``pipeline.run`` calls ``stage_simulate`` through the pipeline module's
globals, ``stage_simulate`` calls ``sim.simulate_streams`` through the
simulate module, and so on), so the package itself is left untouched.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager

from steerqrng import assemblage, certify, extractor, pipeline, sdp, simulate


def _sdp_counts(solution, args, kwargs):
    problem = args[0]
    return {"status": solution.status, "iterations": solution.iterations,
            "rows": len(problem.constraints), "blocks": len(problem.blocks)}


def _ml_counts(fit, args, kwargs):
    return {"iterations": fit.iterations, "warm": kwargs.get("initial") is not None}


def _bootstrap_counts(result, args, kwargs):
    return {"resamples": result.resamples, "failed": result.failed}


def _stream_counts(streams, args, kwargs):
    return {"tags": len(streams.alice_tags) + len(streams.bob_tags)}


def _coincidence_counts(pairs, args, kwargs):
    alice, bob = args[0], args[1]
    return {"tags": len(alice) + len(bob), "bob_tags": len(bob), "pairs": len(pairs)}


def _extract_counts(block, args, kwargs):
    p = block.params
    return {"blocks": block.n_blocks, "n": p.n, "m": p.m, "s": p.s}


# (module, attribute, span name, layer, annotate)
TARGETS = [
    (pipeline, "run", "pipeline.run", "pipeline", None),
    (pipeline, "stage_simulate", "pipeline.stage_simulate", "pipeline", None),
    (pipeline, "stage_tomo", "pipeline.stage_tomo", "pipeline", None),
    (pipeline, "stage_certify", "pipeline.stage_certify", "pipeline", None),
    (pipeline, "stage_extract", "pipeline.stage_extract", "pipeline", None),
    (pipeline, "certify_assemblage", "certify.certify", "certify", None),
    (certify, "guessing_probability", "certify.guessing_probability", "certify", None),
    (certify, "steering_functional", "certify.steering_functional", "certify", None),
    (certify, "bootstrap_uncertainty", "certify.bootstrap_uncertainty", "certify", _bootstrap_counts),
    (certify, "ml_reconstruct", "assemblage.ml_reconstruct", "assemblage", _ml_counts),
    (assemblage, "ml_reconstruct", "assemblage.ml_reconstruct", "assemblage", _ml_counts),
    (sdp, "solve", "sdp.solve", "sdp", _sdp_counts),
    (simulate, "simulate_tomography", "simulate.simulate_tomography", "simulate", None),
    (simulate, "simulate_streams", "simulate.simulate_streams", "simulate", _stream_counts),
    (simulate, "coincidences", "simulate.coincidences", "simulate", _coincidence_counts),
    (extractor, "block_extract", "extractor.block_extract", "extractor", _extract_counts),
    (extractor, "weak_design", "extractor.weak_design", "extractor", None),
] + [
    (module, attr, f"{module.__name__.rsplit('.', 1)[1]}.{attr}", "io", None)
    for module, attr in (
        (assemblage, "save_counts"), (assemblage, "load_counts"),
        (assemblage, "save_assemblage"), (assemblage, "load_assemblage"),
        (simulate, "save_timetags"),
        (extractor, "save_bits"), (extractor, "load_bits"),
        (pipeline, "save_certification"), (pipeline, "load_certification"),
    )
]


@contextmanager
def wrapped(tracer):
    """Install the tracer's wrappers for the duration of the block."""
    saved = []
    try:
        for module, attr, name, layer, annotate in TARGETS:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(original, name, layer, annotate))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# name -> unit; the order is the order of the printed report.
METRICS = {
    "sdp.solve_s_p50": "s", "sdp.solve_s_p90": "s", "sdp.solves": "count",
    "sdp.iterations": "count", "sdp.rows": "count", "sdp.blocks": "count",
    "sdp.not_optimal": "count",
    "certify.guess_s_p50": "s", "certify.guess_s_p90": "s", "certify.guess_calls": "count",
    "certify.lhs_s": "s", "certify.bootstrap_s": "s", "certify.resamples": "count",
    "certify.resamples_failed": "count",
    "assemblage.ml_s": "s", "assemblage.ml_iterations": "count",
    "assemblage.ml_warm_s_p50": "s", "assemblage.ml_warm_s_p90": "s",
    "assemblage.ml_warm_calls": "count",
    "extractor.block_extract_s": "s", "extractor.raw_mbit_s": "Mbit/s",
    "extractor.blocks": "count", "extractor.m": "count", "extractor.gf_mults": "count",
    "extractor.gf_mults_per_s": "1/s", "extractor.weak_design_s": "s",
    "simulate.streams_s": "s", "simulate.tomography_s": "s", "simulate.tags": "count",
    "simulate.coincidences_s": "s", "simulate.coincidence_mtags_s": "Mtag/s",
    "simulate.pairs": "count", "simulate.match_frac": "frac",
    "pipeline.simulate_s": "s", "pipeline.tomo_s": "s", "pipeline.certify_s": "s",
    "pipeline.extract_s": "s", "pipeline.io_s": "s", "pipeline.self_s": "s",
    "pipeline.artifact_mb": "MB",
    "trace.overhead_frac": "frac",
}

# Counts that must repeat exactly whenever a workload repeats with one seed.
EXACT_COUNTS = ("sdp.iterations", "sdp.rows", "extractor.gf_mults", "simulate.tags",
                "simulate.pairs")


def _quantile(values, q):
    """Linear-interpolation quantile; 0 for an empty sample."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def _named(spans, name, **attrs):
    return [s for s in spans if s.name == name
            and all(s.attrs.get(k) == v for k, v in attrs.items())]


def _busy(spans, name, **attrs):
    return sum(s.duration for s in _named(spans, name, **attrs))


def op_values(spans, own) -> dict:
    """Busy times and counts of one operation from its spans.

    ``own`` holds the self time of each span, in the same order.
    """
    solves = _named(spans, "sdp.solve")
    extracts = _named(spans, "extractor.block_extract")
    coincidences = _named(spans, "simulate.coincidences")
    bootstraps = _named(spans, "certify.bootstrap_uncertainty")
    cold_fits = _named(spans, "assemblage.ml_reconstruct", warm=False)
    extract_s = sum(s.duration for s in extracts)
    coincidences_s = sum(s.duration for s in coincidences)
    raw_bits = sum(s.attrs["blocks"] * s.attrs["n"] for s in extracts)
    gf_mults = sum(s.attrs["blocks"] * -(-s.attrs["n"] // s.attrs["s"]) * s.attrs["m"]
                   for s in extracts)
    tags_in = sum(s.attrs["tags"] for s in coincidences)
    bob_tags = sum(s.attrs["bob_tags"] for s in coincidences)
    pairs = sum(s.attrs["pairs"] for s in coincidences)
    return {
        "sdp.solves": len(solves),
        "sdp.iterations": sum(s.attrs["iterations"] for s in solves),
        "sdp.rows": sum(s.attrs["rows"] for s in solves),
        "sdp.blocks": sum(s.attrs["blocks"] for s in solves),
        "sdp.not_optimal": sum(s.attrs["status"] != sdp.OPTIMAL for s in solves),
        "certify.guess_calls": len(_named(spans, "certify.guessing_probability")),
        "certify.lhs_s": _busy(spans, "certify.steering_functional"),
        "certify.bootstrap_s": sum(s.duration for s in bootstraps),
        "certify.resamples": sum(s.attrs["resamples"] for s in bootstraps),
        "certify.resamples_failed": sum(s.attrs["failed"] for s in bootstraps),
        "assemblage.ml_s": sum(s.duration for s in cold_fits),
        "assemblage.ml_iterations": sum(s.attrs["iterations"] for s in cold_fits),
        "assemblage.ml_warm_calls": len(_named(spans, "assemblage.ml_reconstruct", warm=True)),
        "extractor.block_extract_s": extract_s,
        "extractor.raw_mbit_s": raw_bits / extract_s / 1e6 if extract_s else 0.0,
        "extractor.blocks": sum(s.attrs["blocks"] for s in extracts),
        "extractor.m": max((s.attrs["m"] for s in extracts), default=0),
        "extractor.gf_mults": gf_mults,
        "extractor.gf_mults_per_s": gf_mults / extract_s if extract_s else 0.0,
        "extractor.weak_design_s": _busy(spans, "extractor.weak_design"),
        "simulate.streams_s": _busy(spans, "simulate.simulate_streams"),
        "simulate.tomography_s": _busy(spans, "simulate.simulate_tomography"),
        "simulate.tags": sum(s.attrs["tags"] for s in _named(spans, "simulate.simulate_streams")),
        "simulate.coincidences_s": coincidences_s,
        "simulate.coincidence_mtags_s": tags_in / coincidences_s / 1e6 if coincidences_s else 0.0,
        "simulate.pairs": pairs,
        "simulate.match_frac": pairs / bob_tags if bob_tags else 0.0,
        "pipeline.simulate_s": _busy(spans, "pipeline.stage_simulate"),
        "pipeline.tomo_s": _busy(spans, "pipeline.stage_tomo"),
        "pipeline.certify_s": _busy(spans, "pipeline.stage_certify"),
        "pipeline.extract_s": _busy(spans, "pipeline.stage_extract"),
        "pipeline.io_s": sum(s.duration for s in spans if s.layer == "io"),
        "pipeline.self_s": sum(t for s, t in zip(spans, own) if s.layer == "pipeline"),
    }


def per_layer_metrics(spans, own, artifact_mb: list[float],
                      overhead_frac: float) -> tuple[dict, list[dict]]:
    """Per-layer metrics of a traced run, and the values of each operation.

    Busy times and counts are per operation, as the median over the run's
    operations; the p50/p90 latencies pool every call in the run.
    """
    by_op: dict[int, tuple[list, list]] = {}
    for span, t in zip(spans, own):
        lists = by_op.setdefault(span.op, ([], []))
        lists[0].append(span)
        lists[1].append(t)
    per_op = [op_values(*by_op[op]) for op in sorted(by_op)]
    values = {k: statistics.median(v[k] for v in per_op) for k in per_op[0]}

    solve = [s.duration for s in _named(spans, "sdp.solve")]
    guess = [s.duration for s in _named(spans, "certify.guessing_probability")]
    warm = [s.duration for s in _named(spans, "assemblage.ml_reconstruct", warm=True)]
    values.update({
        "sdp.solve_s_p50": _quantile(solve, 0.5), "sdp.solve_s_p90": _quantile(solve, 0.9),
        "certify.guess_s_p50": _quantile(guess, 0.5), "certify.guess_s_p90": _quantile(guess, 0.9),
        "assemblage.ml_warm_s_p50": _quantile(warm, 0.5),
        "assemblage.ml_warm_s_p90": _quantile(warm, 0.9),
        "pipeline.artifact_mb": statistics.median(artifact_mb),
        "trace.overhead_frac": overhead_frac,
    })
    return {name: values[name] for name in METRICS}, per_op
