"""The per-layer metrics of a traced run, named <layer>.<function>.<quantity>.

A name ending in .calls, .self_s or .total_s reads the tracer's totals for
the span named by the rest; any other name is a counter summed from call
arguments and results (tracing.TARGETS), or a value the run computes itself.
"""

import statistics

# (metric, unit, better)
PER_LAYER = (
    ("maximal.convolve_dilated.calls", "count", "lower"),
    ("maximal.convolve_dilated.self_s", "s", "lower"),
    ("maximal.convolve_dilated.cells", "count", "lower"),
    ("maximal.convolve_dilated.node_pairs", "count", "lower"),
    ("atoms.evaluate.calls", "count", "lower"),
    ("atoms.evaluate.points", "count", "lower"),
    ("atoms.evaluate.self_s", "s", "lower"),
    ("maximal.maximal_field.calls", "count", "lower"),
    ("maximal.maximal_field.self_s", "s", "lower"),
    ("maximal.maximal_field.k_values", "count", "lower"),
    ("maximal.distribution_function.calls", "count", "lower"),
    ("maximal.distribution_function.self_s", "s", "lower"),
    ("maximal.distribution_function.primitives", "count", "lower"),
    ("maximal.excluded_cell_frac", "frac", "lower"),
    ("decomposition.exceptional_contains.calls", "count", "lower"),
    ("decomposition.exceptional_contains.points", "count", "lower"),
    ("grid.tendril_contains.calls", "count", "lower"),
    ("grid.tendril_contains.points", "count", "lower"),
    ("grid.tendril_contains.self_s", "s", "lower"),
    ("grid.parallelepiped_contains.calls", "count", "lower"),
    ("grid.parallelepiped_contains.points", "count", "lower"),
    ("grid.parallelepiped_contains.self_s", "s", "lower"),
    ("surface.classify_pieces.calls", "count", "lower"),
    ("surface.classify_pieces.self_s", "s", "lower"),
    ("surface.classify_pieces.pieces", "count", "lower"),
    ("surface.classify_pieces.excluded_frac", "frac", "lower"),
    ("surface.partition_measure.calls", "count", "lower"),
    ("surface.partition_measure.self_s", "s", "lower"),
    ("surface.partition_measure.pieces", "count", "lower"),
    ("surface.excluded_piece_growth.calls", "count", "lower"),
    ("surface.excluded_piece_growth.total_s", "s", "lower"),
    ("surface.gaussian_curvature.calls", "count", "lower"),
    ("surface.gaussian_curvature.self_s", "s", "lower"),
    ("surface.surface_quadrature.calls", "count", "lower"),
    ("surface.surface_quadrature.self_s", "s", "lower"),
    ("dilation.power.calls", "count", "lower"),
    ("dilation.power.self_s", "s", "lower"),
    ("dilation.cube_diameter.calls", "count", "lower"),
    ("dilation.cube_diameter.self_s", "s", "lower"),
    ("decomposition.whitney_decompose.calls", "count", "lower"),
    ("decomposition.whitney_decompose.self_s", "s", "lower"),
    ("decomposition.whitney_decompose.selected", "count", "lower"),
    ("decomposition.verify_whitney.calls", "count", "lower"),
    ("decomposition.verify_whitney.self_s", "s", "lower"),
    ("decomposition.stopping_time.calls", "count", "lower"),
    ("decomposition.stopping_time.self_s", "s", "lower"),
    ("decomposition.stopping_time.primitives", "count", "lower"),
    ("decomposition.stopping_time.trace_events", "count", "lower"),
    ("decomposition.verify_stopping.calls", "count", "lower"),
    ("decomposition.verify_stopping.self_s", "s", "lower"),
    ("decomposition.verify_stopping.rejected", "count", "higher"),
    ("experiments.run_experiment.calls", "count", "lower"),
    ("experiments.run_experiment.self_s", "s", "lower"),
    ("experiments.bytes_written", "bytes", "lower"),
    ("config.load_config.calls", "count", "lower"),
    ("config.load_config.self_s", "s", "lower"),
    ("bench.op_s.p90", "s", "lower"),
    ("bench.trace_overhead_frac", "frac", "lower"),
)

_TOTALS = {"calls": 0, "total_s": 1, "self_s": 2}


def metrics(tracer, computed: dict) -> dict:
    """{metric: (value, unit)} for every entry of PER_LAYER."""
    counters = dict(tracer.counters)
    pieces = counters.get("surface.classify_pieces.pieces", 0)
    counters["surface.classify_pieces.excluded_frac"] = (
        counters.get("surface.classify_pieces.excluded", 0) / pieces if pieces else 0.0)
    out = {}
    for name, unit, _ in PER_LAYER:
        span, _, quantity = name.rpartition(".")
        if name in computed:
            value = computed[name]
        elif quantity in _TOTALS and span in tracer.names:
            value = tracer.stats(span)[_TOTALS[quantity]]
        else:
            value = counters.get(name, 0)
        out[name] = (value, unit)
    return out


def p90(times: list) -> float:
    """The 90th percentile, interpolated within the samples."""
    if len(times) < 2:
        return times[0]
    return statistics.quantiles(times, n=10, method="inclusive")[-1]
