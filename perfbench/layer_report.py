"""Per-layer metrics and the layer table of a traced run.

Times are per traced operation (mean over the traced operations of the run),
so they do not depend on how many operations fit into --seconds. Counts
labelled "computed" come from layer shapes, not from the trace.
"""

from __future__ import annotations

import statistics

from counts import CONV_LAYERS, FC_LAYERS
from spans import LAYERS, aggregate, layer_of

NET_LAYERS = ("b1.conv", "b1.bn", "b1.relu", "b2.conv", "b2.bn", "b2.relu",
              "b3.conv", "b3.bn", "b3.relu", "pool") + FC_LAYERS


def _spec():
    """(metric, unit, better, source). A source is (kind, span name) with
    kind one of total/self (ms), calls, bytes; or ("computed", layer, field);
    or ("layer_pct", layer); or ("trace", what)."""
    rows = []

    def timed(metric, span, kind="total"):
        rows.append((metric, "ms", "lower", (kind, span)))

    def counted(metric, span, kind="calls"):
        rows.append((metric, "count" if kind == "calls" else "bytes", "lower", (kind, span)))

    timed("residual.convolve_batch.ms", "residual.convolve_batch")
    counted("residual.convolve_batch.calls", "residual.convolve_batch")
    timed("residual.front_stage_batch.self_ms", "residual.front_stage_batch", "self")
    counted("residual.front_stage_batch.calls", "residual.front_stage_batch")
    for layer in NET_LAYERS:
        timed(f"micronet.{layer}.fwd_ms", f"micronet.{layer}.fwd")
        timed(f"micronet.{layer}.bwd_ms", f"micronet.{layer}.bwd")
    for stage in ("forward", "backward"):
        timed(f"micronet.{stage}.ms", f"micronet.{stage}")
        counted(f"micronet.{stage}.calls", f"micronet.{stage}")
    timed("micronet.ops.softmax_xent.ms", "micronet.ops.softmax_xent")
    counted("micronet.ops.softmax_xent.calls", "micronet.ops.softmax_xent")
    timed("micronet.ops.im2col.ms", "micronet.ops.im2col")
    timed("micronet.ops.col2im.ms", "micronet.ops.col2im")
    for layer in CONV_LAYERS + FC_LAYERS:
        rows.append((f"micronet.{layer}.gflop", "GFLOP/img", "lower",
                     ("computed", layer, "gflop")))
    for layer in CONV_LAYERS:
        rows.append((f"micronet.{layer}.im2col_mb", "MB/batch", "lower",
                     ("computed", layer, "im2col_mb")))
    timed("trainer.sgd_step.ms", "trainer.sgd_step")
    counted("trainer.sgd_step.calls", "trainer.sgd_step")
    timed("trainer.evaluate.ms", "trainer.evaluate")
    counted("trainer.evaluate.calls", "trainer.evaluate")
    timed("trainer.train.self_ms", "trainer.train", "self")
    timed("micronet.checkpoint.load_ms", "micronet.checkpoint.load_checkpoint")
    timed("micronet.checkpoint.save_ms", "micronet.checkpoint.save_checkpoint")
    counted("micronet.checkpoint.bytes", "micronet.checkpoint.", "bytes")
    counted("micronet.checkpoint.calls", "micronet.checkpoint.")
    timed("codec.decompress.ms", "codec.decompress")
    counted("codec.decompress.calls", "codec.decompress")
    for fn in ("read_jcg", "write_jcg"):
        timed(f"containers.{fn}.ms", f"containers.{fn}")
        counted(f"containers.{fn}.calls", f"containers.{fn}")
        counted(f"containers.{fn}.bytes", f"containers.{fn}", "bytes")
    timed("stego_sim.synthetic_cover.ms", "stego_sim.synthetic_cover")
    counted("stego_sim.synthetic_cover.calls", "stego_sim.synthetic_cover")
    timed("stego_sim.prepare_cover.ms", "stego_sim.prepare_cover")
    timed("stego_sim.embed.ms", "stego_sim.embed")
    timed("stego_sim.build_dataset.self_ms", "stego_sim.build_dataset", "self")
    timed("stego_sim.load_split_grids.self_ms", "stego_sim.load_split_grids", "self")
    for fn in ("ratio_histogram", "energy_audit", "gradient_dominance"):
        timed(f"propositions.{fn}.ms", f"propositions.{fn}")
    counted("propositions.ratio_histogram.calls", "propositions.ratio_histogram")
    timed("cli.self_ms", "cli.", "self")
    counted("cli.main.calls", "cli.main")
    for layer in LAYERS:
        rows.append((f"{layer}.self_pct", "%", "lower", ("layer_pct", layer)))
    rows.append(("trace.overhead_pct", "%", "lower", ("trace", "overhead_pct")))
    rows.append(("trace.spans", "count", "lower", ("trace", "spans")))
    return tuple(rows)


#: Every per-layer metric as (name, unit, better, source).
PER_LAYER = _spec()


def _sum(agg: dict, span: str, field: str) -> float:
    """Sum a field over one span name, or over every name under a prefix
    ending in '.'."""
    if span.endswith("."):
        return sum(row[field] for name, row in agg.items() if name.startswith(span))
    return agg.get(span, {}).get(field, 0)


def per_layer(wl, state, spans, untraced_ops, traced_ops) -> tuple[dict, list]:
    """(metrics, table lines) from the spans of the traced operations."""
    traced_spans = [s for r in traced_ops for s in spans[r["spans"][0]:r["spans"][1]]]
    agg = aggregate(traced_spans)
    n = len(traced_ops)
    op_ns = sum(r["seconds"] for r in traced_ops) * 1e9
    layer_self = {layer: 0 for layer in LAYERS}
    for name, row in agg.items():
        layer_self[layer_of(name)] = layer_self.get(layer_of(name), 0) + row["self_ns"]
    untraced_s = statistics.median(r["seconds"] for r in untraced_ops)
    traced_s = statistics.median(r["seconds"] for r in traced_ops)
    trace_stats = {"overhead_pct": 100.0 * (traced_s / untraced_s - 1.0),
                   "spans": len(traced_spans) / n}
    counts = wl.layer_counts(state)

    metrics = {}
    for metric, _, _, source in PER_LAYER:
        kind = source[0]
        if kind in ("total", "self"):
            value = _sum(agg, source[1], f"{kind}_ns") / 1e6 / n
        elif kind in ("calls", "bytes"):
            value = _sum(agg, source[1], kind) / n
        elif kind == "computed":
            value = counts.get(source[1], {}).get(source[2], 0.0)
        elif kind == "layer_pct":
            value = 100.0 * layer_self[source[1]] / op_ns
        else:
            value = trace_stats[source[1]]
        metrics[metric] = float(value)

    table = [
        f"layer table: {wl.name}, median {traced_s:.3f} s over {n} traced vs "
        f"{untraced_s:.3f} s over {len(untraced_ops)} untraced op(s), warm-up left out "
        f"(overhead {trace_stats['overhead_pct']:+.1f}%)",
        f"{'span':44s} {'calls/op':>9s} {'total ms':>10s} {'self ms':>10s} {'self %':>7s}",
    ]
    for name, row in sorted(agg.items(), key=lambda kv: -kv[1]["self_ns"]):
        table.append(f"{name:44s} {row['calls'] / n:9.1f} {row['total_ns'] / 1e6 / n:10.2f} "
                     f"{row['self_ns'] / 1e6 / n:10.2f} {100 * row['self_ns'] / op_ns:7.2f}")
    table.append(f"{'layer (self time share of the op)':44s} {'self ms':>10s} {'self %':>7s}")
    for layer in LAYERS:
        table.append(f"{layer:44s} {layer_self[layer] / 1e6 / n:10.2f} "
                     f"{100 * layer_self[layer] / op_ns:7.2f}")
    rest = op_ns - sum(layer_self.values())
    table.append(f"{'(rest; below 0 when worker threads overlap)':44s} {rest / 1e6 / n:10.2f} "
                 f"{100 * rest / op_ns:7.2f}")
    return metrics, table
