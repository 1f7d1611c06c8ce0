"""Analytic parameter and multiply-accumulate (MAC) accounting.

One MAC is one multiply-accumulate pair. Activations, inference-time
normalization, and the sigmoid/tanh evaluations are excluded.
"""

import math
from dataclasses import dataclass

from .dsp import FRAME_SHIFT
from .errors import ConfigError
from .model import AmcrnConfig


@dataclass
class LayerCost:
    name: str
    params: int
    macs: int


@dataclass
class CostReport:
    duration_s: float
    total_params: int
    total_macs: int
    breakdown: list


def _conv_params(k, c_in, c_out):
    return k * c_in * c_out + c_out


def _linear_params(d_in, d_out):
    return d_in * d_out + d_out


def _lstm_direction_params(d_in, hidden):
    return 4 * (d_in * hidden + hidden * hidden + hidden)


def frames_for(duration_s: float) -> int:
    return int(round(duration_s / FRAME_SHIFT))


def layer_costs(config: AmcrnConfig, duration_s: float, include_head=False):
    """Per-layer (name, params, macs) for one input duration, a finite
    number of seconds > 0 (else ConfigError)."""
    if not math.isfinite(duration_s) or duration_s <= 0:
        raise ConfigError(f"duration {duration_s!r} s: expected a finite number > 0")
    t = frames_for(duration_s)
    rows = []

    def add(name, params, macs):
        rows.append(LayerCost(name, int(params), int(macs)))

    c = config.channels
    add("initial.conv", _conv_params(config.initial_kernel, config.n_mels, c),
        t * config.initial_kernel * config.n_mels * c)
    add("initial.bn", 2 * c, 0)

    sub = c // config.n_scales
    for i, k in enumerate(config.mcb_kernel):
        add(f"mcb{i}.pre", _conv_params(k, c, c), t * k * c * c)
        add(f"mcb{i}.bn_pre", 2 * c, 0)
        n_scale_convs = config.n_scales - 1
        add(f"mcb{i}.scales", n_scale_convs * _conv_params(3, sub, sub),
            n_scale_convs * t * 3 * sub * sub)
        add(f"mcb{i}.post", _conv_params(config.fusion_kernel, c, c),
            t * config.fusion_kernel * c * c)
        add(f"mcb{i}.bn_post", 2 * c, 0)
        if config.use_temporal_attention:
            # Stats conv over [mean, max] plus the T x C gating products.
            add(f"mcb{i}.ta", _conv_params(config.ta_kernel, 2, 1),
                t * config.ta_kernel * 2 + t * c)

    if config.use_blstm:
        h = config.blstm_hidden
        add("rblstm.blstm1", 2 * _lstm_direction_params(c, h),
            2 * t * 4 * h * (c + h))
        add("rblstm.blstm2", 2 * _lstm_direction_params(2 * h, h),
            2 * t * 4 * h * (2 * h + h))
        add("rblstm.proj", _linear_params(2 * h, c), t * 2 * h * c)

    bott = config.pool_bottleneck
    # Score MLP per frame plus the attention-weighted first/second moments.
    add("pool", _linear_params(c, bott) + _linear_params(bott, c),
        t * c * bott + t * bott * c + 2 * t * c)
    add("embed.linear", _linear_params(2 * c, config.embedding_dim),
        2 * c * config.embedding_dim)
    add("embed.norm", 2 * config.embedding_dim, 0)
    if include_head:
        add("head", config.n_classes * config.embedding_dim,
            config.n_classes * config.embedding_dim)
    return rows


def count_params(config: AmcrnConfig, include_head=False) -> int:
    return sum(r.params for r in layer_costs(config, 1.0, include_head))


def count_macs(config: AmcrnConfig, duration_s: float, include_head=False) -> int:
    return sum(r.macs for r in layer_costs(config, duration_s, include_head))


def emit_cost_report(config: AmcrnConfig, durations=(2.0, 3.0, 5.0),
                     include_head=False):
    """One CostReport per duration."""
    if not durations:
        raise ValueError("durations must be nonempty")
    reports = []
    for d in durations:
        rows = layer_costs(config, d, include_head)
        reports.append(CostReport(d, sum(r.params for r in rows),
                                  sum(r.macs for r in rows), rows))
    return reports


def _report_rows(reports, macs_heading):
    """The header, one row per layer and the TOTAL row, as strings."""
    rows = [["layer", "params"] + [macs_heading.format(r.duration_s) for r in reports]]
    for i, row in enumerate(reports[0].breakdown):
        rows.append([row.name, str(row.params)] + [str(r.breakdown[i].macs) for r in reports])
    rows.append(["TOTAL", str(reports[0].total_params)] + [str(r.total_macs) for r in reports])
    return rows


def format_report_table(reports) -> str:
    """Aligned text table: MS column plus one MACs column per duration."""
    rows = _report_rows(reports, "macs@{:g}s")
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return "".join("  ".join(c.ljust(w) for c, w in zip(row, widths)) + "\n" for row in rows)


def format_report_csv(reports) -> str:
    return "".join(",".join(row) + "\n" for row in _report_rows(reports, "macs_{:g}s"))
