"""Complexity accounting tests: closed-form costs against hand counts and
against the instantiated network."""

import pytest

from amcrn.errors import ConfigError
from amcrn.model import AmcrnConfig, AmcrnModel, tiny_config
from amcrn.profiling import (count_macs, count_params, emit_cost_report,
                             format_report_csv, format_report_table,
                             frames_for, layer_costs)


class TestHandCounts:
    def test_conv_layer_params(self):
        # k=3, c_in=3, c_out=3 convolution: 3*3*3 weights + 3 biases = 30;
        # with c_out=3 and no bias convention the classic 28 figure is
        # 3*3*3 + 1; our layers carry one bias per output channel.
        rows = layer_costs(tiny_config(n_mels=3, channels=3, n_scales=1,
                                       initial_kernel=3), 1.0)
        initial = next(r for r in rows if r.name == "initial.conv")
        assert initial.params == 3 * 3 * 3 + 3

    def test_conv_layer_macs(self):
        # 10 frames, k=3, c_in=4, c_out=8: 10 * 3 * 4 * 8 = 960 MACs.
        cfg = tiny_config(n_mels=4, channels=8, n_scales=1, initial_kernel=3)
        rows = layer_costs(cfg, 0.1)
        initial = next(r for r in rows if r.name == "initial.conv")
        assert initial.macs == 960

    def test_lstm_direction_macs(self):
        # Per frame and direction: 4 gates x H x (Din + H) multiplies.
        cfg = tiny_config(n_mels=4, channels=8, n_scales=1, hidden=5)
        rows = layer_costs(cfg, 1.0)
        t = frames_for(1.0)
        blstm1 = next(r for r in rows if r.name == "rblstm.blstm1")
        assert blstm1.macs == 2 * t * 4 * 5 * (8 + 5)

    def test_frames_for(self):
        assert frames_for(2.0) == 200
        assert frames_for(3.0) == 300
        assert frames_for(5.0) == 500


class TestAgainstModel:
    @pytest.mark.parametrize("kwargs", [
        dict(),
        dict(n_scales=4, channels=32),
        dict(use_blstm=False),
        dict(use_temporal_attention=False),
        dict(n_scales=1),
    ])
    def test_param_count_equals_instantiated_model(self, kwargs):
        cfg = tiny_config(**kwargs)
        model = AmcrnModel(cfg, seed=0)
        assert count_params(cfg, include_head=True) == model.n_params(include_head=True)
        assert count_params(cfg, include_head=False) == model.n_params(include_head=False)

    def test_head_delta_is_class_matrix(self):
        cfg = tiny_config()
        delta = count_params(cfg, include_head=True) - count_params(cfg, include_head=False)
        assert delta == cfg.n_classes * cfg.embedding_dim


class TestScaling:
    def test_macs_affine_in_duration(self):
        """Total MACs are exactly affine in T (a pure per-frame model)."""
        cfg = tiny_config()
        m2, m3, m5 = (count_macs(cfg, d) for d in (2.0, 3.0, 5.0))
        # Two points define the line; the third must sit on it.
        slope = (m3 - m2) / (frames_for(3.0) - frames_for(2.0))
        intercept = m2 - slope * frames_for(2.0)
        assert m5 == slope * frames_for(5.0) + intercept

    def test_duration_ratios(self):
        cfg = AmcrnConfig()
        m2, m3, m5 = (count_macs(cfg, d) for d in (2.0, 3.0, 5.0))
        assert abs(m3 / m2 - 1.5) < 0.02 * 1.5
        assert abs(m5 / m2 - 2.5) < 0.02 * 2.5

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ConfigError):
            count_macs(tiny_config(), 0.0)

    def test_ablations_reduce_macs(self):
        full = count_macs(tiny_config(), 2.0)
        assert count_macs(tiny_config(use_blstm=False), 2.0) < full
        assert count_macs(tiny_config(use_temporal_attention=False), 2.0) < full


class TestReports:
    def test_report_totals_consistent(self):
        reports = emit_cost_report(tiny_config())
        assert [r.duration_s for r in reports] == [2.0, 3.0, 5.0]
        for r in reports:
            assert r.total_params == sum(row.params for row in r.breakdown)
            assert r.total_macs == sum(row.macs for row in r.breakdown)

    def test_table_and_csv_render(self):
        reports = emit_cost_report(tiny_config())
        table = format_report_table(reports)
        assert "TOTAL" in table and "macs@2s" in table
        csv_text = format_report_csv(reports)
        header = csv_text.splitlines()[0]
        assert header == "layer,params,macs_2s,macs_3s,macs_5s"
        assert csv_text.splitlines()[-1].startswith("TOTAL,")

    def test_empty_durations_rejected(self):
        with pytest.raises(ValueError):
            emit_cost_report(tiny_config(), durations=())
