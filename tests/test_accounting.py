import numpy as np
import pytest

from chai.accounting import attention_flops, kv_cache_bytes
from chai.errors import ValidationError
from chai.model import ModelConfig
from chai.plan import ClusterPlan, HeadLayout
from helpers import grouped_plan, small_config


def llama7b_shape():
    return ModelConfig(
        num_layers=32, num_heads=32, model_dim=4096, head_dim=128,
        ffn_dim=11008, vocab_size=32000, max_seq_len=4096,
    )


class TestKvCacheBytes:
    def test_llama_7b_shape_at_2048(self):
        config = llama7b_shape()
        report = kv_cache_bytes(config, HeadLayout.singleton(config), 2048)
        assert report.kv_total_bytes == 1_073_741_824
        # within 15% of the published 1.2 GB figure for this shape
        assert abs(report.kv_total_bytes - 1.2e9) / 1.2e9 < 0.15

    def test_full_head_plan_saves_nothing(self):
        config = small_config()
        plan = ClusterPlan.singleton(config.num_layers, config.num_heads)
        report = kv_cache_bytes(config, HeadLayout(config, plan), 16)
        assert report.savings_fraction == 0.0

    def test_uniform_18_of_32_saves_21_875_percent(self):
        config = ModelConfig(
            num_layers=4, num_heads=32, model_dim=256, head_dim=8,
            ffn_dim=64, vocab_size=64, max_seq_len=4096,
        )
        plan = grouped_plan(4, 32, [18, 18, 18, 18])
        report = kv_cache_bytes(config, HeadLayout(config, plan), 2048)
        assert report.savings_fraction == 0.21875

    def test_savings_closed_form_over_random_plans(self):
        rng = np.random.default_rng(0)
        config = small_config(num_heads=8, head_dim=4, model_dim=32)
        for _ in range(20):
            counts = [int(rng.integers(1, 9)) for _ in range(config.num_layers)]
            plan = grouped_plan(config.num_layers, 8, counts)
            report = kv_cache_bytes(config, HeadLayout(config, plan), int(rng.integers(1, 64)))
            want = sum(8 - k for k in counts) / (2 * 8 * config.num_layers)
            assert report.savings_fraction == pytest.approx(want, abs=1e-12)
            assert 0.0 <= report.savings_fraction < 0.5

    def test_bytes_linear_in_seq_len(self):
        config = small_config()
        plan = grouped_plan(2, 4, [2, 3])
        for layout in (HeadLayout.singleton(config), HeadLayout(config, plan)):
            b1 = kv_cache_bytes(config, layout, 7).kv_total_bytes
            b2 = kv_cache_bytes(config, layout, 14).kv_total_bytes
            assert b2 == 2 * b1

    def test_prune_values_option(self):
        config = small_config()
        plan = grouped_plan(2, 4, [2, 2])
        keys_only = kv_cache_bytes(config, HeadLayout(config, plan), 8)
        both = kv_cache_bytes(config, HeadLayout(config, plan, reuse_values=True), 8)
        assert keys_only.value_bytes > both.value_bytes
        assert both.key_bytes == both.value_bytes

    def test_zero_dims_rejected(self):
        config = small_config()
        with pytest.raises(ValidationError):
            kv_cache_bytes(config, HeadLayout.singleton(config), 0)

    def test_seq_len_beyond_capacity_rejected(self):
        config = small_config()
        with pytest.raises(ValidationError):
            kv_cache_bytes(config, HeadLayout.singleton(config), 65)


class TestAttentionFlops:
    def test_full_head_plan_reduces_nothing(self):
        config = small_config()
        plan = ClusterPlan.singleton(config.num_layers, config.num_heads)
        assert attention_flops(config, HeadLayout(config, plan), 16).reduction_fraction == 0.0

    def test_quarter_heads_quarter_scores(self):
        config = ModelConfig(
            num_layers=1, num_heads=32, model_dim=128, head_dim=4,
            ffn_dim=16, vocab_size=16, max_seq_len=64,
        )
        plan = grouped_plan(1, 32, [8])
        full = attention_flops(config, HeadLayout.singleton(config), 48)
        quarter = attention_flops(config, HeadLayout(config, plan), 48)
        assert quarter.score_flops * 4 == full.score_flops
        assert quarter.softmax_flops * 4 == full.softmax_flops
        assert quarter.av_flops == full.av_flops

    def test_decode_step_against_independent_formula(self):
        # Spreadsheet-style evaluation of the documented cost model for
        # H=32, d=4096, seq=2048, k=8, one layer.
        config = ModelConfig(
            num_layers=1, num_heads=32, model_dim=4096, head_dim=128,
            ffn_dim=11008, vocab_size=32000, max_seq_len=4096,
        )
        plan = grouped_plan(1, 32, [8])
        report = attention_flops(config, HeadLayout(config, plan), 2048)
        d, dh, seq, k, H = 4096, 128, 2048, 8, 32
        projection = 2 * d * dh * k * 2 + 2 * d * d * 2  # Q,K for k heads; V,O full
        score = 2 * k * seq * dh
        softmax = 5 * k * seq
        av = 2 * H * seq * dh
        assert report.projection_flops == projection
        assert report.score_flops == score
        assert report.softmax_flops == softmax
        assert report.av_flops == av
        assert report.total_flops == projection + score + softmax + av

    def test_mha_decode_matches_spec_formula(self):
        config = small_config()
        H, d, dh, seq = 4, 32, 8, 20
        report = attention_flops(config, HeadLayout.singleton(config), seq)
        per_layer = report.per_layer[0]
        assert per_layer.projection_flops == 2 * d * d * 4
        assert per_layer.score_flops == 2 * H * seq * dh
        assert per_layer.softmax_flops == 5 * H * seq
        assert per_layer.av_flops == 2 * H * seq * dh

    def test_reuse_values_scales_av(self):
        config = small_config()
        plan = grouped_plan(2, 4, [2, 2])
        plain = attention_flops(config, HeadLayout(config, plan), 16)
        reused = attention_flops(config, HeadLayout(config, plan, reuse_values=True), 16)
        assert reused.av_flops * 2 == plain.av_flops

    def test_decode_flops_affine_in_seq_len(self):
        config = small_config()
        plan = grouped_plan(2, 4, [1, 3])
        layout = HeadLayout(config, plan)
        f = [attention_flops(config, layout, s).total_flops for s in (5, 10, 15)]
        assert f[1] - f[0] == f[2] - f[1]

    def test_reduction_bounded(self):
        config = small_config()
        plan = grouped_plan(2, 4, [1, 1])
        report = attention_flops(config, HeadLayout(config, plan), 32)
        assert 0.0 < report.reduction_fraction < 1.0
