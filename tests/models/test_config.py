"""Tests for model architecture configs and the memory formula."""

import pytest

from repro.models import LLAMA3_8B, LLAMA3_70B, QWEN25_32B, TINY, get_model, list_models


class TestRegistry:
    def test_paper_models_present(self):
        assert set(list_models()) >= {"llama3-8b", "qwen25-32b", "llama3-70b"}

    def test_lookup(self):
        assert get_model("llama3-70b") is LLAMA3_70B

    def test_unknown_model_raises(self):
        with pytest.raises(KeyError):
            get_model("gpt-5")


class TestShapes:
    def test_head_dims(self):
        assert LLAMA3_8B.head_dim == 128
        assert LLAMA3_70B.head_dim == 128
        assert QWEN25_32B.head_dim == 128

    def test_gqa_kv_dim(self):
        # 8 KV heads x 128 head dim on all three models.
        assert LLAMA3_8B.kv_dim == 1024
        assert LLAMA3_70B.kv_dim == 1024

    def test_seven_lora_target_linears(self):
        shapes = LLAMA3_8B.linear_shapes()
        assert set(shapes) == {
            "q_proj", "k_proj", "v_proj", "o_proj",
            "gate_proj", "up_proj", "down_proj",
        }
        assert shapes["q_proj"] == (4096, 4096)
        assert shapes["down_proj"] == (14336, 4096)

    def test_param_counts_match_model_names(self):
        # Within ~15% of the nominal parameter counts.
        assert LLAMA3_8B.param_count() == pytest.approx(8e9, rel=0.15)
        assert QWEN25_32B.param_count() == pytest.approx(32.5e9, rel=0.15)
        assert LLAMA3_70B.param_count() == pytest.approx(70e9, rel=0.15)


def model_state_bytes(model, lora_rank):
    """Bytes of model states for LoRA fine-tuning (Section 2.1).

    Half-precision frozen weights (2 bytes/param) plus, per LoRA adapter
    parameter, 16 bytes (fp16 weight+grad, fp32 master weight and two Adam
    moments): the ``2nk + 32r(n+k)`` formula of the paper aggregated over
    all adapted linears.
    """
    lora_params = model.num_layers * sum(
        lora_rank * (k + n) for k, n in model.linear_shapes().values()
    )
    return 2 * model.param_count() + 16 * lora_params


class TestMemoryFormula:
    def test_frozen_weights_dominate_lora_state(self):
        # Section 2.1: LoRA rank 16 adds ~0.3-0.4% parameters; even with
        # 16 bytes/param of optimizer state the total stays close to the
        # frozen footprint.
        frozen = model_state_bytes(LLAMA3_70B, lora_rank=0)
        with_lora = model_state_bytes(LLAMA3_70B, lora_rank=16)
        assert with_lora / frozen < 1.06

    def test_llama70b_lora_memory_matches_paper(self):
        # "fine-tuning LLaMa-3.1-70B using LoRA ... reducing GPU memory
        # usage to 142GB": weights plus rank-16 adapter states.
        total_gb = model_state_bytes(LLAMA3_70B, lora_rank=16) / 1e9
        assert 130 <= total_gb <= 155

    def test_full_finetune_is_8x_lora(self):
        # 16 bytes/param full fine-tuning vs 2 bytes/param frozen: the
        # "decreasing memory demands by nearly 8x" claim.
        full = 16 * LLAMA3_70B.param_count()
        lora = model_state_bytes(LLAMA3_70B, lora_rank=16)
        assert 7.0 <= full / lora <= 8.1
