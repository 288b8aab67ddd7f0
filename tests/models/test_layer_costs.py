"""Tests for the per-layer/stage cost model."""

import pytest

from repro.core.traffic import L2_PASS_ROWS, L2_RESIDENT_BYTES
from repro.distsim import systems
from repro.gpu import H100, L40S
from repro.gpu.roofline import estimate_kernel_time
from repro.gpu.specs import BYTES_PER_ELEMENT
from repro.models import LLAMA3_8B, LLAMA3_70B, LayerCostModel, MicrobatchShape


@pytest.fixture
def cost():
    return LayerCostModel(LLAMA3_8B, H100, strategy="torch")


def shape(tokens, lengths=None):
    if lengths is None:
        lengths = [tokens]
    return MicrobatchShape.from_lengths(lengths)


class TestMicrobatchShape:
    def test_from_lengths(self):
        s = MicrobatchShape.from_lengths([100, 200], num_adapters=2)
        assert s.tokens == 300
        assert s.sum_sq_len == 100**2 + 200**2
        assert s.num_adapters == 2


class TestLayerTime:
    def test_forward_scales_roughly_linearly_in_tokens(self, cost):
        t1 = cost.layer_time(shape(2048), "forward")
        t2 = cost.layer_time(shape(4096, [2048, 2048]), "forward")
        assert t2 == pytest.approx(2 * t1, rel=0.2)

    def test_backward_costs_more_than_forward(self, cost):
        s = shape(4096)
        assert cost.layer_time(s, "backward") > cost.layer_time(s, "forward")

    def test_attention_quadratic_in_sample_length(self, cost):
        # Same token count, one long sample vs many short ones.
        packed = cost.layer_time(shape(8192, [512] * 16), "forward")
        single = cost.layer_time(shape(8192, [8192]), "forward")
        assert single > packed

    def test_fused_strategy_is_faster(self):
        torch_cost = LayerCostModel(LLAMA3_8B, H100, strategy="torch")
        fused_cost = LayerCostModel(LLAMA3_8B, H100, strategy="fused")
        s = shape(8192)
        for direction in ("forward", "backward"):
            assert fused_cost.layer_time(s, direction) < torch_cost.layer_time(
                s, direction
            )

    def test_layerwise_speedup_in_paper_band(self):
        # Figure 18: FusedLoRA layer-wise speedup averages ~1.21x (<=1.30).
        torch_cost = LayerCostModel(LLAMA3_8B, H100, strategy="torch")
        fused_cost = LayerCostModel(LLAMA3_8B, H100, strategy="fused")
        s = shape(8192, [512] * 16)
        speedup = (
            torch_cost.layer_time(s, "forward") + torch_cost.layer_time(s, "backward")
        ) / (
            fused_cost.layer_time(s, "forward") + fused_cost.layer_time(s, "backward")
        )
        assert 1.10 <= speedup <= 1.45

    def test_multi_fallback_for_single_adapter(self):
        multi = LayerCostModel(LLAMA3_8B, H100, strategy="fused_multi")
        fused = LayerCostModel(LLAMA3_8B, H100, strategy="fused")
        s = shape(4096)  # num_adapters == 1
        assert multi.layer_time(s, "forward") == pytest.approx(
            fused.layer_time(s, "forward")
        )

    def test_l40s_slower_than_h100(self):
        h = LayerCostModel(LLAMA3_8B, H100)
        l = LayerCostModel(LLAMA3_8B, L40S)
        s = shape(4096)
        assert l.layer_time(s, "forward") > h.layer_time(s, "forward")


class TestStageTime:
    def test_last_stage_pays_for_head(self, cost):
        s = shape(4096)
        plain = cost.stage_time(s, "forward", 8)
        with_head = cost.stage_time(s, "forward", 8, last_stage=True)
        assert with_head > plain

    def test_zero_tokens_is_free(self, cost):
        assert cost.stage_time(MicrobatchShape(0, 0.0), "forward", 8) == 0.0

    def test_bigger_model_costs_more(self):
        small = LayerCostModel(LLAMA3_8B, H100)
        large = LayerCostModel(LLAMA3_70B, H100)
        s = shape(4096)
        assert large.layer_time(s, "forward") > 2 * small.layer_time(s, "forward")

    def test_optimizer_step_is_cheap(self, cost):
        # Adapter-only AdamW: far below one layer's work.
        assert cost.optimizer_step_time() < cost.layer_time(shape(4096), "forward")


def _boundary_tokens():
    """Token counts from 1 to 8192, including every M-tile and L2 edge."""
    tokens = {1, 2, 3, 17, 100, 1000, 3000, 5000, 8191, 8192}
    for edge in (64, 128, L2_PASS_ROWS, 2 * L2_PASS_ROWS, 4096):
        tokens.update({edge - 1, edge, edge + 1})
    elem = BYTES_PER_ELEMENT["bf16"]
    for k, n in LLAMA3_8B.linear_shapes().values():
        for dim in (k, n):
            edge = L2_RESIDENT_BYTES // (dim * elem)
            tokens.update({edge, edge + 1})
    return sorted(t for t in tokens if 1 <= t <= 8192)


def _reference_layer_time(cost, shape, direction):
    """One decoder layer priced from scratch, kernel by kernel."""
    return sum(
        estimate_kernel_time(p, cost.gpu, cost.dtype)
        for p in cost.layer_profiles(shape, direction)
    )


def _reference_stage_time(args, layer, tokens, direction, num_layers, first, last):
    """``stage_time`` rebuilt from an unmemoised ``layer`` time."""
    cost = LayerCostModel(*args)  # fresh instance: cold memos
    total = num_layers * layer
    if first and direction == "forward":
        total += cost.embedding_time(tokens)
    if last:
        total += cost.head_time(tokens, direction)
    return total


#: (first_stage, last_stage) of a first, a middle and a last stage.
STAGES = ((True, False), (False, False), (False, True))


class TestMemoIdentity:
    """The layered memos return exactly what unmemoised pricing would."""

    @pytest.mark.parametrize("strategy", ["frozen", "torch", "fused", "fused_multi"])
    def test_stage_time_equals_unmemoised_reference(self, strategy):
        args = (LLAMA3_8B, H100, strategy)
        cost = LayerCostModel(*args)
        reference = LayerCostModel(*args)  # only its unmemoised profiles
        cases = []
        shapes = [MicrobatchShape(0, 0.0)]
        for t in _boundary_tokens():
            # Two shapes per token count: one sample, and a packed split
            # that differs only in the attention term.
            for lengths in ([t], [t // 2, t - t // 2] if t > 1 else [t]):
                for adapters in (1, 2, 3, 4):
                    s = MicrobatchShape.from_lengths(lengths, num_adapters=adapters)
                    shapes.append(s)
                    for direction in ("forward", "backward"):
                        # Each distinct weight shape is timed once, but
                        # the linears' times still come out kernel by
                        # kernel in ``linear_profiles`` order.
                        assert cost._linear_times(t, adapters, direction) == tuple(
                            estimate_kernel_time(p, cost.gpu, cost.dtype)
                            for p in reference.linear_profiles(t, direction, adapters)
                        )
                        layer = _reference_layer_time(reference, s, direction)
                        for first, last in STAGES:
                            want = _reference_stage_time(
                                args, layer, t, direction, 8, first, last
                            )
                            cases.append((s, direction, first, last, want))
        # Second pass re-prices every case warm: hits must agree too.
        for _ in range(2):
            for s, direction, first, last, want in cases:
                got = cost.stage_time(s, direction, 8, first, last)
                assert got == want, (s, direction, first, last)
        # ``stage_times`` looks the layer time up once per direction; each
        # stage must still equal its own ``stage_time`` call.
        for n in (1, 2, 3, 4):
            layers = LLAMA3_8B.num_layers / n
            for s in shapes:
                assert systems.stage_times(cost, s, n) == tuple(
                    tuple(
                        cost.stage_time(s, direction, layers, k == 0, k == n - 1)
                        for k in range(n)
                    )
                    for direction in ("forward", "backward")
                ), (s, n)

    def test_instances_never_share_entries(self):
        h100 = LayerCostModel(LLAMA3_8B, H100, strategy="fused")
        l40s = LayerCostModel(LLAMA3_8B, L40S, strategy="fused")
        s = MicrobatchShape.from_lengths([1024, 1024], num_adapters=2)
        for direction in ("forward", "backward"):
            on_h100 = h100.stage_time(s, direction, 8, True, True)
            on_l40s = l40s.stage_time(s, direction, 8, True, True)
            assert on_l40s != on_h100
            args = (LLAMA3_8B, L40S, "fused")
            layer = _reference_layer_time(LayerCostModel(*args), s, direction)
            assert on_l40s == _reference_stage_time(
                args, layer, s.tokens, direction, 8, True, True
            )
            assert h100.stage_time(s, direction, 8, True, True) == on_h100


def _old_kernel_time(profile, gpu, dtype):
    """The roofline expression as written before :class:`Roofline` bound
    the rates once, kept verbatim as the bit-exact reference."""
    if profile.uses_tensor_cores:
        flop_rate = gpu.peak_flops(dtype) * gpu.gemm_efficiency
    else:
        flop_rate = gpu.cuda_tflops * 1e12 * gpu.gemm_efficiency
    flop_rate *= profile.gemm_efficiency_scale
    compute_time = profile.flops / flop_rate if profile.flops else 0.0
    bandwidth = gpu.effective_bandwidth() * profile.mem_efficiency_scale
    memory_time = profile.bytes_total / bandwidth
    launch = gpu.kernel_launch_us * 1e-6
    return max(compute_time, memory_time) + launch + profile.extra_latency_us * 1e-6


class TestBoundRoofline:
    """The model's bound roofline times every kernel to the same bits."""

    @pytest.mark.parametrize("strategy", ["frozen", "torch", "fused", "fused_multi"])
    def test_every_layer_kernel_matches_the_old_expression(self, strategy):
        cost = LayerCostModel(LLAMA3_8B, H100, strategy=strategy)
        for t in _boundary_tokens():
            for adapters in (1, 2, 3, 4):
                s = MicrobatchShape.from_lengths([t], num_adapters=adapters)
                for direction in ("forward", "backward"):
                    for p in cost.layer_profiles(s, direction):
                        want = _old_kernel_time(p, cost.gpu, cost.dtype)
                        assert cost.roofline.kernel_time(p) == want, p
                        assert estimate_kernel_time(p, cost.gpu, cost.dtype) == want

    @pytest.mark.parametrize("gpu", [H100, L40S])
    def test_profile_free_attention_is_exact(self, gpu):
        cost = LayerCostModel(LLAMA3_8B, gpu)
        for t in [0, *_boundary_tokens()]:
            # Zero flops, a packed split, one sample, and a non-integral sum.
            for sum_sq in (0.0, float(t * t // 2), float(t * t), t * t / 3):
                for direction in ("forward", "backward"):
                    profile = cost.attention_profile(t, sum_sq, direction)
                    got = cost.attention_time(t, sum_sq, direction)
                    assert got == estimate_kernel_time(profile, gpu, cost.dtype)
                    assert got == _old_kernel_time(profile, gpu, cost.dtype)
