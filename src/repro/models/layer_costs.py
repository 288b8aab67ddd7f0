"""Per-decoder-layer cost model: from architecture to microbatch runtimes.

The end-to-end experiments (Figures 5, 7, 14-16, 20-22) need the time one
pipeline stage spends on one microbatch.  This module assembles that from
kernel profiles: the seven LoRA-adapted linears per decoder layer (priced by
:mod:`repro.core.traffic` under the chosen kernel strategy) plus the
non-linear layer machinery -- flash attention, RMSNorm, rotary embedding,
residual adds -- and the embedding / LM-head / loss work of the first and
last pipeline stages.

Attention cost is quadratic in per-sample sequence length, so microbatch
descriptors carry both the total token count and the sum of squared sample
lengths (on-the-fly packing uses block-diagonal attention, Figure 2c).
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from repro.core.traffic import LoRAShape, lora_profiles
from repro.gpu.roofline import KernelProfile, Roofline
from repro.gpu.specs import BYTES_PER_ELEMENT, GPUSpec
from repro.models.config import ModelConfig

__all__ = ["MicrobatchShape", "LayerCostModel"]

#: Backward FLOP multiplier for flash attention (recomputes the forward).
ATTENTION_BACKWARD_FACTOR = 2.5


class MicrobatchShape(NamedTuple):
    """Workload description of one microbatch on one pipeline stage.

    A ``NamedTuple``: pricing builds thousands per run, and a tuple is
    cheaper to construct than a frozen dataclass.

    Attributes:
        tokens: Total number of tokens (padded, as scheduled).
        sum_sq_len: Sum of squared per-sample lengths; drives the quadratic
            attention term.  A single 8K sample costs far more attention
            time than 8K tokens split over 16 samples.
        num_adapters: Distinct adapters present (selects the multi kernel).
    """

    tokens: int
    sum_sq_len: float
    num_adapters: int = 1

    @staticmethod
    def from_lengths(lengths: list[int], num_adapters: int = 1) -> "MicrobatchShape":
        """Build a shape from per-sample token lengths."""
        return MicrobatchShape(
            tokens=sum(lengths),
            sum_sq_len=float(sum(l * l for l in lengths)),
            num_adapters=num_adapters,
        )


class LayerCostModel:
    """Prices decoder-layer, embedding, and head work on a given GPU.

    Args:
        model: Architecture shapes.
        gpu: Device the work runs on.
        strategy: Kernel strategy for the LoRA linears (``"frozen"``,
            ``"torch"``, ``"fused"``, ``"fused_multi"``).
        lora_rank: Adapter rank ``r``.
        dropout: Whether adapters apply dropout.
        dtype: Storage dtype.

    Attributes:
        roofline: ``gpu``'s rates for ``dtype``, read once; every kernel
            this model prices is timed by it.
    """

    def __init__(
        self,
        model: ModelConfig,
        gpu: GPUSpec,
        strategy: str = "torch",
        lora_rank: int = 16,
        dropout: bool = True,
        dtype: str = "bf16",
    ) -> None:
        self.model = model
        self.gpu = gpu
        self.strategy = strategy
        self.lora_rank = lora_rank
        self.dropout = dropout
        self.dtype = dtype
        self._elem = BYTES_PER_ELEMENT[dtype]
        self.roofline = Roofline.of(gpu, dtype)
        # Memos, per instance and bounded.  The outer one keys the full
        # microbatch shape; on its misses only the attention kernel depends
        # on ``sum_sq_len``, so the linear and elementwise kernel times are
        # memoised again by token count -- far fewer distinct keys.
        self._layer_time_cached = lru_cache(maxsize=4096)(self._layer_time)
        self._linear_times = lru_cache(maxsize=4096)(self._linear_times_uncached)
        self._elementwise_times = lru_cache(maxsize=4096)(
            self._elementwise_times_uncached
        )
        self._head_time_cached = lru_cache(maxsize=4096)(self._head_time)
        self._embedding_time_cached = lru_cache(maxsize=4096)(self._embedding_time)

    # -- profile builders ---------------------------------------------------

    def linear_profiles(
        self, tokens: int, direction: str, num_adapters: int = 1
    ) -> list[KernelProfile]:
        """Profiles of the seven LoRA-adapted linears for one layer pass."""
        profiles: list[KernelProfile] = []
        for k, n in self.model.linear_shapes().values():
            profiles.extend(self._shape_profiles(tokens, k, n, direction, num_adapters))
        return profiles

    def _shape_profiles(
        self, tokens: int, k: int, n: int, direction: str, num_adapters: int
    ) -> list[KernelProfile]:
        """Profiles of one LoRA-adapted linear with a ``(k, n)`` weight."""
        strategy = self.strategy
        if strategy == "fused_multi" and num_adapters <= 1:
            strategy = "fused"  # the runtime's automatic fallback
        shape = LoRAShape(
            m=tokens,
            k=k,
            n=n,
            r=self.lora_rank,
            dtype=self.dtype,
            dropout=self.dropout and strategy != "frozen",
            num_adapters=max(1, num_adapters),
        )
        return lora_profiles(strategy, direction, shape)

    def _attention_cost(
        self, tokens: int, sum_sq_len: float, direction: str
    ) -> tuple[float, float, float]:
        """``(flops, bytes_read, bytes_written)`` of the attention kernel."""
        h = self.model.hidden_size
        kv_ratio = self.model.num_kv_heads / self.model.num_heads
        # Causal: half of the score matrix; two GEMMs (QK^T and PV).
        flops = 2.0 * sum_sq_len * h * (1.0 + 1.0)/2.0
        if direction == "backward":
            flops *= ATTENTION_BACKWARD_FACTOR
        qkv_bytes = tokens * (h + 2 * h * kv_ratio) * self._elem
        out_bytes = tokens * h * self._elem
        bytes_read = qkv_bytes + (out_bytes if direction == "backward" else 0)
        return flops, bytes_read, out_bytes if direction == "forward" else qkv_bytes

    def attention_profile(
        self, tokens: int, sum_sq_len: float, direction: str
    ) -> KernelProfile:
        """Flash-attention cost with block-diagonal (packed) masking."""
        flops, read, written = self._attention_cost(tokens, sum_sq_len, direction)
        return KernelProfile(f"flash_attention_{direction[:3]}", flops, read, written,
                             uses_tensor_cores=True, category="attention")

    def elementwise_profiles(self, tokens: int, direction: str) -> list[KernelProfile]:
        """RMSNorm (x2), rotary embedding, and residual adds for one layer."""
        h = self.model.hidden_size
        e = self._elem
        th = tokens * h * e
        rot = tokens * (self.model.hidden_size + self.model.kv_dim) * e
        profiles = [
            KernelProfile(f"rmsnorm_{direction[:3]}", flops=4.0 * tokens * h,
                          bytes_read=th, bytes_written=th,
                          uses_tensor_cores=False, category="elementwise"),
            KernelProfile(f"rmsnorm2_{direction[:3]}", flops=4.0 * tokens * h,
                          bytes_read=th, bytes_written=th,
                          uses_tensor_cores=False, category="elementwise"),
            KernelProfile(f"rotary_{direction[:3]}", flops=3.0 * tokens * h,
                          bytes_read=rot, bytes_written=rot,
                          uses_tensor_cores=False, category="elementwise"),
            KernelProfile(f"residual_{direction[:3]}", flops=2.0 * tokens * h,
                          bytes_read=2 * th, bytes_written=th,
                          uses_tensor_cores=False, category="elementwise"),
        ]
        return profiles

    def layer_profiles(
        self, shape: MicrobatchShape, direction: str
    ) -> list[KernelProfile]:
        """All kernel profiles of one decoder layer pass."""
        profiles = self.linear_profiles(shape.tokens, direction, shape.num_adapters)
        profiles.append(
            self.attention_profile(shape.tokens, shape.sum_sq_len, direction)
        )
        profiles.extend(self.elementwise_profiles(shape.tokens, direction))
        return profiles

    # -- timing -------------------------------------------------------------

    def _kernel_times(self, profiles: list[KernelProfile]) -> tuple[float, ...]:
        return tuple(map(self.roofline.kernel_time, profiles))

    def _linear_times_uncached(
        self, tokens: int, num_adapters: int, direction: str
    ) -> tuple[float, ...]:
        """Roofline times of ``linear_profiles(tokens, direction, num_adapters)``.

        The seven linears have only four distinct weight shapes (q/o,
        k/v, gate/up, down), and a linear's profiles depend on nothing
        but its shape, so each distinct shape is built and timed once.
        The times are laid out kernel by kernel in ``linear_shapes()``
        order, the order :meth:`_layer_time` sums them in.
        """
        by_shape: dict[tuple[int, int], tuple[float, ...]] = {}
        times: list[float] = []
        for k, n in self.model.linear_shapes().values():
            shape_times = by_shape.get((k, n))
            if shape_times is None:
                shape_times = by_shape[k, n] = self._kernel_times(
                    self._shape_profiles(tokens, k, n, direction, num_adapters)
                )
            times.extend(shape_times)
        return tuple(times)

    def _elementwise_times_uncached(
        self, tokens: int, direction: str
    ) -> tuple[float, ...]:
        return self._kernel_times(self.elementwise_profiles(tokens, direction))

    def attention_time(self, tokens: int, sum_sq_len: float, direction: str) -> float:
        """Roofline seconds of :meth:`attention_profile`, priced from its
        counts without building the profile (a tensor-core kernel with
        unit efficiency scales, the profile's defaults)."""
        flops, read, written = self._attention_cost(tokens, sum_sq_len, direction)
        return self.roofline.time(flops, read + written)

    def _layer_time(
        self, tokens: int, sum_sq_len: float, num_adapters: int, direction: str
    ) -> float:
        attention = self.attention_time(tokens, sum_sq_len, direction)
        # One sum over the kernel times in ``layer_profiles`` order: the
        # same float sequence gives the same bits on every Python version
        # (3.12's ``sum`` compensates rounding), so no partial sum is cached.
        return sum(
            self._linear_times(tokens, num_adapters, direction)
            + (attention,)
            + self._elementwise_times(tokens, direction)
        )

    def layer_time(self, shape: MicrobatchShape, direction: str) -> float:
        """Seconds one decoder layer spends on ``shape`` in ``direction``."""
        return self._layer_time_cached(
            shape.tokens, shape.sum_sq_len, shape.num_adapters, direction
        )

    def embedding_time(self, tokens: int) -> float:
        """Embedding lookup cost (first pipeline stage)."""
        return self._embedding_time_cached(tokens)

    def _embedding_time(self, tokens: int) -> float:
        profile = KernelProfile(
            "embedding",
            flops=0.0,
            bytes_read=tokens * self.model.hidden_size * self._elem,
            bytes_written=tokens * self.model.hidden_size * self._elem,
            uses_tensor_cores=False,
            category="elementwise",
        )
        return self.roofline.kernel_time(profile)

    def head_time(self, tokens: int, direction: str) -> float:
        """LM head GEMM plus softmax cross-entropy (last pipeline stage)."""
        return self._head_time_cached(tokens, direction)

    def _head_time(self, tokens: int, direction: str) -> float:
        h, v = self.model.hidden_size, self.model.vocab_size
        e = self._elem
        gemm = KernelProfile(
            f"lm_head_{direction[:3]}",
            flops=2.0 * tokens * h * v * (2.0 if direction == "backward" else 1.0),
            bytes_read=(tokens * h + h * v) * e,
            bytes_written=tokens * v * e,
            uses_tensor_cores=True,
            category="base_gemm",
        )
        loss = KernelProfile(
            f"cross_entropy_{direction[:3]}",
            flops=5.0 * tokens * v,
            bytes_read=tokens * v * e,
            bytes_written=tokens * v * e if direction == "backward" else tokens * e,
            uses_tensor_cores=False,
            category="elementwise",
        )
        return self.roofline.kernel_time(gemm) + self.roofline.kernel_time(loss)

    def stage_time(
        self,
        shape: MicrobatchShape,
        direction: str,
        num_layers: float,
        first_stage: bool = False,
        last_stage: bool = False,
    ) -> float:
        """Seconds one pipeline stage spends on one microbatch pass.

        Args:
            shape: Microbatch workload.
            direction: ``"forward"`` or ``"backward"``.
            num_layers: Decoder layers hosted by this stage.
            first_stage: Whether the stage owns the embedding.
            last_stage: Whether the stage owns the LM head and loss.
        """
        if shape.tokens == 0:
            return 0.0
        layer = self.layer_time(shape, direction)
        return self.stage_times_from_layer(
            layer, shape.tokens, direction, num_layers, 1, first_stage, last_stage
        )[0]

    def stage_times_from_layer(
        self,
        layer: float,
        tokens: int,
        direction: str,
        num_layers: float,
        num_stages: int,
        first_stage: bool = True,
        last_stage: bool = True,
    ) -> tuple[float, ...]:
        """Seconds each of ``num_stages`` consecutive stages spends on one
        non-empty microbatch pass, given its layer time.

        The one per-stage rule, shared by :meth:`stage_time` (a run of
        one stage) and :func:`~repro.distsim.systems.stage_times` (the
        whole pipeline, one layer lookup per direction): every stage
        runs ``num_layers * layer``, then the run's first stage adds the
        embedding on the forward pass and its last stage adds the LM
        head.

        Args:
            layer: :meth:`layer_time` of the microbatch in ``direction``.
            tokens: The microbatch's token count.
            direction: ``"forward"`` or ``"backward"``.
            num_layers: Decoder layers hosted by each stage.
            num_stages: Stages in the run.
            first_stage: Whether the run's first stage owns the embedding.
            last_stage: Whether the run's last stage owns the LM head.
        """
        stages = [num_layers * layer] * num_stages
        if first_stage and direction == "forward":
            stages[0] += self.embedding_time(tokens)
        if last_stage:
            stages[-1] += self.head_time(tokens, direction)
        return tuple(stages)

    def optimizer_step_time(self) -> float:
        """Adapter-only AdamW step cost: negligible but non-zero."""
        lora_params = self.model.num_layers * sum(
            self.lora_rank * (k + n)
            for k, n in self.model.linear_shapes().values()
        )
        profile = KernelProfile(
            "adamw_step",
            flops=12.0 * lora_params,
            bytes_read=16.0 * lora_params,
            bytes_written=12.0 * lora_params,
            uses_tensor_cores=False,
            category="optimizer",
        )
        return self.roofline.kernel_time(profile)
