"""Model architecture configurations used by the paper's evaluation.

The end-to-end experiments fine-tune LLaMa-3.1-8B, Qwen-2.5-32B, and
LLaMa-3.1-70B.  Only architecture *shapes* matter for the performance model;
they are taken from the public model cards.  ``TINY`` is a numerically
trainable configuration used by the correctness/losslessness test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "ModelConfig",
    "LLAMA3_8B",
    "QWEN25_32B",
    "LLAMA3_70B",
    "TINY",
    "get_model",
    "list_models",
]


@dataclass(frozen=True)
class ModelConfig:
    """Transformer decoder architecture description.

    Attributes:
        name: Human-readable model name.
        key: Registry key.
        hidden_size: Embedding width ``h``.
        intermediate_size: SwiGLU MLP width.
        num_layers: Number of decoder layers.
        num_heads: Query heads.
        num_kv_heads: Key/value heads (GQA).
        vocab_size: Vocabulary size (drives the LM-head cost).
    """

    name: str
    key: str
    hidden_size: int
    intermediate_size: int
    num_layers: int
    num_heads: int
    num_kv_heads: int
    vocab_size: int

    @property
    def head_dim(self) -> int:
        """Per-head dimension."""
        return self.hidden_size // self.num_heads

    @property
    def kv_dim(self) -> int:
        """Total key/value projection width (GQA-aware)."""
        return self.num_kv_heads * self.head_dim

    def linear_shapes(self) -> dict[str, tuple[int, int]]:
        """The seven LoRA-adapted linear layers of one decoder layer.

        Returns a mapping from projection name to ``(k, n)`` weight shape.
        """
        h, kv, ffn = self.hidden_size, self.kv_dim, self.intermediate_size
        return {
            "q_proj": (h, h),
            "k_proj": (h, kv),
            "v_proj": (h, kv),
            "o_proj": (h, h),
            "gate_proj": (h, ffn),
            "up_proj": (h, ffn),
            "down_proj": (ffn, h),
        }

    def param_count(self) -> int:
        """Approximate parameter count (decoder layers + embeddings)."""
        per_layer = sum(k * n for k, n in self.linear_shapes().values())
        per_layer += 2 * self.hidden_size  # two RMSNorm gains
        embeddings = 2 * self.vocab_size * self.hidden_size
        return self.num_layers * per_layer + embeddings


LLAMA3_8B = ModelConfig(
    name="LLaMa-3.1-8B",
    key="llama3-8b",
    hidden_size=4096,
    intermediate_size=14336,
    num_layers=32,
    num_heads=32,
    num_kv_heads=8,
    vocab_size=128256,
)

QWEN25_32B = ModelConfig(
    name="Qwen-2.5-32B",
    key="qwen25-32b",
    hidden_size=5120,
    intermediate_size=27648,
    num_layers=64,
    num_heads=40,
    num_kv_heads=8,
    vocab_size=152064,
)

LLAMA3_70B = ModelConfig(
    name="LLaMa-3.1-70B",
    key="llama3-70b",
    hidden_size=8192,
    intermediate_size=28672,
    num_layers=80,
    num_heads=64,
    num_kv_heads=8,
    vocab_size=128256,
)

TINY = ModelConfig(
    name="Tiny (numeric test model)",
    key="tiny",
    hidden_size=32,
    intermediate_size=64,
    num_layers=2,
    num_heads=4,
    num_kv_heads=4,
    vocab_size=101,
)

_REGISTRY = {m.key: m for m in (LLAMA3_8B, QWEN25_32B, LLAMA3_70B, TINY)}


def get_model(key: str) -> ModelConfig:
    """Look up a model config by registry key."""
    try:
        return _REGISTRY[key.lower()]
    except KeyError as exc:
        raise KeyError(f"unknown model {key!r}; known: {sorted(_REGISTRY)}") from exc


def list_models() -> list[str]:
    """Registry keys of all known models."""
    return sorted(_REGISTRY)
