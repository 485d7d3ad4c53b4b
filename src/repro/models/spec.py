"""Dense transformer model specifications.

The Sailor profiler measures per-layer times and sizes on real hardware; our
simulated profiler derives them from the analytic accounting in this module:
parameters, forward/backward FLOPs and activation bytes per transformer
layer, embedding and LM head.  The formulas follow the standard Megatron-LM
accounting (Shoeybi et al., Korthikanti et al.), which is what the paper's
memory model (section 4.3) builds on.
"""

from __future__ import annotations

from dataclasses import dataclass, field


#: Bytes per element for supported training datatypes.
DTYPE_SIZES: dict[str, int] = {"fp32": 4, "fp16": 2, "bf16": 2}


@dataclass(frozen=True)
class TransformerModelSpec:
    """Architecture description of a dense decoder-only transformer.

    Attributes
    ----------
    name:
        Model identifier, e.g. ``"OPT-350M"``.
    num_layers:
        Number of transformer blocks.
    hidden_size:
        Model (embedding) dimension ``h``.
    num_heads:
        Attention heads; must divide ``hidden_size``.
    ffn_hidden_size:
        Width of the MLP block (usually ``4 * hidden_size``).
    vocab_size:
        Token vocabulary size (determines embedding/LM-head parameters).
    max_sequence_length:
        Maximum sequence length the model trains with.
    tied_embeddings:
        Whether the LM head shares weights with the input embedding.
    """

    name: str
    num_layers: int
    hidden_size: int
    num_heads: int
    ffn_hidden_size: int = 0
    vocab_size: int = 50272
    max_sequence_length: int = 2048
    tied_embeddings: bool = True

    def __post_init__(self) -> None:
        if self.num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        if self.hidden_size < 1:
            raise ValueError("hidden_size must be >= 1")
        if self.num_heads < 1 or self.hidden_size % self.num_heads != 0:
            raise ValueError("num_heads must divide hidden_size")
        if self.ffn_hidden_size == 0:
            object.__setattr__(self, "ffn_hidden_size", 4 * self.hidden_size)

    # -- parameter counts ----------------------------------------------------

    @property
    def params_per_layer(self) -> int:
        """Parameters of one transformer block (attention + MLP + norms)."""
        h = self.hidden_size
        f = self.ffn_hidden_size
        attention = 4 * h * h + 4 * h          # QKV + output proj (+ biases)
        mlp = 2 * h * f + h + f                # up/down proj (+ biases)
        norms = 4 * h                          # two LayerNorms (scale + bias)
        return attention + mlp + norms

    @property
    def embedding_params(self) -> int:
        """Parameters of the input embedding (+ learned positions)."""
        return self.vocab_size * self.hidden_size + \
            self.max_sequence_length * self.hidden_size

    @property
    def lm_head_params(self) -> int:
        """Parameters of the output projection (0 when tied)."""
        if self.tied_embeddings:
            return 0
        return self.vocab_size * self.hidden_size

    @property
    def total_params(self) -> int:
        """Total trainable parameters."""
        return (self.num_layers * self.params_per_layer
                + self.embedding_params + self.lm_head_params)

    # -- compute -------------------------------------------------------------

    def layer_forward_flops(self, microbatch_size: int, sequence_length: int) -> float:
        """Dense forward FLOPs of one transformer block for one microbatch."""
        self._check_batch(microbatch_size, sequence_length)
        b, s, h, f = microbatch_size, sequence_length, self.hidden_size, self.ffn_hidden_size
        attention_proj = 8 * b * s * h * h      # QKV + output projections
        attention_scores = 4 * b * s * s * h    # QK^T and attention * V
        mlp = 4 * b * s * h * f                 # two GEMMs
        return float(attention_proj + attention_scores + mlp)

    def layer_backward_flops(self, microbatch_size: int, sequence_length: int) -> float:
        """Backward FLOPs of one block (standard 2x the forward cost)."""
        return 2.0 * self.layer_forward_flops(microbatch_size, sequence_length)

    def lm_head_forward_flops(self, microbatch_size: int, sequence_length: int) -> float:
        """Forward FLOPs of the final vocabulary projection."""
        self._check_batch(microbatch_size, sequence_length)
        return float(2 * microbatch_size * sequence_length
                     * self.hidden_size * self.vocab_size)

    # -- activations and I/O ---------------------------------------------------

    def layer_activation_bytes(self, microbatch_size: int, sequence_length: int,
                               tensor_parallel: int = 1,
                               dtype: str = "fp16") -> float:
        """Activation memory one block keeps for the backward pass.

        Uses the Megatron accounting ``s*b*h*(34 + 5*a*s/h)`` bytes for fp16
        (Korthikanti et al.), scaled by the dtype size and divided across
        tensor-parallel ranks.
        """
        self._check_batch(microbatch_size, sequence_length)
        if tensor_parallel < 1:
            raise ValueError("tensor_parallel must be >= 1")
        dtype_size = dtype_size_bytes(dtype)
        b, s, h, a = microbatch_size, sequence_length, self.hidden_size, self.num_heads
        per_layer_fp16 = s * b * h * (34.0 + 5.0 * a * s / h)
        return per_layer_fp16 * (dtype_size / 2.0) / tensor_parallel

    def boundary_activation_bytes(self, microbatch_size: int, sequence_length: int,
                                  dtype: str = "fp16") -> float:
        """Bytes sent between consecutive pipeline stages per microbatch."""
        self._check_batch(microbatch_size, sequence_length)
        return float(microbatch_size * sequence_length * self.hidden_size
                     * dtype_size_bytes(dtype))

    # -- helpers ---------------------------------------------------------------

    @staticmethod
    def _check_batch(microbatch_size: int, sequence_length: int) -> None:
        if microbatch_size < 1:
            raise ValueError("microbatch_size must be >= 1")
        if sequence_length < 1:
            raise ValueError("sequence_length must be >= 1")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name} ({self.total_params / 1e6:.0f}M params)"


def dtype_size_bytes(dtype: str) -> int:
    """Bytes per element for a training datatype name."""
    try:
        return DTYPE_SIZES[dtype]
    except KeyError:
        raise ValueError(f"unsupported dtype {dtype!r}; use one of {sorted(DTYPE_SIZES)}") from None


@dataclass(frozen=True)
class TrainingJobSpec:
    """A training job: model + hyperparameters the planner must not change.

    The Sailor planner never alters the global batch size or optimizer, so
    the number of iterations to convergence (and hence total cost) is fixed
    by this spec (paper section 4.2/4.3).
    """

    model: TransformerModelSpec
    global_batch_size: int = 2048
    sequence_length: int = 2048
    optimizer: str = "adam"
    dtype: str = "fp16"
    master_weights_dtype: str = "fp32"
    activation_checkpointing: bool = False

    def __post_init__(self) -> None:
        if self.global_batch_size < 1:
            raise ValueError("global_batch_size must be >= 1")
        if self.sequence_length < 1:
            raise ValueError("sequence_length must be >= 1")
        if self.sequence_length > self.model.max_sequence_length:
            raise ValueError("sequence_length exceeds the model's maximum")
        dtype_size_bytes(self.dtype)
        if self.optimizer not in ("adam", "adamw", "sgd"):
            raise ValueError(f"unsupported optimizer {self.optimizer!r}")

    @property
    def bytes_per_param(self) -> float:
        """Peak persistent bytes per parameter (weights + grads + optimizer).

        Mixed-precision Adam keeps fp16 weights and gradients plus fp32
        master weights, momentum and variance: 2 + 2 + 4 + 4 + 4 = 16 bytes.
        SGD keeps fp16 weights/grads plus fp32 master weights and momentum.
        An extra 2 bytes/param covers communication buffers (the "mul_factor"
        of the paper's memory model).
        """
        if self.optimizer in ("adam", "adamw"):
            base = 2 + 2 + 4 + 4 + 4
        else:
            base = 2 + 2 + 4 + 4
        return float(base + 2)

    def valid_microbatch_sizes(self, max_mbs: int = 64) -> list[int]:
        """Microbatch sizes (powers of two) that divide the global batch."""
        sizes = []
        m = 1
        while m <= max_mbs and m <= self.global_batch_size:
            if self.global_batch_size % m == 0:
                sizes.append(m)
            m *= 2
        return sizes

    def num_microbatches(self, data_parallel: int, microbatch_size: int) -> int:
        """Microbatches each pipeline processes per iteration.

        Raises ``ValueError`` when the global batch cannot be evenly split.
        """
        if data_parallel < 1 or microbatch_size < 1:
            raise ValueError("data_parallel and microbatch_size must be >= 1")
        per_pipeline = self.global_batch_size / data_parallel
        nb = per_pipeline / microbatch_size
        if nb != int(nb) or nb < 1:
            raise ValueError(
                f"global batch {self.global_batch_size} does not split evenly "
                f"into dp={data_parallel} x mbs={microbatch_size}")
        return int(nb)
