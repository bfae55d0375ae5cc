"""Operator definitions for the data-flow graph IR.

Every operator knows three things:

* shape inference (``infer_shape``) so graphs are fully shape-typed,
* a cost summary (``flops`` and ``bytes_accessed``) consumed by the GPU
  simulator's cost model, and
* a numpy reference implementation (``evaluate``) used by the interpreter
  to validate graph construction and automatic differentiation; numpy is
  imported inside ``evaluate``, so building and scheduling graphs never
  loads it.

Operators carry a ``kind`` tag that downstream layers dispatch on:
``gemm`` ops are fusion/kernel-selection candidates, ``elementwise`` ops are
JIT-fusion candidates, ``embedding`` ops trigger the XLA pathology modelled
in :mod:`repro.baselines.xla`, and ``movement`` ops are memory-bound.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

from .tensor import TensorSpec, broadcast_result, matmul_flops, matmul_result

if TYPE_CHECKING:
    import numpy as np

#: operator kind tags (see module docstring)
KIND_GEMM = "gemm"
KIND_ELEMENTWISE = "elementwise"
KIND_REDUCTION = "reduction"
KIND_EMBEDDING = "embedding"
KIND_MOVEMENT = "movement"
KIND_SOURCE = "source"


class Op:
    """Base class for IR operators.

    Subclasses must set ``name`` and ``kind`` and implement ``infer_shape``
    and ``evaluate``.  ``flops`` defaults to one flop per output element
    (elementwise convention); compute-heavy ops override it.
    """

    name: str = "op"
    kind: str = KIND_ELEMENTWISE

    def infer_shape(self, inputs: Sequence[TensorSpec]) -> TensorSpec:
        raise NotImplementedError

    def flops(self, inputs: Sequence[TensorSpec], out: TensorSpec) -> int:
        return out.num_elements

    def bytes_accessed(self, inputs: Sequence[TensorSpec], out: TensorSpec) -> int:
        return sum(spec.size_bytes for spec in inputs) + out.size_bytes

    def evaluate(self, *arrays: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def signature(self) -> tuple:
        """Hashable op identity used in profile-index keys and equivalence
        classes (paper sections 4.5.5 and 4.6)."""
        return (self.name,)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


def _expect_arity(op: Op, inputs: Sequence[TensorSpec], arity: int) -> None:
    if len(inputs) != arity:
        raise ValueError(f"{op.name} expects {arity} inputs, got {len(inputs)}")


# ---------------------------------------------------------------------------
# GEMM
# ---------------------------------------------------------------------------


class MatMul(Op):
    """2-D matrix multiplication, optionally with transposed operands.

    The transpose flags let the backward pass express ``grad @ W^T`` without
    materialising a transposed copy, matching how cuBLAS-style libraries take
    transA/transB arguments.
    """

    name = "mm"
    kind = KIND_GEMM

    def __init__(self, transpose_a: bool = False, transpose_b: bool = False):
        self.transpose_a = transpose_a
        self.transpose_b = transpose_b

    def _effective(self, inputs: Sequence[TensorSpec]) -> tuple[TensorSpec, TensorSpec]:
        a, b = inputs
        if self.transpose_a:
            a = a.transposed()
        if self.transpose_b:
            b = b.transposed()
        return a, b

    def infer_shape(self, inputs: Sequence[TensorSpec]) -> TensorSpec:
        _expect_arity(self, inputs, 2)
        a, b = self._effective(inputs)
        return matmul_result(a, b)

    def flops(self, inputs: Sequence[TensorSpec], out: TensorSpec) -> int:
        a, b = self._effective(inputs)
        return matmul_flops(a, b)

    def gemm_dims(self, inputs: Sequence[TensorSpec]) -> tuple[int, int, int]:
        """(M, K, N) of the effective multiply; the cost model's key input."""
        a, b = self._effective(inputs)
        return a.shape[0], a.shape[1], b.shape[1]

    def evaluate(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.transpose_a:
            a = a.T
        if self.transpose_b:
            b = b.T
        return a @ b

    def signature(self) -> tuple:
        return (self.name, self.transpose_a, self.transpose_b)


# ---------------------------------------------------------------------------
# Elementwise
# ---------------------------------------------------------------------------


class _Binary(Op):
    def infer_shape(self, inputs: Sequence[TensorSpec]) -> TensorSpec:
        _expect_arity(self, inputs, 2)
        return broadcast_result(inputs[0], inputs[1])


class Add(_Binary):
    name = "add"

    def evaluate(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a + b


class Sub(_Binary):
    name = "sub"

    def evaluate(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a - b


class Mul(_Binary):
    name = "mul"

    def evaluate(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a * b


class Div(_Binary):
    name = "div"

    def evaluate(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a / b


class _Unary(Op):
    def infer_shape(self, inputs: Sequence[TensorSpec]) -> TensorSpec:
        _expect_arity(self, inputs, 1)
        return inputs[0]


class Sigmoid(_Unary):
    name = "sigmoid"

    def flops(self, inputs: Sequence[TensorSpec], out: TensorSpec) -> int:
        return 4 * out.num_elements  # exp + add + div + neg

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        import numpy as np

        return 1.0 / (1.0 + np.exp(-x))


class Tanh(_Unary):
    name = "tanh"

    def flops(self, inputs: Sequence[TensorSpec], out: TensorSpec) -> int:
        return 4 * out.num_elements

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        import numpy as np

        return np.tanh(x)


class Relu(_Unary):
    name = "relu"

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        import numpy as np

        return np.maximum(x, 0.0)


class Step(_Unary):
    """Heaviside step (1 where x > 0), the derivative mask of ReLU."""

    name = "step"

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return (x > 0).astype(x.dtype)


class Log(_Unary):
    name = "log"

    def flops(self, inputs: Sequence[TensorSpec], out: TensorSpec) -> int:
        return 4 * out.num_elements

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        import numpy as np

        return np.log(x)


class Exp(_Unary):
    name = "exp"

    def flops(self, inputs: Sequence[TensorSpec], out: TensorSpec) -> int:
        return 4 * out.num_elements

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        import numpy as np

        return np.exp(x)


class Scale(_Unary):
    """Multiply by a python scalar constant."""

    name = "scale"

    def __init__(self, factor: float):
        self.factor = float(factor)

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return x * self.factor

    def signature(self) -> tuple:
        return (self.name, self.factor)


class AddScalar(_Unary):
    """Add a python scalar constant (e.g. the ``1 +`` in ``1 - sigmoid``)."""

    name = "adds"

    def __init__(self, value: float):
        self.value = float(value)

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return x + self.value

    def signature(self) -> tuple:
        return (self.name, self.value)


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------


class ReduceSum(Op):
    """Sum over one axis (``keepdims`` preserved for broadcasting) or over
    all axes when ``axis is None`` (producing a ``(1,)`` scalar tensor)."""

    name = "reduce_sum"
    kind = KIND_REDUCTION

    def __init__(self, axis: int | None = None, keepdims: bool = False):
        self.axis = axis
        self.keepdims = keepdims

    def infer_shape(self, inputs: Sequence[TensorSpec]) -> TensorSpec:
        _expect_arity(self, inputs, 1)
        spec = inputs[0]
        if self.axis is None:
            return spec.with_shape((1,) * spec.rank if self.keepdims else (1,))
        axis = self.axis % spec.rank
        shape = list(spec.shape)
        if self.keepdims:
            shape[axis] = 1
        else:
            del shape[axis]
            if not shape:
                shape = [1]
        return spec.with_shape(tuple(shape))

    def flops(self, inputs: Sequence[TensorSpec], out: TensorSpec) -> int:
        return inputs[0].num_elements

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        import numpy as np

        if self.axis is None:
            result = x.sum(keepdims=self.keepdims)
            return result if self.keepdims else np.reshape(result, (1,))
        return x.sum(axis=self.axis, keepdims=self.keepdims)

    def signature(self) -> tuple:
        return (self.name, self.axis, self.keepdims)


class Softmax(Op):
    """Numerically-stable softmax along the last axis."""

    name = "softmax"
    kind = KIND_REDUCTION

    def infer_shape(self, inputs: Sequence[TensorSpec]) -> TensorSpec:
        _expect_arity(self, inputs, 1)
        return inputs[0]

    def flops(self, inputs: Sequence[TensorSpec], out: TensorSpec) -> int:
        return 6 * out.num_elements

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        import numpy as np

        shifted = x - x.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# Embedding
# ---------------------------------------------------------------------------


class Embedding(Op):
    """Row lookup ``table[indices]``: inputs are ``(V, D)`` table and ``(B,)``
    int indices, output ``(B, D)``.

    Tagged with its own kind because static compilers treat lookups
    specially -- the XLA baseline reproduces the paper's observation that
    embeddings force host/device transitions (section 6.6).
    """

    name = "embedding"
    kind = KIND_EMBEDDING

    def infer_shape(self, inputs: Sequence[TensorSpec]) -> TensorSpec:
        _expect_arity(self, inputs, 2)
        table, indices = inputs
        if table.rank != 2 or indices.rank != 1:
            raise ValueError(f"embedding expects (V,D) table and (B,) indices, got {table} {indices}")
        if indices.dtype not in ("int32", "int64"):
            raise ValueError("embedding indices must be integer-typed")
        return TensorSpec((indices.shape[0], table.shape[1]), table.dtype)

    def flops(self, inputs: Sequence[TensorSpec], out: TensorSpec) -> int:
        return 0  # pure gather

    def bytes_accessed(self, inputs: Sequence[TensorSpec], out: TensorSpec) -> int:
        return 2 * out.size_bytes + inputs[1].size_bytes

    def evaluate(self, table: np.ndarray, indices: np.ndarray) -> np.ndarray:
        import numpy as np

        return table[indices.astype(np.int64)]


class EmbeddingGrad(Op):
    """Scatter-add of output gradients back into a ``(V, D)`` table.

    Inputs: ``(B,)`` int indices and ``(B, D)`` gradient rows; the vocabulary
    size is a constructor argument because it is not recoverable from the
    inputs alone.
    """

    name = "embedding_grad"
    kind = KIND_EMBEDDING

    def __init__(self, vocab_size: int):
        if vocab_size <= 0:
            raise ValueError("vocab_size must be positive")
        self.vocab_size = vocab_size

    def infer_shape(self, inputs: Sequence[TensorSpec]) -> TensorSpec:
        _expect_arity(self, inputs, 2)
        indices, grad = inputs
        if indices.rank != 1 or grad.rank != 2 or grad.shape[0] != indices.shape[0]:
            raise ValueError(f"embedding_grad expects (B,) and (B,D), got {indices} {grad}")
        return TensorSpec((self.vocab_size, grad.shape[1]), grad.dtype)

    def flops(self, inputs: Sequence[TensorSpec], out: TensorSpec) -> int:
        return inputs[1].num_elements  # one add per scattered element

    def evaluate(self, indices: np.ndarray, grad: np.ndarray) -> np.ndarray:
        import numpy as np

        table = np.zeros((self.vocab_size, grad.shape[1]), dtype=grad.dtype)
        np.add.at(table, indices.astype(np.int64), grad)
        return table

    def signature(self) -> tuple:
        return (self.name, self.vocab_size)


# ---------------------------------------------------------------------------
# Data movement
# ---------------------------------------------------------------------------


class Concat(Op):
    name = "concat"
    kind = KIND_MOVEMENT

    def __init__(self, axis: int = -1):
        self.axis = axis

    def infer_shape(self, inputs: Sequence[TensorSpec]) -> TensorSpec:
        if len(inputs) < 2:
            raise ValueError("concat needs at least two inputs")
        rank = inputs[0].rank
        axis = self.axis % rank
        base = list(inputs[0].shape)
        total = 0
        for spec in inputs:
            if spec.rank != rank or spec.dtype != inputs[0].dtype:
                raise ValueError("concat inputs must agree in rank and dtype")
            for d in range(rank):
                if d != axis and spec.shape[d] != base[d]:
                    raise ValueError(f"concat shape mismatch along dim {d}")
            total += spec.shape[axis]
        base[axis] = total
        return inputs[0].with_shape(tuple(base))

    def flops(self, inputs: Sequence[TensorSpec], out: TensorSpec) -> int:
        return 0

    def evaluate(self, *arrays: np.ndarray) -> np.ndarray:
        import numpy as np

        return np.concatenate(arrays, axis=self.axis)

    def signature(self) -> tuple:
        return (self.name, self.axis)


class Slice(Op):
    """Contiguous slice ``x[..., start:stop, ...]`` along one axis."""

    name = "slice"
    kind = KIND_MOVEMENT

    def __init__(self, axis: int, start: int, stop: int):
        if start < 0 or stop <= start:
            raise ValueError(f"bad slice bounds [{start}, {stop})")
        self.axis = axis
        self.start = start
        self.stop = stop

    def infer_shape(self, inputs: Sequence[TensorSpec]) -> TensorSpec:
        _expect_arity(self, inputs, 1)
        spec = inputs[0]
        axis = self.axis % spec.rank
        if self.stop > spec.shape[axis]:
            raise ValueError(f"slice [{self.start},{self.stop}) exceeds dim {spec.shape[axis]}")
        shape = list(spec.shape)
        shape[axis] = self.stop - self.start
        return spec.with_shape(tuple(shape))

    def flops(self, inputs: Sequence[TensorSpec], out: TensorSpec) -> int:
        return 0

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        index = [slice(None)] * x.ndim
        index[self.axis % x.ndim] = slice(self.start, self.stop)
        return x[tuple(index)]

    def signature(self) -> tuple:
        return (self.name, self.axis, self.start, self.stop)


class PadZero(Op):
    """Zero-pad along one axis so the result has ``total`` extent; the input
    occupies ``[start, start + in_extent)``.  Inverse of :class:`Slice`."""

    name = "pad_zero"
    kind = KIND_MOVEMENT

    def __init__(self, axis: int, start: int, total: int):
        if start < 0 or total <= start:
            raise ValueError(f"bad pad bounds start={start} total={total}")
        self.axis = axis
        self.start = start
        self.total = total

    def infer_shape(self, inputs: Sequence[TensorSpec]) -> TensorSpec:
        _expect_arity(self, inputs, 1)
        spec = inputs[0]
        axis = self.axis % spec.rank
        if self.start + spec.shape[axis] > self.total:
            raise ValueError(f"pad input extent {spec.shape[axis]} overflows total {self.total}")
        shape = list(spec.shape)
        shape[axis] = self.total
        return spec.with_shape(tuple(shape))

    def flops(self, inputs: Sequence[TensorSpec], out: TensorSpec) -> int:
        return 0

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        import numpy as np

        axis = self.axis % x.ndim
        shape = list(x.shape)
        shape[axis] = self.total
        out = np.zeros(shape, dtype=x.dtype)
        index = [slice(None)] * x.ndim
        index[axis] = slice(self.start, self.start + x.shape[axis])
        out[tuple(index)] = x
        return out

    def signature(self) -> tuple:
        return (self.name, self.axis, self.start, self.total)


class Transpose(Op):
    name = "transpose"
    kind = KIND_MOVEMENT

    def infer_shape(self, inputs: Sequence[TensorSpec]) -> TensorSpec:
        _expect_arity(self, inputs, 1)
        return inputs[0].transposed()

    def flops(self, inputs: Sequence[TensorSpec], out: TensorSpec) -> int:
        return 0

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return x.T


class Reshape(Op):
    name = "reshape"
    kind = KIND_MOVEMENT

    def __init__(self, shape: tuple[int, ...]):
        self.shape = tuple(shape)

    def infer_shape(self, inputs: Sequence[TensorSpec]) -> TensorSpec:
        _expect_arity(self, inputs, 1)
        if math.prod(self.shape) != inputs[0].num_elements:
            raise ValueError(f"cannot reshape {inputs[0]} to {self.shape}")
        return inputs[0].with_shape(self.shape)

    def flops(self, inputs: Sequence[TensorSpec], out: TensorSpec) -> int:
        return 0

    def bytes_accessed(self, inputs: Sequence[TensorSpec], out: TensorSpec) -> int:
        return 0  # pure metadata change

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return x.reshape(self.shape)

    def signature(self) -> tuple:
        return (self.name, self.shape)


# ---------------------------------------------------------------------------
# Sources
# ---------------------------------------------------------------------------


class Fill(Op):
    """Constant-filled tensor source (used by autodiff for seed gradients)."""

    name = "fill"
    kind = KIND_SOURCE

    def __init__(self, spec: TensorSpec, value: float):
        self.spec = spec
        self.value = float(value)

    def infer_shape(self, inputs: Sequence[TensorSpec]) -> TensorSpec:
        _expect_arity(self, inputs, 0)
        return self.spec

    def flops(self, inputs: Sequence[TensorSpec], out: TensorSpec) -> int:
        return 0

    def evaluate(self) -> np.ndarray:
        import numpy as np

        return np.full(self.spec.shape, self.value, dtype=np.float32)

    def signature(self) -> tuple:
        return (self.name, self.spec.shape, self.value)
