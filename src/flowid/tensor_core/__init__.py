"""Dense float64 tensors with reverse-mode gradients, parameters, and Adam."""

from .engine import (
    Tensor,
    add,
    as_tensor,
    backward,
    clamp,
    concat,
    constant,
    conv1d,
    div,
    dropout_mask,
    elu,
    exp,
    gather_rows,
    log,
    logsumexp_last,
    matmul,
    max_last,
    maxpool1d_w2,
    mul,
    no_grad,
    pad_last,
    pow_const,
    relu,
    reshape,
    sigmoid,
    slice_last,
    softmax_last,
    sqrt,
    sub,
    swap_last2,
    take_per_row,
    tanh,
    tmean,
    transpose2d,
    tsum,
)
from .gradcheck import GradCheckFailure, GradCheckReport, grad_check
from .layers import attention_pool, attention_pool_batch, lstm_batch, lstm_forward
from .optim import Adam, AdamState, adam_step
from .params import ParameterStore, glorot_uniform


def softmax(logits) -> Tensor:
    """Row-stable softmax over the last axis."""
    return softmax_last(logits)
