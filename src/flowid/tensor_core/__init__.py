"""Dense float64 tensors with reverse-mode gradients, parameters, and Adam."""

from .engine import (
    Tensor,
    add,
    as_tensor,
    backward,
    clamp,
    concat,
    constant,
    conv1d_relu_pool,
    div,
    dropout_mask,
    elu,
    log,
    logsumexp_last,
    matmul,
    mul,
    pick,
    relu,
    softmax_last,
    sqrt,
    sub,
    tmean,
    transpose2d,
    tsum,
)
from .layers import attention_pool_batch, lstm_batch
from .optim import Adam
from .params import ParameterStore, fill, glorot
