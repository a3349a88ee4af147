"""Minimal numpy autodiff substrate: the tensors, layers and Adam the
pipeline runs. Reference ops that only tests use, such as an explicit
softmax node and the pad2d node, live in tests/oracles.py, and the
finite-difference gradient checker in tests/measures.py."""

from . import functional
from .optim import AdamState, ParameterSet, adam_step
from .tensor import (Tensor, add, concat, div, getitem, logaddexp, logsumexp,
                     matmul, mul, no_grad, power, relu, reshape, sqrt, sub,
                     tmean, transpose, tsum, upsample_nearest2x)

__all__ = [
    "Tensor", "no_grad", "add", "sub", "mul", "div", "power", "sqrt", "relu",
    "tsum", "tmean", "reshape", "transpose", "concat", "getitem",
    "upsample_nearest2x", "matmul", "logsumexp", "logaddexp", "functional",
    "ParameterSet", "AdamState", "adam_step",
]
