"""Minimal numpy autodiff substrate: the tensors, layers, Adam and gradcheck
the pipeline runs. Reference ops that only tests use, such as an explicit
softmax node, live in tests/oracles.py."""

from . import functional
from .gradcheck import gradcheck
from .optim import AdamState, ParameterSet, adam_step
from .tensor import (Tensor, add, concat, div, exp, getitem, log, logaddexp,
                     logsumexp, matmul, mul, no_grad, pad2d, power, relu,
                     reshape, sqrt, sub, tmean, transpose, tsum,
                     upsample_nearest2x)

__all__ = [
    "Tensor", "no_grad", "add", "sub", "mul", "div", "power", "exp", "log",
    "sqrt", "relu", "tsum", "tmean", "reshape", "transpose", "concat",
    "getitem", "pad2d", "upsample_nearest2x", "matmul", "logsumexp",
    "logaddexp", "functional", "ParameterSet", "AdamState", "adam_step",
    "gradcheck",
]
