"""Numerical substrate: tensors, autodiff, RNG, serialization."""

from . import flops, ops
from .gradcheck import DEFAULT_STEP, GradCheckReport, gradcheck
from .rng import Rng
from .serialize import dump_tensor, load_tensor
from .tensor import (
    GradTape,
    OpNode,
    Tensor,
    as_tensor,
    debug_checks_enabled,
    default_dtype,
    grad_enabled,
    no_grad,
    set_debug_checks,
    set_default_dtype,
    zeros,
)

__all__ = [
    "DEFAULT_STEP",
    "GradCheckReport",
    "GradTape",
    "OpNode",
    "Rng",
    "Tensor",
    "as_tensor",
    "debug_checks_enabled",
    "default_dtype",
    "dump_tensor",
    "flops",
    "grad_enabled",
    "gradcheck",
    "load_tensor",
    "no_grad",
    "ops",
    "set_debug_checks",
    "set_default_dtype",
    "zeros",
]
