"""Numerical substrate: tensors, autodiff, RNG, serialization.

Importing this package sets two glibc malloc thresholds for the process,
once, through ``mallopt``: ``M_MMAP_THRESHOLD`` = 32 MiB (the 64-bit
maximum) and then ``M_TRIM_THRESHOLD`` = 256 MiB.  Every op returns a
fresh array, so a no_grad forward allocates and frees about 22 MB of
temporaries.  Under glibc's defaults the freed heap is trimmed at the end
of each forward and page-faulted back in by the next: about 5,500 minor
faults per batch-16 forward of the default model, which then takes about
1.6x as long.  A training call raises glibc's dynamic thresholds on its
own, so only processes that only run forwards (sampling, diagnostics)
paid this.  Both thresholds are set because setting the trim threshold
alone freezes the mmap threshold at 128 KiB, which measured worse.

`MALLOC_TUNING` records what was applied, read-only, or is None.  Nothing
is set on another libc, or when the environment already tunes malloc: any
``MALLOC_*`` variable (for example ``MALLOC_TRIM_THRESHOLD_``) or a
``glibc.malloc.*`` entry in ``GLIBC_TUNABLES`` keeps the user's choice.
Allocator settings cannot change any computed value.
"""

import ctypes
import os
from types import MappingProxyType

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


def _tune_malloc():
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")  # names glibc only; cheaper than platform.libc_ver()
    except (AttributeError, ValueError, OSError):  # no confstr (Windows) or no such name (other libcs)
        return None
    if not libc or not libc.startswith("glibc"):
        return None
    if any(name.startswith("MALLOC_") for name in os.environ):
        return None
    if "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", ""):
        return None
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    applied = {}
    # mallopt returns 1 on success.  The trim threshold goes only after the mmap one:
    # alone it would pin the mmap threshold at its 128 KiB default.
    for name, param, value in (("M_MMAP_THRESHOLD", -3, 32 << 20), ("M_TRIM_THRESHOLD", -1, 256 << 20)):
        if mallopt(param, value) != 1:
            break
        applied[name] = value
    return MappingProxyType(applied) if applied else None


MALLOC_TUNING = _tune_malloc()

__all__ = [
    "DEFAULT_STEP",
    "GradCheckReport",
    "GradTape",
    "MALLOC_TUNING",
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
