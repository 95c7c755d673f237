"""Tiered native kernel backend.

The scalar closure-per-instruction interpreter in
:mod:`repro.ir.interpreter` is the semantic reference for every kernel
execution, but it pays Python dispatch per IR instruction.  This package
adds two faster tiers that preserve its observable behaviour exactly:

``src``
    :mod:`repro.ir.native.codegen` compiles an :class:`IRFunction` into
    type-specialized Python source — registers become locals, branches
    become a block-dispatch loop, Java numeric semantics are inlined or
    pre-bound from :mod:`repro.ir.java_ops`, and work counters are folded
    statically per basic block.  The source is ``compile()``+``exec()``'d
    once per (fingerprint, flavor) and is stateless/reentrant.
``numba``
    :mod:`repro.ir.native.numba_backend` additionally lowers the direct
    flavor through ``numba.njit`` when numba is importable; it is skipped
    silently (and permanently, per process) when numba is absent or the
    compile fails.

:class:`repro.ir.native.dispatch.KernelDispatcher` fronts the tiers:
every kernel runs on ``src`` from its first launch, hot direct kernels
are promoted to ``numba`` by a hotness counter, and every native launch
can be crosschecked bit-for-bit against the interpreter oracle.
"""

from .codegen import DEFAULT_FUEL, NativeKernel, generate_source
from .dispatch import (
    GLOBAL_KERNEL_CACHE,
    KernelCache,
    KernelDispatcher,
    TIER_INTERP,
    TIER_NUMBA,
    TIER_SRC,
    TierPolicy,
)

__all__ = [
    "DEFAULT_FUEL",
    "GLOBAL_KERNEL_CACHE",
    "KernelCache",
    "KernelDispatcher",
    "NativeKernel",
    "TIER_INTERP",
    "TIER_NUMBA",
    "TIER_SRC",
    "TierPolicy",
    "generate_source",
]
