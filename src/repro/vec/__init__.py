"""Batched, vectorized evaluation of the roofline model (array IR).

Layer role: ``repro.vec`` sits between the pure model layer
(:mod:`repro.perfmodel`, :mod:`repro.mem`) and the execution layer
(:mod:`repro.engine`, :mod:`repro.serve`).  It lowers a whole batch of
(:class:`~repro.perfmodel.kernelmodel.AppSpec`, platform, config)
evaluation points into contiguous numpy arrays — one row per (job,
loop) — and evaluates the p-norm roofline blend, the configuration
scaling and the communication model as a handful of elementwise array
passes per platform group instead of one Python traversal per job.
The results are bit-for-bit identical to
:func:`repro.perfmodel.roofline.estimate_app` (the contract
``baselines/golden_equivalence.json`` pins); see ``docs/VECTOR.md``
for the array layout, the lowering contract and the exact-equivalence
rules.  This package never imports the engine or serve layers — the
engine calls *down* into it, mirroring the engine → perfmodel
direction the purity tests enforce.
"""

from .arrays import AppBlock, PairBlock, PlatformTable
from .evaluate import VecEvaluator

__all__ = [
    "AppBlock",
    "PairBlock",
    "PlatformTable",
    "VecEvaluator",
]
