"""The ``vector`` engine: numpy batch kernels over the compiled arrays.

The compiled engine's per-call kernels are already near-optimal pure
Python; the remaining raw speed lives in *batch-level* vectorization.
This package evaluates a whole stage's draws as array operations:

* :mod:`repro.vector.arrays` — a numpy mirror of a
  :class:`~repro.graph.compiled.CompiledGraph`'s CSR, pair-weight and
  interest lists, cached once per payload token so resident workers
  (which share the detached payload, and therefore the token) build it
  once, and patched forward on ``set_tightness`` deltas;
* :mod:`repro.vector.rng` — a counter-based RNG scheme
  (``numpy.random.Philox``) keying every draw's uniforms by
  ``(solve key, start, draw position)``, which makes seeded vector runs
  bit-reproducible within the engine and independent of how a stage's
  draws are sharded across workers;
* :mod:`repro.vector.kernel` — the stage-batched frontier kernel:
  status-stamp membership matrices, cumulative-sum weighted picks, and
  ``bincount``-reduced willingness deltas for every draw of a stage at
  once;
* :mod:`repro.vector.stage_exec` — the serial-process stage executor
  that feeds whole stages to the kernel;
* :mod:`repro.vector.evaluator` — the
  :class:`~repro.vector.evaluator.VectorWillingnessEvaluator` behind the
  ``evaluator_for`` seam.

Determinism contract: the reference engine stays the bit-exact oracle
and the compiled engine matches it bit for bit; the vector engine is
bit-reproducible *within itself* (same seed → same result, serial or
stage-sharded, any worker count) but reassociates floating-point sums,
so it matches the oracle to tolerance on willingness and exactly on
integer quantities (members, sample counts, stages).
"""

from __future__ import annotations

from repro.vector.arrays import VectorGraph, vector_graph_for
from repro.vector.evaluator import VectorWillingnessEvaluator

__all__ = [
    "VectorGraph",
    "vector_graph_for",
    "VectorWillingnessEvaluator",
]
