"""Kept as an importable name only; it defines nothing.

Vector-engine stages run through the one in-process
:class:`~repro.algorithms.stage_exec.SerialStageExecutor`, whose
:meth:`~repro.algorithms.sampling.ExpansionSampler.draw_stage` call
feeds a whole stage to the batch kernel.  ``perfbench/tracing.py``
still imports this module by name.
"""
