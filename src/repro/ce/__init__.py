"""Cross-entropy machinery for CBAS-ND.

:class:`~repro.ce.probability.SelectionProbabilities` holds one start
node's node-selection probability vector as one float64 array and
applies the elite-sample update of the paper's Eq. (4) with the
smoothing step, eagerly, one whole-array round per refit, on every
engine.  The vector kernel reads that array directly; the scalar
compiled kernel converts it to a Python list once per draw batch,
because it reads one weight per frontier slot and a list index is much
cheaper than a numpy scalar read.
:class:`~repro.ce.convergence.BacktrackController` implements the
§4.4.2 backtracking extension.
"""

from repro.ce.probability import SelectionProbabilities, elite_threshold
from repro.ce.convergence import BacktrackController

__all__ = [
    "SelectionProbabilities",
    "elite_threshold",
    "BacktrackController",
]
