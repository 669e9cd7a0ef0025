"""Backtracking on cross-entropy convergence (paper §4.4.2).

The CE literature's convergence criterion is a probability vector that
stops moving.  The paper turns this into a *backtracking* rule: when the
squared distance ``z_i = Σ_j (p_{i,t,j} − p_{i,t−1,j})²`` between successive
vectors falls below a threshold ``z_t``, the refit is undone: the vector
is reset to its value before the stage, and the next stage draws from
it, pushing the search away from a premature freeze.  The stage's draws
are not repeated.  Only a refit counts: a stage whose samples all fall
below the monotone elite threshold leaves the vector unchanged, and
that is not a convergence signal, so the controller is not consulted.
"""

from __future__ import annotations

from typing import Optional

from repro.ce.probability import SelectionProbabilities

__all__ = ["BacktrackController"]


class BacktrackController:
    """Tracks one start node's vector movement and decides backtracks.

    Parameters
    ----------
    threshold:
        Convergence threshold ``z_t``; ``None`` disables backtracking
        entirely (plain CBAS-ND).
    max_backtracks:
        Safety valve: stop backtracking after this many resets so a run
        always terminates.
    """

    def __init__(
        self,
        threshold: Optional[float] = None,
        max_backtracks: int = 3,
    ) -> None:
        if threshold is not None and threshold < 0.0:
            raise ValueError(f"threshold must be >= 0, got {threshold}")
        if max_backtracks < 0:
            raise ValueError(
                f"max_backtracks must be >= 0, got {max_backtracks}"
            )
        self.threshold = threshold
        self.max_backtracks = max_backtracks
        self.backtracks_used = 0
        # Flat-array snapshot from SelectionProbabilities.snapshot().
        self._previous: Optional[list] = None

    @property
    def enabled(self) -> bool:
        return self.threshold is not None

    def observe(
        self,
        probabilities: SelectionProbabilities,
        movement: float,
    ) -> bool:
        """Report the squared movement ``z_i`` of the latest update.

        Returns ``True`` when the caller should backtrack: the previous
        vector has then already been restored into ``probabilities``.
        The pre-update snapshot must have been registered beforehand via
        :meth:`remember`.
        """
        if not self.enabled:
            return False
        if self._previous is None:
            return False
        if movement >= self.threshold:
            return False
        if self.backtracks_used >= self.max_backtracks:
            return False
        probabilities.restore(self._previous)
        self.backtracks_used += 1
        return True

    def remember(self, probabilities: SelectionProbabilities) -> None:
        """Snapshot the vector before a refit (once per refitted stage)."""
        if self.enabled:
            self._previous = probabilities.snapshot()
