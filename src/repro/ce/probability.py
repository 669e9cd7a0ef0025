"""Node-selection probability vectors and the cross-entropy update.

CBAS-ND maintains, per start node, a probability ``p_j`` of selecting each
node ``v_j`` during expansion (Definition 3).  After each stage the vector
is refitted to the *elite* samples — those whose willingness reaches the
top-ρ quantile ``γ`` (Definition 5) — via the paper's Eq. (4):

    p_j ← Σ_q 1{W(X_q) ≥ γ} · x_{q,j}  /  Σ_q 1{W(X_q) ≥ γ}

which §4.3 proves is the minimizer of the Kullback–Leibler distance to the
optimal importance-sampling density.  A smoothing step
``p ← w·p_new + (1 − w)·p_old`` keeps every probability strictly inside
(0, 1) so no node is permanently locked in or out.

Array layout and id-domain contract
-----------------------------------
The vector is stored as one flat float64 ``numpy`` array plus an id
mapping, in one of two domains:

* **Compiled domain** — constructed with ``index_of=`` (the
  :attr:`~repro.graph.compiled.CompiledGraph.index_of` mapping of the
  problem's frozen index, shared, never copied): the array has one slot
  per *graph* node, indexed by compiled int id.  :attr:`array` then
  exposes the array itself, so the samplers weight a frontier draw by
  compiled id with no per-slot dict probe, and the elite refit can count
  membership straight off
  :attr:`~repro.algorithms.sampling.Sample.indices`.  Slots of
  non-candidate (forbidden) nodes stay ``0.0`` and are never touched by
  the update.
* **Local domain** — the default (reference engine, hand-built tests):
  slots are candidate positions in input order and
  :meth:`probability` probes a node→slot dict.  :attr:`array` is ``None``.

Both domains run the identical Eq. (4) arithmetic over the candidates in
the same (input) order, so the probability values — and therefore seeded
solver runs — are bit-identical whichever domain backs the vector.
Every read hands out plain Python ``float`` values (:meth:`probability`,
:meth:`as_dict`, :meth:`snapshot`, refit patches); :meth:`as_dict` is
the thin dict view in either domain, and the execution stack itself
never converts back to node ids mid-solve.

Refit rounds
------------
The smoothing step multiplies *every* slot by ``1 − w``; only the
≤ k·|elites| elite-touched slots get the full Eq. (4) formula.  A refit
round therefore runs ``p *= keep`` over the whole array and then
overwrites the touched slots.  Each slot's value is the left-to-right
chain of IEEE multiplications ``((p·k₁)·k₂)·…`` on every engine, so
seeded draws stay bit-identical across the reference and compiled
engines.  Both kernels read the array in place: the vector kernel as a
numpy array, the scalar compiled kernel through a ``memoryview``, whose
item reads are plain Python floats.  A draw batch therefore costs O(1)
in n to set up, and a draw reads each frontier node's weight once.

Stage merge
-----------
Every stage executor (``repro.algorithms.stage_exec``) reduces a start's
draws to compact summaries and refits the parent's vector from the
merged elite evidence: :meth:`observe_stage_gamma` folds the stage
quantile into the monotone threshold, :meth:`elite_counts` counts elite
membership per slot, and :meth:`update_from_counts` applies Eq. (4) from
those counts — the exact arithmetic of the per-sample :meth:`update`,
which stays as the reference the refit is tested against.  The applied
round comes back as a compact *patch* ``("round", keep, ((slot, value),
…))``; stage-pool workers' mirror vectors replay it with
:meth:`apply_round` (or :meth:`restore` for a full-array resync) and
stay bit-identical to the parent without the parent ever re-shipping
the O(n) array.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from itertools import chain

import numpy as np

from repro.algorithms.sampling import Sample
from repro.graph.social_graph import NodeId

__all__ = ["SelectionProbabilities", "elite_threshold"]


def elite_threshold(willingness_values: Sequence[float], rho: float) -> float:
    """Top-ρ sample quantile ``γ = W_(⌈ρN⌉)`` (Definition 5).

    ``willingness_values`` need not be sorted; ``rho`` in (0, 1].
    """
    if not willingness_values:
        raise ValueError("cannot take a quantile of zero samples")
    if not 0.0 < rho <= 1.0:
        raise ValueError(f"rho must lie in (0, 1], got {rho}")
    ordered = sorted(willingness_values, reverse=True)
    rank = max(1, math.ceil(rho * len(ordered)))
    return ordered[rank - 1]


class SelectionProbabilities:
    """One start node's node-selection probability vector ``p_i``.

    Parameters
    ----------
    candidates:
        Nodes the vector ranges over (the problem's allowed nodes).
        ``None`` in the compiled domain means every slot, which is what
        an unconstrained problem gets: no per-node list is built.
    k:
        Group size; the paper initializes every entry to ``(k − 1)/|V|``
        (homogeneous — stage 1 of CBAS-ND behaves exactly like CBAS).
    index_of:
        Optional compiled-id mapping (``CompiledGraph.index_of``).  When
        given, the vector lives in the compiled int-id domain (see the
        module docstring) and :attr:`array` serves the samplers
        directly; the mapping is shared by reference, not copied.
    size:
        Array length for the compiled domain (defaults to
        ``len(index_of)``, i.e. one slot per graph node).
    """

    __slots__ = (
        "_p",
        "_index_of",
        "_candidates",
        "_candidate_ids",
        "index_map",
        "gamma",
    )

    def __init__(
        self,
        candidates: Iterable[NodeId],
        k: int,
        *,
        index_of: "Mapping[NodeId, int] | None" = None,
        size: "int | None" = None,
    ) -> None:
        if candidates is None:
            if index_of is None:
                raise ValueError("candidates=None needs the compiled domain")
            nodes = None
            count = len(index_of) if size is None else size
        else:
            nodes = list(candidates)
            count = len(nodes)
        if not count:
            raise ValueError("need at least one candidate node")
        if k < 1:
            raise ValueError(f"k must be positive, got {k}")
        initial = min(1.0, (k - 1) / count) if count > 1 else 1.0
        if initial <= 0.0:
            initial = 1.0 / count
        if index_of is None:
            #: identity of the shared compiled mapping (None = local domain)
            self.index_map = None
            self._index_of = {node: slot for slot, node in enumerate(nodes)}
            length = len(nodes)
        else:
            self.index_map = index_of
            self._index_of = index_of
            length = len(index_of) if size is None else size
        #: ``None`` (with ``_candidate_ids``) when every slot is a
        #: candidate; :meth:`as_dict` then reads the nodes off ``index_of``.
        self._candidates = nodes
        if nodes is None:
            self._candidate_ids = None
            self._p = np.full(length, initial, dtype=np.float64)
        else:
            self._candidate_ids = [self._index_of[node] for node in nodes]
            self._p = np.zeros(length, dtype=np.float64)
            self._p[self._candidate_ids] = initial
        self.gamma = -math.inf  # monotone elite threshold (pseudo-code 36-39)

    # ------------------------------------------------------------------
    @property
    def array(self) -> "np.ndarray | None":
        """Compiled-id-indexed weight array (``None`` in the local domain).

        The array object is refitted in place, so a borrowed reference
        stays current within one stage.
        """
        if self.index_map is None:
            return None
        return self._p

    def probability(self, node: NodeId) -> float:
        """Current selection probability of ``node`` (0 if unknown)."""
        slot = self._index_of.get(node)
        if slot is None:
            return 0.0
        return self._p.item(slot)

    __call__ = probability

    def set_probability(self, node: NodeId, value: float) -> None:
        """Install a probability by hand (tests / worked paper examples)."""
        try:
            slot = self._index_of[node]
        except KeyError:
            raise KeyError(f"{node!r} is not in this vector's domain") from None
        self._p[slot] = value

    def reset_threshold(self) -> None:
        """Forget the monotone elite threshold ``γ`` (keep probabilities).

        Used when a vector survives into a *different* problem (online
        re-planning after declines): the old γ was earned against the old
        willingness ceiling, and carrying it over could leave every new
        stage's samples below threshold — freezing the vector for good.
        """
        self.gamma = -math.inf

    def observe_stage_gamma(self, stage_gamma: float) -> float:
        """Fold one stage's elite quantile into the monotone threshold.

        Algorithm 2 (lines 36–39) keeps ``γ`` monotone across stages;
        :meth:`update` does this internally from the raw samples, a
        sharded stage merge computes the quantile from per-shard
        summaries and reports it here.  Returns the updated ``γ``.
        """
        self.gamma = max(self.gamma, stage_gamma)
        return self.gamma

    def replicate(self) -> "SelectionProbabilities":
        """Independent copy sharing the (read-only) domain metadata.

        CBAS-ND keeps one vector per start node over the same candidate
        set; replicating a freshly-built template gives each start its
        own probability array without re-deriving the candidate→slot
        mapping m times.
        """
        clone = SelectionProbabilities.__new__(SelectionProbabilities)
        clone.index_map = self.index_map
        clone._index_of = self._index_of
        clone._candidates = self._candidates
        clone._candidate_ids = self._candidate_ids
        clone._p = self._p.copy()
        clone.gamma = self.gamma
        return clone

    def as_dict(self) -> dict[NodeId, float]:
        """Dict view ``{candidate: probability}`` (candidate input order)."""
        if self._candidates is None:
            # Every slot: ``index_of`` lists the nodes in id order.
            return dict(zip(self._index_of, self._p.tolist()))
        return dict(
            zip(self._candidates, self._p[self._candidate_ids].tolist())
        )

    # ------------------------------------------------------------------
    def update(
        self,
        samples: Sequence[Sample],
        rho: float,
        smoothing: float,
        compute_movement: bool = True,
    ) -> float:
        """Apply Eq. (4) + smoothing using this stage's ``samples``.

        Returns the squared L2 distance between the old and new vectors —
        the convergence signal ``z_i`` of §4.4.2.  The elite threshold is
        kept monotone across stages as in Algorithm 2 (lines 36–39): the
        new stage's quantile only replaces ``γ`` when it improves it.

        Elite membership is counted from :attr:`Sample.indices` when both
        the vector and the sample live in the compiled id domain — one
        dict increment per member — falling back to node-id translation
        for reference-path samples.

        ``compute_movement=False`` (the default CBAS-ND configuration —
        no backtracking) skips the O(n) squared-distance sum and returns
        ``0.0``; the refitted probabilities are the same either way.
        """
        if not 0.0 < rho <= 1.0:
            raise ValueError(f"rho must lie in (0, 1], got {rho}")
        if not 0.0 <= smoothing <= 1.0:
            raise ValueError(
                f"smoothing weight must lie in [0, 1], got {smoothing}"
            )
        if not samples:
            return 0.0

        stage_gamma = elite_threshold(
            [sample.willingness for sample in samples], rho
        )
        self.gamma = max(self.gamma, stage_gamma)
        elites = [s for s in samples if s.willingness >= self.gamma]
        if not elites:
            # Every sample of this stage fell below the historic threshold;
            # keep the vector unchanged rather than fitting to nothing.
            return 0.0

        compiled_domain = self.index_map is not None
        index_of = self._index_of
        counts: dict[int, int] = {}
        for sample in elites:
            indices = sample.indices if compiled_domain else None
            if indices is not None:
                for slot in indices:
                    counts[slot] = counts.get(slot, 0) + 1
            else:
                for node in sample.members:
                    slot = index_of.get(node)
                    if slot is not None:
                        counts[slot] = counts.get(slot, 0) + 1

        _, movement = self._refit(
            counts, len(elites), smoothing, compute_movement
        )
        return movement

    def elite_counts(self, elites: Iterable) -> "dict[int, int]":
        """Slot → number of ``elites`` containing it.

        Each elite is a member collection in this vector's id domain:
        compiled int ids in the compiled domain, node ids in the local
        domain (nodes outside the vector's domain are skipped) — the
        second element of a :class:`~repro.algorithms.sampling.
        ShardSummary` ``kept`` pair on the matching engine.
        """
        if self.index_map is None:
            index_of = self._index_of
            elites = [
                [index_of[node] for node in members if node in index_of]
                for members in elites
            ]
        counts: dict[int, int] = {}
        for slot in chain.from_iterable(elites):
            counts[slot] = counts.get(slot, 0) + 1
        return counts

    def update_from_counts(
        self,
        counts: Mapping[int, int],
        elite_size: int,
        smoothing: float,
        compute_movement: bool = False,
    ) -> "tuple[tuple, float]":
        """Eq. (4) + smoothing from pre-aggregated elite counts.

        The stage merge counts elite membership across shard summaries
        (:meth:`elite_counts`) and applies the refit here without ever
        materializing the samples; given the same counts, elite size,
        and prior state, the resulting probabilities are bit-identical
        to :meth:`update`.  The caller is responsible for the threshold
        bookkeeping (:meth:`observe_stage_gamma`) and for filtering the
        elites.

        Returns ``(patch, movement)``; the patch is the compact round
        record ``("round", keep, ((slot, value), …))`` that
        :meth:`apply_round` replays on worker-resident mirror vectors.
        """
        if elite_size < 1:
            raise ValueError(f"elite_size must be positive, got {elite_size}")
        if not counts:
            raise ValueError("elite counts must not be empty")
        return self._refit(counts, elite_size, smoothing, compute_movement)

    def _refit(
        self,
        counts: Mapping[int, int],
        size: int,
        smoothing: float,
        compute_movement: bool,
    ) -> "tuple[tuple, float]":
        """Shared Eq. (4) + smoothing arithmetic; returns (patch, movement).

        An untouched slot's elite frequency is 0, so its new value is
        exactly ``(1 − w) · old`` (``w·0.0 + x == x`` in IEEE arithmetic)
        and the round decays the whole array in one multiply; only the
        ≤ k·|elites| touched slots get the full formula.  Touched slots
        are visited in sorted (slot) order so the patch and the movement
        are independent of how membership was counted (int ids vs
        node-id translation vs shard aggregation).

        The movement sums the old squares sequentially over the whole
        array and groups the untouched term as ``w² · Σ old²``.  A
        sequential sum gives the same result in both id domains (the
        compiled array only adds zero slots); a blocked ``np.dot`` would
        not.
        """
        if not 0.0 <= smoothing <= 1.0:
            raise ValueError(
                f"smoothing weight must lie in [0, 1], got {smoothing}"
            )
        keep = 1.0 - smoothing
        p = self._p
        slots = sorted(counts)
        old_values = p[slots].tolist()
        # Plain Python floats keep the patch tuples cheap to pickle.
        slot_values = tuple(
            (slot, smoothing * (counts[slot] / size) + keep * old)
            for slot, old in zip(slots, old_values)
        )
        movement = 0.0
        if compute_movement:
            total_sq = sum((p * p).tolist())
            touched_sq = 0.0
            touched_term = 0.0
            for (_, new), old in zip(slot_values, old_values):
                touched_sq += old * old
                touched_term += (new - old) ** 2
            movement = (
                smoothing * smoothing * (total_sq - touched_sq) + touched_term
            )
        self.apply_round(keep, slot_values)
        return ("round", keep, slot_values), movement

    def apply_round(self, keep: float, slot_values: Sequence[tuple]) -> None:
        """Apply one refit round: decay every slot, overwrite the touched.

        Stage-pool workers hold a mirror of each start node's vector and
        keep it synchronized by replaying the parent's round patches
        (``keep`` + the touched ``(slot, value)`` pairs) through the same
        arithmetic, so a mirror stays bit-identical to the parent.
        """
        p = self._p
        p *= keep
        for slot, value in slot_values:
            p[slot] = value

    # ------------------------------------------------------------------
    def snapshot(self) -> list[float]:
        """Copy of the flat array as plain floats (backtracking, resync)."""
        return self._p.tolist()

    def restore(self, snapshot: Sequence[float]) -> None:
        """Reset the vector to a previous :meth:`snapshot` (or any full array).

        Restores in place so borrowed :attr:`array` references (the
        samplers hold one during a stage) stay valid.
        """
        if len(snapshot) != len(self._p):
            raise ValueError(
                f"snapshot length {len(snapshot)} does not match "
                f"vector length {len(self._p)}"
            )
        self._p[:] = snapshot

    def kl_distance(self, other: "SelectionProbabilities") -> float:
        """Bernoulli-factorized KL distance between two vectors.

        ``Σ_j p ln(p/q) + (1−p) ln((1−p)/(1−q))`` with clamping away from
        {0, 1}.  Exposed for diagnostics and tests of the CE theory.
        """

        def _clamp(x: float) -> float:
            return min(1.0 - 1e-12, max(1e-12, x))

        total = 0.0
        for node, value in self.as_dict().items():
            p = _clamp(value)
            q = _clamp(other.probability(node))
            total += p * math.log(p / q)
            total += (1.0 - p) * math.log((1.0 - p) / (1.0 - q))
        return total
