"""Random expansion of partial solutions — the engine of every
randomized WASO solver.

A *sample* starts from a seed (a start node, plus any required attendees),
keeps a frontier of selectable neighbours, and repeatedly draws one
frontier node until ``k`` nodes are collected (paper §3).  The three
solvers differ only in *how* the draw is biased:

* CBAS — uniform over the frontier;
* RGreedy — probability proportional to the willingness of the group the
  node would create, ``P(v|S) ∝ W({v} ∪ S)`` (§4.1);
* CBAS-ND — probability proportional to the cross-entropy node-selection
  probability vector (§4.2).

Willingness is maintained incrementally (O(deg) per step), which is exactly
why the paper calls the uniform variant cheaper than greedy: no willingness
computation is needed *during* selection, only one delta after it.

The sampler has two execution paths sharing one behaviour:

* the **reference** path over the dict-based graph (used when constructed
  with a :class:`WillingnessEvaluator`);
* the **fast** path over :class:`~repro.graph.compiled.CompiledGraph`
  flat arrays (used with a :class:`FastWillingnessEvaluator`): an int
  frontier with O(1) swap-pop, generation-stamp membership tests instead
  of hash sets, an inlined pair-weight delta scan, a per-seed cached base
  willingness, and a skipped final connectivity BFS whenever the seed is
  already connected (connected expansion preserves connectivity).

The fast path mirrors the reference path's neighbour order and RNG
consumption exactly, so seeded draws — and therefore seeded solver runs —
produce identical results on either path.  Two further int-domain
amortizations ride on it: CBAS-ND's frontier weighting can be supplied as
a flat ``weight_array`` indexed by compiled id (a CE vector's float64
array, read in place through a ``memoryview``), whose draw keeps the
frontier's clamped weights and prefix sums beside it so that each
frontier node's weight is read once and a pick re-sums only the suffix
its swap-pop moved; and :meth:`ExpansionSampler.draw_batch` resolves the
cached per-seed state (and the seed frontier's weights) once for a whole
run of draws from the same start node.

Solvers and stage executors draw through one entry point,
:meth:`ExpansionSampler.draw_stage`: every funded start's share of a
stage in one call, which is one batch-kernel call on the vector engine
and one :meth:`~ExpansionSampler.draw_batch` per start on the others.
"""

from __future__ import annotations

import functools
import random
from bisect import bisect_left
from collections.abc import Callable, Iterable, Sequence
from itertools import accumulate
from operator import itemgetter
from typing import NamedTuple, Optional

from repro.core.problem import WASOProblem
from repro.core.willingness import (
    FastWillingnessEvaluator,
    WillingnessEvaluator,
)
from repro.graph.social_graph import NodeId

__all__ = [
    "Sample",
    "ShardSummary",
    "ExpansionSampler",
    "weighted_pick",
    "seed_for_start",
    "summarize_shard",
]


class Sample(NamedTuple):
    """One complete k-node candidate group drawn by a sampler.

    A named tuple rather than a dataclass: samplers create one per draw,
    and the tuple constructor is measurably cheaper on the hot path.

    ``indices`` carries the members as compiled int ids (selection order)
    when the sample came off the fast path, ``None`` on the reference
    path.  The CE elite refit counts membership straight off it instead
    of translating node ids back through a dict; consumers comparing
    samples across engines should compare ``members``/``willingness``.
    """

    members: frozenset
    willingness: float
    indices: "tuple[int, ...] | None" = None


class ShardSummary(NamedTuple):
    """Compact result of one batch of draws for a (start node, stage) pair.

    Every stage executor reduces a start's draws to this summary — the
    in-process executor once per start, stage-pool workers once per
    shard — and folds the start's summaries, in draw order, through
    :func:`~repro.algorithms.stage_exec.merge_start_stage`.

    ``willingness`` lists every success's willingness in draw order, so
    the merge records the OCBA statistics exactly as a sample-by-sample
    loop would.  ``kept`` holds the candidate elites as ``(willingness,
    ids)`` pairs, best first and ties in draw order: every success whose
    willingness reaches the ``keep_rank``-th best.  ``ids`` is the
    compiled int-id tuple of the members (the member set on the
    reference engine, which has no compiled ids).  Because the merged
    stream's top-ρ quantile rank never exceeds ``keep_rank`` (which the
    parent derives from the start's *total* stage share), the union of
    the shards' kept lists provably contains the merged stream's full
    elite set, ties at the threshold included.

    ``leading_failures`` counts the failed draws before the first
    success and ``trailing_failures`` the consecutive failed draws at
    the end of the batch (both equal ``attempts`` when nothing
    succeeded).  The merge needs no more to apply the
    consecutive-failure write-off cap to the start's whole draw stream:
    a shard drawn with a fresh counter can run past the point where the
    serial stream stops only within its leading failures.
    """

    attempts: int
    leading_failures: int
    trailing_failures: int
    willingness: "tuple[float, ...]"
    kept: "tuple[tuple[float, tuple[int, ...] | frozenset], ...]"


def summarize_shard(
    batch: "Sequence[Optional[Sample]]", keep_rank: int
) -> ShardSummary:
    """Reduce one draw-ordered batch to a :class:`ShardSummary`.

    ``keep_rank`` is the elite retention rank (at least 1).
    """
    if keep_rank < 1:
        raise ValueError(f"keep_rank must be positive, got {keep_rank}")
    pairs = [
        (
            sample.willingness,
            sample.members if sample.indices is None else sample.indices,
        )
        for sample in batch
        if sample is not None
    ]
    leading = 0
    for sample in batch:
        if sample is not None:
            break
        leading += 1
    trailing = 0
    for sample in reversed(batch):
        if sample is not None:
            break
        trailing += 1
    willingness = tuple(map(itemgetter(0), pairs))
    # A stable sort: ties keep their draw order, so ``kept[0]`` is the
    # first occurrence of the batch maximum.
    pairs.sort(key=itemgetter(0), reverse=True)
    end = min(keep_rank, len(pairs))
    if end:
        cutoff = pairs[end - 1][0]
        while end < len(pairs) and pairs[end][0] == cutoff:
            end += 1
    return ShardSummary(
        len(batch),
        leading,
        trailing,
        willingness,
        tuple(pairs[:end]),
    )


def weighted_pick(
    rng: random.Random, items: list, weights: list[float]
) -> int:
    """Pick an index with probability proportional to ``weights``.

    Non-positive weights are treated as zero; if every weight is zero the
    pick degrades to uniform (keeps samplers alive when a probability
    vector collapses).  The cumulative sums are built in a single pass and
    the threshold located by bisection.
    """
    cumulative: list[float] = []
    total = 0.0
    for weight in weights:
        if weight > 0.0:
            total += weight
        cumulative.append(total)
    if total <= 0.0:
        return rng.randrange(len(items))
    threshold = rng.random() * total
    if threshold <= 0.0:
        # Degenerate draw: the first positive-weight item wins, never a
        # zero-weight one that happens to share its cumulative value.
        for index, weight in enumerate(weights):
            if weight > 0.0:
                return index
    index = bisect_left(cumulative, threshold)
    return min(index, len(items) - 1)  # numerical tail guard


def seed_for_start(problem: WASOProblem, start: NodeId) -> set[NodeId]:
    """Seed member set for an expansion beginning at ``start``.

    Required attendees are always part of the seed (the user-study
    "with initiator" mode and the future-work must-include feature).
    """
    return {start} | set(problem.required)


class ExpansionSampler:
    """Draws complete samples for one problem instance.

    Parameters
    ----------
    problem:
        The WASO instance (its ``connected`` flag decides whether the
        frontier is the neighbourhood of the partial solution or simply
        every remaining allowed node — the WASO-dis case).
    evaluator:
        Shared willingness evaluator (built once per solve).  Passing a
        :class:`FastWillingnessEvaluator` switches draws to the compiled
        int-indexed kernel.
    """

    def __init__(
        self,
        problem: WASOProblem,
        evaluator: "WillingnessEvaluator | FastWillingnessEvaluator",
    ) -> None:
        self.problem = problem
        self.evaluator = evaluator
        self.graph = problem.graph
        compiled = getattr(evaluator, "compiled", None)
        self._compiled = compiled
        if compiled is not None:
            n = compiled.number_of_nodes
            # Generation stamps: per draw ``t`` the token pair is
            # ``(2t, 2t + 1)`` — ``status[i] == 2t + 1`` marks a member,
            # ``status[i] == 2t`` a frontier entry, anything smaller is
            # untouched this draw.  No per-draw clearing needed.
            self._status = [0] * n
            self._draw_serial = 0
            # Only forbidden nodes need masking; an unconstrained problem
            # builds no per-node allowed state at all.
            self._check_allowed = bool(problem.forbidden)
            self._allowed_mask: "bytearray | None" = None
            if self._check_allowed:
                allowed_mask = bytearray(b"\x01") * n
                index_of = compiled.index_of
                for node in problem.forbidden:
                    allowed_mask[index_of[node]] = 0
                self._allowed_mask = allowed_mask
            # Per-seed cache: (base willingness, seed connected,
            # member indices, initial frontier) — all deterministic
            # functions of the seed set, shared by every draw from it.
            self._seed_cache: dict[frozenset, tuple] = {}
            # Vector-engine state: the solve-level Philox base key (set
            # by the solver once per solve) and the batched draw counter
            # surfaced through ``SolveStats.extra``.
            self.vector_key: Optional[int] = None
            self.vector_batch_draws = 0

    # ------------------------------------------------------------------
    @functools.cached_property
    def _allowed(self) -> set:
        """Allowed node ids as a set, built on first use.

        The reference path tests frontier membership against it, and
        WASO-dis seeds its frontier in its iteration order on both
        paths; connected compiled draws never need it.
        """
        return set(self.problem.candidates())

    @property
    def is_compiled(self) -> bool:
        """True when draws run on the compiled int-indexed kernel."""
        return self._compiled is not None

    @property
    def is_vector(self) -> bool:
        """True when the evaluator carries the numpy views for batching."""
        return getattr(self.evaluator, "is_vector", False)

    def sample_from_pair(self, willingness: float, ids) -> Sample:
        """The :class:`Sample` behind one :class:`ShardSummary` ``kept`` pair.

        ``ids`` is a compiled int-id tuple on the compiled and vector
        engines and the member set on the reference engine.
        """
        if self._compiled is None:
            return Sample(members=frozenset(ids), willingness=willingness)
        return Sample(
            members=frozenset(map(self._compiled.nodes.__getitem__, ids)),
            willingness=willingness,
            indices=tuple(ids),
        )

    def draw(
        self,
        seed: set[NodeId],
        rng: random.Random,
        weight_of: Optional[Callable[[NodeId], float]] = None,
        greedy_bias: bool = False,
        weight_array: "Optional[Sequence[float]]" = None,
    ) -> Optional[Sample]:
        """Expand ``seed`` to ``k`` members; ``None`` if the expansion stalls.

        ``weight_of`` biases the frontier draw by a static per-node weight
        keyed by node id; ``weight_array`` does the same from a flat array
        indexed by compiled int id (CBAS-ND's array-backed probability
        vector — no per-slot dict probe, compiled engine only).
        ``greedy_bias`` biases it by the willingness of the resulting
        group (RGreedy).  The three are mutually exclusive.
        """
        if self._compiled is not None:
            (sample,) = self.draw_batch(
                seed,
                rng,
                1,
                weight_of=weight_of,
                greedy_bias=greedy_bias,
                weight_array=weight_array,
            )
            return sample
        self._validate_bias(weight_of, greedy_bias, weight_array)
        if weight_array is not None:
            raise ValueError(
                "weight_array requires the compiled engine; use weight_of "
                "on the reference path"
            )
        k = self.problem.k
        members = set(seed)
        if len(members) > k:
            return None
        current = self.evaluator.value(members)

        frontier: list[NodeId] = []
        in_frontier: set[NodeId] = set()
        self._extend_frontier(members, members, frontier, in_frontier)

        while len(members) < k:
            if not frontier:
                return None
            index = self._pick_index(
                frontier, members, current, rng, weight_of, greedy_bias
            )
            node = frontier[index]
            # Swap-pop keeps the uniform draw O(1).
            frontier[index] = frontier[-1]
            frontier.pop()
            current += self.evaluator.add_delta(node, members)
            members.add(node)
            self._extend_frontier({node}, members, frontier, in_frontier)

        if self.problem.connected and not self.graph.is_connected_subset(
            members
        ):
            # Only possible when the seed itself was disconnected and the
            # expansion failed to bridge it.
            return None
        return Sample(members=frozenset(members), willingness=current)

    # ------------------------------------------------------------------
    def draw_batch(
        self,
        seed: set[NodeId],
        rng: random.Random,
        count: int,
        weight_of: Optional[Callable[[NodeId], float]] = None,
        greedy_bias: bool = False,
        weight_array: "Optional[Sequence[float]]" = None,
        failures: int = 0,
        max_failures: Optional[int] = None,
    ) -> list[Optional[Sample]]:
        """Up to ``count`` draws from one seed, amortizing per-draw setup.

        The compiled path resolves the cached seed state (frozenset key
        hash + cache probe) once for the whole batch instead of once per
        draw; with a ``weight_array`` it also weighs the seed frontier
        once, and reads a CE vector's float64 array in place through a
        ``memoryview``, so the batch's set-up does not grow with n.
        ``failures`` seeds the consecutive-failure counter and the
        batch stops early once it reaches ``max_failures`` — mirroring the
        solvers' write-off rule, so batched and draw-at-a-time runs
        consume the identical RNG stream and report identical stats.
        Results are returned in draw order, ``None`` marking a stalled
        expansion.
        """
        self._validate_bias(weight_of, greedy_bias, weight_array)
        samples: list[Optional[Sample]] = []
        if self._compiled is not None:
            state = self._seed_state(seed)
            if weight_array is None:
                draw = functools.partial(
                    self._draw_fast, state, rng, weight_of, greedy_bias
                )
            else:
                if not isinstance(weight_array, (list, tuple)):
                    # A memoryview indexes the array in place and hands
                    # out the same Python floats a list of it would hold.
                    weight_array = memoryview(weight_array)
                # Every draw starts from the seed frontier, so its
                # clamped weights and prefix sums are built once.
                seed_weights = [
                    weight if weight > 0.0 else 0.0
                    for weight in map(weight_array.__getitem__, state[3])
                ]
                draw = functools.partial(
                    self._draw_fast_ce,
                    state,
                    rng,
                    weight_array,
                    seed_weights,
                    list(accumulate(seed_weights)),
                )
            for _ in range(count):
                sample = draw()
                samples.append(sample)
                if sample is None:
                    failures += 1
                    if max_failures is not None and failures >= max_failures:
                        break
                else:
                    failures = 0
            return samples
        if weight_array is not None:
            raise ValueError(
                "weight_array requires the compiled engine; use weight_of "
                "on the reference path"
            )
        for _ in range(count):
            sample = self.draw(
                seed, rng, weight_of=weight_of, greedy_bias=greedy_bias
            )
            samples.append(sample)
            if sample is None:
                failures += 1
                if max_failures is not None and failures >= max_failures:
                    break
            else:
                failures = 0
        return samples

    # ------------------------------------------------------------------
    def draw_stage(
        self,
        entries: "list[dict]",
        mode: str,
        vectors: "Optional[Sequence]",
        rng: Optional[random.Random],
        max_failures: Optional[int] = None,
    ) -> "list[list[Optional[Sample]]]":
        """One stage's draws for several starts: one batch per entry.

        Every solver and executor draws a stage through here.  Entries
        are the dicts :meth:`draw_batch_vector` takes; ``mode`` picks
        the frontier bias — ``"uniform"`` (CBAS), ``"ce"`` (CBAS-ND,
        one :class:`~repro.ce.probability.SelectionProbabilities` per
        entry in ``vectors``) or ``"greedy"`` (RGreedy).  The vector
        engine draws every entry in one :meth:`draw_batch_vector` call
        at its planned ordinals and never reads ``rng``; the compiled
        and reference engines run :meth:`draw_batch` per entry, in
        entry order, from ``rng``.  Each batch stops at
        ``max_failures`` consecutive failures, counted from the entry's
        ``failures``.
        """
        if self.is_vector:
            return self.draw_batch_vector(
                entries,
                mode=mode,
                weight_rows=(
                    [vector.array for vector in vectors]
                    if mode == "ce"
                    else None
                ),
                max_failures=max_failures,
            )
        batches = []
        for position, entry in enumerate(entries):
            weight_of = weight_array = None
            if mode == "ce":
                # Compiled-domain vectors weight the int frontier by
                # array slot; local-domain ones map node ids.
                vector = vectors[position]
                if self._compiled is not None:
                    weight_array = vector.array
                else:
                    weight_of = vector.probability
            batches.append(
                self.draw_batch(
                    entry["seed"],
                    rng,
                    entry["count"],
                    weight_of=weight_of,
                    greedy_bias=mode == "greedy",
                    weight_array=weight_array,
                    failures=entry["failures"],
                    max_failures=max_failures,
                )
            )
        return batches

    def draw_batch_vector(
        self,
        entries: "list[dict]",
        mode: str = "uniform",
        weight_rows=None,
        max_failures: Optional[int] = None,
    ) -> "list[list[Optional[Sample]]]":
        """One stage's batches for several starts through the numpy kernel.

        Each entry is a dict with ``start_key`` (the Philox stream key
        for the start), ``seed``, ``first_draw`` (the start's planned
        draw ordinal), ``count`` and ``failures`` (carry-in consecutive
        failures).  ``mode`` selects the frontier pick — ``"uniform"``
        (CBAS), ``"ce"`` (CBAS-ND, ``weight_rows`` aligned with
        ``entries``) or ``"greedy"`` (RGreedy).  Returns one
        draw-ordered batch per entry, truncated at ``max_failures``
        consecutive failures like :meth:`draw_batch`.
        """
        if not self.is_vector:
            raise RuntimeError(
                "draw_batch_vector requires the vector engine "
                "(evaluator_for(graph, 'vector'))"
            )
        if self.vector_key is None:
            raise RuntimeError(
                "vector_key is unset; the solver derives it from the "
                "seeded RNG once per solve"
            )
        from repro.vector.kernel import draw_stage_batch

        batches = draw_stage_batch(
            self,
            entries,
            base_key=self.vector_key,
            mode=mode,
            weight_rows=weight_rows,
            max_failures=max_failures,
        )
        self.vector_batch_draws += sum(len(batch) for batch in batches)
        return batches

    @staticmethod
    def _validate_bias(weight_of, greedy_bias, weight_array) -> None:
        if (
            (weight_of is not None)
            + (weight_array is not None)
            + bool(greedy_bias)
        ) > 1:
            raise ValueError(
                "weight_of, weight_array and greedy_bias are mutually "
                "exclusive"
            )

    # ------------------------------------------------------------------
    # Fast path (compiled flat arrays, int index space)
    # ------------------------------------------------------------------
    def _seed_state(self, seed: set[NodeId]) -> tuple:
        """Cached per-seed state shared by every draw from one seed.

        ``(base willingness, seed connected, member index tuple, initial
        frontier tuple)`` — the base value, connectivity, and the initial
        frontier (built in the reference path's exact order) are the same
        for all draws from a given seed, so they are computed once.
        """
        key = frozenset(seed)
        state = self._seed_cache.get(key)
        if state is not None:
            return state
        # Copy the seed exactly like the reference path does: the copy's
        # iteration order is the canonical member order both paths share.
        members = set(seed)
        value = self.evaluator.value(members)
        seed_connected = len(members) <= 1 or (
            self.graph.is_connected_subset(members)
        )
        comp = self._compiled
        index_of = comp.index_of
        # Same member iteration order as the reference path (a copy of the
        # same seed set) so the frontier fills in the same sequence.
        member_indices = tuple(index_of[node] for node in members)
        member_set = set(member_indices)
        frontier: list[int] = []
        if self.problem.connected:
            allowed = self._allowed_mask
            row_targets = comp.row_targets
            seen = set(member_set)
            for index in member_indices:
                for other in row_targets[index]:
                    if other not in seen and (allowed is None or allowed[other]):
                        seen.add(other)
                        frontier.append(other)
        else:
            # WASO-dis: every remaining allowed node is selectable;
            # populated once, in the reference path's set order.
            for node in self._allowed:
                other = index_of[node]
                if other not in member_set:
                    frontier.append(other)
        state = (value, seed_connected, member_indices, tuple(frontier))
        self._seed_cache[key] = state
        return state

    def _draw_fast(
        self,
        seed_state: tuple,
        rng: random.Random,
        weight_of: Optional[Callable[[NodeId], float]],
        greedy_bias: bool,
    ) -> Optional[Sample]:
        problem = self.problem
        k = problem.k
        current, seed_connected, seed_indices, seed_frontier = seed_state
        if len(seed_indices) > k:
            return None

        comp = self._compiled
        row_edges = comp.row_edges
        weighted_interest = comp.weighted_interest
        nodes = comp.nodes
        allowed = self._allowed_mask
        status = self._status
        self._draw_serial += 1
        frontier_token = 2 * self._draw_serial
        member_token = frontier_token + 1
        connected = problem.connected

        member_indices = list(seed_indices)
        for index in member_indices:
            status[index] = member_token
        frontier = list(seed_frontier)
        if connected:
            # Only the connected row pass reads frontier stamps; a
            # WASO-dis seed frontier is every allowed node, O(n).
            for index in frontier:
                status[index] = frontier_token

        count = len(member_indices)
        # random.Random.randrange(n) is a validation wrapper around
        # _randbelow(n); calling the latter directly consumes the identical
        # random stream (so reference/fast runs stay bit-identical) while
        # skipping the per-call argument checks.
        randbelow = getattr(rng, "_randbelow", rng.randrange)
        append = frontier.append
        uniform = weight_of is None and not greedy_bias
        check_allowed = self._check_allowed
        while count < k:
            if not frontier:
                return None
            if uniform:
                pick = randbelow(len(frontier))
            elif weight_of is not None:
                weights = [weight_of(nodes[index]) for index in frontier]
                pick = weighted_pick(rng, frontier, weights)
            else:
                weights = []
                for index in frontier:
                    delta = weighted_interest[index]
                    for other, pair in row_edges[index]:
                        if status[other] == member_token:
                            delta += pair
                    weights.append(max(0.0, current + delta))
                pick = weighted_pick(rng, frontier, weights)
            index = frontier[pick]
            # Swap-pop keeps the uniform draw O(1).
            frontier[pick] = frontier[-1]
            frontier.pop()
            status[index] = member_token
            member_indices.append(index)
            count += 1

            # One merged pass over the new member's row: accumulate the
            # willingness delta from member neighbours and push fresh
            # allowed neighbours onto the frontier.  Branch order favours
            # the common untouched-neighbour case.
            delta = weighted_interest[index]
            if connected:
                if check_allowed:
                    for other, pair in row_edges[index]:
                        state = status[other]
                        if state < frontier_token:
                            if allowed[other]:
                                status[other] = frontier_token
                                append(other)
                        elif state == member_token:
                            delta += pair
                else:
                    for other, pair in row_edges[index]:
                        state = status[other]
                        if state < frontier_token:
                            status[other] = frontier_token
                            append(other)
                        elif state == member_token:
                            delta += pair
            else:
                for other, pair in row_edges[index]:
                    if status[other] == member_token:
                        delta += pair
            current += delta

        group = frozenset(map(nodes.__getitem__, member_indices))
        if connected and not seed_connected:
            # A connected expansion of a connected seed stays connected;
            # only a disconnected seed needs the per-draw bridge check.
            if not self.graph.is_connected_subset(group):
                return None
        return Sample(
            members=group,
            willingness=current,
            indices=tuple(member_indices),
        )

    def _draw_fast_ce(
        self,
        seed_state: tuple,
        rng: random.Random,
        weight_array: "Sequence[float]",
        seed_weights: "list[float]",
        seed_cumulative: "list[float]",
    ) -> Optional[Sample]:
        """:meth:`_draw_fast` biased by a CE weight array (CBAS-ND).

        ``weights`` holds each frontier slot's clamped weight and
        ``cumulative`` their prefix sums; both swap-pop with the frontier
        and grow with it, so a pick re-sums only the suffix from the
        popped slot on.  Prefix sums of an unchanged prefix are the same
        IEEE values, and a clamped weight adds what :func:`weighted_pick`
        adds for it (NaN and non-positive weights add nothing), so every
        threshold, pick and RNG read equals :func:`weighted_pick` over
        the whole frontier.
        """
        problem = self.problem
        k = problem.k
        current, seed_connected, seed_indices, seed_frontier = seed_state
        if len(seed_indices) > k:
            return None

        comp = self._compiled
        row_edges = comp.row_edges
        weighted_interest = comp.weighted_interest
        allowed = self._allowed_mask
        status = self._status
        self._draw_serial += 1
        frontier_token = 2 * self._draw_serial
        member_token = frontier_token + 1
        connected = problem.connected

        member_indices = list(seed_indices)
        for index in member_indices:
            status[index] = member_token
        frontier = list(seed_frontier)
        if connected:
            for index in frontier:
                status[index] = frontier_token
        weights = list(seed_weights)
        cumulative = list(seed_cumulative)

        count = len(member_indices)
        randbelow = getattr(rng, "_randbelow", rng.randrange)
        uniform_draw = rng.random
        append = frontier.append
        append_weight = weights.append
        check_allowed = self._check_allowed
        while count < k:
            if not frontier:
                return None
            total = cumulative[-1]
            if total <= 0.0:
                pick = randbelow(len(frontier))
            else:
                threshold = uniform_draw() * total
                if threshold <= 0.0:
                    # Degenerate draw: the first positive slot wins.
                    pick = next(
                        slot
                        for slot, weight in enumerate(weights)
                        if weight > 0.0
                    )
                else:
                    pick = bisect_left(cumulative, threshold)
                    if pick >= len(frontier):
                        pick = len(frontier) - 1  # numerical tail guard
            index = frontier[pick]
            frontier[pick] = frontier[-1]
            frontier.pop()
            weights[pick] = weights[-1]
            weights.pop()
            status[index] = member_token
            member_indices.append(index)
            count += 1

            # :meth:`_draw_fast`'s merged row pass; a pushed node's
            # weight is read here, once per draw.
            delta = weighted_interest[index]
            if connected:
                for other, pair in row_edges[index]:
                    state = status[other]
                    if state < frontier_token:
                        if not check_allowed or allowed[other]:
                            status[other] = frontier_token
                            append(other)
                            weight = weight_array[other]
                            append_weight(weight if weight > 0.0 else 0.0)
                    elif state == member_token:
                        delta += pair
            else:
                for other, pair in row_edges[index]:
                    if status[other] == member_token:
                        delta += pair
            current += delta
            if count < k:
                # Slots before ``pick`` kept their weights and sums.
                if pick:
                    cumulative[pick - 1:] = accumulate(
                        weights[pick:], initial=cumulative[pick - 1]
                    )
                else:
                    cumulative = list(accumulate(weights))

        group = frozenset(map(comp.nodes.__getitem__, member_indices))
        if connected and not seed_connected:
            if not self.graph.is_connected_subset(group):
                return None
        return Sample(
            members=group,
            willingness=current,
            indices=tuple(member_indices),
        )

    # ------------------------------------------------------------------
    def _extend_frontier(
        self,
        new_members: Iterable[NodeId],
        members: set[NodeId],
        frontier: list[NodeId],
        in_frontier: set[NodeId],
    ) -> None:
        if self.problem.connected:
            for member in new_members:
                for neighbour in self.graph.neighbors(member):
                    if (
                        neighbour not in members
                        and neighbour not in in_frontier
                        and neighbour in self._allowed
                    ):
                        in_frontier.add(neighbour)
                        frontier.append(neighbour)
        elif not frontier and not in_frontier:
            # WASO-dis: every remaining allowed node is always selectable;
            # populate once.
            for node in self._allowed:
                if node not in members:
                    in_frontier.add(node)
                    frontier.append(node)

    def _pick_index(
        self,
        frontier: list[NodeId],
        members: set[NodeId],
        current: float,
        rng: random.Random,
        weight_of: Optional[Callable[[NodeId], float]],
        greedy_bias: bool,
    ) -> int:
        if weight_of is not None:
            weights = [weight_of(node) for node in frontier]
            return weighted_pick(rng, frontier, weights)
        if greedy_bias:
            weights = [
                max(
                    0.0,
                    current + self.evaluator.add_delta(node, members),
                )
                for node in frontier
            ]
            return weighted_pick(rng, frontier, weights)
        return rng.randrange(len(frontier))
