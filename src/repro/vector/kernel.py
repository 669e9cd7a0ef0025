"""The stage-batched frontier expansion kernel.

One call draws *every* funded start node's samples for a stage as
batched array operations.  Each draw is one **row** of the batch:

* a ``status`` matrix (int8, one column per graph node) replaces the
  scalar kernel's generation stamps — 0 untouched, 1 frontier, 2
  member;
* the frontier lives in a padded ``(rows, capacity)`` matrix with
  per-row lengths and the scalar kernel's exact swap-pop.  Under CE
  (CBAS-ND) a float64 matrix beside it holds each slot's clamped weight
  ``max(w, 0.0)``: written once when the node is pushed, swap-popped
  with the frontier, +0.0 in every slot past the row's length — so a
  pick is one ``cumsum`` over that window instead of a re-gather,
  re-mask and re-clamp of the per-start weight rows;
* a chunk's rows start as copies of one seed row per start (status,
  frontier, CE weights, members), built once and copied to the start's
  draw rows with one row gather;
* each expansion step picks one frontier node per live row — uniformly
  (CBAS), by cumulative-sum weighted pick over the CE weights
  (CBAS-ND), or by the greedy willingness bias (RGreedy, whose weights
  depend on the row's members and so are rebuilt every step) — then
  scatters the member mark, gathers the chosen nodes' CSR rows in one
  flat pass, reduces the member-edge pair weights per row with
  ``bincount``, and appends the fresh allowed neighbours to the
  frontier.  Edge-sized reads and writes of the status, frontier and
  weight matrices go through flat ``row · width + column`` indices into
  their raveled views, which numpy serves several times faster than the
  same cells through 2-D fancy indexing;
* willingness starts from the sampler's cached per-seed base value (the
  scalar evaluator's exact float) and accumulates the same
  ``weighted_interest + Σ pair_w`` per-step delta.  The per-row
  accumulation *order* differs from the scalar kernel (edge deltas are
  reduced per step instead of per edge), which is exactly the
  float-reassociation the vector engine's tolerance oracle allows; the
  *set* of accumulated terms is identical, and every integer quantity
  (members, counts, failures) is exact.

Randomness comes positionally from :mod:`repro.vector.rng`: row ``i`` of
a start's uniform matrix belongs to planned draw ``first_draw + i``, so
the same draws produce the same samples however they are batched or
sharded.  One call reads every start's rows through a single re-keyed
:class:`~repro.vector.rng.PhiloxStreams` generator.

Semantics notes
---------------
* Failure-cap truncation is applied *post hoc* over the produced batch
  (consecutive-failure counter seeded with the carry-in), reproducing
  the scalar ``draw_batch`` early stop.  In connected mode a non-pruned
  start's expansions cannot stall — a component of size ≥ k always
  offers an adjacent non-member — so failures arise only from
  disconnected seeds (required nodes spanning components) failing the
  final bridge check, and from WASO-dis runs with fewer than ``k``
  allowed nodes.
* The weighted pick resolves threshold position with the scalar path's
  ``bisect_left`` semantics and degrades to the uniform formula when a
  row's frontier mass is zero.  (The scalar path's measure-zero
  ``threshold == 0.0`` tie-break — first *positive* slot rather than
  first slot — is not reproduced; it has probability 2⁻⁵³ per pick and
  the engines do not share RNG streams anyway.)
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.sampling import Sample
from repro.vector.rng import PhiloxStreams, uniform_width

__all__ = ["draw_stage_batch"]

#: Rough cap on (rows × per-row cells) per chunk, bounding the status /
#: frontier / CE-weight / uniform matrices to a few MB however large
#: the stage is.
MAX_CHUNK_CELLS = 4_000_000

#: Never chunk below this many rows — tiny chunks forfeit the batching.
MIN_CHUNK_ROWS = 16


def draw_stage_batch(
    sampler,
    entries,
    base_key,
    mode="uniform",
    weight_rows=None,
    max_failures=None,
):
    """Draw one stage's batches for several starts in one vectorized pass.

    ``entries`` is a list of dicts with keys ``start_key`` (the integer
    keying the start's Philox stream), ``seed`` (the member seed set),
    ``first_draw`` (the start's planned draw ordinal for this batch),
    ``count`` and ``failures`` (carry-in consecutive-failure counter).
    ``weight_rows`` aligns with ``entries`` for ``mode="ce"`` (each a
    flat per-node weight array).  Returns one list of
    ``Sample | None`` per entry, in draw order, truncated at
    ``max_failures`` consecutive failures exactly like the scalar
    ``draw_batch``.
    """
    problem = sampler.problem
    k = problem.k
    width = uniform_width(k)
    out = [[] for _ in entries]

    # Resolve every entry's cached seed state first: chunk sizing needs
    # the largest initial frontier (WASO-dis frontiers are O(n)).
    specs = []
    max_frontier = 1
    for position, entry in enumerate(entries):
        state = sampler._seed_state(entry["seed"])
        if len(state[2]) > k:
            # Oversized seed: every draw fails, no kernel work needed.
            out[position].extend([None] * entry["count"])
            continue
        max_frontier = max(max_frontier, len(state[3]))
        wrow = weight_rows[position] if mode == "ce" else None
        specs.append(
            (position, entry["start_key"], state, entry["first_draw"],
             entry["count"], wrow)
        )

    if specs:
        n = sampler._compiled.number_of_nodes
        cells_per_row = n + max_frontier + 8 * width
        if mode == "ce":
            cells_per_row += 8 * max_frontier  # weights beside the frontier
        chunk_rows = max(MIN_CHUNK_ROWS, MAX_CHUNK_CELLS // cells_per_row)
        streams = PhiloxStreams(base_key, width)
        # Greedy chunk packing over the concatenated row space; a spec
        # larger than a chunk is split by draw range, which is free —
        # draw d's uniforms depend only on (base_key, start_key, d).
        chunk: list = []
        filled = 0
        for position, start_key, state, first, count, wrow in specs:
            remaining = count
            while remaining > 0:
                if filled >= chunk_rows:
                    _run_chunk(sampler, chunk, streams, mode, out)
                    chunk, filled = [], 0
                take = min(chunk_rows - filled, remaining)
                chunk.append((position, start_key, state, first, take, wrow))
                first += take
                remaining -= take
                filled += take
        if chunk:
            _run_chunk(sampler, chunk, streams, mode, out)

    results = []
    for position, entry in enumerate(entries):
        results.append(
            _truncate(out[position], entry.get("failures", 0), max_failures)
        )
    return results


def _truncate(batch, carry, max_failures):
    """Cut a batch at the consecutive-failure cap (scalar early stop)."""
    if max_failures is None:
        return batch
    failures = carry
    for position, sample in enumerate(batch):
        if sample is None:
            failures += 1
            if failures >= max_failures:
                return batch[: position + 1]
        else:
            failures = 0
    return batch


def _allowed_mask(sampler) -> np.ndarray:
    """Boolean per-node allowed mask, built once per sampler."""
    mask = getattr(sampler, "_vector_allowed", None)
    if mask is None:
        mask = np.frombuffer(
            bytes(sampler._allowed_mask), dtype=np.uint8
        ).astype(bool)
        sampler._vector_allowed = mask
    return mask


def _run_chunk(sampler, specs, streams, mode, out):
    """Expand one chunk of rows to completion and emit its samples."""
    problem = sampler.problem
    comp = sampler._compiled
    vg = sampler.evaluator.vgraph
    n = comp.number_of_nodes
    k = problem.k
    connected = problem.connected
    check_allowed = sampler._check_allowed
    allowed = _allowed_mask(sampler) if (connected and check_allowed) else None
    ce = mode == "ce"

    # One seed row per start, filled by flat scatters over every start
    # at once, then one row gather to the start's draw rows.
    states = [spec[2] for spec in specs]
    starts = len(states)
    frontier_nodes, start_of, column, frontier_sizes = _ragged(
        [state[3] for state in states]
    )
    capacity = max(8, int(frontier_sizes.max()))
    seed_status = np.zeros((starts, n), dtype=np.int8)
    seed_frontier = np.zeros((starts, capacity), dtype=np.int64)
    seed_members = np.zeros((starts, k), dtype=np.int64)
    seed_slots = start_of * capacity + column
    seed_cells = start_of * n + frontier_nodes
    seed_frontier.ravel()[seed_slots] = frontier_nodes
    seed_status.ravel()[seed_cells] = 1
    if ce:
        # Per-start weight rows; flat index start · n + node.
        weights = np.stack(
            [np.asarray(spec[5], dtype=np.float64) for spec in specs]
        ).ravel()
        seed_weights = np.zeros((starts, capacity), dtype=np.float64)
        seed_weights.ravel()[seed_slots] = np.maximum(
            weights[seed_cells], 0.0
        )
    member_nodes, start_of, column, member_sizes = _ragged(
        [state[2] for state in states]
    )
    seed_members.ravel()[start_of * k + column] = member_nodes
    seed_status.ravel()[start_of * n + member_nodes] = 2

    spec_of = np.repeat(np.arange(starts), [spec[4] for spec in specs])
    status = seed_status[spec_of]
    frontier = seed_frontier[spec_of]
    members = seed_members[spec_of]
    if ce:
        frontier_weights = seed_weights[spec_of]
        weight_base = spec_of * n
    willing = np.array([state[0] for state in states], dtype=np.float64)[
        spec_of
    ]
    member_lens = member_sizes[spec_of]
    frontier_lens = frontier_sizes[spec_of]
    uniforms = np.concatenate(
        [streams.rows(spec[1], spec[3], spec[4]) for spec in specs]
    )
    alive = np.ones(spec_of.size, dtype=bool)
    status_flat = status.ravel()

    targets = vg.targets
    pair_w = vg.pair_w
    interest = vg.weighted_interest

    # A row still active at step s has made exactly s picks (rows only
    # ever leave the active set), so step s reads uniform column s.
    for step in range(k - int(member_lens.min())):
        act = np.flatnonzero(alive & (member_lens < k))
        if act.size == 0:
            break
        lens = frontier_lens[act]
        empty = lens == 0
        if empty.any():
            alive[act[empty]] = False
            act = act[~empty]
            if act.size == 0:
                break
            lens = frontier_lens[act]
        u = uniforms[:, step][act]

        if mode == "uniform":
            pick = np.minimum((u * lens).astype(np.int64), lens - 1)
        elif ce:
            span = int(lens.max())
            pick = _weighted_pick(
                np.cumsum(frontier_weights[act, :span], axis=1), u, lens
            )
        else:  # greedy
            span = int(lens.max())
            window = frontier[act, :span]
            in_frontier = np.arange(span)[None, :] < lens[:, None]
            values = _greedy_weights(
                vg, status_flat, n, willing, act, window, in_frontier
            )
            pick = _weighted_pick(np.cumsum(values, axis=1), u, lens)

        # Swap-pop the chosen frontier slot (with its CE weight; the
        # vacated tail slot goes back to +0.0), mark membership.
        row_slots = act * capacity
        slot = row_slots + pick
        tail = row_slots + lens - 1
        frontier_flat = frontier.ravel()
        chosen = frontier_flat[slot]
        frontier_flat[slot] = frontier_flat[tail]
        if ce:
            weights_flat = frontier_weights.ravel()
            weights_flat[slot] = weights_flat[tail]
            weights_flat[tail] = 0.0
        lens -= 1
        row_cells = act * n
        status_flat[row_cells + chosen] = 2
        members[act, member_lens[act]] = chosen
        member_lens[act] += 1

        # Merged delta + frontier extension over the chosen nodes' CSR
        # rows, all rows flattened into one gather.
        deltas = interest[chosen]
        owner, slots = _csr_slots(vg, chosen)
        neighbours = targets[slots]
        cells = row_cells[owner] + neighbours
        state = status_flat[cells]
        member_edge = state == 2
        if member_edge.any():
            deltas += np.bincount(
                owner[member_edge],
                weights=pair_w[slots[member_edge]],
                minlength=act.size,
            )
        if connected:
            fresh = state == 0
            if allowed is not None:
                fresh &= allowed[neighbours]
            fresh = np.flatnonzero(fresh)
            if fresh.size:
                fresh_rows = owner[fresh]
                fresh_nodes = neighbours[fresh]
                per_row = np.bincount(fresh_rows, minlength=act.size)
                ends = lens + per_row
                needed = int(ends.max())
                if needed > capacity:
                    capacity = max(needed, 2 * capacity)
                    frontier = _widened(frontier, capacity)
                    if ce:
                        frontier_weights = _widened(frontier_weights, capacity)
                # A row's fresh nodes fill its slots lens .. ends - 1 in
                # CSR order.
                shift = ends - np.cumsum(per_row)
                column = np.arange(fresh.size) + shift[fresh_rows]
                fresh_rows = act[fresh_rows]
                fresh_slots = fresh_rows * capacity + column
                frontier.ravel()[fresh_slots] = fresh_nodes
                status_flat[cells[fresh]] = 1
                if ce:
                    frontier_weights.ravel()[fresh_slots] = np.maximum(
                        weights[weight_base[fresh_rows] + fresh_nodes], 0.0
                    )
                lens = ends
        frontier_lens[act] = lens
        willing[act] += deltas

    # Emit samples in draw order; complete rows succeed unless a
    # disconnected seed failed to bridge (scalar kernel's final check).
    nodes = comp.nodes
    graph = sampler.graph
    complete = (alive & (member_lens == k)).tolist()
    member_rows = members.tolist()
    willing_values = willing.tolist()
    bridge_memo: dict = {}
    row = 0
    for position, _key, state, _first, count, _wrow in specs:
        seed_connected = state[1]
        dest = out[position]
        for b in range(row, row + count):
            if not complete[b]:
                dest.append(None)
                continue
            indices = tuple(member_rows[b])
            group = frozenset(map(nodes.__getitem__, indices))
            if connected and not seed_connected:
                bridged = bridge_memo.get(indices)
                if bridged is None:
                    bridged = graph.is_connected_subset(group)
                    bridge_memo[indices] = bridged
                if not bridged:
                    dest.append(None)
                    continue
            dest.append(
                Sample(
                    members=group,
                    willingness=willing_values[b],
                    indices=indices,
                )
            )
        row += count


def _ragged(tuples):
    """Concatenated int ``tuples``: the values, each value's tuple
    index, its position within that tuple, and the tuple lengths."""
    sizes = np.array([len(values) for values in tuples], dtype=np.int64)
    values = np.concatenate(
        [np.asarray(values, dtype=np.int64) for values in tuples]
    )
    owner = np.repeat(np.arange(len(tuples)), sizes)
    heads = np.cumsum(sizes) - sizes
    column = np.arange(values.size) - np.repeat(heads, sizes)
    return values, owner, column, sizes


def _csr_slots(vg, nodes):
    """``nodes``' CSR rows, concatenated: each slot and its owner.

    The owner is the node's position in ``nodes``; slot ``offsets[v] +
    j`` lands at flat position ``head[v] + j``, so one ``repeat`` of
    ``offsets[v] - head[v]`` per row turns ``arange`` into the slots.
    """
    degrees = vg.degrees[nodes]
    ends = np.cumsum(degrees)
    owner = np.repeat(np.arange(nodes.size), degrees)
    slots = np.arange(owner.size) + np.repeat(
        vg.offsets[nodes] - (ends - degrees), degrees
    )
    return owner, slots


def _weighted_pick(cumulative, u, lens):
    """Per row: ``bisect_left(cumulative, u · total)`` capped at the
    last frontier slot, or the uniform slot when the total mass is not
    positive.  Slots past a row's length hold +0.0, so its prefix sums
    there equal its total and never fall below the threshold."""
    total = cumulative[:, -1]
    weighted = np.minimum(
        (cumulative < (u * total)[:, None]).sum(axis=1), lens - 1
    )
    uniform = np.minimum((u * lens).astype(np.int64), lens - 1)
    return np.where(total > 0.0, weighted, uniform)


def _widened(matrix, capacity):
    """``matrix`` with its columns zero-padded to ``capacity``."""
    wide = np.zeros((matrix.shape[0], capacity), dtype=matrix.dtype)
    wide[:, : matrix.shape[1]] = matrix
    return wide


def _greedy_weights(vg, status_flat, n, willing, act, window, in_frontier):
    """RGreedy's frontier weights ``max(0, W(S ∪ {v}))`` for every slot.

    One flat CSR gather over every (row, frontier-slot) pair: the delta
    of adding slot node ``v`` to row ``r``'s members is
    ``interest[v] + Σ pair_w`` over ``v``'s edges into ``r``'s member
    set, reduced per slot with ``bincount``.
    """
    flat_nodes = window[in_frontier]
    entry_rows = np.nonzero(in_frontier)[0]
    deltas = vg.weighted_interest[flat_nodes]
    owner, slots = _csr_slots(vg, flat_nodes)
    cells = (act[entry_rows] * n)[owner] + vg.targets[slots]
    member_edge = status_flat[cells] == 2
    if member_edge.any():
        deltas += np.bincount(
            owner[member_edge],
            weights=vg.pair_w[slots[member_edge]],
            minlength=flat_nodes.size,
        )
    values = np.zeros(window.shape, dtype=np.float64)
    values[in_frontier] = np.maximum(0.0, willing[act][entry_rows] + deltas)
    return values
