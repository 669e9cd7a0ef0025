"""Tests for the cross-entropy probability machinery."""

import math

import pytest

from repro.algorithms.sampling import Sample
from repro.ce.convergence import BacktrackController
from repro.ce.probability import SelectionProbabilities, elite_threshold


def _sample(members, willingness):
    return Sample(members=frozenset(members), willingness=willingness)


class TestEliteThreshold:
    def test_paper_example2_quantile(self):
        """Example 2: W = <9.2, 8.9, 8.9, 7.9, 5.9>, rho=0.5 -> gamma=8.9."""
        values = [9.2, 8.9, 8.9, 7.9, 5.9]
        assert elite_threshold(values, 0.5) == pytest.approx(8.9)

    def test_rho_one_is_minimum(self):
        assert elite_threshold([3.0, 1.0, 2.0], 1.0) == 1.0

    def test_tiny_rho_is_maximum(self):
        assert elite_threshold([3.0, 1.0, 2.0], 0.01) == 3.0

    def test_validation(self):
        with pytest.raises(ValueError):
            elite_threshold([], 0.5)
        with pytest.raises(ValueError):
            elite_threshold([1.0], 0.0)
        with pytest.raises(ValueError):
            elite_threshold([1.0], 1.5)


class TestInitialization:
    def test_homogeneous_initialization(self):
        probs = SelectionProbabilities(range(10), k=5)
        # (k - 1) / |V| = 4/10.
        for node in range(10):
            assert probs.probability(node) == pytest.approx(0.4)

    def test_unknown_node_zero(self):
        probs = SelectionProbabilities(range(3), k=2)
        assert probs.probability(99) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SelectionProbabilities([], k=2)
        with pytest.raises(ValueError):
            SelectionProbabilities(range(3), k=0)


class TestUpdateEquation4:
    def test_elite_frequencies_with_full_smoothing(self):
        """With w = 1 the vector equals the elite membership frequency."""
        probs = SelectionProbabilities(range(4), k=2)
        samples = [
            _sample({0, 1}, 10.0),
            _sample({0, 2}, 9.0),
            _sample({2, 3}, 1.0),  # below gamma
        ]
        # rho = 0.5 over 3 samples -> rank ceil(1.5) = 2 -> gamma = 9.0.
        probs.update(samples, rho=0.5, smoothing=1.0)
        assert probs.probability(0) == pytest.approx(1.0)
        assert probs.probability(1) == pytest.approx(0.5)
        assert probs.probability(2) == pytest.approx(0.5)
        assert probs.probability(3) == pytest.approx(0.0)

    def test_paper_example2_smoothed_vector(self):
        """Example 2's smoothing arithmetic:
        p = 0.6*<2/3,1/3,1,...> + 0.4*<4/9,...> = <5.2/9, 3.4/9, 1, ...>."""
        # The paper's Example sets the initial vector to 4/9 on every node
        # except the start node v3 (probability 1).  (Its Definition 3 says
        # (k-1)/|V| = 4/10 instead — a printed inconsistency; we follow the
        # worked example here by installing the vector explicitly.)
        probs = SelectionProbabilities(range(1, 11), k=5)
        for node in range(1, 11):
            probs.set_probability(node, 4.0 / 9.0)
        probs.set_probability(3, 1.0)
        elites_and_low = [
            _sample({1, 3, 4, 5, 6}, 8.9),
            _sample({1, 2, 3, 4, 5}, 8.9),
            _sample({2, 3, 5, 6, 8}, 5.9),
            _sample({2, 3, 4, 5, 7}, 7.9),
            _sample({3, 5, 6, 7, 10}, 9.2),
        ]
        probs.update(elites_and_low, rho=0.5, smoothing=0.6)
        # gamma = 8.9; elites = samples 1, 2, 5; frequencies:
        # v1: 2/3, v2: 1/3, v3: 1, v4: 2/3, v5: 1, v6: 2/3, v7: 1/3,
        # v8..v10: 0 except v10: 1/3.
        assert probs.probability(1) == pytest.approx(0.6 * 2 / 3 + 0.4 * 4 / 9)
        assert probs.probability(2) == pytest.approx(0.6 * 1 / 3 + 0.4 * 4 / 9)
        assert probs.probability(3) == pytest.approx(1.0)
        assert probs.probability(5) == pytest.approx(0.6 * 1.0 + 0.4 * 4 / 9)
        assert probs.probability(8) == pytest.approx(0.6 * 0.0 + 0.4 * 4 / 9)

    def test_smoothing_keeps_probabilities_interior(self):
        probs = SelectionProbabilities(range(4), k=2)
        samples = [_sample({0, 1}, 10.0)]
        probs.update(samples, rho=0.5, smoothing=0.9)
        for node in range(4):
            assert 0.0 < probs.probability(node) < 1.0 or node in (0, 1)
        # Nodes absent from elites keep a residue of the old probability.
        assert probs.probability(3) > 0.0

    def test_gamma_monotone_across_stages(self):
        probs = SelectionProbabilities(range(4), k=2)
        probs.update([_sample({0, 1}, 10.0)], rho=0.5, smoothing=0.5)
        first_gamma = probs.gamma
        probs.update([_sample({2, 3}, 1.0)], rho=0.5, smoothing=0.5)
        assert probs.gamma == first_gamma  # did not decrease

    def test_update_below_gamma_is_noop(self):
        probs = SelectionProbabilities(range(4), k=2)
        probs.update([_sample({0, 1}, 10.0)], rho=0.5, smoothing=0.5)
        before = probs.as_dict()
        movement = probs.update(
            [_sample({2, 3}, 1.0)], rho=0.5, smoothing=0.5
        )
        assert movement == 0.0
        assert probs.as_dict() == before

    def test_empty_samples_noop(self):
        probs = SelectionProbabilities(range(4), k=2)
        assert probs.update([], rho=0.5, smoothing=0.5) == 0.0

    def test_movement_is_squared_distance(self):
        probs = SelectionProbabilities(range(2), k=2)
        before = probs.as_dict()
        movement = probs.update(
            [_sample({0, 1}, 5.0)], rho=1.0, smoothing=1.0
        )
        expected = sum(
            (1.0 - before[node]) ** 2 for node in range(2)
        )
        assert movement == pytest.approx(expected)

    def test_validation(self):
        probs = SelectionProbabilities(range(3), k=2)
        with pytest.raises(ValueError):
            probs.update([_sample({0}, 1.0)], rho=0.0, smoothing=0.5)
        with pytest.raises(ValueError):
            probs.update([_sample({0}, 1.0)], rho=0.5, smoothing=2.0)


class TestSnapshots:
    def test_snapshot_restore(self):
        probs = SelectionProbabilities(range(3), k=2)
        before = probs.as_dict()
        saved = probs.snapshot()
        probs.update([_sample({0, 1}, 3.0)], rho=1.0, smoothing=1.0)
        assert probs.as_dict() != before
        probs.restore(saved)
        assert probs.as_dict() == before

    def test_restore_rejects_length_mismatch(self):
        probs = SelectionProbabilities(range(3), k=2)
        with pytest.raises(ValueError):
            probs.restore([0.5])

    def test_kl_distance_zero_for_identical(self):
        first = SelectionProbabilities(range(5), k=3)
        second = SelectionProbabilities(range(5), k=3)
        assert first.kl_distance(second) == pytest.approx(0.0, abs=1e-9)

    def test_kl_distance_positive_when_different(self):
        first = SelectionProbabilities(range(5), k=3)
        second = SelectionProbabilities(range(5), k=3)
        second.update([_sample({0, 1, 2}, 5.0)], rho=1.0, smoothing=1.0)
        assert first.kl_distance(second) > 0.0


class TestCompiledDomain:
    """Array-backed vectors in the compiled int-id domain."""

    def _paired_vectors(self):
        # Compiled id space: nodes "a".."f" -> ids 0..5; candidates skip
        # the forbidden node "e" (id 4), whose slot must stay 0.0.
        index_of = {name: i for i, name in enumerate("abcdef")}
        candidates = [n for n in "abcdf"]
        local = SelectionProbabilities(candidates, k=3)
        compiled = SelectionProbabilities(
            candidates, k=3, index_of=index_of, size=len(index_of)
        )
        return local, compiled, index_of

    def test_array_exposed_only_in_compiled_domain(self):
        local, compiled, index_of = self._paired_vectors()
        assert local.array is None
        assert local.index_map is None
        assert compiled.index_map is index_of
        assert len(compiled.array) == len(index_of)

    def test_non_candidate_slots_stay_zero(self):
        _, compiled, index_of = self._paired_vectors()
        assert compiled.array[index_of["e"]] == 0.0
        assert compiled.probability("e") == 0.0
        samples = [_sample({"a", "b", "c"}, 5.0)]
        compiled.update(samples, rho=1.0, smoothing=0.9)
        assert compiled.array[index_of["e"]] == 0.0

    def test_domains_bit_identical_after_updates(self):
        local, compiled, index_of = self._paired_vectors()
        stages = [
            [_sample({"a", "b", "c"}, 9.0), _sample({"b", "c", "d"}, 4.0)],
            [_sample({"a", "c", "f"}, 11.0), _sample({"a", "b", "f"}, 10.0)],
        ]
        for samples in stages:
            movement_local = local.update(samples, rho=0.5, smoothing=0.7)
            movement_compiled = compiled.update(
                samples, rho=0.5, smoothing=0.7
            )
            assert movement_local == movement_compiled
            assert local.gamma == compiled.gamma
            assert local.as_dict() == compiled.as_dict()
        # Array slot content equals the dict view through the id mapping.
        for node, value in compiled.as_dict().items():
            assert compiled.array[index_of[node]] == value

    def test_indices_fast_path_matches_member_translation(self):
        _, via_members, index_of = self._paired_vectors()
        _, via_indices, _ = self._paired_vectors()
        members = {"a", "c", "f"}
        with_ids = Sample(
            members=frozenset(members),
            willingness=7.0,
            indices=tuple(index_of[n] for n in members),
        )
        without_ids = _sample(members, 7.0)
        assert without_ids.indices is None
        via_members.update([without_ids], rho=1.0, smoothing=0.8)
        via_indices.update([with_ids], rho=1.0, smoothing=0.8)
        assert via_members.as_dict() == via_indices.as_dict()

    def test_snapshot_restore_preserves_array_identity(self):
        _, compiled, _ = self._paired_vectors()
        borrowed = compiled.array
        saved = compiled.snapshot()
        compiled.update([_sample({"a", "b", "c"}, 3.0)], rho=1.0, smoothing=1.0)
        compiled.restore(saved)
        # In-place restore: a sampler's borrowed reference stays valid.
        assert compiled.array is borrowed
        assert compiled.snapshot() == saved

    def test_set_probability_unknown_node(self):
        _, compiled, _ = self._paired_vectors()
        with pytest.raises(KeyError):
            compiled.set_probability("zzz", 0.5)


class TestBacktrackController:
    def test_disabled_by_default(self):
        controller = BacktrackController(threshold=None)
        probs = SelectionProbabilities(range(3), k=2)
        controller.remember(probs)
        assert not controller.observe(probs, movement=0.0)

    def test_backtracks_below_threshold(self):
        controller = BacktrackController(threshold=0.5, max_backtracks=2)
        probs = SelectionProbabilities(range(3), k=2)
        controller.remember(probs)
        before = probs.as_dict()
        probs.update([_sample({0, 1}, 5.0)], rho=1.0, smoothing=1.0)
        assert controller.observe(probs, movement=0.1)
        assert probs.as_dict() == before
        assert controller.backtracks_used == 1

    def test_no_backtrack_above_threshold(self):
        controller = BacktrackController(threshold=0.5)
        probs = SelectionProbabilities(range(3), k=2)
        controller.remember(probs)
        assert not controller.observe(probs, movement=0.9)

    def test_budget_of_backtracks(self):
        controller = BacktrackController(threshold=1e9, max_backtracks=1)
        probs = SelectionProbabilities(range(3), k=2)
        controller.remember(probs)
        assert controller.observe(probs, movement=0.0)
        controller.remember(probs)
        assert not controller.observe(probs, movement=0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            BacktrackController(threshold=-1.0)
        with pytest.raises(ValueError):
            BacktrackController(threshold=1.0, max_backtracks=-1)

    def test_no_observe_before_remember(self):
        controller = BacktrackController(threshold=0.5)
        probs = SelectionProbabilities(range(3), k=2)
        assert not controller.observe(probs, movement=0.0)


class TestRefitDecayChain:
    """Every refit round must equal the pure-Python chain bitwise.

    The ``eager_reference`` fixture replays each round as the textbook
    loop: multiply every slot by ``keep``, then overwrite the touched
    slots.  The float64 array must hold the exact same floats — per
    slot the chain of factored multiplies ``((p·k₁)·k₂)·…``, never an
    accumulated scale product.
    """

    @staticmethod
    def _rounds(count, length, seed=0):
        rng = __import__("random").Random(seed)
        rounds = []
        for _ in range(count):
            touched = rng.sample(range(length), 4)
            counts = {slot: rng.randrange(1, 4) for slot in touched}
            rounds.append((rng.choice([0.9, 0.7, 0.5]), counts, 3))
        return rounds

    def test_rounds_match_reference_chain(self, eager_reference):
        length = 32
        rounds = self._rounds(6, length)
        vector = SelectionProbabilities(
            range(length), 3, index_of={i: i for i in range(length)}
        )
        for smoothing, counts, size in rounds:
            vector.update_from_counts(counts, size, smoothing)
        assert vector.snapshot() == eager_reference(rounds, length)

    def test_reads_between_rounds_match_reference_chain(
        self, eager_reference
    ):
        """Reads between rounds see the chain's values and change none."""
        length = 32
        rounds = self._rounds(6, length, seed=1)
        vector = SelectionProbabilities(
            range(length), 3, index_of={i: i for i in range(length)}
        )
        rng = __import__("random").Random(9)
        for done, (smoothing, counts, size) in enumerate(rounds, start=1):
            vector.update_from_counts(counts, size, smoothing)
            # Probe a few slots (reference-path style single reads) and
            # occasionally the whole array (compiled-path draws).
            expected = eager_reference(rounds[:done], length)
            for slot in rng.sample(range(length), 3):
                assert vector.probability(slot) == expected[slot]
            if rng.random() < 0.5:
                assert list(vector.array) == expected
        assert vector.snapshot() == eager_reference(rounds, length)

    def test_movement_path_matches_reference_chain(self, eager_reference):
        """compute_movement=True refits the same values as False."""
        length = 16
        rounds = self._rounds(5, length, seed=2)
        plain = SelectionProbabilities(
            range(length), 3, index_of={i: i for i in range(length)}
        )
        moving = SelectionProbabilities(
            range(length), 3, index_of={i: i for i in range(length)}
        )
        for smoothing, counts, size in rounds:
            plain.update_from_counts(counts, size, smoothing)
            moving.update_from_counts(
                counts, size, smoothing, compute_movement=True
            )
        expected = eager_reference(rounds, length)
        assert plain.snapshot() == expected
        assert moving.snapshot() == expected

    def test_replicate_copies_refitted_values(self, eager_reference):
        length = 8
        vector = SelectionProbabilities(
            range(length), 3, index_of={i: i for i in range(length)}
        )
        round_ = (0.9, {0: 1, 1: 1, 2: 1}, 1)
        vector.update_from_counts(round_[1], round_[2], round_[0])
        clone = vector.replicate()
        assert clone.snapshot() == eager_reference([round_], length)
        clone.update_from_counts({3: 1}, 1, 0.5)
        assert vector.snapshot() == eager_reference([round_], length)

    def test_cross_engine_draws_bit_identical_over_many_rounds(self):
        """Seeded CBAS-ND runs stay engine-identical over many rounds.

        Many stages on a small budget stack many decay rounds onto each
        slot — the regime most likely to expose a decay that is *almost*
        the chain's value.  Both engines share the refit, but they read
        through different paths (a list per draw batch vs per-node
        probes) and different id domains (compiled vs local), so any
        drift would desynchronize the weighted draws and the resulting
        groups.
        """
        from repro.algorithms.cbas_nd import CBASND
        from repro.core.problem import WASOProblem
        from repro.graph.generators import facebook_like

        graph = facebook_like(150, seed=21)
        problem = WASOProblem(graph=graph, k=5)
        for seed in (3, 11):
            compiled = CBASND(budget=160, m=8, stages=8, engine="compiled")
            reference = CBASND(budget=160, m=8, stages=8, engine="reference")
            got = compiled.solve(problem, rng=seed)
            want = reference.solve(problem, rng=seed)
            assert got.members == want.members
            assert got.willingness == want.willingness
            # And the surviving CE vectors themselves agree bitwise.
            for start, vector in compiled.last_warm_state.vectors.items():
                twin = reference.last_warm_state.vectors[start]
                assert vector.as_dict() == twin.as_dict()


class TestPlainFloatReads:
    @pytest.mark.parametrize("engine", ["reference", "compiled", "vector"])
    def test_reads_and_patches_are_plain_floats(self, engine):
        """No numpy scalar escapes a vector, whichever engine built it."""
        from repro.algorithms.cbas_nd import CBASND
        from repro.core.problem import WASOProblem
        from repro.graph.generators import facebook_like

        problem = WASOProblem(graph=facebook_like(60, seed=5), k=4)
        solver = CBASND(budget=80, m=3, stages=2, engine=engine)
        solver.solve(problem, rng=1)
        vector = next(iter(solver.last_warm_state.vectors.values()))
        view = vector.as_dict()
        assert all(type(value) is float for value in view.values())
        assert all(type(value) is float for value in vector.snapshot())
        assert type(vector.probability(next(iter(view)))) is float
        patch, movement = vector.update_from_counts(
            {0: 2, 3: 1}, 2, 0.5, compute_movement=True
        )
        assert type(patch[1]) is float and type(movement) is float
        assert all(type(value) is float for _, value in patch[2])
