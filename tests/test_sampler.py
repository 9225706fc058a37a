from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import belldisc.sampler
import dense_oracle as oracle
from belldisc import qmath
from belldisc.circuit import BellKind, Circuit, Gate, bell_prep, combined_check, parity_check, simulate
from belldisc.errors import (
    DimensionMismatch,
    IdentityInSetting,
    NoMeasurements,
    ParseError,
    ZeroShots,
)
from belldisc.sampler import (
    IDEAL,
    CountsHistogram,
    NoiseModel,
    exact_distribution,
    final_density,
    sample,
    sample_settings,
    with_basis_change,
)
from belldisc.tomography import plan
from conftest import circuits, noise_models, random_circuit


class TestNoiseModel:
    def test_defaults_are_ideal(self):
        assert IDEAL.is_ideal
        assert not NoiseModel(readout_flip=0.1).is_ideal

    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            NoiseModel(per_gate_depolarizing=-0.1)
        with pytest.raises(ValueError):
            NoiseModel(per_cnot_depolarizing=1.5)


class TestCountsHistogram:
    def test_validates_keys_and_totals(self):
        with pytest.raises(ParseError):
            CountsHistogram(2, 10, {"0": 10})
        with pytest.raises(ParseError):
            CountsHistogram(2, 10, {"02": 10})
        with pytest.raises(ParseError):
            CountsHistogram(2, 10, {"00": 4})
        with pytest.raises(ParseError):
            CountsHistogram(2, 10, {"00": -1, "01": 11})

    def test_accepts_numpy_counts(self):
        h = CountsHistogram(1, 5, {"0": np.int64(5)})
        assert h.counts == {"0": 5} and type(h.counts["0"]) is int

    def test_probability(self):
        h = CountsHistogram(1, 8, {"0": 6, "1": 2})
        assert h.probability("1") == 0.25
        assert h.probability("0") == 0.75

    def test_json_round_trip(self):
        h = CountsHistogram(3, 7, {"000": 5, "110": 2})
        data = h.to_json_dict()
        assert data == {"n_bits": 3, "shots": 7, "counts": {"000": 5, "110": 2}}
        assert CountsHistogram.from_json_dict(data) == h

    def test_from_json_errors(self):
        with pytest.raises(ParseError):
            CountsHistogram.from_json("not json")
        with pytest.raises(ParseError):
            CountsHistogram.from_json('{"shots": 3}')
        with pytest.raises(ParseError):  # a bool is not a count
            CountsHistogram.from_json('{"n_bits": 1, "shots": 2, "counts": {"0": true, "1": true}}')

    @pytest.mark.parametrize("shots", [0, True, -1])
    def test_rejects_shots_that_are_not_positive_integers(self, shots):
        # for 0 and True the counts sum to the shots, so only the shot count is wrong
        counts = {"1": int(shots)} if shots > 0 else {}
        with pytest.raises(ZeroShots):
            CountsHistogram(1, shots, counts)
        with pytest.raises(ZeroShots):
            CountsHistogram.from_json(json.dumps({"n_bits": 1, "shots": shots, "counts": counts}))


    @pytest.mark.parametrize("n_bits", [True, 1.9, 0])
    def test_rejects_bits_that_are_not_positive_integers(self, n_bits):
        with pytest.raises(DimensionMismatch):
            CountsHistogram(n_bits, 1, {"1": 1})
        with pytest.raises(DimensionMismatch):
            CountsHistogram.from_json(json.dumps({"n_bits": n_bits, "shots": 1, "counts": {"1": 1}}))

    def test_numpy_integer_bits(self):
        h = CountsHistogram(np.int64(2), 3, {"01": 3})
        assert type(h.n_bits) is int and h == CountsHistogram(2, 3, {"01": 3})


class TestIdealSampling:
    def test_deterministic_circuit_single_outcome(self):
        c = Circuit(2).x(0).measure(0, 1)
        h = sample(c, 100)
        assert h.counts == {"10": 100}

    def test_measure_subset_keeps_qubit_order(self):
        c = Circuit(3).x(0).x(2).measure(0, 2)
        h = sample(c, 10)
        assert h.counts == {"11": 10}
        h = sample(Circuit(3).x(2).measure(2), 10)
        assert h.counts == {"1": 10}

    def test_requires_measurements_and_shots(self):
        with pytest.raises(NoMeasurements):
            sample(Circuit(1).h(0), 10)
        with pytest.raises(ZeroShots):
            sample(Circuit(1).h(0).measure(0), 0)
        with pytest.raises(ZeroShots):
            sample(Circuit(1).h(0).measure(0), 7.5)
        for flag in (True, np.bool_(True)):
            with pytest.raises(ZeroShots):
                sample(Circuit(1).h(0).measure(0), flag)

    def test_numpy_integer_shots(self):
        c = bell_prep(BellKind.PSI_PLUS).measure(0, 1, 2)
        h = sample(c, np.int64(512), seed=3)
        assert h == sample(c, 512, seed=3)
        assert type(h.shots) is int

    def test_same_seed_bit_identical(self):
        c = bell_prep(BellKind.PSI_PLUS).measure(0, 1, 2)
        a = sample(c, 4096, seed=42, stream=3)
        b = sample(c, 4096, seed=42, stream=3)
        assert a == b

    def test_seed_and_stream_vary_outcomes(self):
        c = bell_prep(BellKind.PSI_PLUS).measure(0, 1, 2)
        base = sample(c, 4096, seed=42)
        assert sample(c, 4096, seed=43) != base
        assert sample(c, 4096, seed=42, stream=1) != base

    @pytest.mark.parametrize("seed", [0, 2**63 - 1, 2**63 + 1, 2**64 - 1, -1, -2])
    def test_philox_key_is_seed_and_stream_modulo_2_64(self, seed):
        rng = oracle._rng(seed, 5)
        assert rng.bit_generator.state["state"]["key"].tolist() == [seed % 2**64, 5]
        probs = np.full((1, 16), 1 / 16)
        expected = rng.multinomial(8192, belldisc.sampler._on_grid(probs)[0])
        assert np.array_equal(belldisc.sampler._draw(probs, 8192, seed, [5])[0], expected)

    @pytest.mark.parametrize("seed, same", [
        (np.int64(7), 7), (np.int64(-1), -1), (np.uint32(5), 5), (np.uint64(2**63 + 3), 2**63 + 3),
    ])
    def test_numpy_integer_seeds(self, seed, same):
        prep, noise = bell_prep(BellKind.PSI_PLUS), NoiseModel(0.02, 0.05, 0.02)
        c = prep.measure(0, 1, 2)
        assert sample(c, 4096, noise, seed=seed) == sample(c, 4096, noise, seed=same)
        assert sample(c, 4096, noise, stream=seed) == sample(c, 4096, noise, stream=same)
        assert np.array_equal(sample_settings(prep, 256, noise, seed=seed), sample_settings(prep, 256, noise, seed=same))

    @pytest.mark.parametrize("bad", [True, np.bool_(True), 7.0, "7", None])
    def test_rejects_seeds_that_are_not_integers(self, bad):
        c = bell_prep(BellKind.PSI_PLUS).measure(0, 1, 2)
        with pytest.raises(TypeError, match="seed"):
            sample(c, 64, seed=bad)
        with pytest.raises(TypeError, match="stream"):
            sample(c, 64, stream=bad)
        with pytest.raises(TypeError, match="seed"):
            sample_settings(bell_prep(BellKind.PSI_PLUS), 64, seed=bad)

    def test_negative_seed_is_not_seed_zero(self):
        c = bell_prep(BellKind.PSI_PLUS).measure(0, 1, 2)
        assert sample(c, 4096, seed=-1) != sample(c, 4096, seed=0)

    def test_empirical_matches_exact_within_3_sigma(self):
        c = bell_prep(BellKind.PHI_MINUS).measure(0, 1, 2)
        shots = 8192
        h = sample(c, shots, seed=11)
        for outcome, p in exact_distribution(c).items():
            sigma = np.sqrt(p * (1 - p) / shots)
            assert abs(h.probability(outcome) - p) <= 3 * sigma + 1e-12


class TestExactDistribution:
    def test_matches_statevector_probabilities(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            c = random_circuit(rng, 3, 8)
            dist = exact_distribution(c.measure(0, 1, 2))
            amps = np.abs(simulate(c)) ** 2
            for i, p in enumerate(amps):
                assert dist[format(i, "03b")] == pytest.approx(p, abs=1e-12)

    def test_distribution_sums_to_one(self):
        c = bell_prep(BellKind.PSI_PLUS).measure(0, 1)
        noise = NoiseModel(0.05, 0.1, 0.02)
        dist = exact_distribution(c, noise)
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)

    def test_requires_measurements(self):
        with pytest.raises(NoMeasurements):
            exact_distribution(Circuit(1).h(0))

    @given(circuits(), noise_models, st.data(), st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=60)
    def test_samples_within_total_variation_of_exact(self, c, noise, data, seed):
        _assert_within_total_variation(sample, c, noise, data, seed)

    @given(circuits(), noise_models, st.data(), st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=60)
    def test_per_shot_draw_within_total_variation_of_exact(self, c, noise, data, seed):
        _assert_within_total_variation(oracle.sample_per_shot, c, noise, data, seed)


def _assert_within_total_variation(draw, c, noise, data, seed) -> None:
    # E[TV] <= 0.5 sqrt(2^m / shots) by Cauchy-Schwarz; by McDiarmid the
    # TV exceeds its mean by 0.04 with probability exp(-2 shots 0.04^2) ~ 4e-12
    c = c.measure(*data.draw(st.sets(st.integers(0, c.n_qubits - 1), min_size=1)))
    shots, m = 8192, len(c.measured)
    hist = draw(c, shots, noise, seed)
    tv = 0.5 * sum(abs(hist.probability(k) - p) for k, p in exact_distribution(c, noise).items())
    assert tv <= 0.5 * np.sqrt(2 ** m / shots) + 0.04


class TestCdfGrid:
    """Each draw rounds its CDF to multiples of 2^-32 before the multinomial."""

    @given(circuits(), noise_models, st.data())
    @settings(deadline=None, max_examples=60)
    def test_drawn_law_within_grid_of_exact(self, c, noise, data):
        c = c.measure(*data.draw(st.sets(st.integers(0, c.n_qubits - 1), min_size=1)))
        on_grid, drawn = belldisc.sampler._on_grid, []

        def spy(probs):
            drawn.append(on_grid(probs))
            return drawn[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(belldisc.sampler, "_on_grid", spy)
            sample(c, 64, noise, seed=1)
        (law,) = drawn[0]
        exact = np.array(list(exact_distribution(c, noise).values()))
        assert np.abs(law - exact).max() <= 2.0 ** -32
        assert np.array_equal(np.rint(law * 2.0 ** 32), law * 2.0 ** 32) and law.sum() == 1.0

    @given(circuits(max_qubits=4), noise_models)
    @settings(deadline=None, max_examples=200)
    def test_settings_draw_the_law_of_each_basis_change(self, c, noise):
        on_grid, drawn = belldisc.sampler._on_grid, []

        def spy(probs):
            drawn.append(probs)
            return on_grid(probs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(belldisc.sampler, "_on_grid", spy)
            sample_settings(c, 64, noise, seed=1)
        (laws,) = drawn
        for law, setting in zip(laws, plan(c.n_qubits).settings, strict=True):
            exact = np.array(list(exact_distribution(with_basis_change(c, setting), noise).values()))
            assert np.abs(law - exact).max() <= 1e-12, setting

    @given(st.integers(1, 16), st.integers(1, 81), st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=60)
    def test_grid_law_is_the_difference_of_the_rounded_cdf(self, outcomes, rows, seed):
        probs = np.random.default_rng(seed).dirichlet(np.ones(outcomes), rows)
        before = probs.copy()
        cdf = np.rint(np.cumsum(probs, axis=-1) * 2.0 ** 32) / 2.0 ** 32
        assert np.array_equal(belldisc.sampler._on_grid(probs), np.diff(cdf, axis=-1, prepend=0.0))
        assert np.array_equal(probs, before)

    @given(st.integers(2, 16), st.integers(1, 81), st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=60)
    def test_unnormalized_law_needs_no_separate_pass(self, outcomes, rows, seed):
        # sample_settings draws its contracted law as it comes: off 1 by round-off, one entry just below 0
        rng = np.random.default_rng(seed)
        probs = rng.dirichlet(np.ones(outcomes), rows)
        below = rng.integers(outcomes, size=rows)
        probs[np.arange(rows), below] = 0.0
        probs /= probs.sum(axis=-1, keepdims=True)
        probs[np.arange(rows), below] = -1e-17
        probs *= 1.0 + rng.uniform(-1e-12, 1e-12, (rows, 1))
        grid = belldisc.sampler._on_grid(probs)
        assert (grid >= 0.0).all() and (grid.sum(axis=-1) == 1.0).all()
        counts = belldisc.sampler._draw(probs, 64, seed, range(rows))
        assert (counts.sum(axis=-1) == 64).all() and not counts[np.arange(rows), below].any()

    @pytest.mark.parametrize("probs", [[0.5, 0.0, 0.0, 0.5], [0.25] * 4, [0.25, 0.375, 0.375], [0.125] * 8])
    def test_round_off_does_not_change_the_counts(self, probs):
        # numpy's binomial switches branch when its ratio passes 0.5, so
        # without the grid a one-ulp move changes the counts
        p = np.array(probs)
        for ulps in (1, 3):
            for i, j in ((0, -1), (-1, 0), (1, 2)):
                q = p.copy()
                for _ in range(ulps):
                    q[i], q[j] = np.nextafter(q[i], 1.0), np.nextafter(q[j], 0.0)
                for seed in range(5):
                    a, b = belldisc.sampler._draw(np.stack([p, q]), 8192, seed, [seed, seed])
                    assert np.array_equal(a, b), (ulps, i, j, seed)


class TestReusedGenerator:
    """``_draw`` re-keys one bit generator per row; each row must draw what a fresh one draws."""

    @given(
        outcomes=st.integers(1, 16),
        shots=st.integers(1, 2**20),
        seed=st.integers(-2**65, 2**65),
        streams=st.lists(st.integers(0, 8) | st.integers(-2**65, 2**65), min_size=1, max_size=8),
        law=st.integers(0, 2**32 - 1),
    )
    @example(outcomes=16, shots=8192, seed=3, streams=[5, 5, 0, 9, 2], law=1)
    @example(outcomes=3, shots=1, seed=-1, streams=[3, 2, 1, 1, 0], law=2)
    @settings(deadline=None, max_examples=150)
    def test_each_row_draws_what_a_fresh_generator_draws(self, outcomes, shots, seed, streams, law):
        # zero entries skip draws, so rows consume differing amounts of the stream
        rng = np.random.default_rng(law)
        weights = rng.integers(0, 3, (len(streams), outcomes)).astype(float)
        weights[np.arange(len(streams)), rng.integers(outcomes, size=len(streams))] += 1.0
        probs = weights / weights.sum(axis=1, keepdims=True)
        drawn = belldisc.sampler._draw(probs, shots, seed, streams)
        for stream, row, counts in zip(streams, belldisc.sampler._on_grid(probs), drawn, strict=True):
            assert np.array_equal(counts, oracle._rng(seed, stream).multinomial(shots, row)), stream


class TestSampleSettings:
    def test_builds_one_bit_generator(self):
        philox, built = np.random.Philox, []

        def counting(*args, **kwargs):
            built.append(args)
            return philox(*args, **kwargs)

        c = bell_prep(BellKind.PSI_PLUS, n_qubits=4).extend(combined_check())
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.random, "Philox", counting)
            counts = sample_settings(c, 64, NoiseModel(0.02, 0.05, 0.02), seed=3)
        assert counts.shape == (81, 16)
        assert len(built) <= 1

    def test_builds_channels_once(self):
        # the density's two widths and the setting law's one width, however many settings
        channels, calls = belldisc.sampler._channels, {}

        def counting(noise, width):
            calls[c.n_qubits].append(width)
            return channels(noise, width)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(belldisc.sampler, "_channels", counting)
            for c in (bell_prep(BellKind.PSI_PLUS).extend(parity_check()),
                      bell_prep(BellKind.PSI_PLUS, n_qubits=4).extend(combined_check())):
                calls[c.n_qubits] = []
                sample_settings(c, 64, NoiseModel(0.02, 0.05, 0.02))
        assert {n: sorted(widths) for n, widths in calls.items()} == {3: [1, 1, 2], 4: [1, 1, 2]}


class TestRelabelling:
    """Renaming the qubits permutes the axes of the density and the bits of the outcomes."""

    @given(circuits(max_qubits=4), noise_models, st.data())
    @settings(deadline=None, max_examples=150)
    def test_covariant_under_qubit_permutation(self, c, noise, data):
        n = c.n_qubits
        perm = data.draw(st.permutations(range(n)))
        relabelled = Circuit(n, tuple(
            Gate(g.kind, perm[g.target], None if g.control is None else perm[g.control]) for g in c.gates
        ))
        # new qubit perm[q] is old qubit q, so new axis a is old axis axes[a]
        axes = [int(a) for a in np.argsort(perm)]
        rho = final_density(c, noise).reshape((2,) * (2 * n))
        expected = rho.transpose(axes + [n + a for a in axes]).reshape(2 ** n, 2 ** n)
        assert np.abs(final_density(relabelled, noise) - expected).max() <= 1e-12
        dist = exact_distribution(c.measure(*range(n)), noise)
        moved = exact_distribution(relabelled.measure(*range(n)), noise)
        for key, p in dist.items():
            assert abs(moved["".join(key[a] for a in axes)] - p) <= 1e-12, key


class TestDepolarizing:
    def test_full_strength_mixes_touched_qubits(self):
        noise = NoiseModel(per_gate_depolarizing=1.0, per_cnot_depolarizing=1.0)
        c = bell_prep(BellKind.PSI_PLUS).measure(0, 1, 2)
        dist = exact_distribution(c, noise)
        # system fully mixed, ancilla untouched in |0>
        for outcome, p in dist.items():
            expected = 0.25 if outcome.endswith("0") else 0.0
            assert p == pytest.approx(expected, abs=1e-12)

    def test_purity_decreases(self):
        c = bell_prep(BellKind.PSI_PLUS)
        pure = qmath.purity(final_density(c))
        noisy = qmath.purity(final_density(c, NoiseModel(0.02, 0.05)))
        assert pure == pytest.approx(1.0, abs=1e-9)
        assert noisy < pure

    def test_trace_preserved(self):
        c = bell_prep(BellKind.PHI_PLUS).extend(Circuit(3).cnot(0, 2).h(1))
        rho = final_density(c, NoiseModel(0.1, 0.2))
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.abs(rho - rho.conj().T).max() <= 1e-12

    def test_deterministic_pauli_insertions_keep_purity(self):
        # noise modeled as explicit X and Z (= S S) insertions stays unitary
        c = bell_prep(BellKind.PSI_MINUS).x(2).s(1).s(1)
        c = c.extend(Circuit(3).cnot(0, 2))
        assert qmath.purity(final_density(c)) == pytest.approx(1.0, abs=1e-9)


class TestReadout:
    def test_single_qubit_flip_probability(self):
        c = Circuit(1).measure(0)
        dist = exact_distribution(c, NoiseModel(readout_flip=0.03))
        assert dist["1"] == pytest.approx(0.03, abs=1e-12)
        assert dist["0"] == pytest.approx(0.97, abs=1e-12)

    def test_half_flip_is_uniform(self):
        c = bell_prep(BellKind.PSI_PLUS).measure(0, 1, 2)
        dist = exact_distribution(c, NoiseModel(readout_flip=0.5))
        for p in dist.values():
            assert p == pytest.approx(1 / 8, abs=1e-12)

    def test_sampled_flips_match_channel(self):
        c = Circuit(2).x(0).measure(0, 1)
        noise = NoiseModel(readout_flip=0.1)
        shots = 16384
        h = sample(c, shots, noise, seed=5)
        for outcome, p in exact_distribution(c, noise).items():
            sigma = np.sqrt(p * (1 - p) / shots)
            assert abs(h.probability(outcome) - p) <= 3 * sigma

    def test_independent_flips_product_law(self):
        c = Circuit(2).measure(0, 1)
        r = 0.2
        dist = exact_distribution(c, NoiseModel(readout_flip=r))
        assert dist["00"] == pytest.approx((1 - r) ** 2, abs=1e-12)
        assert dist["11"] == pytest.approx(r**2, abs=1e-12)


class TestBasisChange:
    def test_appended_gates_per_letter(self):
        c = Circuit(3)
        out = with_basis_change(c, "XYZ")
        assert [g.text() for g in out.gates] == ["H 0", "SDG 1", "H 1"]
        assert out.measured == frozenset({0, 1, 2})

    def test_y_convention_diagonalizes_plus_i_state(self):
        # (|0> + i|1>)/sqrt(2) is the +1 eigenstate of Y: must read out 0
        c = Circuit(1).h(0).s(0)
        dist = exact_distribution(with_basis_change(c, "Y"))
        assert dist["0"] == pytest.approx(1.0, abs=1e-12)

    def test_x_convention_diagonalizes_plus_state(self):
        dist = exact_distribution(with_basis_change(Circuit(1).h(0), "X"))
        assert dist["0"] == pytest.approx(1.0, abs=1e-12)

    def test_rejects_identity_and_junk(self):
        with pytest.raises(IdentityInSetting):
            with_basis_change(Circuit(2), "IZ")
        with pytest.raises(ValueError):
            with_basis_change(Circuit(2), "ZQ")
        with pytest.raises(DimensionMismatch):
            with_basis_change(Circuit(2), "ZZZ")
