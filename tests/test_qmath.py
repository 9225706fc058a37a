from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from belldisc import qmath
from belldisc.errors import (
    DimensionMismatch,
    GrosslyNonHermitian,
    NotHermitian,
    NotSquare,
    StronglyNonPositive,
)
from conftest import random_density, random_state

seeds = st.integers(min_value=0, max_value=2**32 - 1)
pauli_labels = st.text(alphabet="IXYZ", min_size=1, max_size=4)


class TestPauliOperators:
    def test_zii_is_diagonal_sign_pattern(self):
        assert np.array_equal(
            qmath.pauli_operator("ZII"), np.diag([1, 1, 1, 1, -1, -1, -1, -1]).astype(complex)
        )

    def test_xxx_is_antidiagonal(self):
        op = qmath.pauli_operator("XXX")
        expected = np.zeros((8, 8), dtype=complex)
        for i in range(8):
            expected[i, 7 - i] = 1.0
        assert np.array_equal(op, expected)

    @given(pauli_labels)
    @settings(deadline=None)
    def test_hermitian_unitary_involutive(self, label):
        op = qmath.pauli_operator(label)
        dim = 2 ** len(label)
        assert op.shape == (dim, dim)
        assert np.allclose(op, op.conj().T)
        assert np.allclose(op @ op, np.eye(dim))

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            qmath.pauli_operator("XQ")
        with pytest.raises(ValueError):
            qmath.pauli_operator("")

    def test_pauli_traces_orthogonal(self):
        # Tr(sigma_L sigma_M) = dim * delta_LM is what linear inversion rests on.
        labels = ["II", "XY", "ZZ", "IX"]
        for a in labels:
            for b in labels:
                t = np.trace(qmath.pauli_operator(a) @ qmath.pauli_operator(b))
                assert np.isclose(t, 4.0 if a == b else 0.0)


class TestTensorAndKets:
    def test_tensor_matches_kron_chain(self):
        x, z = qmath.PAULI["X"], qmath.PAULI["Z"]
        assert np.array_equal(qmath.tensor(x, z), np.kron(x, z))
        assert qmath.tensor(x, z, x).shape == (8, 8)

    def test_tensor_needs_an_operand(self):
        with pytest.raises(DimensionMismatch):
            qmath.tensor()

    def test_ket_indexing_msb_first(self):
        v = qmath.ket("010")
        assert v[0b010] == 1.0 and np.count_nonzero(v) == 1

    def test_ket_rejects_junk(self):
        with pytest.raises(ValueError):
            qmath.ket("01a")

    def test_projector_is_rank_one(self):
        p = qmath.projector(qmath.ket("10"))
        assert np.isclose(np.trace(p), 1.0)
        assert np.allclose(p @ p, p)


class TestFidelity:
    def test_pure_against_itself(self):
        rho = qmath.projector(qmath.ket("01"))
        assert qmath.fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)

    def test_pure_against_maximally_mixed(self):
        rho = qmath.projector(qmath.ket("0"))
        f = qmath.fidelity(rho, np.eye(2) / 2)
        assert f == pytest.approx(np.sqrt(0.5), abs=1e-9)
        assert round(f, 5) == 0.70711

    def test_self_fidelity_of_mixed_state(self):
        rng = np.random.default_rng(7)
        rho = random_density(rng, 8)
        assert qmath.fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)

    @given(seeds)
    @settings(deadline=None, max_examples=40)
    def test_pure_branch_matches_overlap(self, seed):
        rng = np.random.default_rng(seed)
        psi = random_state(rng, 4)
        rho2 = random_density(rng, 4)
        expected = np.sqrt(np.real(psi.conj() @ rho2 @ psi))
        got = qmath.fidelity(qmath.projector(psi), rho2)
        assert got == pytest.approx(expected, abs=1e-9)

    @given(seeds)
    @settings(deadline=None, max_examples=40)
    def test_bounds_and_symmetry_for_commuting_states(self, seed):
        rng = np.random.default_rng(seed)
        rho1 = random_density(rng, 4)
        rho2 = random_density(rng, 4)
        f = qmath.fidelity(rho1, rho2)
        assert -1e-9 <= f <= 1.0 + 1e-9
        # shared eigenbasis: fidelity must be symmetric
        basis = np.linalg.eigh(rho1)[1]
        spec_a = rng.dirichlet(np.ones(4))
        spec_b = rng.dirichlet(np.ones(4))
        a = (basis * spec_a) @ basis.conj().T
        b = (basis * spec_b) @ basis.conj().T
        assert qmath.fidelity(a, b) == pytest.approx(qmath.fidelity(b, a), abs=1e-9)

    def test_general_branch_known_value(self):
        # commuting diagonal states: F = sum sqrt(p_i q_i)
        a = np.diag([0.75, 0.25]).astype(complex)
        b = np.diag([0.5, 0.5]).astype(complex)
        expected = np.sqrt(0.75 * 0.5) + np.sqrt(0.25 * 0.5)
        assert qmath.fidelity(a, b) == pytest.approx(expected, abs=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            qmath.fidelity(np.eye(2) / 2, np.eye(4) / 4)

    def test_not_hermitian(self):
        bad = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
        with pytest.raises(NotHermitian):
            qmath.fidelity(np.eye(2) / 2, bad)

    def test_strongly_nonpositive_first_argument(self):
        bad = np.diag([1.2, -0.2]).astype(complex)
        with pytest.raises(StronglyNonPositive):
            qmath.fidelity(bad, np.eye(2) / 2)

    def test_loosened_tolerance_admits_raw_matrices(self):
        rho = np.eye(2, dtype=complex) / 2
        raw = rho.copy()
        raw[0, 1] = 1e-4  # asymmetric but within a loosened tolerance
        with pytest.raises(NotHermitian):
            qmath.fidelity(rho, raw)
        assert qmath.fidelity(rho, raw, herm_tol=2e-3) == pytest.approx(1.0, abs=1e-3)


class TestPurity:
    def test_pure_state(self):
        assert qmath.purity(qmath.projector(qmath.ket("11"))) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert qmath.purity(np.eye(8) / 8) == pytest.approx(1 / 8, abs=1e-12)

    @given(seeds)
    @settings(deadline=None, max_examples=40)
    def test_range_for_physical_states(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_density(rng, 8)
        p = qmath.purity(rho)
        assert 1 / 8 - 1e-9 <= p <= 1 + 1e-9

    def test_rejects_non_hermitian(self):
        bad = np.array([[0.5, 0.2], [0.0, 0.5]], dtype=complex)
        with pytest.raises(NotHermitian):
            qmath.purity(bad)

    def test_rejects_imaginary_trace_residue(self):
        # asymmetry 8e-7 passes the 1e-6 Hermiticity check, but Im Tr(rho^2) = 1.6e-3
        bad = (1000 + 4e-7j) * np.eye(2)
        with pytest.raises(NotHermitian, match="imaginary residue"):
            qmath.purity(bad)

    def test_loosened_tolerance(self):
        near = np.eye(2, dtype=complex) / 2
        near[0, 1] = 5e-4
        assert qmath.purity(near, herm_tol=2e-3) == pytest.approx(0.5, abs=1e-2)


class TestDeviation:
    def test_zero_for_identical(self):
        rho = np.eye(4, dtype=complex) / 4
        rep = qmath.deviation(rho, rho)
        assert rep.average == 0.0 and rep.maximum == 0.0 and rep.dim == 4

    def test_uses_complex_modulus(self):
        expected = np.zeros((2, 2), dtype=complex)
        actual = np.zeros((2, 2), dtype=complex)
        actual[0, 1] = 3 + 4j
        rep = qmath.deviation(expected, actual)
        assert rep.maximum == pytest.approx(5.0)
        assert rep.average == pytest.approx(5.0 / 4)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            qmath.deviation(np.eye(2), np.eye(4))


class TestMakePhysical:
    def test_valid_input_unchanged(self):
        rng = np.random.default_rng(3)
        rho = random_density(rng, 4)
        out, clipped = qmath.make_physical(rho)
        assert not clipped
        assert np.allclose(out, rho, atol=1e-12)

    def test_clips_negative_eigenvalue(self):
        out, clipped = qmath.make_physical(np.diag([1.2, -0.2]).astype(complex))
        assert clipped
        assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)

    @given(seeds)
    @settings(deadline=None, max_examples=40)
    def test_idempotent_and_physical(self, seed):
        rng = np.random.default_rng(seed)
        raw = random_density(rng, 8)
        noise = rng.normal(scale=0.02, size=(8, 8))
        raw = raw + (noise + noise.T) / 2  # Hermitian perturbation, possibly nonpositive
        once, _ = qmath.make_physical(raw)
        twice, clipped_again = qmath.make_physical(once)
        assert not clipped_again
        assert np.abs(once - twice).max() <= 1e-12
        assert np.isclose(np.trace(once).real, 1.0, atol=1e-12)
        assert np.linalg.eigvalsh(once).min() >= -1e-12

    def test_rejects_non_square(self):
        with pytest.raises(NotSquare):
            qmath.make_physical(np.zeros((2, 3)))

    def test_rejects_gross_asymmetry(self):
        bad = np.eye(2, dtype=complex) / 2
        bad[0, 1] = 0.01
        with pytest.raises(GrosslyNonHermitian):
            qmath.make_physical(bad)

    def test_rejects_negative_definite(self):
        with pytest.raises(StronglyNonPositive):
            qmath.make_physical(-np.eye(4))


class TestPartialTrace:
    def test_product_state(self):
        rho = qmath.projector(np.kron(qmath.ket("1"), qmath.ket("0")))
        reduced = qmath.partial_trace(rho, keep=[0])
        assert np.allclose(reduced, qmath.projector(qmath.ket("1")))

    def test_bell_pair_reduces_to_mixed(self):
        psi = (qmath.ket("00") + qmath.ket("11")) / np.sqrt(2)
        reduced = qmath.partial_trace(qmath.projector(psi), keep=[1])
        assert np.allclose(reduced, np.eye(2) / 2)

    def test_keep_order_is_index_order(self):
        psi = np.kron(qmath.ket("0"), np.kron(qmath.ket("1"), qmath.ket("0")))
        reduced = qmath.partial_trace(qmath.projector(psi), keep=[2, 0])
        assert np.allclose(reduced, qmath.projector(qmath.ket("00")))

    def test_bad_keep(self):
        with pytest.raises(DimensionMismatch):
            qmath.partial_trace(np.eye(4) / 4, keep=[5])

    def test_wrong_qubit_count(self):
        with pytest.raises(DimensionMismatch):
            qmath.partial_trace(np.eye(4) / 4, keep=[0], n_qubits=3)
