from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from belldisc import qmath
from belldisc.errors import (
    BelldiscError,
    DimensionMismatch,
    GrosslyNonHermitian,
    NotHermitian,
    NotSquare,
    StronglyNonPositive,
)
import dense_oracle as oracle
from belldisc.refdata import EMBEDDED_LABELS, HERMITICITY_TOL, ideal_state, load_matrix
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


def _outcome(f, rho1, rho2):
    """The value of ``f``, or the type of the package error it raises."""
    try:
        return f(rho1, rho2)
    except BelldiscError as exc:
        return type(exc)


def _raw_like(rng: np.random.Generator, dim: int, spread: float) -> np.ndarray:
    """A state plus a Hermitian error of the given spread: nonpositive once the spread passes its spectrum."""
    e = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return random_density(rng, dim) + spread * (e + e.conj().T) / 2


class TestFidelityWithoutDiagonalization:
    """A pure rho1 is read without ``eigh``; the oracle diagonalizes every rho1."""

    @given(st.integers(1, 4), seeds, st.floats(0.0, 2 * np.pi), st.floats(0.0, 1.0))
    @settings(deadline=None, max_examples=80)
    def test_pure_rho1_matches_the_oracle(self, n, seed, phase, spread):
        rng = np.random.default_rng(seed)
        rho1 = qmath.projector(np.exp(1j * phase) * random_state(rng, 2 ** n))
        rho2 = _raw_like(rng, 2 ** n, spread)
        assert abs(qmath.fidelity(rho1, rho2) - oracle.fidelity(rho1, rho2)) <= 1e-12

    @pytest.mark.parametrize("label", EMBEDDED_LABELS)
    def test_published_matrices_match_the_oracle(self, label):
        lm = load_matrix(label)
        for token in ("psi_plus_0", "phi_minus_1", lm.ideal):
            rho1 = qmath.projector(ideal_state(token))
            got = qmath.fidelity(rho1, lm.matrix, herm_tol=HERMITICITY_TOL)
            assert abs(got - oracle.fidelity(rho1, lm.matrix, herm_tol=HERMITICITY_TOL)) <= 1e-12

    @given(st.integers(1, 4), seeds, st.floats(0.0, 1.0))
    @settings(deadline=None, max_examples=40)
    def test_near_pure_rho1_matches_the_oracle(self, n, seed, spread):
        rng = np.random.default_rng(seed)
        d = 2 ** n
        rho1 = (1 - 1e-10) * qmath.projector(random_state(rng, d)) + 1e-10 * np.eye(d) / d
        rho2 = _raw_like(rng, d, spread)
        assert abs(qmath.fidelity(rho1, rho2) - oracle.fidelity(rho1, rho2)) <= 1e-12

    @given(st.integers(1, 4), seeds, st.floats(0.0, 1.0), st.floats(0.05, 0.999))
    @settings(deadline=None, max_examples=60)
    def test_mixed_rho1_is_bitwise_the_oracle(self, n, seed, spread, scale):
        rng = np.random.default_rng(seed)
        d = 2 ** n
        rho2 = _raw_like(rng, d, spread)
        # a rank-1 rho1 of trace below 1 is not |psi><psi| either
        for rho1 in (random_density(rng, d, int(rng.integers(2, d + 1))), scale * qmath.projector(random_state(rng, d))):
            assert qmath.fidelity(rho1, rho2) == oracle.fidelity(rho1, rho2)

    @given(st.integers(1, 3), seeds, st.sampled_from(
        ["rho1 asymmetric", "rho2 asymmetric", "rho1 negative", "rho1 negated",
         "rho1 not square", "rho2 not square", "rho1 a vector", "dimensions differ"]))
    @settings(deadline=None, max_examples=80)
    def test_same_errors_as_the_oracle(self, n, seed, defect):
        rng = np.random.default_rng(seed)
        d = 2 ** n
        psi = random_state(rng, d)
        rho1, rho2 = qmath.projector(psi), random_density(rng, d)
        if defect == "rho1 asymmetric":
            rho1[0, -1] += 1e-5 + 1e-5j
        elif defect == "rho2 asymmetric":
            rho2[-1, 0] += 1e-3
        elif defect == "rho1 negative":
            phi = random_state(rng, d)
            phi -= (psi.conj() @ phi) * psi  # orthogonal to psi, so the eigenvalue is -1e-4
            rho1 = (1 + 1e-4) * rho1 - 1e-4 * qmath.projector(phi / np.linalg.norm(phi))
        elif defect == "rho1 negated":
            rho1 = -rho1
        elif defect == "rho1 not square":
            rho1 = np.hstack([rho1, rho1[:, :1]])
        elif defect == "rho2 not square":
            rho2 = rho2[:-1]
        elif defect == "rho1 a vector":
            rho1 = psi
        else:
            rho2 = np.kron(rho2, np.eye(2) / 2)
        expected = _outcome(oracle.fidelity, rho1, rho2)
        assert isinstance(expected, type), defect
        assert _outcome(qmath.fidelity, rho1, rho2) is expected

    def test_pure_rho1_needs_no_diagonalization(self, monkeypatch):
        def eigh(a):
            raise AssertionError("eigh called on a pure rho1")

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        rng = np.random.default_rng(5)
        raw = load_matrix("phi_plus_0.phase").matrix
        for token in ("psi_plus_0", "psi_minus_1", "phi_plus_0", "phi_minus_1"):
            assert 0.0 <= qmath.fidelity(qmath.projector(ideal_state(token)), raw, herm_tol=HERMITICITY_TOL) <= 1.0
        for n in range(1, 5):
            psi = 1j * random_state(rng, 2 ** n)
            assert qmath.fidelity(qmath.projector(psi), qmath.projector(psi)) == pytest.approx(1.0, abs=1e-12)

    def test_zero_rho1_takes_the_diagonalization(self):
        zero = np.zeros((4, 4), dtype=complex)
        assert qmath.fidelity(zero, np.eye(4) / 4) == oracle.fidelity(zero, np.eye(4) / 4) == 0.0


class TestAsymmetry:
    def test_largest_entry_of_m_minus_its_adjoint(self):
        m = np.array([[1, 2 + 1j], [2 - 0.5j, 3j]])
        assert qmath.asymmetry(m) == 6.0  # |3j - conj(3j)|; the off-diagonal pair differs by 0.5

    def test_hermitian_matrix_has_none(self):
        assert qmath.asymmetry(random_density(np.random.default_rng(3), 8)) == 0.0


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

    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(n), st.sets(st.integers(0, n - 1)))), seeds)
    @settings(deadline=None, max_examples=200)
    def test_matches_the_dense_einsum(self, register, seed):
        # any complex matrix, not only a state: the Pauli strings span all matrices
        n, keep = register
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(2 ** n, 2 ** n)) + 1j * rng.normal(size=(2 ** n, 2 ** n))
        got, expected = qmath.partial_trace(m, keep), oracle.partial_trace(m, keep, n)
        assert got.shape == expected.shape == (2 ** len(keep),) * 2 and got.dtype == np.complex128
        assert np.abs(got - expected).max() <= 1e-12 * max(1.0, np.abs(expected).max())

    def test_empty_keep_is_the_trace(self):
        m = np.arange(16).reshape(4, 4) * (1 + 1j)
        assert np.array_equal(qmath.partial_trace(m, ()), np.array([[np.trace(m)]]))


class TestPauliCoefficients:
    @given(st.integers(1, 5), st.booleans(), seeds)
    @settings(deadline=None, max_examples=100)
    def test_round_trip(self, n, complex_, seed):
        rng = np.random.default_rng(seed)
        c = rng.uniform(-1, 1, (4,) * n) + (1j * rng.uniform(-1, 1, (4,) * n) if complex_ else 0)
        assert np.abs(qmath.pauli_from_density(qmath.density_from_pauli(c)) - c).max() <= 1e-15

    @given(st.integers(1, 4), seeds)
    @settings(deadline=None, max_examples=50)
    def test_coefficients_are_traces_against_pauli_strings(self, n, seed):
        rho = random_density(np.random.default_rng(seed), 2 ** n)
        got = qmath.pauli_from_density(rho).reshape(-1)
        expected = [np.trace(qmath.pauli_operator(label) @ rho) for label in oracle.labels(n)]
        assert np.abs(got - expected).max() <= 1e-12


def _contract_reference(t, op, n, k_in):
    """np.einsum of ``t`` with one copy of ``op`` per qubit: label g * n + q is input group g of qubit q."""
    k_out = op.ndim - k_in
    args = [t, list(range(k_in * n))]
    for q in range(n):
        args += [op, [(k_in + g) * n + q for g in range(k_out)] + [g * n + q for g in range(k_in)]]
    return np.einsum(*args, [(k_in + g) * n + q for g in range(k_out) for q in range(n)])


class TestContractQubits:
    @given(
        n=st.integers(1, 4),
        k_in=st.integers(1, 2),
        out_dims=st.lists(st.integers(1, 3), min_size=1, max_size=2),
        in_dims=st.lists(st.integers(1, 3), min_size=2, max_size=2),
        dtypes=st.tuples(*[st.sampled_from([np.int64, np.float64, np.complex128])] * 2),
        seed=seeds,
    )
    @settings(deadline=None, max_examples=200)
    def test_matches_einsum(self, n, k_in, out_dims, in_dims, dtypes, seed):
        rng = np.random.default_rng(seed)

        def draw(shape, dtype):
            values = rng.integers(-9, 10, shape) if dtype is np.int64 else rng.normal(size=shape)
            if dtype is np.complex128:
                values = values + 1j * rng.normal(size=shape)
            return values.astype(dtype)

        in_dims = in_dims[:k_in]
        t = draw(tuple(d for d in in_dims for _ in range(n)), dtypes[0])
        op = draw(tuple(out_dims + in_dims), dtypes[1])
        got, expected = qmath.contract_qubits(t, op, k_in), _contract_reference(t, op, n, k_in)
        assert got.shape == expected.shape and got.dtype == expected.dtype
        if got.dtype == np.int64:
            assert np.array_equal(got, expected)
        else:
            assert np.abs(got - expected).max() <= 1e-12 * max(1.0, np.abs(expected).max())
