import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.spatial.transform import Rotation

from chiralpol.couplings import orientation_averaged_coupling_sq, sample_orientation_coupling
from chiralpol.emitters import Emitter, chiral_tdm_vector, rotate
from chiralpol.fields import CavityMode
from chiralpol.hopfield import discrimination, find_critical_n
from chiralpol.tavis_cummings import dispersion_scan


def make_mode(lam=1, omega=0.1, eta=0.001, z=0.0):
    return CavityMode(handedness=lam, omega_k=omega, eta=eta, k_z=omega / 137.0, z=z)


def rotation_matrix(axis, angle):
    axis = np.asarray(axis, dtype=float)
    return Rotation.from_rotvec(axis / np.linalg.norm(axis) * angle).as_matrix()


angles = st.floats(0.0, 2 * np.pi - 1e-9)
unit_axes = st.tuples(
    st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)
).filter(lambda v: np.linalg.norm(v) > 1e-3)


def unit_rows(rng, count):
    rows = rng.normal(size=(count, 3))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


class TestRotate:
    """The Rodrigues helper against SciPy's quaternion rotations, to 1e-15
    absolute on unit vectors."""

    @staticmethod
    def assert_matches_scipy(rotvecs, vectors):
        expected = Rotation.from_rotvec(rotvecs).apply(vectors)
        assert np.max(np.abs(rotate(rotvecs, vectors) - expected)) <= 1e-15

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_batches(self, seed):
        rng = np.random.default_rng(seed)
        angles = rng.uniform(0.0, 2 * np.pi, (10_000, 1))
        self.assert_matches_scipy(unit_rows(rng, 10_000) * angles, unit_rows(rng, 10_000))
        # one rotation vector turning a batch of vectors, and the reverse
        self.assert_matches_scipy(unit_rows(rng, 1)[0] * 2.5, unit_rows(rng, 100))
        self.assert_matches_scipy(unit_rows(rng, 100) * 2.5, unit_rows(rng, 1)[0])

    def test_zero_rotation_vector_is_the_identity(self):
        vectors = unit_rows(np.random.default_rng(4), 100)
        assert np.array_equal(rotate(np.zeros(3), vectors), vectors)
        assert np.array_equal(rotate(np.zeros((100, 3)), vectors), vectors)
        self.assert_matches_scipy(np.zeros((100, 3)), vectors)

    def test_half_turns(self):
        rng = np.random.default_rng(5)
        self.assert_matches_scipy(unit_rows(rng, 1000) * np.pi, unit_rows(rng, 1000))

    @pytest.mark.parametrize("gap", [1e-6, 1e-9, 1e-12, 0.0])
    def test_angles_near_a_full_turn(self, gap):
        rng = np.random.default_rng(6)
        angle = np.nextafter(2 * np.pi - gap, 0.0)
        vectors = unit_rows(rng, 1000)
        self.assert_matches_scipy(unit_rows(rng, 1000) * angle, vectors)


class TestEmitterValidation:
    def test_complex_mu_rejected(self):
        with pytest.raises(ValueError, match="real"):
            Emitter(omega_m=0.1, mu=np.array([1.0 + 0.2j, 0, 0]))

    def test_complex_xi_scale_rejected(self):
        # as a scalar and as one entry of a batch
        for xi_scale in (1.0 + 0.1j, np.array([0.5, 1.0 + 0.1j, -0.5])):
            with pytest.raises(ValueError, match="reciprocity"):
                Emitter(omega_m=0.1, mu=[1, 0, 0], xi_scale=xi_scale)

    def test_real_xi_scales_accepted(self):
        assert Emitter(omega_m=0.1, mu=[1, 0, 0], xi_scale=1.0 + 0j).xi_scale == 1.0
        batch = Emitter(omega_m=0.1, mu=[1, 0, 0], xi_scale=np.array([0.5, -1.0 + 0j]))
        assert batch.xi_scale.dtype == float
        assert list(batch.xi_scale) == [0.5, -1.0]

    def test_non_orthogonal_rotation_rejected(self):
        bad = np.eye(3)
        bad[0, 0] = 2.0
        with pytest.raises(ValueError, match="orthogonal"):
            Emitter(omega_m=0.1, mu=[1, 0, 0], xi_rotation=bad)

    def test_scaled_column_rejected_with_its_defect(self):
        # U'U = diag(4, 1, 1): the defect is |4 - 1| = 3
        bad = np.eye(3)
        bad[:, 0] *= 2.0
        with pytest.raises(ValueError, match=r"not orthogonal \(defect 3\.000e\+00\)"):
            Emitter(omega_m=0.1, mu=[1, 0, 0], xi_scale=1.0, xi_rotation=bad)

    def test_asymmetric_quadrupole_rejected(self):
        bad = np.zeros((3, 3))
        bad[0, 1] = 1.0
        with pytest.raises(ValueError, match="symmetric"):
            Emitter(omega_m=0.1, mu=[1, 0, 0], quadrupole=bad)

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(ValueError, match="omega_m"):
            Emitter(omega_m=0.0, mu=[1, 0, 0])

    one_xi_calls = {
        "discrimination": lambda e, mode: discrimination(e, mode, 100),
        "find_critical_n": lambda e, mode: find_critical_n(e, mode, [1, 2, 4]),
        "dispersion_scan": lambda e, mode: dispersion_scan(e, mode, [0.0, 1e-4], 100),
        "sample_orientation_coupling": lambda e, mode: sample_orientation_coupling(
            e, mode, 100, seed=1, n_samples=200
        ),
    }

    @pytest.mark.parametrize("name", list(one_xi_calls))
    def test_a_one_xi_function_rejects_a_xi_batch_by_name(self, name):
        # each runs on one entry of the batch
        call = self.one_xi_calls[name]
        call(Emitter(omega_m=0.1, mu=[2, 0, 0], xi_scale=0.5), make_mode())
        batch = Emitter(omega_m=0.1, mu=[2, 0, 0], xi_scale=np.array([0.5, -0.5]))
        with pytest.raises(ValueError, match=rf"^{name} takes one emitter .* shape \(2,\)"):
            call(batch, make_mode())

    def test_collinear_constructor(self):
        e = Emitter.collinear(omega_m=0.1, mu=[0, 0, 2.0], xi=0.5)
        assert e.xi_scale == 0.5
        assert_allclose(e.xi_rotation, np.eye(3))
        assert e.roll_delta == 0.0


class TestChiralTdmVector:
    def test_identity_mapping(self):
        e = Emitter(omega_m=0.1, mu=[0, 0, 1.0], xi_scale=1.0)
        assert_allclose(chiral_tdm_vector(e), [0, 0, 1.0])

    @given(delta=angles)
    def test_roll_about_own_axis_is_invisible_for_collinear(self, delta):
        e = Emitter(omega_m=0.1, mu=[0, 0, 1.0], xi_scale=1.0, roll_delta=delta)
        assert_allclose(chiral_tdm_vector(e), [0, 0, 1.0], atol=1e-14)

    def test_rotation_and_scaling(self):
        e = Emitter(
            omega_m=0.1,
            mu=[1.0, 0, 0],
            xi_scale=2.0,
            xi_rotation=rotation_matrix([0, 0, 1], np.pi / 2),
        )
        assert_allclose(chiral_tdm_vector(e), [0, 2.0, 0], atol=1e-14)

    @given(s=st.floats(-3, 3), axis=unit_axes, angle=angles, delta=angles)
    @settings(max_examples=100)
    def test_norm_preservation(self, s, axis, angle, delta):
        e = Emitter(
            omega_m=0.1,
            mu=[0.3, -1.2, 0.5],
            xi_scale=s,
            xi_rotation=rotation_matrix(axis, angle),
            roll_delta=delta,
        )
        expected = abs(s) * np.linalg.norm(e.mu)
        assert np.linalg.norm(chiral_tdm_vector(e)) == pytest.approx(
            expected, abs=1e-12
        )

    def test_zero_mu_with_roll_rejected(self):
        e = Emitter(omega_m=0.1, mu=[0.0, 0, 0], xi_scale=1.0, roll_delta=0.3)
        with pytest.raises(ValueError, match="axis"):
            chiral_tdm_vector(e)


class TestOrientationAverage:
    def test_ideal_collinear_matched(self):
        # s = 1, U = 1, lambda = +1: bracket = 4 |mu|^2
        e = Emitter.collinear(omega_m=0.1, mu=[2.0, 0, 0], xi=1.0)
        matched = orientation_averaged_coupling_sq(e, make_mode(lam=1), 10)
        decoupled = orientation_averaged_coupling_sq(e, make_mode(lam=-1), 10)
        assert decoupled == pytest.approx(0.0, abs=1e-30)
        # ratio 4 |mu|^2 vs the achiral (1+s^2)|mu|^2 = 2 |mu|^2
        omega_type = Emitter(
            omega_m=0.1,
            mu=[2.0, 0, 0],
            xi_scale=1.0,
            xi_rotation=rotation_matrix([0, 0, 1], np.pi / 2),
        )
        cross = orientation_averaged_coupling_sq(omega_type, make_mode(lam=1), 10)
        assert matched / cross == pytest.approx(2.0, rel=1e-9)

    def test_omega_type_coupling_is_handedness_blind(self):
        # U mu orthogonal to mu: bracket = (1+s^2)|mu|^2 for either handedness
        e = Emitter(
            omega_m=0.1,
            mu=[1.5, 0, 0],
            xi_scale=0.7,
            xi_rotation=rotation_matrix([0, 0, 1], np.pi / 2),
        )
        left = orientation_averaged_coupling_sq(e, make_mode(lam=1), 5)
        right = orientation_averaged_coupling_sq(e, make_mode(lam=-1), 5)
        assert left == pytest.approx(right, rel=1e-13)

    @given(
        s=st.floats(-2, 2),
        angle=angles,
        axis=unit_axes,
        lam=st.sampled_from([1, -1]),
    )
    @settings(max_examples=100)
    def test_bracket_invariant_under_joint_sign_flip(self, s, angle, axis, lam):
        rot = rotation_matrix(axis, angle)
        one = Emitter(omega_m=0.1, mu=[0.4, 0.8, -0.2], xi_scale=s, xi_rotation=rot)
        other = Emitter(
            omega_m=0.1, mu=[0.4, 0.8, -0.2], xi_scale=-s, xi_rotation=rot
        )
        value = orientation_averaged_coupling_sq(one, make_mode(lam=lam), 7)
        flipped = orientation_averaged_coupling_sq(other, make_mode(lam=-lam), 7)
        assert flipped == pytest.approx(value, rel=1e-12, abs=1e-300)

    @given(
        s=st.floats(-2, 2),
        angle=angles,
        axis=unit_axes,
        lam=st.sampled_from([1, -1]),
    )
    @settings(max_examples=100)
    def test_average_never_negative(self, s, angle, axis, lam):
        # Cauchy-Schwarz: |<mu|U mu>| <= |mu|^2, so the bracket >= (1-|s|)^2 >= 0
        e = Emitter(
            omega_m=0.1,
            mu=[0.4, 0.8, -0.2],
            xi_scale=s,
            xi_rotation=rotation_matrix(axis, angle),
        )
        assert orientation_averaged_coupling_sq(e, make_mode(lam=lam), 3) >= -1e-18


class TestMonteCarlo:
    def test_requires_enough_samples(self):
        e = Emitter.collinear(omega_m=0.1, mu=[1, 0, 0], xi=0.0)
        with pytest.raises(ValueError, match="n_samples"):
            sample_orientation_coupling(e, make_mode(), 1, seed=1, n_samples=10)

    def test_seed_reproducibility(self):
        e = Emitter(
            omega_m=0.1,
            mu=[1.0, 0.4, 0],
            xi_scale=0.6,
            xi_rotation=rotation_matrix([1, 1, 0], 0.8),
        )
        first = sample_orientation_coupling(e, make_mode(), 4, seed=7, n_samples=500)
        second = sample_orientation_coupling(e, make_mode(), 4, seed=7, n_samples=500)
        assert first == second  # bit-identical

    def test_achiral_limit(self):
        e = Emitter.collinear(omega_m=0.1, mu=[1.2, 0, 0], xi=0.0)
        estimate = sample_orientation_coupling(
            e, make_mode(), 6, seed=11, n_samples=20_000
        )
        exact = orientation_averaged_coupling_sq(e, make_mode(), 6)
        assert abs(estimate.value - exact) < 3 * estimate.stderr

    def test_decoupled_enantiomer_is_exactly_zero(self):
        # the mismatched enantiomer, and an emitter without a moment
        for e in (
            Emitter.collinear(omega_m=0.1, mu=[1.0, 0, 0], xi=1.0),
            Emitter.collinear(omega_m=0.1, mu=[0.0, 0, 0], xi=1.0),
        ):
            estimate = sample_orientation_coupling(
                e, make_mode(lam=-1), 6, seed=3, n_samples=1_000
            )
            # integrand vanishes pointwise, not just on average
            assert estimate == (0.0, 0.0)
            assert estimate.value == orientation_averaged_coupling_sq(e, make_mode(lam=-1), 6)

    def test_reads_the_roll_of_the_emitter(self):
        # a roll about mu and the same rotation folded into U give one moment
        # (within 1.1e-16), so they must give one estimate
        mu, delta = np.array([1.0, 0.5, 0.2]), 1.1
        omega_type = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        roll = rotate(delta * mu / np.linalg.norm(mu), np.eye(3)).T
        rolled = Emitter(0.1, mu, xi_scale=0.7, xi_rotation=omega_type, roll_delta=delta)
        folded = Emitter(0.1, mu, xi_scale=0.7, xi_rotation=roll @ omega_type)
        estimates = [
            sample_orientation_coupling(e, make_mode(), 10, seed=7, n_samples=1000)
            for e in (rolled, folded)
        ]
        assert estimates[0] == estimates[1]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_closed_form_on_random_parameters(self, seed):
        rng = np.random.default_rng(seed)
        e = Emitter(
            omega_m=0.1,
            mu=rng.normal(size=3),
            xi_scale=rng.uniform(-1.5, 1.5),
            xi_rotation=rotation_matrix(rng.normal(size=3), rng.uniform(0, np.pi)),
            roll_delta=rng.uniform(0, 2 * np.pi),
        )
        lam = 1 if seed % 2 else -1
        mode = make_mode(lam=lam)
        estimate = sample_orientation_coupling(e, mode, 9, seed=seed, n_samples=100_000)
        exact = orientation_averaged_coupling_sq(e, mode, 9)
        assert abs(estimate.value - exact) < 3 * max(estimate.stderr, 1e-30)
