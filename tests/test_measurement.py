import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spacsim import errors, fock, measurement
from spacsim.checks import ORACLE_FIDELITY_TOL, ORACLE_PROB_TOL
from spacsim.fock import CoherentParams, StateVector, inner_product, spacs_state
from spacsim.measurement import (
    SelectionConfig,
    analytic_beta,
    joint_evolution_project,
    joint_unitary_branches,
    joint_unitary_dense,
    naive_postselection_probability,
    postselected_pointer,
    weak_value,
)

from _reference import (
    apply,
    complex_joint_unitary_dense,
    normalize,
    single_selection_oracle,
)

PI = math.pi


def fidelity(a, b) -> float:
    return abs(inner_product(a, b))


def selection_for(w: complex) -> SelectionConfig:
    """Selection whose weak value e^{i delta} tan(phi_pre/2) equals w."""
    return SelectionConfig(2 * math.atan(abs(w)), cmath.phase(w))


def pointer_outcomes(alpha, dim, selections, s) -> list:
    """postselected_pointer's outcomes for one pointer, one per selection."""
    return list(postselected_pointer([(alpha, dim, s, selections)]))


def weak_value_2x2(phi_pre: float, delta: float) -> complex:
    """Independent 2x2 route: <H|sigma_x|psi_i> / <H|psi_i>."""
    psi_i = np.array([math.cos(phi_pre / 2), cmath.exp(1j * delta) * math.sin(phi_pre / 2)])
    sigma_x = np.array([[0, 1], [1, 0]], dtype=complex)
    post = np.array([1.0, 0.0])
    return complex(post @ sigma_x @ psi_i) / complex(post @ psi_i)


# ---------------------------------------------------------------- weak values

def test_weak_value_vanishes_at_phi_zero():
    for delta in (0.0, 0.3, 2.0):
        assert weak_value(SelectionConfig(0.0, delta)) == 0.0


def test_weak_value_unity():
    assert weak_value(SelectionConfig(PI / 2, 0.0)) == pytest.approx(1.0, abs=1e-15)


def test_weak_value_complex_case():
    w = weak_value(SelectionConfig(PI / 3, PI / 4))
    assert w == pytest.approx(weak_value_2x2(PI / 3, PI / 4), abs=1e-14)
    assert w.real == pytest.approx(0.40825, abs=1e-5)
    assert w.imag == pytest.approx(0.40825, abs=1e-5)


@given(
    st.floats(min_value=0.0, max_value=0.99 * PI),
    st.floats(min_value=0.0, max_value=2 * PI, exclude_max=True),
)
def test_weak_value_modulus_and_phase(phi_pre, delta):
    w = weak_value(SelectionConfig(phi_pre, delta))
    assert abs(abs(w) - math.tan(phi_pre / 2)) < 1e-12 * max(1.0, abs(w))
    if abs(w) > 1e-12:
        assert cmath.phase(w) == pytest.approx(
            cmath.phase(cmath.exp(1j * delta)), abs=1e-12
        )


def test_selection_rejects_orthogonal():
    with pytest.raises(errors.UndefinedWeakValueError):
        SelectionConfig(PI, 0.0)


def test_selection_rejects_out_of_range():
    with pytest.raises(errors.InvalidParameterError):
        SelectionConfig(-0.1, 0.0)
    with pytest.raises(errors.InvalidParameterError):
        SelectionConfig(1.5 * PI, 0.0)


def test_selection_caps_phi_pre():
    SelectionConfig(0.999 * PI)
    with pytest.raises(errors.InvalidParameterError, match="0.999"):
        SelectionConfig(0.9999 * PI)


def test_coupling_check_rejects_negative_strength():
    # the one check on s, shared by adaptive_dim, analytic_beta and the builder
    alpha = CoherentParams(1.0)
    for check in (fock.check_coupling, lambda s: fock.adaptive_dim(alpha, s),
                  lambda s: analytic_beta(alpha, 0.5, s),
                  lambda s: pointer_outcomes(alpha, 30, (SelectionConfig(0.0),), s)):
        with pytest.raises(errors.InvalidParameterError,
                           match=r"^coupling strength must be >= 0, got -0\.5$"):
            check(-0.5)
    fock.check_coupling(0.0)


# ---------------------------------------------------- postselection probability

def test_naive_probability_endpoints():
    assert naive_postselection_probability(SelectionConfig(0.0)) == 1.0
    assert naive_postselection_probability(SelectionConfig(PI / 2)) == pytest.approx(0.5, abs=1e-15)


def test_naive_probability_near_orthogonal():
    sel = SelectionConfig(8 * PI / 9)
    psi_i = sel.preselected
    explicit = abs(psi_i[0]) ** 2
    assert naive_postselection_probability(sel) == pytest.approx(explicit, abs=1e-15)
    assert naive_postselection_probability(sel) == pytest.approx(0.030153689607045786, abs=1e-12)


def test_true_probability_reduces_to_naive_at_s_zero():
    sel = SelectionConfig(PI / 3, PI / 4)
    naive = naive_postselection_probability(sel)
    [(_, true)] = pointer_outcomes(CoherentParams(2.0, PI / 9), 60, (sel,), 0.0)
    assert true == pytest.approx(naive, abs=1e-14)


def test_true_probability_frozen_values():
    # frozen from the dense-oracle run at dim 120/160
    alpha = CoherentParams(2.0, PI / 9)
    sel = SelectionConfig(PI / 3, PI / 4)
    [(_, p_half)] = pointer_outcomes(alpha, 90, (sel,), 0.5)
    assert p_half == pytest.approx(0.83423152942618839, abs=1e-9)
    [(_, p_flat)] = pointer_outcomes(alpha, 90, (SelectionConfig(0.0, 0.0),), 1.0)
    assert p_flat == pytest.approx(0.46756600857048475, abs=1e-9)
    assert 0.0 < p_flat <= 1.0


def test_true_probability_matches_oracle():
    alpha = CoherentParams(2.0, PI / 9)
    pointer = spacs_state(alpha, 90)
    sel = SelectionConfig(PI / 3, PI / 4)
    s = 0.1
    [(_, oracle_prob)] = joint_evolution_project(pointer, (sel,), s)
    [(_, prob)] = pointer_outcomes(alpha, 90, (sel,), s)
    assert prob == pytest.approx(oracle_prob, abs=1e-12)


# ---------------------------------------------------------------- final state

def test_final_state_unchanged_at_s_zero():
    alpha = CoherentParams(1.3, 0.4)
    pointer = spacs_state(alpha, 40)
    [(final, _)] = pointer_outcomes(alpha, 40, (selection_for(0.7 + 0.1j),), 0.0)
    np.testing.assert_allclose(final.amplitudes, pointer.amplitudes, atol=1e-14)


def test_final_state_single_branch_at_unit_weak_value():
    dim = 60
    alpha = CoherentParams(1.5)
    pointer = spacs_state(alpha, dim)
    [(final, _)] = pointer_outcomes(alpha, dim, (selection_for(1.0),), 0.8)
    displaced = normalize(apply(fock.displacement_matrix(0.4, dim), pointer))
    assert fidelity(final, displaced) > 1 - 1e-12


def test_final_state_rejects_invalid_dimension():
    for dim in (0, 1):
        with pytest.raises(errors.InvalidDimensionError):
            pointer_outcomes(CoherentParams(1.0), dim, (selection_for(0.0),), 0.1)


def test_final_state_enforces_pointer_tail_check():
    # the same threshold and error as spacs_state(alpha, dim), held in the slot
    # (tail mass 6.5e-5 at r = 2, dim = 16, above fock.TAIL_TOL)
    alpha = CoherentParams(2.0)
    with pytest.raises(errors.TruncationError, match="dim=16"):
        spacs_state(alpha, 16)
    [fault] = pointer_outcomes(alpha, 16, (selection_for(0.5),), 0.1)
    assert isinstance(fault, errors.TruncationError) and "dim=16" in str(fault)
    dim = fock.adaptive_dim(alpha, 0.1)
    spacs_state(alpha, dim)
    [(state, _)] = pointer_outcomes(alpha, dim, (selection_for(0.5),), 0.1)
    assert state.dim == dim


def test_final_state_matches_oracle_reference_point():
    dim = 90
    alpha = CoherentParams(2.0, PI / 9)
    pointer = spacs_state(alpha, dim)
    sel = SelectionConfig(PI / 3, PI / 4)
    s = 0.5
    [(final, _)] = pointer_outcomes(alpha, dim, (sel,), s)
    [(oracle_state, _)] = joint_evolution_project(pointer, (sel,), s)
    assert fidelity(final, oracle_state) > 1 - 1e-9


def test_small_coupling_continuity():
    dim = 50
    alpha = CoherentParams(1.2, 0.3)
    pointer = spacs_state(alpha, dim)
    [(final, _)] = pointer_outcomes(alpha, dim, (selection_for(0.5),), 1e-6)
    assert fidelity(final, pointer) > 1 - 1e-10


def test_final_state_normalized_for_large_weak_values():
    dim = 70
    sel = SelectionConfig(0.99 * PI, 0.6)
    [(final, _)] = pointer_outcomes(CoherentParams(1.0, 0.2), dim, (sel,), 1.5)
    assert abs(np.linalg.norm(final.amplitudes) - 1.0) < 1e-12


@settings(max_examples=30, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=6.0),
    st.floats(min_value=0.0, max_value=2 * PI, exclude_max=True),
    st.floats(min_value=0.0, max_value=3.0),
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=0.999 * PI),
            st.floats(min_value=0.0, max_value=2 * PI, exclude_max=True),
        ),
        min_size=1, max_size=6,
    ),
)
def test_batched_pointer_matches_one_selection_at_a_time(r, theta, s, angles):
    # every selection's slot carries the bytes of its own one-selection call
    alpha = CoherentParams(r, theta)
    dim = fock.adaptive_dim(alpha, s)
    selections = tuple(SelectionConfig(phi_pre, delta) for phi_pre, delta in angles)
    batched = pointer_outcomes(alpha, dim, selections, s)
    assert len(batched) == len(selections)
    for sel, (state, prob) in zip(selections, batched):
        [(ref_state, ref_prob)] = pointer_outcomes(alpha, dim, (sel,), s)
        np.testing.assert_array_equal(state.amplitudes, ref_state.amplitudes)
        assert prob == ref_prob


def test_degenerate_selection_keeps_its_own_slot(monkeypatch):
    # no physical selection cancels the branches; stand-in branches v and -v
    # cancel at w = 0 and give 2v at w = 1
    alpha = CoherentParams(1.0)
    pointer = spacs_state(alpha, 30).amplitudes
    monkeypatch.setattr(fock, "displaced_spacs",
                        lambda *args: (np.array([[pointer], [-pointer]]), [None]))
    kept, cancelled = pointer_outcomes(
        alpha, 30, (SelectionConfig(PI / 2), SelectionConfig(0.0)), 0.1)
    assert isinstance(cancelled, errors.DegeneratePostselectionError)
    state, prob = kept
    np.testing.assert_allclose(state.amplitudes, pointer, atol=1e-15)
    assert prob == pytest.approx(0.5 * 0.25 * 4.0, abs=1e-15)


def test_no_selections_give_no_outcomes():
    assert pointer_outcomes(CoherentParams(1.0), 30, (), 0.1) == []


@pytest.mark.parametrize("budget,batches", [
    (1, [[20], [95], [44], [16], [30]]),
    (2 * 95, [[20, 95], [44, 16, 30]]),
    (1024, [[20, 95, 44, 16, 30]]),
])
def test_mixed_pointer_batch_equals_batches_of_one(monkeypatch, budget, batches):
    # the vacuum, dims 95 then 44 (falling), a pointer truncated at dim 16 with
    # two selections and one with none: each batch within the budget, or one
    # pointer, and every outcome the bytes of its own batch-of-one call
    two = (SelectionConfig(PI / 3, PI / 4), SelectionConfig(0.9 * PI, 1.0))
    pointers = [(CoherentParams(0.0), 20, 0.5, two[:1]), (CoherentParams(4.0, PI / 9), 95, 1.0, two),
                (CoherentParams(2.0, 1.0), 44, 0.5, two), (CoherentParams(4.0), 16, 0.5, two),
                (CoherentParams(1.0), 30, 0.1, ())]
    lone = [pointer_outcomes(alpha, dim, (sel,), s) for alpha, dim, s, sels in pointers
            for sel in sels]
    built, displaced = [], fock.displaced_spacs
    monkeypatch.setattr(measurement, "BATCH_AMPLITUDES", budget)
    monkeypatch.setattr(fock, "displaced_spacs",
                        lambda alphas, shifts, dims: built.append(list(dims)) or displaced(
                            alphas, shifts, dims))
    outcomes = list(postselected_pointer(pointers))
    assert built == batches
    assert all(len(dims) * max(dims) <= budget or len(dims) == 1 for dims in built)
    assert len(outcomes) == len(lone) == 7
    truncated = outcomes[5:]
    assert all(isinstance(out, errors.TruncationError) for out in truncated)
    assert truncated[0] is truncated[1] and "dim=16" in str(truncated[0])
    for out, [ref] in zip(outcomes[:5], lone):
        assert out[0].amplitudes.tobytes() == ref[0].amplitudes.tobytes() and out[1] == ref[1]


def test_branch_superposition_builds_the_branches_once(monkeypatch):
    # three selections of one pointer: one build, three superpositions of it
    builds, superposed = [], []
    displaced, superpose = fock.displaced_spacs, measurement.branch_superposition
    monkeypatch.setattr(fock, "displaced_spacs", lambda *a: builds.append(a) or displaced(*a))
    monkeypatch.setattr(measurement, "branch_superposition",
                        lambda *a: superposed.append(a) or superpose(*a))
    selections = (SelectionConfig(0.0), SelectionConfig(PI / 2), SelectionConfig(0.9, PI / 2))
    outcomes = pointer_outcomes(CoherentParams(1.0), 40, selections, 0.5)
    assert len(outcomes) == 3 and len(builds) == 1 and len(superposed) == 3


# ---------------------------------------------------------------- beta

def test_beta_at_zero_coupling_zero_weak_value():
    assert analytic_beta(CoherentParams(1.3, 0.2), 0.0, 0.0) == pytest.approx(0.5, abs=1e-15)


def test_beta_vanishing_cross_term():
    # w = 1 kills the (1 - w) branch and the closed form collapses
    for alpha in (CoherentParams(0.7, 0.1), CoherentParams(2.5, 2.0)):
        expected = 1.0 / math.sqrt(2.0 * (1.0 + 1.0))
        assert analytic_beta(alpha, 1.0, 1.1) == pytest.approx(expected, abs=1e-15)


def test_beta_matches_numeric_norm_reference_point():
    alpha = CoherentParams(2.0, PI / 9)
    dim = 90
    w = weak_value(SelectionConfig(PI / 3, PI / 4))
    (plus, minus), _ = fock.displaced_spacs([alpha], [(0.25, -0.25)], [dim])
    numeric = 1.0 / np.linalg.norm((1.0 + w) * plus[0] + (1.0 - w) * minus[0])
    assert analytic_beta(alpha, w, 0.5) == pytest.approx(numeric, abs=1e-8)


@given(
    st.floats(min_value=0.0, max_value=3.0),
    st.floats(min_value=0.0, max_value=2 * PI, exclude_max=True),
    st.floats(min_value=0.0, max_value=0.9 * PI),
    st.floats(min_value=0.0, max_value=2 * PI, exclude_max=True),
    st.floats(min_value=0.0, max_value=2.0),
)
def test_beta_positive_and_finite(r, theta, phi_pre, delta, s):
    # branches may interfere destructively, so beta can exceed 1; it is
    # a reciprocal norm and must only stay positive and finite
    beta = analytic_beta(CoherentParams(r, theta), weak_value(SelectionConfig(phi_pre, delta)), s)
    assert beta > 0.0
    assert math.isfinite(beta)


# ---------------------------------------------------------------- oracle

def test_oracle_identity_at_s_zero():
    pointer = spacs_state(CoherentParams(1.1, 0.5), 40)
    sel = SelectionConfig(PI / 3, PI / 5)
    [(state, prob)] = joint_evolution_project(pointer, (sel,), 0.0)
    assert prob == pytest.approx(naive_postselection_probability(sel), abs=1e-12)
    assert fidelity(state, pointer) > 1 - 1e-12


@pytest.mark.parametrize("s", [0.1, 1.0, 2.0])
def test_two_branch_decomposition_identity(s):
    # the dense exponential of the coupling equals the displaced-branch form
    dim = 40
    dense = joint_unitary_dense(dim, s)
    branches = joint_unitary_branches(dim, s)
    half = dim // 2
    pointer_part = np.arange(2 * dim) % dim
    mask = (pointer_part[:, None] < half) & (pointer_part[None, :] < half)
    assert np.max(np.abs((dense - branches)[mask])) < 1e-8


@pytest.mark.parametrize("dim", [10, 40, 2, 80])
@pytest.mark.parametrize("s", [0.1, 1.0, 2.0, 5.0])
def test_real_dense_exponential_matches_complex_reference(dim, s):
    real = joint_unitary_dense(dim, s)
    assert real.dtype == np.complex128
    assert np.max(np.abs(real - complex_joint_unitary_dense(dim, s))) <= 1e-13


@settings(max_examples=20, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=28.0),
    st.floats(min_value=0.0, max_value=2 * PI, exclude_max=True),
    st.floats(min_value=0.0, max_value=3.0),
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=0.9 * PI),
            st.floats(min_value=0.0, max_value=2 * PI, exclude_max=True),
        ),
        min_size=1, max_size=6,
    ),
)
@example(r=28.0, theta=0.0, s=3.0, angles=[(PI / 3, 0.0), (0.9 * PI, PI / 4)])  # dim 1291
def test_batched_oracle_matches_single_selection_reference(r, theta, s, angles):
    # one two-column evolution per pointer against one evolution per selection
    alpha = CoherentParams(r, theta)
    pointer = spacs_state(alpha, fock.adaptive_dim(alpha, s))
    selections = tuple(SelectionConfig(phi_pre, delta) for phi_pre, delta in angles)
    batched = joint_evolution_project(pointer, selections, s)
    assert len(batched) == len(selections)
    for sel, (state, prob) in zip(selections, batched):
        ref_state, ref_prob = single_selection_oracle(pointer, sel, s)
        assert np.max(np.abs(state.amplitudes - ref_state.amplitudes)) <= 1e-13
        assert abs(prob - ref_prob) <= 1e-13


@settings(max_examples=10, deadline=None)
@given(
    st.integers(min_value=2, max_value=1291),
    st.floats(min_value=0.0, max_value=5.0),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=0.0, max_value=0.9 * PI),
    st.floats(min_value=0.0, max_value=2 * PI, exclude_max=True),
)
@example(dim=1291, s=5.0, seed=0, phi_pre=PI / 3, delta=PI / 4)
@example(dim=2, s=5.0, seed=1, phi_pre=0.0, delta=0.0)
def test_taylor_oracle_matches_scipy_reference_on_any_pointer(dim, s, seed, phi_pre, delta):
    # the numpy propagator against scipy's expm_multiply, on pointers that fill the basis
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    pointer = StateVector(amps / np.linalg.norm(amps))
    sel = SelectionConfig(phi_pre, delta)
    [(state, prob)] = joint_evolution_project(pointer, (sel,), s)
    ref_state, ref_prob = single_selection_oracle(pointer, sel, s)
    assert np.max(np.abs(state.amplitudes - ref_state.amplitudes)) <= 1e-13
    assert abs(prob - ref_prob) <= 1e-13


def test_batched_oracle_rejects_degenerate_selection():
    # the phi_pre cap keeps every valid <H|psi_i> above 1.5e-3, so a
    # preselection of |V> stands in for a vanishing probability; the guard
    # runs per selection, after the shared evolution
    pointer = spacs_state(CoherentParams(1.0), 30)

    class Orthogonal(SelectionConfig):
        @property
        def preselected(self):
            return np.array([0.0, 1.0], dtype=np.complex128)

    with pytest.raises(errors.DegeneratePostselectionError):
        joint_evolution_project(pointer, (SelectionConfig(PI / 3), Orthogonal(0.0)), 0.0)


@settings(max_examples=20, deadline=None)
@given(
    st.floats(min_value=16.0, max_value=28.0),
    st.floats(min_value=0.0, max_value=2 * PI, exclude_max=True),
    st.floats(min_value=0.0, max_value=3.0),
    st.floats(min_value=0.0, max_value=0.9 * PI),
    st.floats(min_value=0.0, max_value=2 * PI, exclude_max=True),
)
@example(r=28.0, theta=0.0, s=3.0, phi_pre=PI / 3, delta=0.0)  # dim 1291
def test_oracle_agreement_high_dimension(r, theta, s, phi_pre, delta):
    # where the main path's truncation is hardest; dims up to 1291
    alpha = CoherentParams(r, theta)
    dim = fock.adaptive_dim(alpha, s)
    sel = SelectionConfig(phi_pre, delta)
    [(final, prob)] = pointer_outcomes(alpha, dim, (sel,), s)
    [(oracle_state, oracle_prob)] = joint_evolution_project(spacs_state(alpha, dim), (sel,), s)
    assert 1.0 - fidelity(final, oracle_state) <= ORACLE_FIDELITY_TOL
    assert abs(prob - oracle_prob) <= ORACLE_PROB_TOL


def test_oracle_leaves_global_rng_untouched():
    # the Taylor propagator draws no random numbers; at dim 1291 and s = 3
    # the norm estimate inside scipy's expm_multiply would
    alpha = CoherentParams(28.0)
    pointer = spacs_state(alpha, fock.adaptive_dim(alpha, 3.0))
    before = np.random.get_state()
    joint_evolution_project(pointer, (SelectionConfig(PI / 3),), 3.0)
    after = np.random.get_state()
    assert pointer.dim == 1291
    assert before[0] == after[0] and before[2:] == after[2:]
    np.testing.assert_array_equal(before[1], after[1])


def test_oracle_agreement_small_grid():
    # spot grid here; the full 162-point grid runs in the acceptance suite
    for r, theta, delta, phi_pre, s in [
        (0.5, 0.0, 0.0, PI / 9, 0.1),
        (2.0, PI / 9, PI / 4, PI / 3, 1.0),
        (4.0, PI / 2, PI / 4, 2 * PI / 3, 2.0),
    ]:
        alpha = CoherentParams(r, theta)
        dim = fock.adaptive_dim(alpha, s)
        pointer = spacs_state(alpha, dim)
        sel = SelectionConfig(phi_pre, delta)
        [(final, prob)] = pointer_outcomes(alpha, dim, (sel,), s)
        [(oracle_state, oracle_prob)] = joint_evolution_project(pointer, (sel,), s)
        assert fidelity(final, oracle_state) > 1 - 1e-9
        assert prob == pytest.approx(oracle_prob, abs=1e-9)
