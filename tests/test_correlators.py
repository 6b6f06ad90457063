"""Second moments, intensity correlators, and beat-line decomposition.

The strongest checks here are dual-route: the same physical quantity is
computed through two independent code paths (closed-form moments vs
truncated Fock-space evolution; per-time correlator vs clustered line
powers) and the two must agree to numerical precision.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bilodyne.config import RunConfig
from bilodyne.correlators import (
    MomentTable,
    collect_beats,
    excess_lines,
    fluctuation_flux,
    hypothesis_moments,
    mode_field_index,
    mode_phasors,
    require_strong_lo,
    tone_phasors,
)
from bilodyne.errors import InvalidSpec, UnknownMode, Unsupported, WeakLO
from bilodyne.model import (
    MAX_PHOTON_FLUX,
    MAX_SQUEEZE_R,
    FieldMode,
    FieldState,
    Hypothesis,
    LocalOscillator,
    ModeLabel,
    SqueezePair,
)
from tests.conftest import (
    LO_FLUX,
    OMEGA_HET,
    OMEGA_S,
    coherent_state,
    mono_lo,
    squeezed_state,
    standard_lo,
)
from tests.reference import (
    TruncationInsufficient,
    fock_oracle_moments,
    lambda_ij,
    second_moments,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def line_power_closed_form(r: float, theta: float) -> float:
    """One-sided beat-line power per unit LO flux for a pumped pair.

    theta is the phase mismatch between the squeeze angle and twice the
    beat phase reference.  At theta = 0 this reduces to (e^{2r} - 1) / 2
    and at theta = pi to (e^{-2r} - 1) / 2, a dip below the floor.
    """
    s2 = math.sinh(r) ** 2
    cs = math.cosh(r) * math.sinh(r)
    return s2 + cs * math.cos(theta)


def mean_field(state, t) -> np.ndarray | complex:
    """Mean positive-frequency field (i/sqrt 2) sum_k alpha_k e^{-i w_k t + i theta_s}.

    Written out from the modes, in the frame rotating at the carrier: the
    reference that mode_phasors is checked against.
    """
    t_arr = np.asarray(t, dtype=float)
    out = sum(
        1j / math.sqrt(2.0) * m.amplitude * np.exp(1j * (state.theta_s - m.frequency * t_arr))
        for m in state.modes
    )
    return out if out.shape else complex(out)


def lo_field(lo, t) -> np.ndarray | complex:
    """Positive-frequency LO field in the frame rotating at the carrier, written out from the LO.

    E_l e^{i (theta_1 - omega_1 t)} for one tone; two tones share E_l as
    E_l / sqrt(2) each: the reference that tone_phasors is checked against.
    """
    t_arr = np.asarray(t, dtype=float)
    if not lo.is_bichromatic:
        out = lo.amplitude * np.exp(1j * (lo.theta_1 - lo.omega_1 * t_arr))
    else:
        out = lo.amplitude / math.sqrt(2.0) * (
            np.exp(1j * (lo.theta_1 - lo.omega_1 * t_arr))
            + np.exp(1j * (lo.theta_2 - lo.omega_2 * t_arr))
        )
    return out if out.shape else complex(out)


class TestMomentTable:
    def test_rejects_non_hermitian_normal(self):
        freqs = (OMEGA_S, OMEGA_S + OMEGA_HET)
        normal = np.array([[0.1, 0.2], [0.3, 0.1]], dtype=complex)
        with pytest.raises(InvalidSpec):
            MomentTable(freqs, normal, np.zeros((2, 2), dtype=complex))

    def test_rejects_asymmetric_anomalous(self):
        freqs = (OMEGA_S, OMEGA_S + OMEGA_HET)
        anomalous = np.array([[0.0, 0.2], [0.1, 0.0]], dtype=complex)
        with pytest.raises(InvalidSpec):
            MomentTable(freqs, np.zeros((2, 2), dtype=complex), anomalous)

    def test_rejects_uncertainty_violation(self):
        # |<d_a d_b>| may not exceed sqrt(g(N_a) g(N_b)) with
        # g(N) = sqrt(N (N + 1)); a pure pair saturates the bound, so
        # inflating the anomalous entry by 1% must fail.
        r = 0.4
        s2 = math.sinh(r) ** 2
        cs = math.cosh(r) * math.sinh(r)
        freqs = (OMEGA_S + OMEGA_HET, OMEGA_S - OMEGA_HET)
        normal = np.diag([s2, s2]).astype(complex)
        anomalous = np.array([[0.0, 1.01 * cs], [1.01 * cs, 0.0]], dtype=complex)
        with pytest.raises(InvalidSpec):
            MomentTable(freqs, normal, anomalous)

    def test_saturated_bound_accepted(self):
        r = 0.4
        s2 = math.sinh(r) ** 2
        cs = math.cosh(r) * math.sinh(r)
        freqs = (OMEGA_S + OMEGA_HET, OMEGA_S - OMEGA_HET)
        normal = np.diag([s2, s2]).astype(complex)
        anomalous = np.array([[0.0, cs], [cs, 0.0]], dtype=complex)
        table = MomentTable(freqs, normal, anomalous)
        assert not table.is_zero()


class TestSecondMoments:
    def test_coherent_state_has_no_fluctuation_moments(self):
        table = second_moments(coherent_state())
        assert table.is_zero()
        assert fluctuation_flux(table) == 0.0

    def test_squeezed_pair_populations_and_anomalous(self):
        r, phi = 0.5, 0.3
        state = squeezed_state(Hypothesis.ONE_FIELD, r=r, phi=phi)
        table = second_moments(state)
        s2 = math.sinh(r) ** 2
        expected_anom = math.cosh(r) * math.sinh(r) * np.exp(1j * phi)
        # mode 0 is the coherent carrier, modes 1 and 2 the pumped pair
        assert table.normal[0, 0] == 0.0
        assert table.normal[1, 1] == pytest.approx(s2, rel=1e-12)
        assert table.normal[2, 2] == pytest.approx(s2, rel=1e-12)
        assert table.anomalous[1, 2] == pytest.approx(expected_anom, rel=1e-12)
        assert table.anomalous[2, 1] == pytest.approx(expected_anom, rel=1e-12)
        assert fluctuation_flux(table) == pytest.approx(s2, rel=1e-12)

    def test_largest_squeeze_raises_no_runtime_warning(self):
        # at MAX_SQUEEZE_R the populations are ~MAX_PHOTON_FLUX, far from overflow
        state = squeezed_state(Hypothesis.ONE_FIELD, r=MAX_SQUEEZE_R)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            table = second_moments(state)
        assert fluctuation_flux(table) == pytest.approx(MAX_PHOTON_FLUX, rel=1e-9)

    def test_pair_referencing_missing_mode_raises(self):
        # Pair frequencies are only resolved against the mode list when
        # moments are requested, so the build succeeds and the lookup fails.
        modes = [FieldMode(frequency=OMEGA_S, amplitude=1.0)]
        squeeze = (SqueezePair(OMEGA_S + OMEGA_HET, OMEGA_S - OMEGA_HET, 0.3, 0.0),)
        state = FieldState(modes, squeeze=squeeze)
        with pytest.raises(UnknownMode):
            second_moments(state)


class TestFockOracle:
    def test_matches_closed_form_moments(self):
        r, phi = 0.3, 0.7
        oracle = fock_oracle_moments(r, phi, n_trunc=40)
        s2 = math.sinh(r) ** 2
        anom = math.cosh(r) * math.sinh(r) * np.exp(1j * phi)
        assert oracle["n_a"] == pytest.approx(s2, abs=1e-12)
        assert oracle["n_b"] == pytest.approx(s2, abs=1e-12)
        assert oracle["anomalous_ab"] == pytest.approx(anom, abs=1e-12)

    def test_vanishing_moments(self):
        oracle = fock_oracle_moments(0.4, 0.0, n_trunc=40)
        assert abs(oracle["mean_a"]) < 1e-12
        assert abs(oracle["mean_b"]) < 1e-12
        assert abs(oracle["cross_normal"]) < 1e-12
        assert abs(oracle["anomalous_aa"]) < 1e-12
        assert abs(oracle["anomalous_bb"]) < 1e-12

    def test_truncation_guard(self):
        with pytest.raises(TruncationInsufficient):
            fock_oracle_moments(1.0, 0.0, n_trunc=10)

    def test_zero_squeezing_is_vacuum(self):
        oracle = fock_oracle_moments(0.0, 0.0, n_trunc=4)
        assert oracle["n_a"] == pytest.approx(0.0, abs=1e-14)
        assert abs(oracle["anomalous_ab"]) < 1e-14


class TestHypothesisMoments:
    def test_one_field_keeps_cross_entries(self):
        state = squeezed_state(Hypothesis.ONE_FIELD)
        table = hypothesis_moments(state)
        assert abs(table.anomalous[1, 2]) > 0.0

    def test_three_fields_zeroes_cross_field_entries(self):
        state = squeezed_state(Hypothesis.THREE_FIELDS)
        table = hypothesis_moments(state)
        # populations are per-mode and survive; the anomalous entry ties
        # modes in different field groups and is removed
        assert table.normal[1, 1] == pytest.approx(math.sinh(0.5) ** 2, rel=1e-12)
        assert table.anomalous[1, 2] == 0.0
        assert table.anomalous[2, 1] == 0.0

    def test_sideband_pair_survives_three_fields(self):
        # a pair inside the signal field group is untouched by the split
        state = squeezed_state(
            Hypothesis.THREE_FIELDS,
            offset=OMEGA_HET,
            labels=(ModeLabel.SIDEBAND, ModeLabel.SIDEBAND),
        )
        table = hypothesis_moments(state)
        assert abs(table.anomalous[1, 2]) > 0.0

    def test_three_fields_keeps_second_moments_within_each_group(self):
        # the one table THREE_FIELDS builds is the prepared state's, with
        # exactly the entries between different field groups set to zero
        for labels in (
            (ModeLabel.IMAGE1, ModeLabel.IMAGE2),
            (ModeLabel.SIDEBAND, ModeLabel.IMAGE2),
            (ModeLabel.SIDEBAND, ModeLabel.SIDEBAND),
        ):
            state = squeezed_state(Hypothesis.THREE_FIELDS, labels=labels)
            full = second_moments(state)
            table = hypothesis_moments(state)
            groups = np.array([mode_field_index(m.label) for m in state.modes])
            same = groups[:, None] == groups[None, :]
            assert table.frequencies == full.frequencies
            assert np.array_equal(table.normal, np.where(same, full.normal, 0.0))
            assert np.array_equal(table.anomalous, np.where(same, full.anomalous, 0.0))

    def test_coherent_tables_identical_under_both_hypotheses(self):
        for averaged in (False, True):
            s1 = coherent_state(averaged=averaged)
            s3 = FieldState(
                list(s1.modes),
                hypothesis=Hypothesis.THREE_FIELDS,
                theta_s=s1.theta_s,
            )
            t1 = hypothesis_moments(s1)
            t3 = hypothesis_moments(s3)
            assert np.array_equal(t1.normal, t3.normal)
            assert np.array_equal(t1.anomalous, t3.anomalous)


class TestMeanFields:
    def test_mean_field_convention_at_origin(self):
        alpha = math.sqrt(2.0 * 1e3)
        theta_s = 0.4
        state = coherent_state(theta_s=theta_s)
        value = mean_field(state, 0.0)
        expected = 1j / math.sqrt(2.0) * alpha * np.exp(1j * theta_s)
        assert value == pytest.approx(expected, rel=1e-12)

    def test_phase_averaged_state_has_no_mean_field(self):
        with pytest.raises(Unsupported, match="fixed signal phase"):
            mode_phasors(coherent_state(averaged=True))

    def test_lo_field_convention_at_origin(self):
        lo = standard_lo(theta_1=0.2, theta_2=-0.2)
        value = lo_field(lo, 0.0)
        per_tone = math.sqrt(LO_FLUX / 2.0)
        expected = per_tone * (np.exp(0.2j) + np.exp(-0.2j))
        assert value == pytest.approx(expected, rel=1e-12)


class TestStrongLoGuard:
    def test_ratio_at_threshold_passes(self):
        state = coherent_state(flux=1e3)
        lo = standard_lo(flux=1e5)
        require_strong_lo(state, lo, second_moments(state))

    def test_below_threshold_raises(self):
        state = coherent_state(flux=1e3)
        lo = standard_lo(flux=0.9e5)
        with pytest.raises(WeakLO):
            require_strong_lo(state, lo, second_moments(state))

    def test_fluctuation_flux_counts(self):
        # populations alone can push the state over the weak-LO limit:
        # sinh^2(6) of roughly 4.1e4 needs an LO flux above 4.1e6
        state = squeezed_state(Hypothesis.ONE_FIELD, r=6.0, flux=0.0)
        lo = standard_lo(flux=LO_FLUX)
        with pytest.raises(WeakLO):
            lambda_ij(state, lo, 1, 1, 0.0, 0.0)

    def test_weak_lo_refused_before_the_coherent_shortcut(self):
        # both fluctuation routes check the LO before returning their
        # zero result for a state without fluctuations
        state = coherent_state(flux=1e3)
        lo = standard_lo(flux=0.9e5)
        with pytest.raises(WeakLO):
            lambda_ij(state, lo, 1, 2, 0.0, 0.0)
        with pytest.raises(WeakLO):
            excess_lines(state, lo)


class TestLambda:
    def test_zero_for_coherent_input(self):
        state = coherent_state(theta_s=0.3)
        lo = standard_lo()
        rng = np.random.default_rng(3)
        for _ in range(20):
            t = rng.uniform(0.0, 1e-4)
            iota = rng.uniform(-1e-4, 1e-4)
            for i in (1, 2):
                for j in (1, 2):
                    assert lambda_ij(state, lo, i, j, t, iota) == 0.0

    def test_detector_sign_structure(self):
        state = squeezed_state(Hypothesis.ONE_FIELD)
        lo = standard_lo()
        rng = np.random.default_rng(4)
        for _ in range(10):
            t = rng.uniform(0.0, 1e-4)
            iota = rng.uniform(-1e-4, 1e-4)
            l11 = lambda_ij(state, lo, 1, 1, t, iota)
            assert lambda_ij(state, lo, 2, 2, t, iota) == pytest.approx(l11, rel=1e-12)
            assert lambda_ij(state, lo, 1, 2, t, iota) == pytest.approx(-l11, rel=1e-12)
            assert lambda_ij(state, lo, 2, 1, t, iota) == pytest.approx(-l11, rel=1e-12)

    def test_invalid_detector_index(self):
        state = squeezed_state(Hypothesis.ONE_FIELD)
        with pytest.raises(InvalidSpec):
            lambda_ij(state, standard_lo(), 0, 1, 0.0, 0.0)

    def test_periodic_in_global_time(self):
        state = squeezed_state(Hypothesis.ONE_FIELD)
        lo = standard_lo()
        period = 2.0 * math.pi / lo.omega_het
        scale = LO_FLUX * math.cosh(0.5) * math.sinh(0.5)
        rng = np.random.default_rng(5)
        for _ in range(10):
            t = rng.uniform(0.0, period)
            iota = rng.uniform(0.0, period)
            a = lambda_ij(state, lo, 1, 1, t, iota)
            b = lambda_ij(state, lo, 1, 1, t + period, iota)
            assert abs(a - b) < 1e-4 * scale

    def test_phase_averaging_removes_squeeze_angle_dependence(self):
        fixed = squeezed_state(Hypothesis.ONE_FIELD, theta_s=0.0)
        averaged = squeezed_state(Hypothesis.ONE_FIELD, averaged=True)
        lo = standard_lo()
        t, iota = 1.3e-5, 0.7e-5
        assert lambda_ij(fixed, lo, 1, 1, t, iota) != pytest.approx(
            lambda_ij(averaged, lo, 1, 1, t, iota), rel=1e-6
        )


class TestExcessLines:
    def test_one_field_line_powers(self):
        r = 0.5
        for theta_s, phi in [(0.0, 0.0), (0.3, 0.0), (0.0, 0.9), (0.7, -0.4)]:
            state = squeezed_state(Hypothesis.ONE_FIELD, r=r, phi=phi, theta_s=theta_s)
            lo = standard_lo()
            lines = dict(excess_lines(state, lo))
            assert len(lines) == 2
            expected = LO_FLUX * line_power_closed_form(r, -2.0 * theta_s - phi)
            freqs = sorted(lines)
            assert freqs[0] == pytest.approx(OMEGA_HET, rel=1e-6)
            assert freqs[1] == pytest.approx(3.0 * OMEGA_HET, rel=1e-6)
            for nu in freqs:
                assert lines[nu] == pytest.approx(expected, rel=1e-12)

    def test_matched_phase_frozen_value(self):
        # (e^{2r} - 1) / 2 at r = 0.5 with unit-free LO flux 1e6
        state = squeezed_state(Hypothesis.ONE_FIELD, r=0.5)
        lines = dict(excess_lines(state, standard_lo()))
        for power in lines.values():
            assert power == pytest.approx(859140.9142295225, rel=1e-12)
            assert power == pytest.approx(LO_FLUX * (math.e - 1.0) / 2.0, rel=1e-12)

    def test_antimatched_phase_is_a_dip(self):
        state = squeezed_state(Hypothesis.ONE_FIELD, r=0.5, theta_s=math.pi / 2.0)
        lines = dict(excess_lines(state, standard_lo()))
        expected = LO_FLUX * (math.exp(-1.0) - 1.0) / 2.0
        for power in lines.values():
            assert power == pytest.approx(expected, rel=1e-12)
            assert power < 0.0

    def test_three_fields_lines_are_phase_blind(self):
        r = 0.5
        state = squeezed_state(Hypothesis.THREE_FIELDS, r=r, theta_s=0.4, phi=1.1)
        lines = dict(excess_lines(state, standard_lo()))
        expected = LO_FLUX * math.sinh(r) ** 2
        assert len(lines) == 2
        for power in lines.values():
            assert power == pytest.approx(expected, rel=1e-12)
        assert min(lines.values()) == pytest.approx(271540.3174076218, rel=1e-12)

    def test_phase_averaging_strips_anomalous_lines(self):
        r = 0.5
        state = squeezed_state(Hypothesis.ONE_FIELD, r=r, averaged=True)
        lines = dict(excess_lines(state, standard_lo()))
        expected = LO_FLUX * math.sinh(r) ** 2
        for power in lines.values():
            assert power == pytest.approx(expected, rel=1e-12)

    def test_homodyne_sideband_pair(self):
        r, phi, theta_l, theta_s = 0.5, 0.2, 0.15, 0.05
        state = squeezed_state(
            Hypothesis.ONE_FIELD,
            r=r,
            phi=phi,
            theta_s=theta_s,
            offset=OMEGA_HET,
            labels=(ModeLabel.SIDEBAND, ModeLabel.SIDEBAND),
        )
        lo = mono_lo(theta=theta_l)
        lines = dict(excess_lines(state, lo))
        assert len(lines) == 1
        (nu, power), = lines.items()
        assert nu == pytest.approx(OMEGA_HET, rel=1e-6)
        expected = 2.0 * LO_FLUX * line_power_closed_form(
            r, 2.0 * theta_l - 2.0 * theta_s - phi
        )
        assert power == pytest.approx(expected, rel=1e-12)

    def test_coherent_input_has_no_lines(self):
        assert excess_lines(coherent_state(), standard_lo()) == []

    def test_weak_lo_guard_and_override(self):
        state = squeezed_state(Hypothesis.ONE_FIELD, flux=1e5)
        lo = standard_lo(flux=1e6)
        with pytest.raises(WeakLO):
            excess_lines(state, lo)

    def test_reconstructs_time_domain_correlator(self):
        """Dual route: clustered line powers must rebuild the correlator.

        The period-averaged sum over detector sign products,
        4 lambda_11(t, iota) averaged over one beat period in t, equals
        sum_nu P(nu) cos(nu iota) over the extracted lines.  The two
        sides come from unrelated code paths.
        """
        state = squeezed_state(Hypothesis.ONE_FIELD, r=0.5, phi=0.6, theta_s=0.2)
        lo = standard_lo()
        lines = excess_lines(state, lo)
        period = 2.0 * math.pi / lo.omega_het
        t_grid = np.arange(48) / 48.0 * period
        scale = max(abs(p) for _, p in lines)
        rng = np.random.default_rng(11)
        for iota in rng.uniform(0.0, 3.0 * period, 40):
            avg = np.mean(
                [4.0 * lambda_ij(state, lo, 1, 1, t, iota) for t in t_grid]
            )
            rebuilt = sum(p * math.cos(nu * iota) for nu, p in lines)
            assert abs(avg - rebuilt) < 1e-3 * scale

    # excess_lines of configs/squeezed.cfg (one-field, theta_s = 0), powers
    # as the earlier sort-cluster-fold code gave them, at exactly the offset
    # differences 2 pi f_het and 2 pi (squeeze.offset_hz + f_het):
    # (hypothesis, phase averaged) -> [(angular frequency, power)]
    MATCHED = [(OMEGA_HET, 859140.9142295223), (3 * OMEGA_HET, 859140.9142295223)]
    POPULATION = [(OMEGA_HET, 271540.3174076218), (3 * OMEGA_HET, 271540.3174076218)]

    @pytest.mark.parametrize(
        "hypothesis, averaged, expected",
        [
            (Hypothesis.ONE_FIELD, False, MATCHED),
            (Hypothesis.ONE_FIELD, True, POPULATION),
            (Hypothesis.THREE_FIELDS, False, POPULATION),
            (Hypothesis.THREE_FIELDS, True, POPULATION),
        ],
        ids=["one-field-fixed", "one-field-averaged", "three-fields-fixed", "three-fields-averaged"],
    )
    def test_squeezed_cfg_lines_are_frozen(self, hypothesis, averaged, expected):
        scene = RunConfig.load(CONFIGS / "squeezed.cfg").build_scene()
        theta_s = None if averaged else scene.state.theta_s
        state = dataclasses.replace(scene.state, hypothesis=hypothesis, theta_s=theta_s)
        lines = excess_lines(state, scene.lo)
        assert [nu for nu, _ in lines] == [nu for nu, _ in expected]
        for (_, power), (_, want) in zip(lines, expected):
            assert abs(power - want) <= 1e-12 * abs(want)


class TestCollectBeats:
    # integer offsets, so that differences collide, go negative and hit zero
    PHASORS = st.lists(
        st.tuples(
            st.integers(-6, 6),
            st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
        ),
        min_size=1,
        max_size=6,
    )

    @settings(max_examples=200, deadline=None)
    @given(a=PHASORS, b=PHASORS, t=st.floats(-20.0, 20.0))
    @example(a=[(0, 2j)], b=[(1, 2.2250738585e-313 + 0j)], t=1.0)
    def test_rebuilds_the_real_part_of_a_product(self, a, b, t):
        # sum_f Re(c_f e^{-i f t}) over the collected products a_k b_l* is
        # Re(a(t) b(t)*), whatever the signs of the differences d_k - d_l.
        # The two routes round differently, so subnormal products may part
        # by a few of the smallest subnormals, below any relative bound.
        beats = collect_beats(
            (d_a - d_b, c_a * c_b.conjugate()) for d_a, c_a in a for d_b, c_b in b
        )
        assert all(f >= 0.0 for f in beats)
        rebuilt = sum((c * np.exp(-1j * f * t)).real for f, c in beats.items())
        a_t = sum(c * np.exp(-1j * d * t) for d, c in a)
        b_t = sum(c * np.exp(-1j * d * t) for d, c in b)
        scale = sum(abs(c_a) * abs(c_b) for _, c_a in a for _, c_b in b)
        assert abs(rebuilt - (a_t * np.conj(b_t)).real) <= 1e-12 * scale + 4 * math.ulp(0.0)

    def test_exact_keys_conjugate_negative_frequencies(self):
        beats = collect_beats([(2.0, 1 + 1j), (-2.0, 3 + 1j), (0.0, 0.5j), (-0.0, 1.0)])
        assert beats == {2.0: 4 + 0j, 0.0: 1 + 0.5j}

    def test_keys_within_tol_merge_into_the_smaller(self):
        beats = collect_beats([(5.0 + 4e-10, 1.0), (5.0, 2j), (-(5.0 + 8e-10), 3.0)], tol=1e-9)
        assert list(beats) == [5.0]
        assert beats[5.0] == 4 + 2j

    def test_a_group_within_tol_of_zero_lands_at_zero(self):
        beats = collect_beats([(5e-10, 1.0), (-9e-10, 1j), (1.0, 2.0)], tol=1e-9)
        assert beats == {0.0: 1 - 1j, 1.0: 2 + 0j}

    def test_keys_further_apart_stay_separate(self):
        beats = collect_beats([(1.0, 1.0), (1.0 + 3e-9, 2.0), (-(1.0 + 6e-9), 4.0)], tol=1e-9)
        assert beats == {1.0: 1 + 0j, 1.0 + 3e-9: 2 + 0j, 1.0 + 6e-9: 4 + 0j}


class TestPhasorDecompositions:
    # both sides take the same phases at the same offsets, so they agree to
    # the rounding of a few complex products and sums
    @pytest.mark.parametrize("lo", [standard_lo(theta_1=0.3, theta_2=-0.1), mono_lo(theta=0.3)])
    def test_tone_phasors_reproduce_lo_field(self, lo):
        offs, amps = tone_phasors(lo)
        t = np.linspace(0.0, 1e-4, 50)
        rotating = np.exp(-1j * np.multiply.outer(t, offs)) @ amps
        np.testing.assert_allclose(rotating, lo_field(lo, t), rtol=1e-13)

    def test_mode_phasors_reproduce_mean_field(self):
        state = squeezed_state(Hypothesis.ONE_FIELD, theta_s=0.25)
        offs, amps = mode_phasors(state)
        t = np.linspace(0.0, 1e-4, 50)
        rotating = np.exp(-1j * np.multiply.outer(t, offs)) @ amps
        np.testing.assert_allclose(rotating, mean_field(state, t), rtol=1e-13)
