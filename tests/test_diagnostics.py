"""Functional diagnostics: Phi and the dissimilarity, dissipation monitors, classification."""

import numpy as np
import pytest

from nddc.core import Classification, ConstantDatum, Mesh, ModelKind, SimConfig, WeightMatrix
from nddc.diagnostics import (
    RATE_TOL,
    _phi_and_dissimilarity,
    apriori_bounds,
    classify_series,
    geom_bound_check,
    lyap_reaction,
    lyap_transmission,
    reaction_decay_coefficient,
    track_ij,
    transmission_decay_coefficient,
    transmission_integral_coefficient,
)
from nddc.integrator import run
from nddc.weights import (
    gamma,
    make_random_row_stochastic,
    make_random_symmetric_bistochastic,
    make_uniform,
)


def _transmission_run(values, tau=0.2, lam=1.0, m=32, t_end=20.0, seed=0, floor=None):
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    wm = make_random_row_stochastic(n, floor or 0.4 / (n - 1), seed)
    cfg = SimConfig(model=ModelKind.TRANSMISSION, tau=tau, lam=lam,
                    datum=ConstantDatum(values), n=n, d=values.shape[1],
                    steps_per_delay=m, t_end=t_end, weights=wm)
    return run(cfg)


def _node(state, wm):
    # Phi and the dissimilarity D of one (N, d) state, as the monitors compute them.
    phi_t, d_series = _phi_and_dissimilarity(np.asarray(state, dtype=float)[None], wm.weights)
    return phi_t[0], float(d_series[0])


class TestPhi:
    def test_two_agents(self):
        wm = make_uniform(2)
        state = np.array([[0.0], [1.0]])
        np.testing.assert_allclose(_node(state, wm)[0][:, 0], [1.0, -1.0])

    def test_consensus_vanishes(self):
        wm = make_random_symmetric_bistochastic(5, seed=3)
        state = np.full((5, 3), -0.2)
        np.testing.assert_allclose(_node(state, wm)[0], 0.0, atol=1e-15)

    def test_symmetric_weights_sum_to_zero(self):
        rng = np.random.default_rng(8)
        wm = make_random_symmetric_bistochastic(6, seed=8)
        state = rng.normal(size=(6, 2))
        np.testing.assert_allclose(_node(state, wm)[0].sum(axis=0), 0.0, atol=1e-12)

    def test_row_stochastic_is_perceived_average_minus_state(self):
        # Zero-diagonal row-stochastic weights: Phi^i = sum_{j != i} w_ij x_j - x_i.
        rng = np.random.default_rng(2)
        wm = make_random_row_stochastic(5, 0.1, seed=2)
        state = rng.normal(size=(5, 2))
        np.testing.assert_allclose(_node(state, wm)[0], wm.off_diagonal() @ state - state,
                                   rtol=0, atol=1e-12)


class TestDissimilarity:
    def test_two_agents(self):
        wm = make_uniform(2)
        assert _node(np.array([[0.0], [1.0]]), wm)[1] == pytest.approx(2.0)

    def test_consensus_vanishes(self):
        wm = make_uniform(4)
        assert _node(np.full((4, 2), 1.0), wm)[1] == 0.0

    def test_translation_invariant_quadratic_scaling(self):
        rng = np.random.default_rng(4)
        wm = make_random_symmetric_bistochastic(5, seed=4)
        state = rng.normal(size=(5, 2))
        base = _node(state, wm)[1]
        assert _node(state + 3.7, wm)[1] == pytest.approx(base, rel=1e-10)
        assert _node(2.0 * state, wm)[1] == pytest.approx(4.0 * base, rel=1e-12)

    def test_zero_implies_consensus_for_irreducible(self):
        wm = make_random_symmetric_bistochastic(5, seed=5)
        rng = np.random.default_rng(5)
        state = rng.normal(size=(5, 1))
        assert _node(state, wm)[1] > 0.0


class TestGeomBound:
    def test_uniform_three_agents_equality(self):
        wm = make_uniform(3)
        check = geom_bound_check(np.array([[0.0], [1.0], [2.0]]), wm, (1, 3))
        assert check.lhs == pytest.approx(1.0)
        assert check.rhs == pytest.approx(1.0)
        assert check.holds

    def test_consensus(self):
        wm = make_uniform(3)
        check = geom_bound_check(np.zeros((3, 2)), wm, (1, 2))
        assert check.lhs == 0.0 and check.rhs == 0.0 and check.holds

    def test_randomized_with_brute_force(self):
        rng = np.random.default_rng(42)
        for trial in range(300):
            n = int(rng.integers(3, 8))
            d = int(rng.integers(1, 4))
            wm = make_random_row_stochastic(n, float(rng.uniform(0.05, 0.9)) / (n - 1),
                                            seed=trial)
            state = rng.normal(size=(n, d))
            i, k = sorted(rng.choice(n, size=2, replace=False) + 1)
            check = geom_bound_check(state, wm, (int(i), int(k)))
            # brute-force both sides independently
            w = wm.weights
            psi_i = sum(w[i - 1, j] * state[j] for j in range(n) if j != i - 1)
            psi_k = sum(w[k - 1, j] * state[j] for j in range(n) if j != k - 1)
            lhs = float(np.linalg.norm(psi_i - psi_k))
            dmax = max(float(np.linalg.norm(state[a] - state[b]))
                       for a in range(n) for b in range(a + 1, n))
            rhs = gamma(wm) * dmax
            assert check.lhs == pytest.approx(lhs, rel=1e-12)
            assert check.rhs == pytest.approx(rhs, rel=1e-12)
            assert check.holds and lhs <= rhs + 1e-12

    def test_requires_flags(self):
        ring = np.zeros((3, 3))
        ring[0, 1] = ring[1, 2] = ring[2, 0] = 1.0
        with pytest.raises(ValueError):
            geom_bound_check(np.zeros((3, 1)), WeightMatrix(ring), (1, 2))


class TestCoefficients:
    def test_transmission_quarter_at_reference_point(self):
        # gamma = 1/2, lam*tau = 1 gives (1 - gamma)(1 - lam*tau*gamma) = 1/4
        assert transmission_decay_coefficient(0.5, 2.0, 0.5) == pytest.approx(0.25)

    def test_reaction_formula(self):
        assert reaction_decay_coefficient(0.0, 0.5) == pytest.approx(0.0)
        assert reaction_decay_coefficient(1.0, 0.2) == pytest.approx(-0.1)

    def test_integral_coefficient_nonnegative_in_admissible_range(self):
        for lam_tau in (0.0, 0.5, 1.0):
            for gam in (0.2, 0.5, 1.0):
                assert transmission_integral_coefficient(gam, lam_tau, 1.0) >= 0.0


class TestLyapTransmission:
    def test_consensus_history_is_identically_zero(self):
        traj = _transmission_run(np.full((3, 1), 2.0), t_end=10.0)
        series = lyap_transmission(traj)
        # exact zero up to rounding dust in the weighted-average sums
        assert np.all(np.abs(series.values) <= 1e-30)
        assert series.violations == 0

    def test_zero_violations_random_datum(self):
        rng = np.random.default_rng(17)
        traj = _transmission_run(rng.uniform(-1, 1, size=(3, 1)), tau=0.2, lam=1.0)
        series = lyap_transmission(traj)
        assert series.violations == 0
        assert series.worst_margin <= series.tolerance

    def test_rejects_excess_anticipation(self):
        traj = _transmission_run(np.array([[0.0], [1.0], [2.0]]), tau=0.5, lam=2.5,
                                 t_end=5.0)
        with pytest.raises(ValueError):
            lyap_transmission(traj)

    def test_accepts_equality_lam_tau_one(self):
        # The guarantee admits lam*tau = 1 exactly.
        traj = _transmission_run(np.array([[0.0], [1.0], [2.0]]), tau=0.5, lam=2.0,
                                 t_end=10.0)
        assert lyap_transmission(traj).violations == 0

    def test_params_expose_pair_and_gamma(self):
        rng = np.random.default_rng(21)
        traj = _transmission_run(rng.uniform(-1, 1, size=(4, 2)), t_end=10.0)
        series = lyap_transmission(traj)
        assert 0.0 < series.params["gamma"] <= 1.0
        assert series.params["decay_coefficient"] > 0.0

    def test_matches_naive_evaluation(self):
        # independent oracle: evaluate the functional with plain loops straight
        # from its definition and compare against the vectorized monitor
        rng = np.random.default_rng(23)
        traj = _transmission_run(rng.uniform(-1, 1, size=(4, 2)), tau=0.2, lam=0.9,
                                 m=8, t_end=4.0)
        cfg = traj.config
        w = cfg.weights.weights
        n_agents, m = cfg.n, cfg.steps_per_delay
        lt = cfg.lam * cfg.tau
        gam = gamma(cfg.weights)
        kappa = transmission_integral_coefficient(gam, cfg.lam, cfg.tau)
        coeff = transmission_decay_coefficient(gam, cfg.lam, cfg.tau)
        dt = traj.times[1] - traj.times[0]
        pair = track_ij(traj).final_pair
        series = lyap_transmission(traj)
        i, k = pair[0] - 1, pair[1] - 1

        def psi_row(node, row):
            return sum(w[row, j] * traj.states[node, j]
                       for j in range(n_agents) if j != row)

        # The check starts where the argmax pair last changed (node 140 of 160).
        start = int(round(series.times[0] / dt))
        assert start > 2 * m
        for node in range(start, len(traj.times) - 1):
            u = (traj.states[node, i] - traj.states[node, k]) - lt * (
                psi_row(node - m, i) - psi_row(node - m, k))
            integral = sum(traj.diameters[j] ** 2 for j in range(node - m + 1, node + 1))
            value = 0.5 * float(u @ u) + kappa * gam**2 * dt * integral
            assert series.values[node - start] == pytest.approx(value, rel=1e-12, abs=1e-15)
            bound = -coeff * traj.diameters[node + 1] ** 2 * dt
            assert series.bounds[node - start] == pytest.approx(bound, rel=1e-12, abs=1e-300)


class TestLyapReaction:
    def _reaction_run(self, values, tau=0.2, lam=0.1, m=32, t_end=20.0, seed=6):
        values = np.asarray(values, dtype=float)
        n = values.shape[0]
        wm = make_random_symmetric_bistochastic(n, seed)
        cfg = SimConfig(model=ModelKind.REACTION, tau=tau, lam=lam,
                        datum=ConstantDatum(values), n=n, d=values.shape[1],
                        steps_per_delay=m, t_end=t_end, weights=wm)
        return run(cfg)

    @pytest.mark.parametrize("n,d", [(2, 1), (3, 2), (5, 3), (8, 1), (8, 3)])
    def test_series_match_full_einsum_forms(self, n, d):
        # Phi and the dissimilarity as two full einsum contractions over the
        # stack, against the forms built on one product WX.
        rng = np.random.default_rng(10 * n + d)
        for w in (make_random_symmetric_bistochastic(n, seed=n).weights,
                  make_random_row_stochastic(n, 0.1 / (n - 1), seed=d).weights):
            states = rng.normal(size=(200, n, d)) * rng.uniform(0.1, 10.0, size=(200, 1, 1))
            row, col = w.sum(axis=1), w.sum(axis=0)
            want_phi = np.einsum("ij,tjd->tid", w, states) - row[None, :, None] * states
            sq = np.einsum("tid,tid->ti", states, states)
            cross = np.einsum("ij,tid,tjd->t", w, states, states)
            want_d = np.maximum(sq @ row + sq @ col - 2.0 * cross, 0.0)
            phi_t, d_series = _phi_and_dissimilarity(states, w)
            # Entries of Phi can cancel to near zero; measure them on the stack's scale.
            np.testing.assert_allclose(phi_t, want_phi, rtol=1e-12,
                                       atol=1e-12 * np.abs(want_phi).max())
            np.testing.assert_allclose(d_series, want_d, rtol=1e-12, atol=0)

    def test_consensus_history_is_identically_zero(self):
        traj = self._reaction_run(np.full((4, 1), -1.0))
        series = lyap_reaction(traj)
        assert np.all(np.abs(series.values) <= 1e-30)
        assert series.violations == 0

    def test_monotone_after_two_delays(self):
        # (1 + lam) * tau = 0.22 < 1/2, so the functional must not increase.
        rng = np.random.default_rng(30)
        traj = self._reaction_run(rng.uniform(-1, 1, size=(2, 1)), tau=0.2, lam=0.1)
        series = lyap_reaction(traj)
        assert series.violations == 0
        assert np.all(series.decrements <= series.tolerance)

    def test_epsilon_delta_substitution(self):
        rng = np.random.default_rng(31)
        traj = self._reaction_run(rng.uniform(-1, 1, size=(3, 1)), tau=0.2, lam=0.5)
        series = lyap_reaction(traj)
        assert series.params["epsilon"] == pytest.approx(1.0)
        assert series.params["delta"] == pytest.approx(0.4)

    def test_zero_anticipation_drops_phi_history_term(self):
        rng = np.random.default_rng(32)
        traj = self._reaction_run(rng.uniform(-1, 1, size=(3, 1)), tau=0.2, lam=0.0)
        series = lyap_reaction(traj)
        assert series.params["phi_coefficient"] == 0.0
        assert series.violations == 0

    def test_rejects_equality_one_half(self):
        # The guarantee is strict: (1 + lam) * tau = 1/2 exactly is rejected.
        traj = self._reaction_run(np.array([[0.0], [1.0]]), tau=0.25, lam=1.0, t_end=5.0)
        with pytest.raises(ValueError, match="requires"):
            lyap_reaction(traj)

    def test_rejects_out_of_range_parameters(self):
        traj = self._reaction_run(np.array([[0.0], [1.0]]), tau=0.3, lam=1.0, t_end=9.0)
        with pytest.raises(ValueError):
            lyap_reaction(traj)

    def test_matches_naive_evaluation(self):
        # independent oracle with plain loops over the three functional pieces
        rng = np.random.default_rng(29)
        traj = self._reaction_run(rng.uniform(-1, 1, size=(3, 2)), tau=0.16, lam=0.4,
                                  m=8, t_end=3.2, seed=29)
        cfg = traj.config
        w = cfg.weights.weights
        n_agents, m = cfg.n, cfg.steps_per_delay
        lam, tau = cfg.lam, cfg.tau
        lt = lam * tau
        delta = (1 + 2 * lam) * tau
        dt = traj.times[1] - traj.times[0]
        series = lyap_reaction(traj)
        x0_mean = traj.means[0]
        shifted = traj.states - x0_mean[None, None, :]

        def phi_row(node, row):
            return sum(w[row, j] * (shifted[node, j] - shifted[node, row])
                       for j in range(n_agents))

        def phi_norm_sq(node):
            return sum(float(phi_row(node, row) @ phi_row(node, row))
                       for row in range(n_agents))

        def spread(node):
            return sum(
                w[a, b] * float(np.dot(shifted[node, b] - shifted[node, a],
                                       shifted[node, b] - shifted[node, a]))
                for a in range(n_agents) for b in range(n_agents)
            )

        start = 2 * m
        for node in range(start, len(traj.times) - 1, 7):
            a_part = 0.5 * sum(
                float(np.dot(shifted[node, row] - lt * phi_row(node - m, row),
                             shifted[node, row] - lt * phi_row(node - m, row)))
                for row in range(n_agents)
            )
            p_part = 0.5 * lt * dt * sum(
                phi_norm_sq(j) for j in range(node + 1 - 2 * m, node - m + 1)
            )
            q_part = 0.5 * dt * dt * sum(
                (k - node + m) * spread(k - m + 1)
                for k in range(node - m + 1, node + 1)
            )
            value = a_part + p_part + q_part
            assert series.values[node - start] == pytest.approx(value, rel=1e-10, abs=1e-14)
            bound = dt * (0.5 * (delta - 1.0) * spread(node + 1 - m)
                          + 0.5 * tau * spread(node + 2 - m))
            assert series.bounds[node - start] == pytest.approx(bound, rel=1e-10, abs=1e-14)


class TestAprioriBounds:
    def test_consensus_at_zero(self):
        traj = _transmission_run(np.zeros((3, 1)), t_end=5.0)
        bounds = apriori_bounds(traj)
        assert bounds.state_ratio == 0.0 and bounds.deriv_ratio == 0.0
        assert bounds.holds

    def test_unit_datum_bound_values(self):
        # datum magnitude 1 with lam*tau = 0.5 bounds states by 1.5,
        # derivatives by 4.5
        traj = _transmission_run(np.array([[1.0], [-1.0], [0.5]]), tau=0.5, lam=1.0,
                                 t_end=20.0)
        bounds = apriori_bounds(traj)
        assert bounds.datum_bound == pytest.approx(1.0)
        assert bounds.holds
        sup_state = np.abs(traj.states).max()
        assert sup_state <= 1.5 * (1 + 1e-9)

    def test_accepts_equality_lam_tau_one(self):
        traj = _transmission_run(np.array([[1.0], [-1.0], [0.5]]), tau=0.5, lam=2.0,
                                 t_end=10.0)
        assert apriori_bounds(traj).holds

    def test_rejects_lam_tau_above_one(self):
        traj = _transmission_run(np.array([[1.0], [-1.0], [0.5]]), tau=0.5, lam=2.5,
                                 t_end=5.0)
        with pytest.raises(ValueError, match="lam\\*tau <= 1"):
            apriori_bounds(traj)

    def test_randomized_runs_hold(self):
        from nddc.core import aligned_t_end

        rng = np.random.default_rng(77)
        for trial in range(20):
            n = int(rng.integers(3, 7))
            values = rng.uniform(-1, 1, size=(n, 1))
            values /= np.abs(values).max()
            tau = float(rng.uniform(0.1, 0.6))
            lam = float(rng.uniform(0.0, 1.0)) / tau
            traj = _transmission_run(values, tau=tau, lam=lam, m=16,
                                     t_end=aligned_t_end(tau, 16, 10.0), seed=trial)
            assert apriori_bounds(traj).holds


class TestTrackIJ:
    def test_two_agents_fixed_pair(self):
        cfg = SimConfig(model=ModelKind.TWO_AGENT_TRANSMISSION, tau=0.25, lam=0.0,
                        datum=ConstantDatum([[1.0]]), n=1, d=1,
                        steps_per_delay=16, t_end=4.0)
        report = track_ij(run(cfg))
        assert report.final_pair == (1, 2)
        assert report.stabilization_time == 0.0

    def test_consensus_datum_tie_break(self):
        traj = _transmission_run(np.full((4, 1), 1.0), t_end=5.0)
        report = track_ij(traj)
        assert report.final_pair == (1, 2)
        assert report.stabilization_time == 0.0

    def test_pair_fixed_after_stabilization(self):
        rng = np.random.default_rng(15)
        traj = _transmission_run(rng.uniform(-1, 1, size=(5, 1)), t_end=30.0)
        report = track_ij(traj)
        assert report.stabilization_time is not None
        after = traj.times >= report.stabilization_time
        pairs = traj.argmax_pairs[after]
        assert np.all(pairs == pairs[-1])


class TestClassify:
    def test_decaying_series(self):
        series = np.exp(-np.linspace(0, 20, 200))
        cls, evidence = classify_series(series)
        assert cls is Classification.CONVERGED
        assert not evidence.aborted

    def test_growing_series(self):
        series = np.exp(np.linspace(0, 9, 200))
        cls, _ = classify_series(series)
        assert cls is Classification.DIVERGED

    def test_neutral_series_is_inconclusive(self):
        t = np.linspace(0, 50, 500)
        series = np.abs(np.cos(3 * t)) + 0.1
        cls, evidence = classify_series(series)
        assert cls is Classification.INCONCLUSIVE
        assert evidence.trailing_ratio == pytest.approx(1.0, abs=0.05)

    # A run on a mesh of 25 steps per delay, dt = 0.02, up to t = 50: the rate
    # fit sees five 4-delay windows in the trailing half.
    MESH = Mesh.build(0.5, 25, 50.0)
    MESH_TIMES = np.arange(2501) * 0.02

    def test_slow_decay_is_decided_by_rate(self):
        t = self.MESH_TIMES
        series = np.exp(-0.05 * t) * np.abs(np.cos(3 * t))
        cls, evidence = classify_series(series, mesh=self.MESH)
        assert evidence.final_dx >= 1e-3 * evidence.initial_dx
        assert cls is Classification.CONVERGED
        assert evidence.rate == pytest.approx(-0.05, rel=0.01)
        # Without the mesh no fit runs.
        cls, evidence = classify_series(series)
        assert cls is Classification.INCONCLUSIVE and np.isnan(evidence.rate)

    def test_slow_growth_is_decided_by_rate(self):
        t = self.MESH_TIMES
        series = np.exp(0.02 * t) * (1.5 + np.cos(3 * t))
        cls, evidence = classify_series(series, mesh=self.MESH)
        assert evidence.trailing_peak <= 1e3 * evidence.initial_dx
        assert cls is Classification.DIVERGED
        assert evidence.rate == pytest.approx(0.02, rel=0.1)

    def test_neutral_series_stays_inconclusive_with_its_rate(self):
        t = self.MESH_TIMES
        cls, evidence = classify_series(np.abs(np.cos(3 * t)) + 0.1, mesh=self.MESH)
        assert cls is Classification.INCONCLUSIVE
        assert abs(evidence.rate) < RATE_TOL

    def test_short_series_gets_no_rate(self):
        # Fewer than three windows in the trailing half: no fit.
        series = np.full(5 * 4 * 25, 0.5)
        cls, evidence = classify_series(series, mesh=self.MESH)
        assert cls is Classification.INCONCLUSIVE and np.isnan(evidence.rate)

    def test_aborted_series_diverges(self):
        cls, _ = classify_series(np.array([1.0, 2.0, 4.0]), aborted=True, abort_step=3)
        assert cls is Classification.DIVERGED
