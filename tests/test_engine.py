"""Synchronous-round integrator: update order, exact identities, determinism."""

import math

import numpy as np
import pytest
from test_network import neighbour_loop
from test_problems import legacy_project_box_budget_batch

from dagopt import engine
from dagopt.harness.config import build_schedules, default_config
from dagopt.harness.experiments import _records_csv
from dagopt.network import WeightMatrix, build_weight_matrix, complete_topology
from dagopt.problems.base import F_grad, F_value
from dagopt.problems.ev import desk_ev_spec, ev_problem
from dagopt.problems.synthetic import synthetic_problem
from dagopt.schedules import TAG_XI, TAG_ZETA


def small_setup(m=6, noise=True, seed=0, problem=None):
    cfg = default_config()
    prob = problem if problem is not None else ev_problem(desk_ev_spec(m))
    W = build_weight_matrix(complete_topology(m), 0.12)
    sch = build_schedules(cfg, dim=prob.d)
    state = engine.init_run(prob, W, sch, seed=seed, noise_enabled=noise)
    return prob, W, sch, state


class TestInit:
    def test_initial_state_identities(self):
        prob, _, _, st = small_setup(noise=False)
        assert np.allclose(st.psi, prob.eval_g_all(st.x), atol=0)
        assert np.allclose(st.y, prob.eval_grad2_all(st.x, st.psi), atol=0)
        assert np.allclose(prob.eval_project_all(st.x), st.x, atol=1e-10)

    def test_same_seed_same_state(self):
        _, _, _, a = small_setup(seed=4)
        _, _, _, b = small_setup(seed=4)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.psi, b.psi)

    def test_random_feasible_policy(self):
        prob, W, sch, _ = small_setup()
        st = engine.init_run(prob, W, sch, seed=0, x0_policy="random-feasible")
        assert np.allclose(prob.eval_project_all(st.x), st.x, atol=1e-10)


class TestStep:
    def test_single_agent_reduces_to_projected_gradient(self):
        # with one agent and no noise the tracker increment is exactly
        # gamma1 * grad2_f, so the x update collapses to a projected
        # gradient step on the composite objective.
        prob = synthetic_problem("strongly-convex", 1, 4, 3, seed=0)
        W = WeightMatrix(matrix=np.zeros((1, 1)), w_hat=0.0)
        sch = build_schedules(default_config(), dim=prob.d)
        st = engine.init_run(prob, W, sch, seed=0, noise_enabled=False)
        for t in range(5):
            x_before = st.x.copy()
            lam = sch.lam.value(t)
            expected = prob.eval_project_all(x_before - lam * F_grad(prob, x_before))
            engine.step(st)
            assert np.allclose(st.x, expected, atol=1e-12)

    def test_noise_free_aggregate_identity(self):
        prob, _, _, st = small_setup(noise=False)
        for _ in range(300):
            engine.step(st)
            diff = np.abs(st.psi.sum(axis=0) - prob.eval_g_all(st.x).sum(axis=0))
            assert diff.max() <= 1e-9

    def test_noise_free_tracker_mean_identity(self):
        prob, _, sch, st = small_setup(noise=False)
        for t in range(300):
            ybar = st.y.mean(axis=0)
            g2bar = prob.eval_grad2_all(st.x, st.psi).mean(axis=0)
            engine.step(st)
            resid = st.y.mean(axis=0) - ybar - sch.gamma1.value(t) * g2bar
            assert np.linalg.norm(resid) <= 1e-9

    def test_feasibility_every_round(self):
        prob, _, _, st = small_setup(noise=True)
        for _ in range(100):
            engine.step(st)
            assert np.allclose(prob.eval_project_all(st.x), st.x, atol=1e-10)

    def test_tracker_ball_containment_under_noise(self):
        _, _, _, st = small_setup(noise=True)
        for _ in range(300):
            r = st.radius.radius()
            assert np.linalg.norm(st.y, axis=1).max() <= r + 1e-9
            engine.step(st)

    def test_noise_free_cost_monotone_after_burn_in(self):
        prob, _, _, st = small_setup(m=2, noise=False)
        prev = None
        for t in range(200):
            engine.step(st)
            F = F_value(prob, st.x)
            if t >= 10:
                assert F <= prev + 1e-12
            prev = F


class TestGradientEstimate:
    def test_consensus_state_recovers_true_gradient(self):
        prob, W, sch, st = small_setup(noise=False)
        # drive to a consensus-like state: all trackers equal their targets
        phi = prob.eval_g_all(st.x).mean(axis=0)
        st.psi = np.repeat(phi[None, :], prob.m, axis=0)
        g2bar = prob.eval_grad2_all(st.x, st.psi).mean(axis=0)
        y_next = st.y + sch.gamma1.value(st.t) * np.repeat(g2bar[None, :], prob.m, axis=0)
        est = engine.gradient_estimate(st, y_next)
        assert np.allclose(est, F_grad(prob, st.x), atol=1e-9)

    def test_tiny_gamma_no_overflow(self):
        prob, W, _, _ = small_setup(noise=False)
        cfg = default_config()
        from dagopt.schedules import DecayProfile, ScheduleSet

        sch0 = build_schedules(cfg, dim=prob.d)
        sch = ScheduleSet(
            lam=sch0.lam,
            alpha=sch0.alpha,
            gamma1=DecayProfile(1e-12, 0.0),
            gamma2=sch0.gamma2,
            noise=sch0.noise,
        )
        st = engine.init_run(prob, W, sch, seed=0, noise_enabled=False)
        est = engine.gradient_estimate(st, st.y)  # zero increment
        assert np.all(np.isfinite(est))


class TestRun:
    def test_zero_iterations_returns_initial_record(self):
        prob, W, sch, st = small_setup(noise=False)
        res = engine.run(st, T=0, stride=1)
        assert len(res.records) == 1 and res.records[0].t == 0

    def test_record_count_and_stride(self):
        _, _, _, st = small_setup()
        res = engine.run(st, T=100, stride=10)
        assert [r.t for r in res.records] == list(range(0, 101, 10))

    def test_identical_seeds_identical_logs(self):
        _, _, _, a = small_setup(seed=9)
        _, _, _, b = small_setup(seed=9)
        ra = engine.run(a, T=50, stride=5)
        rb = engine.run(b, T=50, stride=5)
        assert _records_csv(ra.records) == _records_csv(rb.records)

    def test_divergence_flagged_not_raised(self):
        _, _, _, st = small_setup(noise=True)
        # an exploded tracker must flag the run, not raise; the log is
        # partial and its last record carries the divergence marker
        st.y = st.y + 1e13
        res = engine.run(st, T=20, stride=1, stepper="baseline")
        assert res.diverged_at == 1
        assert len(res.records) == 1
        assert res.records[-1].diverged

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 2e12, -2e12])
    @pytest.mark.parametrize("name", ["x", "y", "psi"])
    def test_divergence_guard_flags_each_array(self, name, value):
        _, _, _, st = small_setup(noise=False)
        arrays = {"x": st.x.copy(), "y": st.y.copy(), "psi": st.psi.copy()}
        arrays[name][1, 0] = value
        engine._commit(st, arrays["x"], arrays["y"], arrays["psi"], st.g_cache)
        assert st.diverged_at == 1

    @pytest.mark.parametrize("name", ["x", "y", "psi"])
    def test_divergence_threshold_itself_is_not_divergence(self, name):
        _, _, _, st = small_setup(noise=False)
        arrays = {"x": st.x.copy(), "y": st.y.copy(), "psi": st.psi.copy()}
        arrays[name][1, 0] = engine.DIVERGENCE_THRESHOLD
        arrays[name][2, 0] = -engine.DIVERGENCE_THRESHOLD
        engine._commit(st, arrays["x"], arrays["y"], arrays["psi"], st.g_cache)
        assert st.diverged_at is None


class TestBaseline:
    def test_zero_stepsize_freezes_decisions(self):
        _, _, _, st = small_setup(noise=True)
        x0 = st.x.copy()
        engine.run(st, T=30, stride=30, stepper="baseline", baseline_lambda=0.0)
        assert np.array_equal(st.x, x0)

    def test_noise_free_agreement_with_main_algorithm(self):
        from dagopt.network import generate_k_regular

        prob = ev_problem(desk_ev_spec(20))
        W = build_weight_matrix(generate_k_regular(20, 4, seed=0), 0.12)
        sch = build_schedules(default_config(), dim=prob.d)
        a = engine.init_run(prob, W, sch, seed=0, noise_enabled=False)
        b = engine.init_run(prob, W, sch, seed=0, noise_enabled=False)
        engine.run(a, T=4000, stride=4000)
        engine.run(b, T=4000, stride=4000, stepper="baseline", baseline_lambda=0.01)
        Fa, Fb = F_value(prob, a.x), F_value(prob, b.x)
        assert abs(Fa - Fb) / abs(Fb) < 0.01


def reference_rounds(prob, W, sch, seed, T, stepper):
    """The rounds of ``engine.step`` / ``step_baseline`` written out with the
    per-row-loop projection, mixing one neighbour at a time in ascending
    index order and a Philox generator keyed seed<<64 | t<<2 | tag built here
    for each round's noise; yields (x, y, psi) per round."""
    spec = prob.meta["spec"]

    def project(points):
        return legacy_project_box_budget_batch(points, spec.x_max, spec.E)

    def noise(tag, t):
        profile = sch.noise.zeta if tag == TAG_ZETA else sch.noise.xi
        rng = np.random.Generator(np.random.Philox(key=(seed << 64) | (t << 2) | tag))
        return rng.laplace(scale=profile.value(t) / math.sqrt(2.0), size=(prob.m, prob.d))

    x = project(np.zeros((prob.m, prob.n)))
    psi = prob.eval_g_all(x)
    y = prob.eval_grad2_all(x, psi)
    g_cache, grad2_cache, partial = psi.copy(), y.copy(), 0.0
    wdiag = np.diag(W.matrix)
    for t in range(T):
        if stepper == "alg1":
            lam, alpha = sch.lam.value(t), sch.alpha.value(t)
            gamma1, gamma2 = sch.gamma1.value(t), sch.gamma2.value(t)
            sent = y + noise(TAG_ZETA, t)
            norms = np.linalg.norm(sent, axis=1)
            radius = (1.0 + partial) * prob.constants.L_f2
            shared = sent * np.minimum(1.0, radius / np.maximum(norms, 1e-300))[:, None]
            y_next = (1.0 + wdiag)[:, None] * y + neighbour_loop(W.matrix, shared) + gamma1 * prob.eval_grad2_all(x, psi)
            incr = (y_next - y) * (1.0 / max(gamma1, 1e-300))
            x_next = project(x - lam * (prob.eval_grad1_all(x, psi) + prob.apply_grad_g_all(x, incr)))
            xi = noise(TAG_XI, t)
            g_new = prob.eval_g_all(x_next)
            psi_next = (
                (1.0 - alpha + gamma2 * wdiag)[:, None] * psi
                + gamma2 * neighbour_loop(W.matrix, psi + xi)
                + g_new
                - (1.0 - alpha) * g_cache
            )
            partial += gamma1
        else:
            x_next = project(x - 0.01 * (prob.eval_grad1_all(x, psi) + prob.apply_grad_g_all(x, y)))
            xi = noise(TAG_XI, t)
            g_new = prob.eval_g_all(x_next)
            psi_next = (1.0 + wdiag)[:, None] * psi + neighbour_loop(W.matrix, psi + xi) + g_new - g_cache
            zeta = noise(TAG_ZETA, t)
            grad2_cache_next = prob.eval_grad2_all(x_next, psi_next)
            y_next = (1.0 + wdiag)[:, None] * y + neighbour_loop(W.matrix, y + zeta) + grad2_cache_next - grad2_cache
            grad2_cache = grad2_cache_next
        x, y, psi, g_cache = x_next, y_next, psi_next, g_new
        yield x, y, psi


@pytest.mark.parametrize("stepper", ["alg1", "baseline"])
def test_rounds_bit_identical_to_reference_loop(stepper):
    from dagopt.network import generate_k_regular

    prob = ev_problem(desk_ev_spec(30))
    W = build_weight_matrix(generate_k_regular(30, 4, seed=0), 0.12)
    sch = build_schedules(default_config(), dim=prob.d)
    state = engine.init_run(prob, W, sch, seed=3, noise_enabled=True)
    advance = engine.step if stepper == "alg1" else engine.step_baseline
    rounds = 0
    for x, y, psi in reference_rounds(prob, W, sch, 3, 20, stepper):
        advance(state)
        rounds += 1
        assert np.array_equal(state.x, x), rounds
        assert np.array_equal(state.y, y), rounds
        assert np.array_equal(state.psi, psi), rounds
    assert rounds == 20 and state.diverged_at is None
