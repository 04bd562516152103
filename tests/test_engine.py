"""Synchronous-round integrator: update order, exact identities, determinism."""

import copy
import dataclasses
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies
from test_network import neighbour_loop, slot_loop, weight_matrix_from_dense
from test_problems import legacy_project_box_budget_batch
from test_schedules import ball_radius

from dagopt import engine, schedules
from dagopt.harness.config import build_schedules, default_config
from dagopt.harness.experiments import _records_csv
from dagopt.network import build_weight_matrix, complete_topology, generate_k_regular
from dagopt.problems.base import F_grad, F_value, aggregate
from dagopt.problems.ev import desk_ev_spec, ev_problem
from dagopt.problems.oracle import centralized_oracle
from dagopt.problems.synthetic import synthetic_problem
from dagopt.schedules import TAG_XI, TAG_ZETA, noise_vector


def small_setup(m=6, noise=True, seed=0, problem=None):
    cfg = default_config()
    prob = problem if problem is not None else ev_problem(desk_ev_spec(m))
    W = build_weight_matrix(complete_topology(m), 0.12)
    sch = build_schedules(cfg)
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
        W = weight_matrix_from_dense(np.zeros((1, 1)))
        sch = build_schedules(default_config())
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
            r = (1.0 + st.gamma1_sum) * st.problem.constants.L_f2
            assert np.linalg.norm(st.y, axis=1).max() <= r + 1e-9
            engine.step(st)

    @pytest.mark.parametrize("stepper", ["alg1", "baseline"])
    def test_ball_radius_matches_closed_form(self, stepper):
        _, _, sch, st = small_setup(noise=True)
        advance = engine.step if stepper == "alg1" else engine.step_baseline
        L_f2 = st.problem.constants.L_f2
        for t in range(201):
            assert st.t == t
            assert (1.0 + st.gamma1_sum) * L_f2 == pytest.approx(ball_radius(sch.gamma1, L_f2, t), rel=1e-14)
            advance(st)

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
        est = engine.gradient_estimate(st, y_next, sch.gamma1.value(st.t))
        assert np.allclose(est, F_grad(prob, st.x), atol=1e-9)

    def test_tiny_gamma_no_overflow(self):
        prob, W, _, _ = small_setup(noise=False)
        cfg = default_config()
        from dagopt.schedules import DecayProfile, ScheduleSet

        sch0 = build_schedules(cfg)
        sch = ScheduleSet(
            lam=sch0.lam,
            alpha=sch0.alpha,
            gamma1=DecayProfile(1e-12, 0.0),
            gamma2=sch0.gamma2,
            zeta=sch0.zeta,
            xi=sch0.xi,
        )
        st = engine.init_run(prob, W, sch, seed=0, noise_enabled=False)
        est = engine.gradient_estimate(st, st.y, sch.gamma1.value(st.t))  # zero increment
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
        assert _records_csv(ra.records, ra.diverged_at) == _records_csv(rb.records, rb.diverged_at)

    @pytest.mark.parametrize("stride", [0, -3])
    def test_stride_below_one_rejected(self, stride):
        # stride = 0 divided by zero and stride = -3 recorded t = 0, 3, 6, 7
        _, _, _, st = small_setup()
        with pytest.raises(ValueError, match="stride"):
            engine.run(st, T=7, stride=stride)

    def test_divergence_flagged_not_raised(self):
        _, _, _, st = small_setup(noise=True)
        # an exploded tracker must flag the run, not raise; the log is
        # partial and diverged_at names the round
        st.y = st.y + 1e13
        res = engine.run(st, T=20, stride=1, stepper="baseline")
        assert res.diverged_at == 1
        assert len(res.records) == 1

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


class TestNoiseDraws:
    """Each stream yields its blocks in round order, so a second draw of a tag
    within a round would shift every later round's noise."""

    T = 6

    def draws(self, monkeypatch, stepper, noise=True):
        """The (tag, block) of every draw a T-round run makes, in order."""
        calls = []

        def spy(rng, *args):
            block = noise_vector(rng, *args)
            calls.append((rng, block))
            return block

        monkeypatch.setattr(engine, "noise_vector", spy)
        _, _, _, st = small_setup(seed=2, noise=noise)
        engine.run(st, T=self.T, stride=2, stepper=stepper)
        return [(st.streams.index(rng), block) for rng, block in calls]

    @pytest.mark.parametrize("stepper", ["alg1", "baseline"])
    def test_one_draw_per_tag_per_round_plus_the_terminal_zeta(self, monkeypatch, stepper):
        tags = [tag for tag, _ in self.draws(monkeypatch, stepper)]
        assert len(tags) == 2 * self.T + 1
        assert tags.count(TAG_ZETA) == self.T + 1 and tags.count(TAG_XI) == self.T

    def test_noise_free_run_draws_nothing(self, monkeypatch):
        assert self.draws(monkeypatch, "alg1", noise=False) == []

    @pytest.mark.parametrize("stepper", ["alg1", "baseline"])
    def test_records_do_not_depend_on_rounds_per_refill(self, monkeypatch, stepper):
        # the default refill at m=6, d=13 holds 52 rounds, more than the run
        texts = []
        for elements in (1, 2 * 6 * 13, 7 * 6 * 13, schedules.NOISE_BLOCK_ELEMENTS):
            monkeypatch.setattr(schedules, "NOISE_BLOCK_ELEMENTS", elements)
            _, _, _, st = small_setup(seed=5)
            res = engine.run(st, T=40, stride=3, stepper=stepper)
            texts.append(_records_csv(res.records, res.diverged_at))
            assert st.streams[TAG_ZETA].rounds == max(1, elements // (6 * 13))
        assert all(text == texts[0] for text in texts[1:])

    def test_both_steppers_receive_the_same_blocks(self, monkeypatch):
        alg1, base = (self.draws(monkeypatch, stepper) for stepper in ("alg1", "baseline"))
        for tag in (TAG_ZETA, TAG_XI):
            a = [block for t, block in alg1 if t == tag]
            b = [block for t, block in base if t == tag]
            assert len(a) == len(b) and all(np.array_equal(u, v) for u, v in zip(a, b))


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
        sch = build_schedules(default_config())
        a = engine.init_run(prob, W, sch, seed=0, noise_enabled=False)
        b = engine.init_run(prob, W, sch, seed=0, noise_enabled=False)
        engine.run(a, T=4000, stride=4000)
        engine.run(b, T=4000, stride=4000, stepper="baseline", baseline_lambda=0.01)
        Fa, Fb = F_value(prob, a.x), F_value(prob, b.x)
        assert abs(Fa - Fb) / abs(Fb) < 0.01


def reference_rounds(prob, W, sch, seed, T, stepper):
    """The rounds of ``engine.step`` / ``step_baseline`` written out with the
    per-row-loop projection, mixing one neighbour at a time in ascending
    index order and, per tag, a Philox generator keyed seed<<64 | tag built
    here whose uniforms are turned into Laplace noise by the inverse CDF one
    round at a time; yields (x, y, psi) per round."""
    spec = prob.meta["spec"]

    def project(points):
        return legacy_project_box_budget_batch(points, spec.x_max, spec.E)

    rngs = {tag: np.random.Generator(np.random.Philox(key=(seed << 64) | tag)) for tag in (TAG_ZETA, TAG_XI)}

    def noise(tag, t):
        profile = sch.zeta if tag == TAG_ZETA else sch.xi
        u = rngs[tag].random((prob.m, prob.d))
        unit = np.copysign(np.log(np.minimum(u + u, (2.0 - u) - u)), u - 0.5)
        return unit * (profile.value(t) / math.sqrt(2.0))

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
    sch = build_schedules(default_config())
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


def legacy_draw_noise(state, tag, t):
    if state.streams is None:
        return np.zeros((state.problem.m, state.problem.d))
    profile = state.schedules.zeta if tag == TAG_ZETA else state.schedules.xi
    return noise_vector(state.streams[tag], profile.value(t))


def legacy_project_ball(points, radius):
    norms = np.linalg.norm(points, axis=1)
    factor = np.minimum(1.0, radius / np.maximum(norms, 1e-300))
    return points * factor[:, None]


class TestProjectBall:
    """``_project_ball`` tests the ball as sqrt(max_i ||row_i||^2) <= radius and
    rescales only when that fails; in both cases the stack it leaves in place
    has the bits of the unconditional rescale ``legacy_project_ball``."""

    @staticmethod
    def check(points, radius):
        with np.errstate(invalid="ignore"):  # an inf row's factor is 0, and inf * 0 is NaN
            expected = legacy_project_ball(points, radius).tobytes()
            engine._project_ball(points, radius)
        assert points.tobytes() == expected

    @pytest.mark.parametrize("m", [1, 2, 10, 1000])
    def test_random_stacks(self, m):
        rng = np.random.default_rng(m)
        for _ in range(200):
            points = rng.standard_normal((m, 13)) * 10.0 ** rng.uniform(-3, 3, size=(m, 1))
            points[rng.random(points.shape) < 0.05] *= -0.0
            norms = np.linalg.norm(points, axis=1)
            # a radius below, at, between and above the row norms
            radius = float(rng.choice([norms.min() * 0.5, norms.max(), np.median(norms), norms.max() * 2]))
            self.check(points, radius)

    def test_row_exactly_at_the_radius_is_kept(self):
        rng = np.random.default_rng(1)
        points = rng.standard_normal((10, 13))
        radius = float(np.linalg.norm(points, axis=1).max())
        before = points.tobytes()
        self.check(points, radius)
        assert points.tobytes() == before  # every factor is min(1, radius / norm) = 1.0

    @pytest.mark.parametrize("m", [1, 10])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rows_take_the_full_path(self, m, value):
        rng = np.random.default_rng(2)
        for row in range(m):
            points = rng.standard_normal((m, 13))
            points[row, rng.integers(13)] = value
            self.check(points, 1e9)  # every finite row lies inside the ball
            assert np.isnan(points[row]).any()  # inf * 0 and NaN * factor are NaN


def legacy_gradient_estimate(state, y_next):
    gamma1_t = state.schedules.gamma1.value(state.t)
    inv = 1.0 / max(gamma1_t, 1e-300)
    incr = (y_next - state.y) * inv
    return state.problem.eval_grad1_all(state.x, state.psi) + state.problem.apply_grad_g_all(state.x, incr)


def legacy_line4(state):
    t = state.t
    gamma1_t = state.schedules.gamma1.value(t)
    radius = (1.0 + state.gamma1_sum) * state.problem.constants.L_f2
    zeta = legacy_draw_noise(state, TAG_ZETA, t)
    shared = legacy_project_ball(state.y + zeta, radius)
    grad2 = state.problem.eval_grad2_all(state.x, state.psi)
    return state.W.one_plus_diag * state.y + slot_loop(state.W, shared) + gamma1_t * grad2


def legacy_line7(state, g_new, alpha_t, gamma2_t):
    xi = legacy_draw_noise(state, TAG_XI, state.t)
    return (
        (1.0 - alpha_t + gamma2_t * state.W.diag) * state.psi
        + gamma2_t * slot_loop(state.W, state.psi + xi)
        + g_new
        - (1.0 - alpha_t) * state.g_cache
    )


def legacy_step(state):
    """``engine.step`` as first written, kept as its bit-for-bit reference:
    each tag is drawn where its line reads it, each tracker is mixed by its
    own slot loop, the ball's factor is always applied, and each schedule
    value is evaluated where it is used."""
    sched = state.schedules
    lam_t = sched.lam.value(state.t)
    y_next = legacy_line4(state)
    direction = legacy_gradient_estimate(state, y_next)
    x_next = state.problem.eval_project_all(state.x - lam_t * direction)
    g_new = state.problem.eval_g_all(x_next)
    psi_next = legacy_line7(state, g_new, sched.alpha.value(state.t), sched.gamma2.value(state.t))
    legacy_commit(state, x_next, y_next, psi_next, g_new)
    return direction


def legacy_step_baseline(state, lam=0.01):
    """``engine.step_baseline`` as first written (xi drawn before zeta)."""
    t = state.t
    prob = state.problem
    direction = prob.eval_grad1_all(state.x, state.psi) + prob.apply_grad_g_all(state.x, state.y)
    x_next = prob.eval_project_all(state.x - lam * direction)
    g_new = prob.eval_g_all(x_next)
    psi_next = legacy_line7(state, g_new, 0.0, 1.0)
    zeta = legacy_draw_noise(state, TAG_ZETA, t)
    grad2_new = prob.eval_grad2_all(x_next, psi_next)
    y_next = state.W.one_plus_diag * state.y + slot_loop(state.W, state.y + zeta) + grad2_new - state.grad2_cache
    legacy_commit(state, x_next, y_next, psi_next, g_new, grad2_new)
    return direction


def legacy_commit(state, x_next, y_next, psi_next, g_new, grad2_new=None):
    if state.diverged_at is None:
        for arr in (x_next, y_next, psi_next):
            if not (np.abs(arr).max() <= engine.DIVERGENCE_THRESHOLD):
                state.diverged_at = state.t + 1
                break
    state.x = x_next
    state.y = y_next
    state.psi = psi_next
    state.g_cache = g_new
    if grad2_new is not None:
        state.grad2_cache = grad2_new
    state.gamma1_sum += state.schedules.gamma1.value(state.t)
    state.t += 1


def legacy_run(state, T, stride=1, oracle=None, stepper="alg1", baseline_lambda=0.01, track_weighted=True,
               steppers=None):
    """The per-round loop that ``engine.run`` replaced, kept as its
    bit-for-bit reference: F(x_t) and grad F(x_t) are evaluated on every
    round that needs them, one (m, n) iterate at a time, from x_t alone.
    ``steppers`` is the (alg1, baseline) pair it advances with, by default
    the engine's; the terminal record's dry line 4 is ``legacy_line4``."""
    step, step_baseline = steppers or (engine.step, engine.step_baseline)
    prob = state.problem
    records = []
    wsum = wgap = wgrad = 0.0
    f_star = oracle.F_star if oracle is not None else math.nan

    def snapshot(t, x_now, psi_now, y_now, fval, gradF, direction):
        phi = aggregate(prob, x_now)
        err = float(((x_now - oracle.x_star) ** 2).sum()) if oracle is not None else math.nan
        psi_gap = psi_now - phi[None, :]
        y_gap = y_now - y_now.mean(axis=0)[None, :]
        ge = float(((direction - gradF) ** 2).sum()) if direction is not None else 0.0
        return engine.MetricsRecord(
            t=t,
            err_x=err,
            gap_F=fval - f_star,
            grad_norm_sq=float((gradF**2).sum()),
            psi_consensus=float((psi_gap**2).sum()),
            y_consensus=float((y_gap**2).sum()),
            grad_est_err=ge,
            weighted_avg_gap=(wgap / wsum) if wsum > 0 else fval - f_star,
            weighted_avg_grad=(wgrad / wsum) if wsum > 0 else float((gradF**2).sum()),
        )

    for t_iter in range(T):
        record_now = t_iter % stride == 0
        pre = (state.x, state.psi, state.y)
        if record_now or track_weighted:
            fval = F_value(prob, state.x)
            gradF = F_grad(prob, state.x)
        if track_weighted:
            lam_t = state.schedules.lam.value(t_iter)
            wsum += lam_t
            wgap += lam_t * (fval - f_star)
            wgrad += lam_t * float((gradF**2).sum())
        if stepper == "alg1":
            direction = step(state)
        else:
            direction = step_baseline(state, lam=baseline_lambda)
        if record_now:
            records.append(snapshot(t_iter, *pre, fval, gradF, direction))
        if state.diverged_at is not None:
            break
    if state.diverged_at is None:
        fval = F_value(prob, state.x)
        gradF = F_grad(prob, state.x)
        direction = legacy_gradient_estimate(state, legacy_line4(state)) if T > 0 else None
        records.append(snapshot(state.t, state.x, state.psi, state.y, fval, gradF, direction))
    return engine.RunResult(
        records=records,
        final_state=state,
        diverged_at=state.diverged_at,
        weighted_avg_gap=(wgap / wsum) if wsum > 0 else math.nan,
        weighted_avg_grad=(wgrad / wsum) if wsum > 0 else math.nan,
    )


def same_float(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


def assert_same_run(blocked, legacy):
    assert blocked.diverged_at == legacy.diverged_at
    assert len(blocked.records) == len(legacy.records)
    for rb, rl in zip(blocked.records, legacy.records):
        for field in dataclasses.fields(engine.MetricsRecord):
            vb, vl = getattr(rb, field.name), getattr(rl, field.name)
            assert (vb == vl) if field.name == "t" else same_float(vb, vl), (rb.t, field.name, vb, vl)
    assert same_float(blocked.weighted_avg_gap, legacy.weighted_avg_gap)
    assert same_float(blocked.weighted_avg_grad, legacy.weighted_avg_grad)


class TestBlockedMetrics:
    """``engine.run`` evaluates F and grad F per block of iterates; every
    record field and both weighted averages equal the per-round loop's."""

    M = 10

    @pytest.fixture(scope="class")
    def instances(self):
        W = build_weight_matrix(generate_k_regular(self.M, 4, seed=0), 0.12)
        out = {}
        for kind in ("strongly-convex", "nonconvex"):
            prob = synthetic_problem(kind, self.M, 13, 13, seed=0)
            oracle = centralized_oracle(prob) if kind == "strongly-convex" else None
            out[kind] = (prob, W, oracle)
        ev = ev_problem(desk_ev_spec(self.M))
        out["ev"] = (ev, W, centralized_oracle(ev))
        return out

    def both(self, instances, kind="strongly-convex", seed=1, **kwargs):
        prob, W, oracle = instances[kind]
        sch = build_schedules(default_config())
        if oracle is not None:
            kwargs.setdefault("oracle", oracle)
        runs = []
        for runner in (engine.run, legacy_run):
            state = engine.init_run(prob, W, sch, seed=seed)
            runs.append(runner(state, **kwargs))
        return runs

    def test_block_size_under_the_element_bound(self, instances):
        prob = instances["strongly-convex"][0]
        assert engine.metrics_block(prob) == 126
        # 16,384 elements over m * 13: B = 1 from m = 631 up, and still 1 past m * 13 > 16,384
        assert engine.metrics_block(ev_problem(desk_ev_spec(1261))) == 1
        assert engine.metrics_block(ev_problem(desk_ev_spec(1000))) == 1
        assert engine.metrics_block(ev_problem(desk_ev_spec(631))) == 1
        assert engine.metrics_block(ev_problem(desk_ev_spec(630))) == 2

    # The block is 126 iterates here.  T = 300 is not a multiple of it; at
    # stride 7 both block boundaries (t = 126 and 252) are record rounds; at
    # T = 252 the terminal record is a block of its own.
    @pytest.mark.parametrize("T, stride", [(100, 7), (20, 1), (0, 1), (62, 1), (93, 31), (62, 5),
                                           (300, 7), (300, 1), (252, 63), (127, 126)])
    def test_records_equal_the_per_round_loop(self, instances, T, stride):
        assert_same_run(*self.both(instances, T=T, stride=stride))

    @pytest.mark.parametrize("T, stride", [(300, 1), (300, 7)])
    def test_unweighted_run_across_blocks(self, instances, T, stride):
        # without weighting a block holds only record rounds: 126 of them at stride 1
        blocked, legacy = self.both(instances, T=T, stride=stride, track_weighted=False)
        assert math.isnan(blocked.weighted_avg_gap)
        assert_same_run(blocked, legacy)

    def test_unweighted_run_with_stride_T(self, instances):
        # the truthfulness experiment's call: records at t = 0 and t = T only
        blocked, legacy = self.both(instances, T=40, stride=40, track_weighted=False)
        assert [r.t for r in blocked.records] == [0, 40]
        assert_same_run(blocked, legacy)

    def test_baseline_stepper(self, instances):
        assert_same_run(*self.both(instances, T=70, stride=3, stepper="baseline", baseline_lambda=0.05))

    @pytest.mark.parametrize("stepper", ["alg1", "baseline"])
    def test_ev_instance(self, instances, stepper):
        # F and grad F take phi as one row per iterate, priced once per slot
        blocked, legacy = self.both(instances, kind="ev", T=100, stride=7, stepper=stepper)
        assert engine.metrics_block(instances["ev"][0]) == 126
        assert_same_run(blocked, legacy)

    def test_nonconvex_without_oracle(self, instances):
        blocked, legacy = self.both(instances, kind="nonconvex", T=50, stride=4)
        assert math.isnan(blocked.records[-1].gap_F) and math.isnan(blocked.weighted_avg_gap)
        assert_same_run(blocked, legacy)

    @pytest.mark.parametrize("blow_up_at", [40, 42, 170, 171])
    def test_divergence_mid_block(self, instances, monkeypatch, blow_up_at):
        # round blow_up_at starts from an exploded tracker; rounds 40 and 170
        # are not record rounds at stride 3, rounds 42 and 171 are; 170 and
        # 171 lie inside the second block of 126
        real_step = engine.step

        def exploding_step(st):
            if st.t == blow_up_at:
                st.y = st.y + 1e13
            return real_step(st)

        monkeypatch.setattr(engine, "step", exploding_step)
        blocked, legacy = self.both(instances, T=200, stride=3)
        assert blocked.diverged_at == blow_up_at + 1
        assert [r.t for r in blocked.records] == list(range(0, blow_up_at + 1, 3))
        assert_same_run(blocked, legacy)


@given(
    start=strategies.tuples(strategies.floats(min_value=0.0), strategies.floats(), strategies.floats()),
    terms=strategies.lists(
        strategies.tuples(strategies.floats(min_value=0.0), strategies.floats(), strategies.floats()), max_size=60
    ),
)
@settings(max_examples=300, deadline=None)
def test_block_fold_equals_the_per_round_sums(start, terms):
    """``run`` folds a block's weighted sums as one in-place ``np.add.accumulate``
    along axis 1 of the (3, k + 1) array [(wsum, wgap, wgrad), (lambda_t,
    lambda_t * gap_t, lambda_t * grad_t), ...]; each column has the bits of
    the per-round ``+=``, with inf, NaN, mixed signs and mixed magnitudes."""
    sums = np.empty((3, len(terms) + 1))
    sums[:, 0] = start
    with np.errstate(invalid="ignore", over="ignore"):
        if terms:
            lams, gaps, grads = (np.array(col) for col in zip(*terms))
            sums[0, 1:] = lams
            np.multiply(lams, gaps, out=sums[1, 1:])
            np.multiply(lams, grads, out=sums[2, 1:])
        np.add.accumulate(sums, axis=1, out=sums)
    wsum, wgap, wgrad = start
    expected = [(wsum, wgap, wgrad)]
    for lam_t, gap, grad in terms:
        wsum += lam_t
        wgap += lam_t * gap
        wgrad += lam_t * grad
        expected.append((wsum, wgap, wgrad))
    assert sums.tobytes() == np.array(expected).T.copy().tobytes()


def ball_binds(state):
    """Whether line 4's ball rescales a row in the state's next round, read
    from a copy of its zeta stream."""
    zeta = np.zeros(state.y.shape)
    if state.streams is not None:
        zeta = noise_vector(copy.deepcopy(state.streams[TAG_ZETA]), state.schedules.zeta.value(state.t))
    radius = (1.0 + state.gamma1_sum) * state.problem.constants.L_f2
    return bool(np.linalg.norm(state.y + zeta, axis=1).max() > radius)


def stream_positions(state):
    if state.streams is None:
        return None
    return [(stream._next, repr(stream.rng.bit_generator.state)) for stream in state.streams]


class TestLegacyRound:
    """Both steppers equal ``legacy_step`` / ``legacy_step_baseline`` byte
    for byte, round by round; then a run's records, the terminal record's
    dry line 4 included, equal ``legacy_run`` on the legacy steppers, and
    both runs leave their noise streams at the same positions."""

    M, ROUNDS = 10, 120

    @pytest.fixture(scope="class")
    def problems(self):
        sc = synthetic_problem("strongly-convex", self.M, 13, 13, seed=0)
        ev = ev_problem(desk_ev_spec(self.M))
        # a radius far below the trackers' norms, so that the ball binds
        small = dataclasses.replace(ev, constants=dataclasses.replace(ev.constants, L_f2=1e-3 * ev.constants.L_f2))
        return {"strongly-convex": sc, "ev": ev, "ev-ball-binds": small}

    @pytest.mark.parametrize("noise", [True, False])
    @pytest.mark.parametrize("stepper", ["alg1", "baseline"])
    @pytest.mark.parametrize("kind", ["strongly-convex", "ev", "ev-ball-binds"])
    def test_equals_legacy_step(self, problems, kind, stepper, noise):
        W = build_weight_matrix(generate_k_regular(self.M, 4, seed=0), 0.12)
        sch = build_schedules(default_config())
        new, old = (engine.init_run(problems[kind], W, sch, seed=6, noise_enabled=noise) for _ in range(2))
        if stepper == "alg1":
            advance, reference = engine.step, legacy_step
        else:
            advance, reference = partial(engine.step_baseline, lam=0.05), partial(legacy_step_baseline, lam=0.05)
        binds = 0
        for _ in range(self.ROUNDS):
            binds += ball_binds(new)
            assert advance(new).tobytes() == reference(old).tobytes(), new.t
            for name in ("x", "y", "psi", "g_cache", "grad2_cache"):
                assert getattr(new, name).tobytes() == getattr(old, name).tobytes(), (new.t, name)
            assert (new.t, new.gamma1_sum, new.diverged_at) == (old.t, old.gamma1_sum, old.diverged_at)
        # the rescale is skipped in every round but the shrunk radius's
        assert binds == (self.ROUNDS if kind == "ev-ball-binds" else 0)
        kwargs = dict(T=7, stride=3, stepper=stepper, baseline_lambda=0.05)
        assert_same_run(engine.run(new, **kwargs), legacy_run(old, steppers=(legacy_step, legacy_step_baseline), **kwargs))
        assert new.t == old.t == self.ROUNDS + 7
        assert stream_positions(new) == stream_positions(old)
