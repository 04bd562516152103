"""Problem instances: projections, gradients, constants, and the oracle."""

import dataclasses
import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagopt.engine import metrics_block
from dagopt.errors import DagoptError, InfeasibleBudget, PointTooCloseToBoundary
from dagopt.harness.experiments import AdjacentScenario, perturb_spec
from dagopt.problems import oracle, synthetic
from dagopt.problems.base import F_grad, F_value, aggregate
from dagopt.problems.ev import desk_ev_spec, ev_problem
from dagopt.problems.gradcheck import finite_diff_check, random_interior_point
from dagopt.problems.oracle import MAX_ITERS, ROUNDING, TOL, OracleSolution, centralized_oracle
from dagopt.problems.projections import BoxBudgetProjection
from dagopt.problems.synthetic import synthetic_problem


def project_row(point, x_max, E):
    """One row through a fresh BoxBudgetProjection."""
    return BoxBudgetProjection(np.atleast_2d(x_max), [E])(np.atleast_2d(point))[0]


def bisection_projection(point, x_max, E, iters=200):
    """Independent reference: solve sum(clip(p - theta, 0, x_max)) = E by bisection."""
    lo = float(point.min() - x_max.max() - 1.0)
    hi = float(point.max() + 1.0)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if np.clip(point - mid, 0.0, x_max).sum() > E:
            lo = mid
        else:
            hi = mid
    return np.clip(point - 0.5 * (lo + hi), 0.0, x_max)


def legacy_project_box_budget_batch(points, x_max, E, polished=None):
    """The per-row-loop projection the vectorized one replaced, kept as its
    bit-for-bit reference.  Indices of rows whose equality polish fired are
    appended to ``polished`` when it is given."""
    points = np.asarray(points, dtype=float)
    x_max = np.asarray(x_max, dtype=float)
    E = np.asarray(E, dtype=float)
    total = x_max.sum(axis=1)
    E = np.clip(E, 0.0, total)
    bp = np.sort(np.concatenate([points, points - x_max], axis=1), axis=1)  # (m, 2K)
    mass = np.clip(points[:, None, :] - bp[:, :, None], 0.0, x_max[:, None, :]).sum(axis=2)  # (m, 2K)
    m = points.shape[0]
    theta = np.empty(m)
    for i in range(m):
        j = int(np.searchsorted(-mass[i], -E[i], side="left"))
        if j == 0:
            theta[i] = bp[i, 0]
        elif j == mass.shape[1]:
            theta[i] = bp[i, -1]
        else:
            m_lo, m_hi = mass[i, j - 1], mass[i, j]
            if m_lo == m_hi:
                theta[i] = bp[i, j - 1]
            else:
                frac = (m_lo - E[i]) / (m_lo - m_hi)
                theta[i] = bp[i, j - 1] + frac * (bp[i, j] - bp[i, j - 1])
    out = np.clip(points - theta[:, None], 0.0, x_max)
    gap = E - out.sum(axis=1)
    rows = np.nonzero(np.abs(gap) > 1e-13)[0]
    for i in rows:
        free = (out[i] > 0) & (out[i] < x_max[i])
        nfree = int(free.sum())
        if nfree > 0:
            if polished is not None:
                polished.append(int(i))
            out[i, free] += gap[i] / nfree
            out[i] = np.clip(out[i], 0.0, x_max[i])
    return out


class TestProjection:
    def test_matches_bisection_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            K = int(rng.integers(2, 14))
            x_max = rng.uniform(0.5, 5.0, K)
            point = rng.normal(0.0, 4.0, K)
            E = float(rng.uniform(0.0, x_max.sum()))
            got = project_row(point, x_max, E)
            ref = bisection_projection(point, x_max, E)
            assert np.allclose(got, ref, atol=1e-9)
            assert got.sum() == pytest.approx(E, abs=1e-9)
            assert np.all(got >= -1e-12) and np.all(got <= x_max + 1e-12)

    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_feasibility_and_optimality_properties(self, data):
        K = data.draw(st.integers(2, 8))
        x_max = np.array(data.draw(st.lists(st.floats(0.1, 5.0), min_size=K, max_size=K)))
        point = np.array(data.draw(st.lists(st.floats(-8.0, 8.0), min_size=K, max_size=K)))
        frac = data.draw(st.floats(0.0, 1.0))
        E = frac * x_max.sum()
        out = project_row(point, x_max, E)
        assert out.sum() == pytest.approx(E, abs=1e-8)
        assert np.all(out >= -1e-10) and np.all(out <= x_max + 1e-10)
        # projection onto a convex set: <p - out, z - out> <= 0 for feasible z,
        # spot-checked against the uniform feasible point z = E * x_max/sum.
        z = E * x_max / x_max.sum()
        assert np.dot(point - out, z - out) <= 1e-8

    def test_zero_budget_gives_zeros(self):
        out = project_row(np.array([1.0, -2.0, 3.0]), np.ones(3), 0.0)
        assert np.array_equal(out, np.zeros(3))

    def test_full_budget_gives_upper_bounds(self):
        x_max = np.array([1.0, 2.0, 0.5])
        out = project_row(np.array([-5.0, 0.0, 9.0]), x_max, x_max.sum())
        assert np.allclose(out, x_max)

    def test_infeasible_budget_rejected(self):
        with pytest.raises(InfeasibleBudget):
            project_row(np.zeros(3), np.ones(3), 4.0)

    def test_batch_agrees_with_single(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(0.0, 3.0, (6, 5))
        x_max = rng.uniform(0.5, 4.0, (6, 5))
        E = np.array([0.3 * row.sum() for row in x_max])
        got = BoxBudgetProjection(x_max, E)(pts)
        for i in range(6):
            assert np.array_equal(got[i], project_row(pts[i], x_max[i], E[i]))

    @pytest.mark.parametrize("budget", ["random", "zero", "full"])
    def test_bit_identical_to_legacy_loop(self, budget):
        rng = np.random.default_rng({"random": 10, "zero": 11, "full": 12}[budget])
        for trial in range(40):
            m = 1200 if trial == 0 else int(rng.integers(1, 80))
            K = int(rng.integers(1, 16))
            x_max = rng.uniform(0.0, 5.0, (m, K))
            x_max[rng.random((m, K)) < 0.25] = 0.0  # closed slots
            pts = rng.normal(0.0, 4.0, (m, K))
            if trial % 2:
                pts = np.round(pts)  # ties among points and breakpoints
                x_max = np.round(x_max)
            if trial % 3 == 0:
                pts[:, K // 2 :] = pts[:, :1]  # repeated coordinates within a row
            E = {"random": rng.uniform(0.0, 1.0, m) * x_max.sum(axis=1), "zero": np.zeros(m), "full": x_max.sum(axis=1)}[
                budget
            ]
            got = BoxBudgetProjection(x_max, E)(pts)
            assert np.array_equal(got, legacy_project_box_budget_batch(pts, x_max, E)), (trial, m, K)

    def test_non_finite_rows_match_legacy_loop(self):
        # a diverging run can hand the projection NaN coordinates; the other
        # coordinates of such a row come out as the loop computed them
        rng = np.random.default_rng(14)
        pts = rng.normal(0.0, 4.0, (6, 13))
        x_max = rng.uniform(0.0, 5.0, (6, 13))
        E = 0.4 * x_max.sum(axis=1)
        pts[1, 3] = np.nan
        pts[4] = np.nan
        got = BoxBudgetProjection(x_max, E)(pts)
        assert np.array_equal(got, legacy_project_box_budget_batch(pts, x_max, E), equal_nan=True)
        assert np.isfinite(np.delete(got[1], 3)).all()

    def test_bit_identical_to_legacy_loop_when_polish_fires(self):
        # at this magnitude the interpolated theta leaves budget gaps above
        # 1e-13, so most rows go through the equality polish
        rng = np.random.default_rng(13)
        pts = rng.normal(0.0, 4e4, (1000, 13))
        x_max = rng.uniform(0.0, 5.0, (1000, 13))
        E = rng.uniform(0.0, 1.0, 1000) * x_max.sum(axis=1)
        polished = []
        ref = legacy_project_box_budget_batch(pts, x_max, E, polished)
        assert len(polished) > 100
        assert np.array_equal(BoxBudgetProjection(x_max, E)(pts), ref)


def legacy_loop_cases(budget):
    """Instances drawn like those of ``test_bit_identical_to_legacy_loop``:
    closed slots, ties among points and breakpoints, repeated coordinates
    within a row, and zero, random or full budgets.  Yields (x_max, E, draw)
    where draw() returns a fresh (m, K) point block of the same kind."""
    rng = np.random.default_rng({"random": 10, "zero": 11, "full": 12}[budget])
    for trial in range(40):
        m = 1200 if trial == 0 else int(rng.integers(1, 80))
        K = int(rng.integers(1, 16))
        x_max = rng.uniform(0.0, 5.0, (m, K))
        x_max[rng.random((m, K)) < 0.25] = 0.0
        if trial % 2:
            x_max = np.round(x_max)
        E = {"random": rng.uniform(0.0, 1.0, m) * x_max.sum(axis=1), "zero": np.zeros(m), "full": x_max.sum(axis=1)}[
            budget
        ]

        def draw(trial=trial, m=m, K=K):
            pts = rng.normal(0.0, 4.0, (m, K))
            if trial % 2:
                pts = np.round(pts)
            if trial % 3 == 0:
                pts[:, K // 2 :] = pts[:, :1]
            return pts

        yield x_max, E, draw


def direct_masses(points, x_max):
    """Mass of each row at each of its sorted breakpoints, evaluated the way
    the projection does: subtract, clip to [0, x_max], sum the row."""
    bp = np.sort(np.concatenate([points, points - x_max], axis=1), axis=1)
    mass = [np.minimum(np.maximum(points - bp[:, [j]], 0.0), x_max).sum(axis=1) for j in range(bp.shape[1])]
    return np.stack(mass, axis=1)


class TestBoxBudgetProjection:
    @pytest.mark.parametrize("budget", ["random", "zero", "full"])
    def test_reused_projector_bit_identical_to_legacy_loop(self, budget):
        rng = np.random.default_rng(22)
        partial_misses = 0
        for case, (x_max, E, draw) in enumerate(legacy_loop_cases(budget)):
            project = BoxBudgetProjection(x_max, E)
            pts = draw()
            # repeats and small moves keep the previous brackets; a fresh
            # draw moves most of them
            for call, p in enumerate([pts, pts, pts + 1e-6, pts - 1e-3, draw(), pts]):
                got = project(p)
                assert np.array_equal(got, legacy_project_box_budget_batch(p, x_max, E)), (case, call)
            # small drifts of a few rows: the rows that leave their bracket
            # send the call to the search, the others keep theirs
            p = pts.copy()
            for call in range(50):
                moved = rng.random(len(p)) < 0.2
                p[moved] += rng.normal(0.0, 0.05, (moved.sum(), p.shape[1]))
                hint = project.hint
                got = project(p)
                assert np.array_equal(got, legacy_project_box_budget_batch(p, x_max, E)), (case, "drift", call)
                kept = project.hint == hint
                partial_misses += bool(kept.any() and not kept.all())
            # a used projector whose hint is assigned between calls: a copy
            # of its own, an earlier one, and stale ones
            earlier = project.hint
            project(draw())
            nbp = 2 * pts.shape[1]
            for call, hint in enumerate([project.hint.copy(), earlier, np.zeros(len(p)), rng.integers(0, nbp, len(p)),
                                         np.full(len(p), nbp - 1)]):
                project.hint = hint.astype(np.intp)
                p = draw()
                got = project(p)
                assert np.array_equal(got, legacy_project_box_budget_batch(p, x_max, E)), (case, "assigned", call)
                assert np.array_equal(project(p), got), (case, "assigned", call)
        # a full budget brackets at j = 0 whatever the points
        assert partial_misses > 0 or budget == "full"

    @pytest.mark.parametrize("budget", ["random", "zero", "full"])
    def test_stale_hints_do_not_change_the_result(self, budget):
        rng = np.random.default_rng(20)
        for case, (x_max, E, draw) in enumerate(legacy_loop_cases(budget)):
            pts = draw()
            ref = legacy_project_box_budget_batch(pts, x_max, E)
            m, nbp = pts.shape[0], 2 * pts.shape[1]
            for hint in (np.zeros(m), np.full(m, nbp - 1), rng.integers(0, nbp, m)):
                project = BoxBudgetProjection(x_max, E)
                project.hint = hint.astype(np.intp)
                assert np.array_equal(project(pts), ref), case

    def test_hint_is_the_unique_bracket(self):
        rng = np.random.default_rng(21)
        x_max = rng.uniform(0.0, 5.0, (50, 13))
        E = rng.uniform(0.0, 1.0, 50) * x_max.sum(axis=1)
        pts = rng.normal(0.0, 4.0, (50, 13))
        project = BoxBudgetProjection(x_max, E)
        project(pts)
        mass = direct_masses(pts, x_max)
        assert np.array_equal(project.hint, (mass > E[:, None]).sum(axis=1))

    def test_non_finite_call_then_finite_call_match_legacy_loop(self):
        rng = np.random.default_rng(15)
        x_max = rng.uniform(0.0, 5.0, (6, 13))
        E = 0.4 * x_max.sum(axis=1)
        project = BoxBudgetProjection(x_max, E)
        bad = rng.normal(0.0, 4.0, (6, 13))
        bad[1, 3] = np.nan
        bad[4] = np.nan
        good = rng.normal(0.0, 4.0, (6, 13))
        for pts in (good, bad, good, good):
            ref = legacy_project_box_budget_batch(pts, x_max, E)
            assert np.array_equal(project(pts), ref, equal_nan=True)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_direct_mass_non_increasing_at_sorted_breakpoints(self, data):
        # the one-bracket argument the hint relies on, including ties, closed
        # slots and magnitudes far apart
        K = data.draw(st.integers(1, 16))
        coord = st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, 1.0, -1.0, 0.1, 1e-300, 3.0]))
        points = np.array([data.draw(st.lists(coord, min_size=K, max_size=K))])
        x_max = np.array([data.draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e6)), min_size=K, max_size=K))])
        mass = direct_masses(points, x_max)[0]
        assert np.all(np.diff(mass) <= 0), mass
        bp = np.sort(np.concatenate([points, points - x_max], axis=1), axis=1)[0]
        assert np.array_equal(mass, [np.clip(points[0] - b, 0.0, x_max[0]).sum() for b in bp])

    def test_infeasible_budget_rejected_at_construction(self):
        with pytest.raises(InfeasibleBudget):
            BoxBudgetProjection(np.ones((1, 3)), np.array([4.0]))
        with pytest.raises(InfeasibleBudget):
            BoxBudgetProjection(np.ones((1, 3)), np.array([-1.0]))
        with pytest.raises(InfeasibleBudget):
            BoxBudgetProjection(-np.ones((1, 3)), np.array([0.0]))


class TestEVInstance:
    def test_spec_shapes_and_feasibility(self):
        spec = desk_ev_spec(20)
        assert spec.m == 20
        assert spec.x_max.shape == (20, 13)
        assert np.all(spec.E <= spec.x_max.sum(axis=1) + 1e-9)
        assert np.all(spec.d >= 0)

    def test_energy_above_the_rate_caps_is_refused_when_a_spec_is_made(self):
        spec = desk_ev_spec(4)
        E = spec.E.copy()
        E[1] = spec.x_max[1].sum() + 1.0
        with pytest.raises(DagoptError, match="agent 1"):
            dataclasses.replace(spec, E=E)

    def test_aggregate_is_mean_of_locals(self, desk_problem):
        rng = np.random.default_rng(2)
        x = desk_problem.eval_project_all(rng.uniform(0, 5, (20, 13)))
        phi = aggregate(desk_problem, x)
        assert np.allclose(phi, desk_problem.eval_g_all(x).mean(axis=0), atol=1e-12)

    def test_gradient_bound_constants_hold(self, desk_problem):
        # L_f1 / L_f2 must dominate observed gradient norms over the clamp box.
        c = desk_problem.constants
        rng = np.random.default_rng(3)
        cap = desk_problem.meta["spec"].psi_cap
        for _ in range(50):
            x = desk_problem.eval_project_all(rng.uniform(0, 8, (20, 13)))
            psi = rng.uniform(0.0, cap, (20, 13))
            g1 = desk_problem.eval_grad1_all(x, psi)
            g2 = desk_problem.eval_grad2_all(x, psi)
            assert np.linalg.norm(g1, axis=1).max() <= c.L_f1 + 1e-9
            assert np.linalg.norm(g2, axis=1).max() <= c.L_f2 + 1e-9

    def test_grad2_bound_holds_beyond_cap(self, desk_problem):
        # the price slope saturates above the clamp box, so the bound is global
        c = desk_problem.constants
        rng = np.random.default_rng(4)
        x = desk_problem.eval_project_all(rng.uniform(0, 8, (20, 13)))
        psi = rng.uniform(-50.0, 50.0, (20, 13))
        g2 = desk_problem.eval_grad2_all(x, psi)
        assert np.linalg.norm(g2, axis=1).max() <= c.L_f2 + 1e-9

    def test_finite_diff_on_ev(self, desk_problem):
        x, psi = random_interior_point(desk_problem, seed=0)
        assert finite_diff_check(desk_problem, x, psi).max_rel_error < 1e-5


class TestSynthetic:
    @pytest.mark.parametrize("kind", ["strongly-convex", "convex", "nonconvex"])
    def test_finite_diff(self, kind):
        prob = synthetic_problem(kind, 10, 4, 3, seed=0)
        x, psi = random_interior_point(prob, seed=1)
        assert finite_diff_check(prob, x, psi).max_rel_error < 1e-5

    def test_strong_convexity_modulus(self):
        prob = synthetic_problem("strongly-convex", 10, 4, 3, seed=0)
        assert prob.constants.mu > 0.0
        assert synthetic_problem("convex", 10, 4, 3, seed=0).constants.mu == 0.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(Exception):
            synthetic_problem("cubic", 4, 2, 2, seed=0)


def full_hessian_min_eigenvalue(prob):
    """The curvature check that differenced all m*n columns of F's Hessian,
    kept as the reference for the block check: the smallest eigenvalue of
    the symmetrized (m*n) x (m*n) finite-difference Hessian at x = 0.9."""
    m, n = prob.m, prob.n
    h, dim = 1e-5, m * n
    base = np.full(dim, 0.9)
    H = np.zeros((dim, dim))
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = h
        gp = F_grad(prob, (base + e).reshape(m, n)).reshape(-1)
        gm = F_grad(prob, (base - e).reshape(m, n)).reshape(-1)
        H[:, j] = (gp - gm) / (2 * h)
    return float(np.linalg.eigvalsh(0.5 * (H + H.T)).min())


class TestNonconvexCheck:
    @pytest.mark.parametrize("m", [6, 400])
    def test_two_gradient_calls_per_coordinate_for_any_m(self, monkeypatch, m):
        calls = []

        def counting(prob, x):
            calls.append(x.shape)
            return F_grad(prob, x)

        monkeypatch.setattr(synthetic, "F_grad", counting)
        synthetic_problem("nonconvex", m, 13, 13, seed=0)
        assert calls == [(m, 13)] * 26

    def test_refusals_match_the_full_hessian(self, monkeypatch):
        check = synthetic._assert_nonconvex
        monkeypatch.setattr(synthetic, "_assert_nonconvex", lambda prob: None)
        refused = []
        for m, n, d, seed in itertools.product((1, 2, 3), (1, 2, 3), (1, 2, 3), range(20)):
            prob = synthetic_problem("nonconvex", m, n, d, seed=seed)
            lam_min = full_hessian_min_eigenvalue(prob)
            if lam_min >= 0:
                refused.append((m, n, d, seed))
                # at m = 1 agent 0's block is the whole Hessian: the same number
                with pytest.raises(DagoptError, match=f"eigenvalue {lam_min:.3e} >= 0"):
                    check(prob)
            else:
                check(prob)
        assert refused and all(m == 1 for m, *_ in refused)


class TestPickle:
    """A problem is data plus kernels, so it survives a pickle round trip and
    the copy's kernels give the original's bytes."""

    @staticmethod
    def problem(kind):
        if kind == "ev":
            return ev_problem(desk_ev_spec(10))
        if kind == "perturbed-ev":
            scenario = AdjacentScenario(agents=(2, 3), shift_fraction=0.4, pivot_slot=3)
            return ev_problem(perturb_spec(desk_ev_spec(10), scenario))
        return synthetic_problem(kind, 10, 4, 3, seed=1)

    @staticmethod
    def outputs(prob, x, psi, v):
        out = [prob.f_all(x, psi), prob.g_all(x), prob.grad1_all(x, psi), prob.grad2_all(x, psi),
               prob.gg_apply_all(x, v), F_value(prob, x), F_grad(prob, x)]
        if x.ndim == 2:
            out.append(prob.project_all(x))
        return [np.asarray(a).tobytes() for a in out]

    @pytest.mark.parametrize("kind", ["ev", "perturbed-ev", "strongly-convex", "convex", "nonconvex"])
    def test_round_trip_gives_identical_kernels(self, kind):
        prob = self.problem(kind)
        copy = pickle.loads(pickle.dumps(prob))
        assert (copy.m, copy.n, copy.d) == (prob.m, prob.n, prob.d)
        assert copy.constants == prob.constants
        rng = np.random.default_rng(7)
        for lead in ((), (3,)):
            x = rng.uniform(-1.2, 2.0, lead + (prob.m, prob.n))
            psi = prob.psi_lo + rng.uniform(-0.2, 1.2, lead + (prob.m, prob.d)) * (prob.psi_hi - prob.psi_lo)
            v = rng.normal(size=lead + (prob.m, prob.d))
            assert self.outputs(copy, x, psi, v) == self.outputs(prob, x, psi, v)
        assert np.array_equal(random_interior_point(copy, 3)[0], random_interior_point(prob, 3)[0])


class TestBatchAxes:
    """A (B, m, n) stack of iterates gives, row for row and bit for bit, what B
    separate (m, n) calls give: the engine evaluates its metrics on stacks and
    writes the same bytes as a per-round evaluation."""

    @staticmethod
    def problem(kind):
        if kind == "ev":
            return ev_problem(desk_ev_spec(10))
        return synthetic_problem(kind, 10, 13, 13, seed=1)

    @staticmethod
    def operands(prob, B):
        """x, psi and v stacks; x spans the box and beyond, psi both sides of
        its clamp box."""
        rng = np.random.default_rng(B)
        shape_x, shape_d = (B, prob.m, prob.n), (B, prob.m, prob.d)
        if "spec" in prob.meta:  # the EV instance
            x = rng.uniform(-0.1, 1.1, shape_x) * prob.meta["spec"].x_max
        else:
            x = rng.uniform(-1.2, 1.2, shape_x)
        span = prob.psi_hi - prob.psi_lo
        psi = prob.psi_lo + rng.uniform(-0.2, 1.2, shape_d) * span
        return x, psi, rng.normal(size=shape_d)

    @pytest.mark.parametrize("kind", ["ev", "strongly-convex", "convex", "nonconvex"])
    @pytest.mark.parametrize("block", ["one", "engine"])
    def test_stack_equals_separate_calls(self, kind, block):
        prob = self.problem(kind)
        B = 1 if block == "one" else metrics_block(prob)
        x, psi, v = self.operands(prob, B)
        calls = {
            "f_all": (prob.f_all, (x, psi)),
            "g_all": (prob.g_all, (x,)),
            "grad1_all": (prob.grad1_all, (x, psi)),
            "grad2_all": (prob.grad2_all, (x, psi)),
            "gg_apply_all": (prob.gg_apply_all, (x, v)),
            "F_value": (lambda x: F_value(prob, x), (x,)),
            "F_grad": (lambda x: F_grad(prob, x), (x,)),
            "aggregate": (lambda x: aggregate(prob, x), (x,)),
        }
        for name, (fn, args) in calls.items():
            stacked = fn(*args)
            assert len(stacked) == B, name
            for b in range(B):
                single = fn(*(a[b] for a in args))
                assert np.array_equal(stacked[b], single), (name, b)

    def test_F_value_of_one_iterate_is_a_float(self):
        prob = self.problem("strongly-convex")
        x, _, _ = self.operands(prob, 1)
        assert type(F_value(prob, x[0])) is float


def gradcheck_problem(kind):
    """The four problems of the gradient-correctness criterion."""
    if kind == "ev":
        return ev_problem(desk_ev_spec(20))
    return synthetic_problem(kind, m=6, n_i=4, d=4, seed=0)


def reference_interior_point(prob, seed, pull=0.25):
    """The per-agent loop the block draw of random_interior_point replaced."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    x = np.zeros((prob.m, prob.n))
    for i in range(prob.m):
        if "spec" in prob.meta:
            spec = prob.meta["spec"]
            E_i, x_max_i = float(spec.E[i]), spec.x_max[i]
            rand_pt = project_row(rng.uniform(0.0, 1.0, prob.n) * x_max_i, x_max_i, E_i)
            x[i] = 0.7 * np.full(prob.n, E_i / prob.n) + 0.3 * rand_pt
        else:
            x[i] = np.clip((1.0 - pull) * rng.uniform(-1.0, 1.0, size=prob.n), -1.0, 1.0)
    psi = prob.psi_lo + rng.uniform(0.3, 0.7, size=prob.d) * (prob.psi_hi - prob.psi_lo)
    return x, psi


KINDS = ["ev", "strongly-convex", "convex", "nonconvex"]


class TestGradCheck:
    @pytest.mark.parametrize("field", ["grad1_all", "grad2_all", "gg_apply_all"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_detects_a_wrong_vectorized_gradient(self, kind, field):
        prob = gradcheck_problem(kind)
        right = getattr(prob, field)
        wrong = dataclasses.replace(prob, **{field: lambda *args: 1.01 * right(*args)})
        x, psi = random_interior_point(wrong, seed=0)
        res = finite_diff_check(wrong, x, psi)
        # a 1% error shows as 1% of max(1, |gradient|_inf) at most: the EV
        # Jacobian entries are m / C_tot = 0.083, so there it reads 8.3e-4
        assert res.max_rel_error > 1e-4
        assert res.worst.startswith(f"{field} agent ")

    @pytest.mark.parametrize("kind", KINDS)
    def test_interior_point_matches_per_agent_draws(self, kind):
        prob = gradcheck_problem(kind)
        for seed in (0, 1000, 1019):
            x, psi = random_interior_point(prob, seed=seed)
            x_ref, psi_ref = reference_interior_point(prob, seed)
            assert np.array_equal(x, x_ref) and np.array_equal(psi, psi_ref)

    def test_synthetic_interior_check_matches_the_projection_probe(self):
        # the probe the box hook replaced: x^i_j +- h must survive projection
        prob = gradcheck_problem("convex")
        h = 2e-5
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.choice([-1.0, 1.0], size=(prob.m, prob.n)) * (1.0 - rng.uniform(0.0, 3 * h, (prob.m, prob.n)))
            probe = np.ones(x.shape, dtype=bool)
            for j, e in enumerate(h * np.eye(prob.n)):
                for pt in (x + e, x - e):
                    probe[:, j] &= np.abs(prob.project_all(pt) - pt).max(axis=1) <= 1e-12
            assert 0 < probe.sum() < probe.size
            assert np.array_equal(prob.interior_check(x, h), probe)

    def test_boundary_point_names_the_agent(self):
        prob = gradcheck_problem("convex")
        x, psi = random_interior_point(prob, seed=0)
        x[4, 2] = 1.0 - 1e-6
        with pytest.raises(PointTooCloseToBoundary, match="x\\^4 coordinate 2"):
            finite_diff_check(prob, x, psi)
        ev = gradcheck_problem("ev")
        x, psi = random_interior_point(ev, seed=0)
        x[7, 0] = 0.0
        with pytest.raises(PointTooCloseToBoundary, match="x\\^7 "):
            finite_diff_check(ev, x, psi)
        # both kinds of problem name the coordinate
        with pytest.raises(PointTooCloseToBoundary, match="x\\^7 coordinate 0 "):
            finite_diff_check(ev, x, psi)


def legacy_centralized_oracle(problem):
    """Monotone projected gradient with Armijo backtracking, one projection
    per trial, kept as an independent reference solver: the oracle's
    solution must agree with its solution wherever it converges."""
    x = problem.eval_project_all(np.zeros((problem.m, problem.n)))
    fx = F_value(problem, x)
    step = 1.0
    pg = np.inf
    it = 0
    for it in range(1, MAX_ITERS + 1):
        grad = F_grad(problem, x)
        x_trial = problem.eval_project_all(x - step * grad)
        diff = x - x_trial
        pg = float(np.linalg.norm(diff)) / step
        if pg < TOL:
            break
        accepted = False
        for trial in range(60):
            if trial:
                x_trial = problem.eval_project_all(x - step * grad)
            diff = x_trial - x
            f_trial = F_value(problem, x_trial)
            if f_trial <= fx + float((grad * diff).sum()) + 0.5 / step * float((diff * diff).sum()) + 1e-15:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        x, fx = x_trial, f_trial
        step = min(step * 1.25, 1e6)
    return OracleSolution(x_star=x, F_star=fx, iterations=it, pg_norm=pg, converged=pg < TOL)


def solve_counting_projections(solver, problem):
    """(solution, number of projections the solve made)."""
    calls = []
    project = problem.project_all
    problem = dataclasses.replace(problem, project_all=lambda x: calls.append(None) or project(x))
    return solver(problem), len(calls)


def ev_kkt_residual(x, spec):
    """Largest violation of the EV optimum's KKT conditions, relative to the
    largest marginal price.  Every agent sees the marginal price
    p(phi) + p'(phi) phi = c (1 + e) phi^e per slot, and needs one
    multiplier mu_i with price = mu_i on its free slots, >= mu_i on slots at
    0 and <= mu_i on slots at x_max: the violation is how far the largest
    price it must stay below exceeds the smallest it must stay above."""
    phi = (x + spec.d).sum(axis=0) / spec.C_tot
    price = spec.price_coeff * (1.0 + spec.price_exp) * phi**spec.price_exp
    below = np.where(x > 0.0, price, -np.inf).max(axis=1)  # mu_i >= these
    above = np.where(x < spec.x_max, price, np.inf).min(axis=1)  # mu_i <= these
    return float(np.maximum(below - above, 0.0).max()) / float(price.max())


def box_kkt_residual(problem, x):
    """Largest KKT violation of a point of the box [-1, 1]^(m n), in the
    units of grad F: |grad| on free coordinates, the wrong-signed part at a
    bound."""
    g = F_grad(problem, x)
    free = np.abs(x) < 1.0
    return float(np.where(free, np.abs(g), np.maximum(np.sign(x) * g, 0.0)).max())


def unit_step_mapping(problem, x):
    """|x - P(x - grad F(x))|, computed directly at x."""
    r = x - problem.eval_project_all(x - F_grad(problem, x))
    return math.sqrt(float((r * r).sum()))


def ev_frank_wolfe_gap(problem, x):
    """max over feasible y of <grad F(x), x - y>, which bounds F(x) - F* from
    above for convex F.  Each agent's minimizing y fills its cheapest slots
    up to x_max until its energy E is met."""
    spec = problem.meta["spec"]
    g = F_grad(problem, x)
    order = np.argsort(g, axis=1, kind="stable")
    cap = np.take_along_axis(spec.x_max, order, axis=1)
    fill = np.clip(spec.E[:, None] - (np.cumsum(cap, axis=1) - cap), 0.0, cap)
    y = np.empty_like(x)
    np.put_along_axis(y, order, fill, axis=1)
    return float((g * (x - y)).sum())


def oracle_instances():
    """The instances the oracle is compared with its reference on."""
    for m, seed in itertools.product((4, 6, 10, 20, 30, 50), range(6)):
        yield f"strongly-convex m={m} seed={seed}", synthetic_problem("strongly-convex", m, 4, 3, seed=seed)
    for m in (5, 10):
        yield f"ev m={m}", ev_problem(desk_ev_spec(m))


class TestOracle:
    def test_stationarity_at_solution(self):
        prob = synthetic_problem("strongly-convex", 10, 4, 3, seed=0)
        sol = centralized_oracle(prob)
        assert sol.converged
        assert sol.pg_norm < 1e-7
        # projected gradient fixed point: P_X(x* - grad) == x*
        g = F_grad(prob, sol.x_star)
        assert np.allclose(prob.eval_project_all(sol.x_star - g), sol.x_star, atol=1e-6)

    def test_oracle_beats_random_feasible_points(self, desk_problem):
        sol = centralized_oracle(desk_problem)
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = desk_problem.eval_project_all(rng.uniform(0, 8, (20, 13)))
            assert F_value(desk_problem, x) >= sol.F_star - 1e-9

    @pytest.mark.parametrize("m", [20, 200])
    def test_ev_converges_without_rounding_the_step_away(self, m):
        # without the gradient-difference test, rounding in F rejects good
        # trials here until P(x - s grad) rounds back to x and pg_norm reads
        # 0.0 (77 projections for 40 iterations at m = 20)
        problem = ev_problem(desk_ev_spec(m))
        sol, projections = solve_counting_projections(centralized_oracle, problem)
        assert sol.converged and 0.0 < sol.pg_norm < TOL
        assert ev_kkt_residual(sol.x_star, problem.meta["spec"]) <= 1e-9
        assert projections <= 1.5 * sol.iterations + 1, (projections, sol.iterations)

    def test_convex_synthetic_converges_without_rounding_the_step_away(self):
        problem = synthetic_problem("convex", 50, 4, 4, seed=0)
        sol, projections = solve_counting_projections(centralized_oracle, problem)
        assert sol.converged and 0.0 < sol.pg_norm < TOL
        # a linear f has no price scale: the stopping rule bounds the
        # residual in grad F's own units
        assert box_kkt_residual(problem, sol.x_star) < TOL
        assert projections <= 1.5 * sol.iterations + 1, (projections, sol.iterations)

    @pytest.mark.parametrize("m", [4, 6, 10, 20, 30, 50])
    def test_bit_identical_to_legacy_where_rounding_decides_no_trial(self, m):
        """Both solvers land on the unique minimizer within the error bound
        mu |x - x*| <= (1 + L) |x - P(x - grad F(x))|.  Here mu = 1 and
        grad^2 F = I + B'B / m with B = [A_1 ... A_m], |B|^2 <= m L_g^2, so
        L = 1 + L_g^2."""
        for seed in range(6):
            problem = synthetic_problem("strongly-convex", m, 4, 3, seed=seed)
            sol, ref = centralized_oracle(problem), legacy_centralized_oracle(problem)
            assert sol.converged and ref.converged, (m, seed)
            L = 1.0 + problem.constants.L_g**2
            bound = (1.0 + L) / problem.constants.mu * (unit_step_mapping(problem, sol.x_star)
                                                         + unit_step_mapping(problem, ref.x_star))
            assert np.linalg.norm(sol.x_star - ref.x_star) <= bound, (m, seed)

    @pytest.mark.parametrize("m", [5, 10])
    def test_small_ev_bit_identical_to_legacy(self, m):
        """F = c C_tot sum_k phi_k^(1+e) depends on x only through the load
        phi, and is mu_phi-strongly convex in phi with mu_phi = c C_tot
        (1+e) e phi_min^(e-1), where phi >= phi_min = min_k sum_i d_ik /
        C_tot.  So mu_phi/2 |phi(x) - phi*|^2 <= F(x) - F*, which the
        Frank-Wolfe gap bounds from above."""
        problem = ev_problem(desk_ev_spec(m))
        spec = problem.meta["spec"]
        sol, ref = centralized_oracle(problem), legacy_centralized_oracle(problem)
        assert sol.converged and ref.converged
        assert abs(sol.F_star - ref.F_star) <= ROUNDING * abs(ref.F_star)
        c, e = spec.price_coeff, spec.price_exp
        mu_phi = c * spec.C_tot * (1.0 + e) * e * float(spec.d.sum(axis=0).min() / spec.C_tot) ** (e - 1.0)
        bound = sum(math.sqrt(2.0 * max(ev_frank_wolfe_gap(problem, x), 0.0) / mu_phi)
                    for x in (sol.x_star, ref.x_star))
        assert np.linalg.norm(aggregate(problem, sol.x_star) - aggregate(problem, ref.x_star)) <= bound
        assert ev_kkt_residual(sol.x_star, spec) <= 1e-9

    def test_monotone_search_settles_rounding_limited_trials(self, monkeypatch):
        # against the last F value alone, F's rounding fails trials near the
        # optimum that the gradient-difference test accepts: 36 iterations
        # here, and 101 without that test
        monkeypatch.setattr(oracle, "MEMORY", 1)
        problem = synthetic_problem("convex", 50, 4, 4, seed=2)
        sol = centralized_oracle(problem)
        assert sol.converged and sol.iterations <= 60
        assert box_kkt_residual(problem, sol.x_star) < TOL

    def test_fewer_projections_than_the_reference(self):
        for name, problem in oracle_instances():
            _, projections = solve_counting_projections(centralized_oracle, problem)
            _, ref_projections = solve_counting_projections(legacy_centralized_oracle, problem)
            assert projections < ref_projections, (name, projections, ref_projections)

    def test_pg_norm_bounds_the_unit_step_mapping(self):
        # up to the rounding of the two mappings' coordinates, eps (|x| + |grad|)
        eps = float(np.finfo(float).eps)
        for name, problem in oracle_instances():
            sol = centralized_oracle(problem)
            x = sol.x_star
            slack = eps * math.sqrt(x.size) * float((np.abs(x) + np.abs(F_grad(problem, x))).max())
            assert sol.pg_norm >= unit_step_mapping(problem, x) - slack, name

    def test_desk_ev_m1000_in_few_projected_steps(self):
        problem = ev_problem(desk_ev_spec(1000))
        sol, projections = solve_counting_projections(centralized_oracle, problem)
        assert sol.converged and sol.iterations <= 10
        assert projections <= sol.iterations + 1
        assert ev_kkt_residual(sol.x_star, problem.meta["spec"]) <= 1e-12

    def test_ev_minimizer_is_not_unique(self):
        # F depends on x only through the load, so moving delta between two
        # agents in two slots keeps every load, every budget and F, bit for
        # bit: EV err_x is the distance to the oracle's minimizer, one of many
        problem = ev_problem(desk_ev_spec(20))
        spec = problem.meta["spec"]
        sol = centralized_oracle(problem)
        x = sol.x_star
        assert np.all((x > 0.0) & (x < spec.x_max))
        delta = 0.5 * min(x[0, 1], spec.x_max[0, 0] - x[0, 0], x[1, 0], spec.x_max[1, 1] - x[1, 1])
        y = x.copy()
        y[0, 0] += delta
        y[0, 1] -= delta
        y[1, 0] -= delta
        y[1, 1] += delta
        assert np.all((y >= 0.0) & (y <= spec.x_max))
        assert np.array_equal(y.sum(axis=1), x.sum(axis=1))
        assert F_value(problem, y) == sol.F_star
        assert ((y - x) ** 2).sum() > 25.0
