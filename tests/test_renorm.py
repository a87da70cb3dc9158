import numpy as np
import pytest

from fractal_spectra import symplectic
from fractal_spectra.config import BUILTIN_NAMES, load_config
from fractal_spectra.errors import NotEquivariant, SingularInterior
from fractal_spectra.grassmann import exp_eta, pair, renorm_lift
from fractal_spectra.renorm import (
    CoordinateChart,
    HomogeneousPoint,
    balance_report,
    bidegree_estimate,
    block_copy_frame,
    coords_eval,
    frame_from_pairs,
    g_map,
    gamma_bar_closed_form,
    gamma_bar_semi_closed_form,
    interval_closed_form,
    orbit,
    s_hat,
    symmetric_chart,
    t_iterate,
    t_map,
)
from fractal_spectra.network import VertexPartition, glue, trace_map
from fractal_spectra.selfsim import (
    SelfSimilarStructure,
    assemble_q,
    build_lattice,
    gamma_bar,
    gamma_bar_semi,
    sierpinski,
)
from fractal_spectra.symplectic import (
    LagrangianFrame,
    from_sym,
    in_siegel,
    random_lagrangian,
    reduce_frame,
    subspace_distance,
    tau_translate_frame,
    to_sym,
    w_glue,
    w_renorm,
    w_trace,
)
from fractal_spectra.verify import random_sym

CHART3 = symmetric_chart(3)


def test_t_map_diagonal_is_fixed(gasket):
    u = 1.3 - 0.4j
    out = t_map(u * np.eye(3), gasket)
    assert np.max(np.abs(out - u * np.eye(3))) <= 1e-12


def test_t_map_pole(gasket):
    # 2 u0 + u1 = 0 is the pole of the first gasket coordinate
    q = CHART3.matrix([1.0, -2.0])
    with pytest.raises(SingularInterior):
        t_map(q, gasket)


def test_gamma_bar_closed_form_random_parameters(rng):
    for _ in range(20):
        r, v = rng.uniform(0.3, 3.0, size=2)
        st = gamma_bar(r, v)
        u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        got = coords_eval(u, CHART3, st)
        want = gamma_bar_closed_form(u, r, v)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-10


def test_gamma_bar_semi_closed_form(gsemi, rng):
    for _ in range(20):
        u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        got = coords_eval(u, CHART3, gsemi)
        want = gamma_bar_semi_closed_form(u, 2.0, 4.0, 1.0, 2.0)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-10
    u = 0.6 + 1.1j
    got = coords_eval(np.array([u, u]), CHART3, gsemi)
    assert np.max(np.abs(got - u)) <= 1e-10
    for _ in range(10):
        r, rp, v, vp = rng.uniform(0.3, 3.0, size=4)
        u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        got = coords_eval(u, CHART3, gamma_bar_semi(r, rp, v, vp))
        want = gamma_bar_semi_closed_form(u, r, rp, v, vp)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-10


def test_interval_closed_form(segment, rng):
    for _ in range(20):
        u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        got = coords_eval(u, symmetric_chart(2), segment)
        want = interval_closed_form(u)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-10


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_w_renorm_is_gluing_then_trace(name, rng):
    # one reduction by W_renorm equals the gluing of the N copies onto the
    # level-1 vertices followed by the boundary trace, on copies of random
    # frames, half of them pushed to meet the divisor at infinity
    st = load_config(name).structure
    lat = build_lattice(st, 1)
    part = VertexPartition(st.num_points, tuple(np.concatenate(lat.copy_maps)))
    w, w_g, w_t = w_renorm(st), w_glue(part), w_trace(lat.num_vertices, lat.boundary)
    for t in range(10):
        l = random_lagrangian(st.cell_size, rng, at_infinity=t % 2 == 1)
        tilde = block_copy_frame(l, st)
        once = reduce_frame(tilde, w)
        twice = reduce_frame(reduce_frame(tilde, w_g), w_t)
        assert subspace_distance(once, twice) <= 1e-12


def test_one_homogeneity_strong_vs_weak(gasket, gbar, rng):
    for _ in range(20):
        q = random_sym(rng, 3)
        alpha = complex(rng.standard_normal(), rng.standard_normal())
        lhs = t_map(alpha * q, gasket)
        rhs = alpha * t_map(q, gasket)
        assert np.max(np.abs(lhs - rhs)) <= 1e-9 * max(1, np.max(np.abs(rhs)))
    # weak connections break 1-homogeneity
    q = CHART3.matrix([0.7, 1.9])
    assert np.max(np.abs(t_map(2.0 * q, gbar) - 2.0 * t_map(q, gbar))) > 1e-3


def test_three_path_agreement(gasket, gbar, gsemi, rng):
    for st in (gasket, gbar, gsemi):
        for _ in range(10):
            q = random_sym(rng, 3)
            want = t_map(q, st)
            frame, defect = g_map(from_sym(q), st)
            assert defect == 0
            assert np.max(np.abs(to_sym(frame) - want)) <= 1e-8 * max(1, np.max(np.abs(want)))
            lift = renorm_lift(exp_eta(q), st)
            scale = pair(lift, "-")
            diff = lift - exp_eta(want).scaled(scale)
            assert diff.norm() <= 1e-8 * max(1.0, abs(scale))


def test_g_map_siegel_invariance(gasket, rng):
    l = from_sym(1j * np.eye(3))
    out, defect = g_map(l, gasket)
    assert defect == 0 and in_siegel(out)


def test_g_map_at_compactification_point(gasket):
    # the point ([u0, v0], [1, 0]) sits on the divisor {v1 = 0}
    point = HomogeneousPoint(((0.4 + 0.2j, 1.0), (1.0, 0.0)))
    l = frame_from_pairs(point, CHART3)
    out, defect = g_map(l, gasket)
    assert defect == 1
    assert out.half_dim == 3  # still a Lagrangian frame


def test_g_map_defects_on_weak_divisor(gbar):
    # gamma_bar(1, 2) has divisor factors (u1 + 2) and (u1 + 5)^2; the
    # defect at a generic point of each locus matches the multiplicity
    for z, want in ((2.0, 1), (5.0, 2)):
        point = HomogeneousPoint(((0.37 + 0.21j, 1.0), (-z, 1.0)))
        _, defect = g_map(frame_from_pairs(point, CHART3), gbar)
        assert defect == want


def test_g_map_takes_one_meet(gasket, gbar, monkeypatch):
    # The reduced frame and the defect are read from one kernel L cap W, on
    # a regular point and on points of the divisor alike.
    calls = []
    real = symplectic._meet

    def spy(l, w):
        calls.append(1)
        return real(l, w)

    monkeypatch.setattr(symplectic, "_meet", spy)
    points = [(gasket, from_sym(1j * np.eye(3)), 0),
              (gasket, frame_from_pairs(HomogeneousPoint(((0.4 + 0.2j, 1.0), (1.0, 0.0))), CHART3), 1),
              (gbar, frame_from_pairs(HomogeneousPoint(((0.37 + 0.21j, 1.0), (-5.0, 1.0))), CHART3), 2)]
    for st, frame, want in points:
        calls.clear()
        assert g_map(frame, st)[1] == want
        assert len(calls) == 1


def _reference_g_map(l, st):
    """The step g_map folds into one table: the explicit block-copy frame
    reduced by W_renorm."""
    return symplectic.reduce_copies(block_copy_frame(l, st), w_renorm(st).reduction)


def _weighted_gasket():
    base = sierpinski()
    return SelfSimilarStructure(3, 3, base.glue_classes, base.boundary_map,
                                weights_w=(0.5, 1.0, 2.0), weights_b=(0.25, 0.5, 1.0))


def _weighted_gamma_bar():
    # copy weights and a weak network: every block of the folded copy map
    base = gamma_bar(1.0, 2.0)
    return SelfSimilarStructure(base.cell_size, base.num_copies, base.glue_classes, base.boundary_map,
                                weights_w=(0.5, 1.5, 2.0), weak=base.weak)


@pytest.mark.parametrize("name", BUILTIN_NAMES + ("weighted", "weighted_gamma_bar"))
def test_g_map_matches_block_copy_reduction(name, rng):
    # Random points of the Siegel domain and random frames pushed to meet
    # the divisor at infinity, then Q = 0: the same defect and the same
    # Lagrangian as the reference composition.
    built = {"weighted": _weighted_gasket, "weighted_gamma_bar": _weighted_gamma_bar}
    st = built[name]() if name in built else load_config(name).structure
    k = st.cell_size
    frames = []
    for t in range(6):
        g = rng.standard_normal((k, k))
        frames.append((from_sym(random_sym(rng, k, complex_=False) + 1j * (g @ g.T + 0.1 * np.eye(k))), 0))
        frames.append((random_lagrangian(k, rng, at_infinity=True), None))
    frames.append((from_sym(np.zeros((k, k))), {"sierpinski": 3, "interval": 1}.get(name)))
    for frame, want in frames:
        got, defect = g_map(frame, st)
        ref, ref_defect = _reference_g_map(frame, st)
        assert defect == ref_defect
        if want is not None:
            assert defect == want
        assert subspace_distance(got, ref) <= 1e-13


def test_g_map_matches_block_copy_reduction_on_the_divisor(gasket, gbar):
    # The divisor points of test_defect_matches_its_definition.
    for st, pairs, want in (
        (gasket, ((0.0, 1.0), (0.0, 1.0)), 3),
        (gasket, ((0.4 + 0.2j, 1.0), (1.0, 0.0)), 1),
        (gbar, ((0.37 + 0.21j, 1.0), (-2.0, 1.0)), 1),
        (gbar, ((0.37 + 0.21j, 1.0), (-5.0, 1.0)), 2),
    ):
        frame = frame_from_pairs(HomogeneousPoint(pairs), CHART3)
        got, defect = g_map(frame, st)
        ref, ref_defect = _reference_g_map(frame, st)
        assert defect == ref_defect == want
        assert subspace_distance(got, ref) <= 1e-13


def test_g_map_builds_one_frame(gasket, gbar, monkeypatch):
    # The copy map is folded into the cached reduction: a call constructs
    # the reduced frame and no 2NK x NK frame of the copies.
    for st in (gasket, gbar):
        g_map(from_sym(1j * np.eye(3)), st)  # build the cached table
    real, built = symplectic.LagrangianFrame.__post_init__, []

    def spy(self):
        built.append(np.shape(self.columns))
        real(self)

    monkeypatch.setattr(symplectic.LagrangianFrame, "__post_init__", spy)
    frame = from_sym(1j * np.eye(3))
    for st in (gasket, gbar):
        built.clear()
        g_map(frame, st)
        assert built == [(6, 3)]


def test_iterated_lift_orders_match_level2_nd(gasket, triangle, triangle_q):
    from fractal_spectra.grassmann import phi_curve, renorm_lift, vanishing_order
    from fractal_spectra.spectra import level_spectrum

    phi = phi_curve(triangle_q, np.ones(3))

    def r2(lam):
        return renorm_lift(renorm_lift(phi(lam), gasket), gasket)

    nd2 = level_spectrum(gasket, triangle, np.ones(3), 2, "nd")
    assert [(round(v, 6), m) for v, m in nd2.clusters] == [(-3.0, 3), (-2.5, 1)]
    for lam0, want in ((-3.0, 3), (-2.5, 1), (-1.0, 0)):
        assert vanishing_order(r2, lam0, scales=(1e-2, 1e-3, 1e-4)) == want


def test_coords_eval_rejects_wrong_chart(gasket):
    v = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
    p0 = np.outer(v, v)
    skew = CoordinateChart((p0, np.eye(3) - p0))
    with pytest.raises(NotEquivariant):
        coords_eval(np.array([0.3, 1.8]), skew, gasket)


def test_degree_matrices(gasket, gbar, gsemi, segment):
    assert bidegree_estimate(gasket, CHART3).tolist() == [[1, 1], [1, 2]]
    assert bidegree_estimate(gbar, CHART3).tolist() == [[1, 1], [1, 1]]
    assert bidegree_estimate(gsemi, CHART3).tolist() == [[1, 1], [2, 2]]
    assert bidegree_estimate(segment, symmetric_chart(2)).tolist() == [[1, 1], [1, 1]]


def test_divisor_orders_and_balance(gasket, gbar, gsemi, segment):
    degrees, orders, h, flags = balance_report(gasket, CHART3, [(1, 0.0, 1.0)])
    assert orders == [1] and h == [0, 1] and all(flags)
    # balance spells out 3*2 = (1*1 + 2*2) + 1 for the second pair
    assert 3 * 2 == degrees[1][0] * 1 + degrees[1][1] * 2 + h[1]

    z0, z1 = 2.0, 5.0  # v, 3r+v for gamma_bar(1, 2)
    degrees, orders, h, flags = balance_report(
        gbar, CHART3, [(1, 1.0, z0), (1, 1.0, z1)]
    )
    assert orders == [1, 2] and h == [0, 3] and all(flags)

    z0, z1 = 1.0, 3.0  # v, r+v for gamma_bar_semi(2, 4, 1, 2)
    degrees, orders, h, flags = balance_report(
        gsemi, CHART3, [(1, 1.0, z0), (1, 1.0, z1)]
    )
    assert orders == [0, 0] and h == [0, 0] and all(flags)

    # the interval map has no divisor: balance holds with no loci at all
    degrees, orders, h, flags = balance_report(segment, symmetric_chart(2), [])
    assert orders == [] and h == [0, 0] and all(flags)


def test_s_hat_identities(rng):
    assert s_hat(HomogeneousPoint(((0.0, 1.0), (0.0, 1.0))), CHART3).coeffs == {(0, 0): 1.0}
    u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    x = s_hat(HomogeneousPoint(((u[0], 1.0), (u[1], 1.0))), CHART3)
    y = exp_eta(CHART3.matrix(u))
    assert (x - y).norm() <= 1e-12 * y.norm()
    c = 1.3 - 0.8j
    scaled = s_hat(HomogeneousPoint(((u[0], 1.0), (c * u[1], c))), CHART3)
    assert (scaled - x.scaled(c**2)).norm() <= 1e-12 * x.norm()


def test_orbit_trajectory(gasket):
    steps = orbit(CHART3.matrix([0.0, 3.0]), gasket, 3, CHART3)
    u1 = [s.coords[1].real for s in steps]
    assert u1 == pytest.approx([1.8, 1.08, 0.648])  # ratio 3/5 per step
    assert all(s.defect == 0 for s in steps)


def test_orbit_stays_in_siegel(gasket):
    steps = orbit(1j * np.eye(3), gasket, 5, CHART3)
    assert all(s.in_siegel_domain for s in steps)


def test_orbit_fixed_diagonal(gsemi):
    steps = orbit(CHART3.matrix([0.8, 0.8]), gsemi, 3, CHART3)
    for s in steps:
        assert np.allclose(s.coords, [0.8, 0.8], atol=1e-10)


def test_orbit_survives_poles(gasket):
    # start on the pole line 2 u0 + u1 = 0: the matrix image blows up but
    # the frame trajectory continues and returns to finite coordinates
    steps = orbit(CHART3.matrix([1.0, -2.0]), gasket, 2, CHART3)
    assert steps[0].q is None
    assert steps[1].q is not None
    assert np.allclose(steps[1].coords, [-1.0, -2.0], atol=1e-8)


def test_coords_eval_siegel_invariance(gasket, gbar, rng):
    for st in (gasket, gbar):
        for _ in range(100):
            u = rng.standard_normal(2) + 1j * rng.uniform(0.05, 2.0, size=2)
            out = coords_eval(u, CHART3, st)
            assert np.all(out.imag > 0)


def test_chart_validation():
    with pytest.raises(ValueError):
        CoordinateChart((np.eye(2) * 0.5,))
    chart = symmetric_chart(4)
    assert chart.ranks == (1, 3)
    q = chart.matrix([2.0, -1.0])
    assert np.allclose(chart.coords(q), [2.0, -1.0])


def test_weighted_structure_consistency(rng):
    base = sierpinski()
    st = SelfSimilarStructure(
        3, 3, base.glue_classes, base.boundary_map,
        weights_w=(0.5, 1.0, 2.0), weights_b=(0.25, 0.5, 1.0),
    )
    q = random_sym(rng, 3)
    for n in (1, 2):
        lhs = t_iterate(q, st, n)
        rhs = trace_map(assemble_q(st, q, n), build_lattice(st, n).boundary)
        assert np.linalg.norm(lhs - rhs) <= 1e-9 * np.linalg.norm(rhs)
    frame, _ = g_map(from_sym(q), st)
    assert np.max(np.abs(to_sym(frame) - t_map(q, st))) <= 1e-8
    lift = renorm_lift(exp_eta(q), st)
    scale = pair(lift, "-")
    assert (lift - exp_eta(t_map(q, st)).scaled(scale)).norm() <= 1e-8 * abs(scale)


def test_weighted_bridge_under_hypothesis_h(rng):
    # with gamma = w_i / b_i constant, the lift of the spectral curve sees
    # the assembled pencil at the rescaled parameter gamma * lam
    from fractal_spectra.grassmann import phi_curve
    from fractal_spectra.selfsim import assemble_measure
    from fractal_spectra.spectra import char_det

    base = sierpinski()
    st = SelfSimilarStructure(
        3, 3, base.glue_classes, base.boundary_map,
        weights_w=(1.0, 0.5, 2.0), weights_b=(0.5, 0.25, 1.0),
    )
    ok, gamma = st.hypothesis_h()
    assert ok and gamma == pytest.approx(2.0)
    q_rho = random_sym(rng, 3, complex_=False)
    b = rng.uniform(0.5, 1.5, size=3)
    phi = phi_curve(q_rho, b)
    q1 = assemble_q(st, q_rho, 1)
    b1 = assemble_measure(st, b, 1)
    for lam in (0.4 + 0.3j, -1.2):
        lhs = pair(renorm_lift(phi(lam), st), "+")
        rhs = char_det(q1, b1, gamma * lam, "neumann")
        assert abs(lhs - rhs) <= 1e-9 * abs(rhs)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1.0, np.nan), complex(0.0, np.inf)])
def test_nonfinite_input_is_an_input_error(gasket, bad):
    # One NaN or infinite entry raises ValueError naming "finite" at every
    # entry of the renormalization path, before any SVD or solve sees it.
    q = 1j * np.eye(3)
    q[0, 1] = q[1, 0] = bad
    frame = from_sym(1j * np.eye(3))
    cols = np.array(frame.columns)
    cols[4, 0] = bad
    calls = {
        "t_map": lambda: t_map(q, gasket),
        "trace_map": lambda: trace_map(q, [0, 1]),
        "from_sym": lambda: from_sym(q),
        "g_map": lambda: g_map(LagrangianFrame(cols), gasket),
        "exp_eta": lambda: exp_eta(q),
        "glue": lambda: glue(q, VertexPartition(3, (0, 0, 1))),
        "tau_translate_frame": lambda: tau_translate_frame(frame, q),
        "chart": lambda: symmetric_chart(3).matrix([bad, 1j]),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError, match="finite"):
            call()
