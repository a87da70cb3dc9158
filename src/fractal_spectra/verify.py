"""Identity suites behind the ``verify`` command.

Each check exercises one family of identities the library is supposed to
satisfy (variational trace, Grassmann determinant identities, reduction
composition, iterate consistency, closed coordinate forms, degree
matrices, divisor orders with the balance certificate, Siegel invariance,
the Neumann-Dirichlet bookkeeping, and one renormalization step taken on
matrices, frames and coefficients).  Checks return their worst
residual so failures are quantitative.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass

import numpy as np

from .errors import FractalSpectraError
from .grassmann import (
    exp_eta,
    glue_morphism,
    interior_reduce,
    pair,
    phi_curve,
    renorm_lift,
    vanishing_order,
)
from .network import ElectricalNetwork, VertexPartition, glue, q_matrix, trace_map
from .renorm import (
    balance_report,
    bidegree_estimate,
    coords_eval,
    g_map,
    gamma_bar_closed_form,
    gamma_bar_semi_closed_form,
    gasket_closed_form,
    interval_closed_form,
    t_iterate,
    t_map,
)
from .selfsim import assemble_measure, assemble_q
from .spectra import char_det, level_spectrum
from .symplectic import (
    compose,
    from_sym,
    random_lagrangian,
    reduce_frame,
    subspace_distance,
    to_sym,
    w_glue,
    w_trace,
)


@dataclass
class CheckResult:
    group: str
    passed: bool
    residual: float
    detail: str = ""

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        extra = f"  ({self.detail})" if self.detail else ""
        return f"{status}  {self.group:24s} max residual {self.residual:.3e}{extra}"


def random_sym(rng, k, complex_=True):
    """Random symmetric k x k matrix, complex unless ``complex_`` is False."""
    q = rng.standard_normal((k, k))
    if complex_:
        q = q + 1j * rng.standard_normal((k, k))
    return (q + q.T) / 2.0


def random_conservative_network(rng, k) -> ElectricalNetwork:
    """Random irreducible conservative network: a random spanning tree plus
    a few extra edges, unit-scale conductances."""
    cond = {}
    order = rng.permutation(k)
    for t in range(1, k):
        a = order[t]
        b = order[rng.integers(0, t)]
        cond[(min(a, b), max(a, b))] = float(rng.uniform(0.2, 2.0))
    for _ in range(k):
        a, b = rng.integers(0, k, size=2)
        if a != b:
            key = (min(a, b), max(a, b))
            cond[key] = cond.get(key, 0.0) + float(rng.uniform(0.2, 2.0))
    return ElectricalNetwork(k, cond)


def brute_force_trace_energy(q, boundary, f):
    """Independent variational oracle: minimize <Qg, g> over extensions of
    f by solving the interior stationarity system directly."""
    q = np.asarray(q, dtype=float)
    boundary = list(boundary)
    on_boundary = set(boundary)
    interior = [i for i in range(q.shape[0]) if i not in on_boundary]
    g = np.zeros(q.shape[0])
    g[boundary] = f
    if interior:
        a = q[np.ix_(interior, interior)]
        rhs = -q[np.ix_(interior, boundary)] @ f
        g[interior] = np.linalg.solve(a, rhs)
    return float(g @ q @ g)


def check_trace_variational(rng) -> CheckResult:
    worst = 0.0
    for _ in range(50):
        k = int(rng.integers(3, 7))
        net = random_conservative_network(rng, k)
        q = q_matrix(net)
        p = int(rng.integers(1, k))
        boundary = sorted(rng.permutation(k)[:p].tolist())
        f = rng.standard_normal(p)
        direct = float(np.real(f @ trace_map(q, boundary) @ f))
        oracle = brute_force_trace_energy(q, boundary, f)
        worst = max(worst, abs(direct - oracle) / max(1.0, abs(oracle)))
    return CheckResult("trace-variational", worst <= 1e-9, worst)


def _table_rel_err(lhs, rhs):
    keys = set(lhs.coeffs) | set(rhs.coeffs)
    scale = max((abs(c) for c in rhs.coeffs.values()), default=1.0)
    worst = 0.0
    for key in keys:
        d = abs(lhs.get(*key) - rhs.get(*key))
        denom = max(abs(rhs.get(*key)), 1e-9 * scale)
        worst = max(worst, d / denom)
    return worst


def check_boundary_identity(rng) -> CheckResult:
    """det(Q_interior) exp of the boundary trace equals the interior
    reduction of exp(Q), componentwise."""
    worst = 0.0
    for _ in range(100):
        k = int(rng.choice([2, 3, 4]))
        q = random_sym(rng, k)
        p = int(rng.integers(1, k + 1))
        boundary = sorted(rng.permutation(k)[:p].tolist())
        on_boundary = set(boundary)
        interior = [i for i in range(k) if i not in on_boundary]
        lhs = interior_reduce(exp_eta(q), interior)
        det_int = np.linalg.det(q[np.ix_(interior, interior)]) if interior else 1.0
        rhs = exp_eta(trace_map(q, boundary)).scaled(det_int)
        worst = max(worst, _table_rel_err(lhs, rhs))
    return CheckResult("grassmann-boundary", worst <= 1e-9, worst)


def check_gluing_identity(rng) -> CheckResult:
    """Gluing morphism identity plus the two frame equalities (trace and
    gluing reductions agree with the matrix maps)."""
    worst = 0.0
    for _ in range(50):
        k = int(rng.choice([2, 3, 4]))
        q = random_sym(rng, k)
        m = int(rng.integers(1, k + 1))
        part = VertexPartition(k, tuple(int(c) for c in _random_surjection(rng, k, m)))
        lhs = glue_morphism(exp_eta(q), part)
        rhs = exp_eta(glue(q, part))
        worst = max(worst, _table_rel_err(lhs, rhs))
        worst = max(
            worst,
            subspace_distance(reduce_frame(from_sym(q), w_glue(part)), from_sym(glue(q, part))),
        )
        p = int(rng.integers(1, k + 1))
        boundary = sorted(rng.permutation(k)[:p].tolist())
        worst = max(
            worst,
            subspace_distance(
                reduce_frame(from_sym(q), w_trace(k, boundary)),
                from_sym(trace_map(q, boundary)),
            ),
        )
    return CheckResult("grassmann-gluing", worst <= 1e-9, worst)


def _random_surjection(rng, k, m):
    labels = list(range(m)) + [int(rng.integers(0, m)) for _ in range(k - m)]
    rng.shuffle(labels)
    return labels


def check_composition(rng) -> CheckResult:
    """t_{W'} after t_W equals t_{W' + W^o}."""
    worst = 0.0
    for t in range(30):
        k = 4
        l = random_lagrangian(k, rng, at_infinity=(t % 3 == 0))
        w1 = w_trace(k, [0, 1, 2])
        if t % 2 == 0:
            w2 = w_trace(3, sorted(rng.permutation(3)[:2].tolist()))
        else:
            w2 = w_glue(VertexPartition.from_classes(3, [[0, 2]]))
        lhs = reduce_frame(reduce_frame(l, w1), w2)
        rhs = reduce_frame(l, compose(w1, w2))
        worst = max(worst, subspace_distance(lhs, rhs))
    return CheckResult("reduction-composition", worst <= 1e-8, worst)


def check_iterates(cfg, rng) -> CheckResult:
    """T^n(Q) equals the boundary trace of the level-n assembly, n <= 3."""
    structure = cfg.structure
    worst = 0.0
    for _ in range(5):
        q = random_sym(rng, structure.cell_size)
        for n in (1, 2, 3):
            lhs = t_iterate(q, structure, n)
            qn = assemble_q(structure, q, n)
            rhs = trace_map(qn, range(structure.cell_size))
            worst = max(
                worst,
                float(np.linalg.norm(lhs - rhs) / max(np.linalg.norm(rhs), 1e-12)),
            )
    return CheckResult("iterate-consistency", worst <= 1e-8, worst)


def _closed_form(cfg):
    p = cfg.params
    if cfg.family == "sierpinski":
        return gasket_closed_form
    if cfg.family == "gamma_bar":
        return lambda u: gamma_bar_closed_form(u, p["r"], p["v"])
    if cfg.family == "gamma_bar_semi":
        return lambda u: gamma_bar_semi_closed_form(
            u, p["r"], p["r_prime"], p["v"], p["v_prime"]
        )
    if cfg.family == "interval":
        return interval_closed_form
    return None


def expected_degrees(cfg):
    return {
        "sierpinski": np.array([[1, 1], [1, 2]]),
        "gamma_bar": np.array([[1, 1], [1, 1]]),
        "gamma_bar_semi": np.array([[1, 1], [2, 2]]),
        "interval": np.array([[1, 1], [1, 1]]),
    }.get(cfg.family)


def divisor_loci(cfg):
    """Candidate loci (pair index, a, b) for a u + b v = 0, with the
    expected orders; the balance identity certifies completeness."""
    p = cfg.params
    if cfg.family == "sierpinski":
        return [(1, 0.0, 1.0)], [1]
    if cfg.family == "gamma_bar":
        z0, z1 = p["v"], 3 * p["r"] + p["v"]
        return [(1, 1.0, z0), (1, 1.0, z1)], [1, 2]
    if cfg.family == "gamma_bar_semi":
        z0, z1 = p["v"], p["r"] + p["v"]
        return [(1, 1.0, z0), (1, 1.0, z1)], [0, 0]
    if cfg.family == "interval":
        return [], []  # no divisor: balance certifies h = [0, 0]
    return None, None


def check_closed_form(cfg, rng) -> CheckResult:
    form = _closed_form(cfg)
    if form is None or cfg.chart is None:
        return CheckResult("closed-form", True, 0.0, "no expectations for this family")
    worst = 0.0
    for _ in range(20):
        u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        got = coords_eval(u, cfg.chart, cfg.structure)
        want = form(u)
        worst = max(worst, float(np.max(np.abs(got - want) / np.abs(want))))
    detail = ""
    if cfg.family == "sierpinski":
        fixed = coords_eval(np.array([0.0, 3.0]), cfg.chart, cfg.structure)
        res = float(np.max(np.abs(fixed - np.array([0.0, 1.8]))))
        detail = f"T(0,3) residual {res:.1e}"
        if res > 1e-12:
            return CheckResult("closed-form", False, res, detail)
    if cfg.family == "gamma_bar_semi":
        u = rng.standard_normal() + 1j * rng.standard_normal()
        got = coords_eval(np.array([u, u]), cfg.chart, cfg.structure)
        res = float(np.max(np.abs(got - u)))
        if res > 1e-10:
            return CheckResult("closed-form", False, res, "diagonal not fixed")
    return CheckResult("closed-form", worst <= 1e-10, worst, detail)


def check_degrees(cfg) -> CheckResult:
    if cfg.chart is None:
        return CheckResult("degree-matrix", True, 0.0, "no chart in config")
    degrees = bidegree_estimate(cfg.structure, cfg.chart)
    want = expected_degrees(cfg)
    if want is None:
        return CheckResult("degree-matrix", True, 0.0, f"computed {degrees.tolist()}")
    ok = bool(np.array_equal(degrees, want))
    return CheckResult("degree-matrix", ok, 0.0 if ok else 1.0, f"{degrees.tolist()}")


def check_divisor_balance(cfg) -> CheckResult:
    if cfg.chart is None:
        return CheckResult("divisor-balance", True, 0.0, "no chart in config")
    loci, want_orders = divisor_loci(cfg)
    if loci is None:
        return CheckResult("divisor-balance", True, 0.0, "no loci for this family")
    degrees, orders, h, flags = balance_report(cfg.structure, cfg.chart, loci)
    ok = bool(all(flags)) and list(orders) == list(want_orders)
    return CheckResult(
        "divisor-balance", ok, 0.0 if ok else 1.0,
        f"orders {list(orders)}, h {h}, balance {[bool(f) for f in flags]}",
    )


def check_siegel(cfg, rng) -> CheckResult:
    """Im Q positive definite implies Im T(Q) positive definite."""
    structure = cfg.structure
    k = structure.cell_size
    worst = np.inf
    for _ in range(200):
        re = random_sym(rng, k, complex_=False)
        g = rng.standard_normal((k, k))
        im = g @ g.T + 0.05 * np.eye(k)
        tq = t_map(re + 1j * im, structure)
        lam_min = float(np.linalg.eigvalsh((tq - tq.conj().T) / 2j)[0])
        worst = min(worst, lam_min)
    return CheckResult("siegel-invariance", worst >= -1e-10, max(0.0, -worst),
                       f"min Im eigenvalue {worst:.2e}")


def check_renorm_paths(cfg, rng) -> CheckResult:
    """One renormalization step three ways at random Siegel points: on
    matrices (t_map), on frames (g_map, defect 0 off the divisor) and on
    coefficients (renorm_lift of exp_eta(Q), whose degree-1 block over its
    degree-0 coefficient is T(Q)), agreeing relative to max(1, |T|)."""
    structure = cfg.structure
    k = structure.cell_size
    worst, defects = 0.0, 0
    for _ in range(20):
        g = rng.standard_normal((k, k))
        q = random_sym(rng, k, complex_=False) + 1j * (g @ g.T + 0.05 * np.eye(k))
        want = t_map(q, structure)
        frame, defect = g_map(from_sym(q), structure)
        defects += defect
        lift = renorm_lift(exp_eta(q), structure)
        lifted = np.array([[lift.get(1 << i, 1 << j) for j in range(k)] for i in range(k)])
        scale = max(1.0, float(np.max(np.abs(want))))
        for got in (to_sym(frame), lifted / lift.get(0, 0)):
            worst = max(worst, float(np.max(np.abs(got - want))) / scale)
    return CheckResult("renorm-three-paths", worst <= 1e-9 and defects == 0, worst,
                       f"g_map defects {defects}")


def check_nd_bridge(cfg, rng) -> CheckResult:
    """The determinant bridge on random conservative networks and
    measures, N-D replication across levels, and the agreement of lift
    vanishing orders with level-1 N-D multiplicities (config network)."""
    structure = cfg.structure
    k = structure.cell_size
    boundary = range(k)
    q_rho = q_matrix(random_conservative_network(rng, k))
    b = rng.uniform(0.5, 2.0, size=k)
    phi = phi_curve(q_rho, b)
    q1 = assemble_q(structure, q_rho, 1)
    b1 = assemble_measure(structure, b, 1)
    worst = 0.0
    for _ in range(20):
        lam = complex(rng.standard_normal(), rng.standard_normal())
        lifted = renorm_lift(phi(lam), structure)
        det_plus = char_det(q1, b1, lam, "neumann")
        det_minus = char_det(q1, b1, lam, "dirichlet", boundary)
        worst = max(worst, abs(pair(lifted, "+") - det_plus) / max(abs(det_plus), 1e-12))
        worst = max(worst, abs(pair(lifted, "-") - det_minus) / max(abs(det_minus), 1e-12))
    if worst > 1e-8:
        return CheckResult("nd-bridge", False, worst, "determinant bridge")

    b = cfg.measure
    phi = phi_curve(q_matrix(cfg.network), b)
    levels = 5 if cfg.family == "sierpinski" else 4
    reports = [level_spectrum(structure, cfg.network, b, n, "nd") for n in range(1, levels + 1)]
    counts = [rep.count for rep in reports]
    # with no N-D eigenvalue below the top level, every bound reads >= 0
    vacuous = not any(counts[:-1])
    replication = all(
        counts[i + 1] >= structure.num_copies * counts[i] for i in range(len(counts) - 1)
    )
    if not replication:
        return CheckResult("nd-bridge", False, 1.0, f"replication broke: {counts}")

    neumann1 = level_spectrum(structure, cfg.network, b, 1, "neumann")
    nd1 = reports[0]
    order_ok = True
    for value in neumann1.values[:8]:
        order = vanishing_order(lambda lam: renorm_lift(phi(lam), structure), value)
        if order != nd1.multiplicity_at(value):
            order_ok = False
            break
    detail = f"replication vacuous: N-D counts {counts}" if vacuous else f"nd counts {counts}"
    return CheckResult(
        "nd-bridge", order_ok, worst,
        detail + ("" if order_ok else "; lift order mismatch"),
    )


# Suite -> {group: check(cfg, rng)}, in the order verify_config runs them.
SUITES = {
    "identities": {
        "trace-variational": lambda cfg, rng: check_trace_variational(rng),
        "grassmann-boundary": lambda cfg, rng: check_boundary_identity(rng),
        "grassmann-gluing": lambda cfg, rng: check_gluing_identity(rng),
        "reduction-composition": lambda cfg, rng: check_composition(rng),
        "iterate-consistency": check_iterates,
        "closed-form": check_closed_form,
        "siegel-invariance": check_siegel,
        "nd-bridge": check_nd_bridge,
        "renorm-three-paths": check_renorm_paths,
    },
    "degrees": {
        "degree-matrix": lambda cfg, rng: check_degrees(cfg),
        "divisor-balance": lambda cfg, rng: check_divisor_balance(cfg),
    },
}


def verify_config(cfg, suite="all"):
    """Run the requested suite; returns a list of CheckResult."""
    rng = np.random.default_rng(12345)
    results = []
    for name, checks in SUITES.items():
        if suite in (name, "all"):
            results.extend(_guard(check, cfg, rng, group) for group, check in checks.items())
    return results


def _guard(check, cfg, rng, group):
    """Run one check.  Any exception it raises is a failed result naming its
    type, so the other checks still run and the suite still fails.  One that
    is not a FractalSpectraError is a crash (a MemoryError from a lift too
    large to compile), and its traceback goes to stderr."""
    try:
        return check(cfg, rng)
    except Exception as exc:
        if not isinstance(exc, FractalSpectraError):
            traceback.print_exc()
        return CheckResult(group, False, float("inf"), f"{type(exc).__name__}: {exc}")
