"""Acceptance suite: one test per criterion, one printed line per criterion.

Budgets and tolerances are pinned here; run with ``pytest -s`` to see the
pass/fail lines.
"""
import math

import numpy as np

import grpdconn.catalog as cat
from grpdconn.config import DEFAULT
from grpdconn.connection import (
    Connection,
    MULTIPLICATIVE,
    NOT_MULTIPLICATIVE,
    Rejection,
    action_connection,
    complement_check,
    multiplicativity_check_pointwise,
    product_clause_residual,
)
from grpdconn.constructions import (
    complete_connection_builder,
    haar_average,
    level_schedule,
)
from grpdconn.errors import CertificateFailure
from grpdconn.geometry import Point, Tangent, distance, line
from grpdconn.groupoid import check_axioms, fibration_probe, rng_for
from grpdconn.integrate import integrate
from grpdconn.scenarios import (
    REGISTRY,
    cover_setup,
    emit_report,
    luca_setup,
    morita_closed_form_end,
    morita_setup,
    pair_fibration_setup,
    punctured_bundle_setup,
    run_scenario,
    skewed_family_field,
    so2_family_setup,
    sproper_paths,
    sproper_setup,
)
from grpdconn.tangent import VBFiberData, splitting_correspondence
from grpdconn.transport import (
    base_connection,
    completeness_probe,
    parallel_transport,
    theorem_crosscheck_kernel,
    transport_multiplicativity_check,
)

SEED = 7


def _line(criterion: str, passed: bool, detail: str):
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


def test_criterion_01_catalog_axioms():
    worst_name, worst = "", 0.0
    for name, G in cat.default_instances():
        rep = check_axioms(G, 200, seed=SEED)
        if rep.max_residual > worst:
            worst_name, worst = name, rep.max_residual
        assert rep.max_residual < 1e-9, (name, rep.max_residual)
    _line("1 groupoid axioms",
          worst < 1e-9,
          f"{len(cat.default_instances())} catalog groupoids, 200 samples each, "
          f"worst residual {worst:.2e} ({worst_name})")


def test_criterion_02_integrator_order_and_blowup():
    R = line(1)
    errors = []
    h = 0.1
    for _ in range(5):
        out = integrate(lambda t, p: Tangent(p, (p.coords[0],)),
                        Point.make(R, 0, (1.0,)), 1.0, h=h, ode_tol=math.inf)
        errors.append(abs(out.end.coords[0] - math.e))
        h /= 2.0
    orders = [math.log2(errors[k] / errors[k + 1]) for k in range(4)]
    mean_order = sum(orders) / 4.0

    blow = integrate(lambda t, p: Tangent(p, (p.coords[0] ** 2,)),
                     Point.make(R, 0, (2.0,)), 1.0)
    ok = 3.7 <= mean_order <= 4.3 and not blow.completed and abs(blow.escape_time - 0.5) < 0.05
    _line("2 integrator order + blowup", ok,
          f"measured order {mean_order:.3f}, escape at t = {blow.escape_time:.4f} "
          f"({blow.escape_reason})")


def test_criterion_03_plane_over_circle_counterexample():
    c, _ = luca_setup()
    comp = complement_check(c, 100, SEED)
    g = Point.make(c.total.arrows, 0, (1.0, 0.0))
    a = Tangent(c.morphism.arrow_map(g), (1.0,))
    resid, produced, required = product_clause_residual(c, g, g, a, a)
    rep = multiplicativity_check_pointwise(c, 100, SEED)
    ok = (comp.passed and rep.verdict == NOT_MULTIPLICATIVE and resid >= 1.0
          and produced == (2.0, 2.0) and required == (2.0, 8.0))
    _line("3 skew-lift counterexample", ok,
          f"complement pass, verdict {rep.verdict}, witness m-clause residual "
          f"{resid:.1f} (produced {produced} vs required {required})")


def test_criterion_04_pointwise_vs_path_verdicts_agree():
    rows = []
    agree = True
    for name, scenario in REGISTRY.items():
        if scenario.connection_factory is None:
            rows.append(f"{name}: no connection (vacuous)")
            continue
        conn = scenario.connection_factory(DEFAULT)
        if isinstance(conn, tuple):
            conn = conn[0]
        pointwise = multiplicativity_check_pointwise(conn, 100, SEED)
        path = transport_multiplicativity_check(conn, 25, SEED)
        agree = agree and pointwise.verdict == path.verdict
        rows.append(f"{name}: {pointwise.verdict}/{path.verdict}")
    _line("4 pointwise = path-based verdicts", agree, "; ".join(rows))


def test_criterion_05_morita_transport_and_uniqueness():
    c, extras = morita_setup()
    kappa = extras["kappa"]
    worst = 0.0
    for i in range(50):
        gamma, g = c.morphism.transport.path_with_start(rng_for(SEED, 113, i))
        out = parallel_transport(c, gamma, g, 1.0,
                                 h=DEFAULT.transport_probe_h_ode)
        worst = max(worst, distance(out.end, morita_closed_form_end(c, gamma, g, kappa)))

    def skewed(g, a):
        base = c.hor(g, a)
        coeffs = list(base.coeffs)
        coeffs[2] += 1e-3 * a.coeffs[0]
        coeffs[3] += 1e-3 * a.coeffs[1]
        return Tangent(g, tuple(coeffs))

    rep = multiplicativity_check_pointwise(
        Connection(c.morphism, skewed, c.hor0, {}), 100, SEED)
    ok = worst < 1e-6 and rep.verdict == NOT_MULTIPLICATIVE
    _line("5 pullback transport + uniqueness", ok,
          f"closed-form deviation {worst:.2e} over 50 pairs; perturbed lift "
          f"{rep.verdict}")


def test_criterion_06_action_criterion():
    def zero(x, w):
        return Tangent(x, (0.0,) * x.patch.dim)

    rejection = action_connection(cat.so2_action_morphism(), zero, 50, SEED)
    probe = rejection.probe_residuals["probe[0]"] if isinstance(rejection, Rejection) else None

    accepted = action_connection(cat.so2_action_morphism(trivial=True), zero, 50, SEED)
    rep = (multiplicativity_check_pointwise(accepted, 100, SEED)
           if isinstance(accepted, Connection) else None)
    ok = (isinstance(rejection, Rejection) and probe is not None
          and abs(probe - 1.0) < 1e-6 and rep is not None
          and rep.verdict == MULTIPLICATIVE and rep.max_residual < 1e-9)
    _line("6 action criterion", ok,
          f"rotation rejected with residual {probe} at (1,0); trivial action "
          f"accepted at {rep.max_residual:.2e}")


def test_criterion_07_completeness_counterexamples():
    c, _ = punctured_bundle_setup()
    rep = multiplicativity_check_pointwise(c, 100, SEED)
    total = completeness_probe(c, c.morphism.transport.path_with_start, 500, SEED)
    base_conn = base_connection(c)
    base = completeness_probe(base_conn, base_conn.morphism.transport.path_with_start,
                              500, SEED)
    punctured_ok = (rep.verdict == MULTIPLICATIVE and total.found_witness
                    and total.witness["escape_time"] < 1.0 and not base.found_witness)

    cc, _ = cover_setup()
    from grpdconn.connection import kernel_connection

    kc = kernel_connection(cc)
    kern = completeness_probe(kc, cc.morphism.kernel.family.transport.path_with_start,
                              500, SEED)
    tot2 = completeness_probe(cc, cc.morphism.transport.path_with_start, 500, SEED)
    star = fibration_probe(cc.morphism, 40, SEED).star_surjective_heuristic
    cover_ok = (not kern.found_witness) and tot2.found_witness and (not star)

    _line("7 completeness counterexamples", punctured_ok and cover_ok,
          f"punctured bundle: {rep.verdict}, escape at "
          f"t = {total.witness['escape_time']:.3f}, base clean over 500 paths; "
          f"cover: kernel clean over 500, total witness, star-surjectivity False")


def test_criterion_08_kernel_theorem_triples():
    c, _ = pair_fibration_setup(punctured=False)
    complete = theorem_crosscheck_kernel(c, 150, SEED)
    cp, _ = pair_fibration_setup(punctured=True)
    punctured = theorem_crosscheck_kernel(cp, 150, SEED)

    # no shipped scenario may violate the implication diagram
    others = [
        theorem_crosscheck_kernel(punctured_bundle_setup()[0], 120, SEED),
        theorem_crosscheck_kernel(cover_setup()[0], 120, SEED),
    ]
    ok = (complete.consistent and punctured.consistent
          and all(r.consistent for r in others)
          and punctured.total_verdict.found_witness
          and punctured.kernel_verdict.found_witness
          and not complete.total_verdict.found_witness)
    triples = [
        [r.total_verdict.kind, r.kernel_verdict.kind, r.base_verdict.kind]
        for r in (complete, punctured, *others)
    ]
    _line("8 kernel-completeness theorem", ok,
          f"verdict triples consistent across shipped scenarios: {triples}")


def test_criterion_09_haar_averaging():
    fam, quad = so2_family_setup(nodes=256)
    G = fam.total

    def X_flat(g):
        return Tangent(g, (1.0,) + (0.0,) * (g.patch.dim - 1))

    X_hat_flat, _ = haar_average(G, quad, X_flat, 8, SEED, check=False)
    fixed = 0.0
    for i in range(100):
        g = G.arrow_sampler(rng_for(SEED, 127, i))
        fixed = max(fixed, float(np.linalg.norm(
            np.asarray(X_hat_flat(g).coeffs) - np.asarray(X_flat(g).coeffs))))

    X = skewed_family_field(fam)
    X_hat, rep = haar_average(G, quad, X, 30, SEED)

    _, quad4 = so2_family_setup(nodes=1024)
    X_hat4, _ = haar_average(G, quad4, X, 8, SEED, check=False)
    gap = 0.0
    for i in range(25):
        g = G.arrow_sampler(rng_for(SEED, 131, i))
        gap = max(gap, float(np.linalg.norm(
            np.asarray(X_hat(g).coeffs) - np.asarray(X_hat4(g).coeffs))))

    ok = fixed < 1e-9 and rep.passed and rep.max_residual < 1e-6 and gap < 1e-8
    _line("9 fibre averaging", ok,
          f"fixed point {fixed:.2e} at 100 samples; skewed input multiplicative "
          f"at {rep.max_residual:.2e} with 256 nodes; 256-vs-1024 gap {gap:.2e}")


def test_criterion_10_complete_builder():
    fam, atlas, profile, schedule = sproper_setup()
    conn, cert = complete_connection_builder(fam, atlas, schedule, profile,
                                             n_cert_samples=24, seed=SEED)
    probe = completeness_probe(conn, sproper_paths(fam, DEFAULT), 500, SEED)

    bad = level_schedule(atlas, profile, schedule.truncation_depth)
    bad.levels[(1, 1)] = bad.levels[(1, 0)]
    try:
        complete_connection_builder(fam, atlas, bad, profile, n_cert_samples=4,
                                    seed=SEED)
        caught = False
    except CertificateFailure:
        caught = True

    ok = (cert.verdict == "CertifiedComplete"
          and all(float(w.precompact_bound["lo"]) > DEFAULT.constr_box for w in cert.windows)
          and not probe.found_witness and caught)
    _line("10 certified complete builder", ok,
          f"{cert.verdict} (interval bounds "
          f"{[w.precompact_bound['lo'][:6] for w in cert.windows]} beyond box "
          f"{cert.fiber_box}); 500-path probe clean; injected overlap raised "
          f"CertificateFailure")


def test_criterion_11_splitting_identities():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(50):
        k, q = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        Q, _ = np.linalg.qr(rng.normal(size=(k + q, k + q)))
        iota, pi = Q[:, :k], Q[:, k:].T
        h = np.linalg.lstsq(pi, np.eye(q), rcond=None)[0] + iota @ rng.normal(
            scale=0.5, size=(k, q))
        d = splitting_correspondence(VBFiberData(iota, pi, h=h), "h")
        worst = max(worst, max(d.residuals.values()))
    _line("11 splitting identities", worst < 1e-12,
          f"50 random fixtures, worst identity residual {worst:.2e}")


def test_criterion_12_deterministic_reports():
    mismatched = []
    for name in REGISTRY:
        a = emit_report(run_scenario(name, seed=SEED, budget_scale=0.05), "json")
        b = emit_report(run_scenario(name, seed=SEED, budget_scale=0.05), "json")
        if a != b:
            mismatched.append(name)
    _line("12 byte-identical reports", not mismatched,
          f"all {len(REGISTRY)} scenarios reproduce byte-identical JSON"
          + (f"; mismatches: {mismatched}" if mismatched else ""))
