"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Matrix-case convention (criterion 11): for M_p (+) M_q with
D = [[0, mu], [mu*, 0]], case 3 has exactly one of mu mu*, mu* mu proportional
to the identity, and dim Omega^2 = k^2 with k the size of that identity-coupled
block. The library's normal form is p >= q with mu* mu ~ 1_q, so k = q there;
a table listing p^2 uses the transposed labelling, mu mu* ~ 1_p with p <= q.
The value follows from the junk identity in ``ncym.finite.matrix_case_triple``
and is checked against exact rational elimination by
``test_form_dims_match_exact_oracle`` in tests/test_finite.py.
"""

import cmath
import json
import math

import numpy as np

from ncym import (
    Connection,
    MatrixCase,
    Perturbation,
    ThetaMatrix,
    TorusElement,
    TorusMatrix,
    additivity_report,
    classify_matrix_case,
    cli,
    critical_splitting_check,
    curvature,
    dixmier_torus_constant,
    form_report,
    gamma_constants,
    matrix_case_triple,
    minimize,
    mul,
    product_check,
    product_connection,
    random_connection,
    trace,
    trivial_triple,
    unitary_equivalence_defect,
    ym_gradient,
    ym_value,
)
from ncym import sampling
from ncym.yangmills import hs_inner

EIGHT_PI_SQ = 8.0 * math.pi ** 2


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: {status}{suffix}")
    return ok


def coeff_distance(a, b):
    keys = set(a.coeffs) | set(b.coeffs)
    return max((abs(a.coeffs.get(k, 0j) - b.coeffs.get(k, 0j)) for k in keys), default=0.0)


def example_connection(th):
    u1 = TorusElement.generator(th, 1)
    return Connection(th, 1, [TorusMatrix.zeros(th, 1), TorusMatrix.from_element(u1 - u1.adjoint())])


def test_criterion_01_algebra_laws():
    worst = 0.0
    for n, base_seed in ((2, 1000), (3, 2000)):
        for seed in range(base_seed, base_seed + 100):
            gen = sampling.rng(seed)
            th = sampling.random_theta(n, gen)
            a = sampling.random_element(th, gen, radius=3, terms=4)
            b = sampling.random_element(th, gen, radius=3, terms=4)
            c = sampling.random_element(th, gen, radius=3, terms=4)
            worst = max(worst, coeff_distance(mul(mul(a, b), c), mul(a, mul(b, c))))
            for j in range(1, n + 1):
                lhs = mul(a, b).derivation(j)
                rhs = mul(a.derivation(j), b) + mul(a, b.derivation(j))
                worst = max(worst, coeff_distance(lhs, rhs))
            worst = max(worst, abs(trace(mul(a, b)) - trace(mul(b, a))))
            positive = trace(mul(a.adjoint(), a))
            worst = max(worst, abs(positive - sum(abs(x) ** 2 for x in a.coeffs.values())))
            worst = max(worst, coeff_distance(mul(a, b).adjoint(), mul(b.adjoint(), a.adjoint())))
    ok = worst <= 1e-12
    assert report(1, "algebra-laws", ok, f"max deviation {worst:.2e}")


def test_criterion_02_commutation_relation():
    gen = sampling.rng(77)
    th = sampling.random_theta(3, gen)
    worst = 0.0
    for k in range(1, 4):
        for m in range(1, 4):
            if k == m:
                continue
            uk = TorusElement.generator(th, k)
            um = TorusElement.generator(th, m)
            lhs = mul(uk, um)
            rhs = mul(um, uk)
            (key,) = lhs.coeffs.keys()
            ratio = lhs.coeffs[key] / rhs.coeffs[key]
            expected = cmath.exp(2j * math.pi * th.entries[m - 1][k - 1])
            worst = max(worst, abs(ratio - expected))
    ok = worst <= 1e-12
    assert report(2, "commutation-relation", ok, f"max phase deviation {worst:.2e}")


def test_criterion_03_explicit_ym_value():
    worst = 0.0
    for val in (0.1, 0.3, 1.0 / math.sqrt(2.0)):
        th = ThetaMatrix([[0.0, val], [-val, 0.0]])
        ym = ym_value(example_connection(th))
        worst = max(worst, abs(ym - EIGHT_PI_SQ) / EIGHT_PI_SQ)
    ok = worst <= 1e-9
    assert report(3, "explicit-ym-8pi2", ok, f"max rel error {worst:.2e}")


def unit_perturbation(c, gen):
    """Random unit perturbation of a free-module connection (three terms per entry, radius 1)."""
    comps = []
    for _ in range(c.n):
        rows = [[sampling.random_element(c.theta, gen, 1, 3) for _ in range(c.q)] for _ in range(c.q)]
        comps.append(TorusMatrix(c.theta, rows))
    return Perturbation(comps).normalized()


def test_criterion_04_gradient_vs_central_differences():
    gen = sampling.rng(90)
    worst = 0.0
    h = 1e-4
    for n, q in ((2, 1), (2, 2), (3, 1), (3, 2)):
        for _ in range(5):
            th = sampling.random_theta(n, gen)
            c = random_connection(th, q, gen, radius=2, amplitude=0.3)
            mu = unit_perturbation(c, gen)
            fd = (ym_value(c.perturb(mu, h)) - ym_value(c.perturb(mu, -h))) / (2.0 * h)
            pairing = sum((hs_inner(g, m) for g, m in zip(ym_gradient(c).components, mu.components)), 0j)
            analytic = 2.0 * pairing.real
            worst = max(worst, abs(fd - analytic) / max(1.0, abs(fd)))
    ok = worst <= 1e-6
    assert report(4, "gradient-vs-central-differences", ok, f"max rel error {worst:.2e}")


def test_criterion_05_descent():
    ok = True
    worst_terminal = 0.0
    for seed in range(10):
        gen = sampling.rng(5000 + seed)
        th = sampling.random_theta(2, gen)
        c0 = random_connection(th, 1, gen, radius=2, amplitude=0.05)
        _, trace_vals = minimize(c0, max_iters=10000, grad_tol=1e-8)
        worst_terminal = max(worst_terminal, trace_vals[-1])
        ok = ok and trace_vals[-1] <= 1e-8
        ok = ok and all(b <= a for a, b in zip(trace_vals, trace_vals[1:]))
        ok = ok and len(trace_vals) - 1 <= 10000
    assert report(5, "descent-to-flat", ok, f"worst terminal YM {worst_terminal:.2e}")


def test_criterion_06_subadditivity():
    ok = True
    worst_slack = 0.0
    for seed in range(100):
        gen = sampling.rng(6000 + seed)
        th = sampling.random_theta(2, gen)
        ph = sampling.random_theta(2, gen)
        c1 = random_connection(th, 1, gen, radius=1, amplitude=0.4)
        c2 = random_connection(ph, 1, gen, radius=1, amplitude=0.4)
        rep = additivity_report(c1, c2)
        slack = (
            math.sqrt(max(rep.alpha_tau * rep.ym1, 0.0))
            + math.sqrt(max(rep.beta_tau * rep.ym2, 0.0))
            - math.sqrt(max(rep.ym_product, 0.0))
        )
        worst_slack = min(worst_slack, slack)
        ok = ok and slack >= -1e-9
    # equality case with one flat factor
    gen = sampling.rng(6500)
    th = sampling.random_theta(2, gen)
    c1 = random_connection(th, 1, gen, radius=1, amplitude=0.4)
    flat = Connection.flat(sampling.random_theta(2, gen), 1)
    rep = additivity_report(c1, flat)
    eq_defect = abs(math.sqrt(max(rep.ym_product, 0.0)) - math.sqrt(rep.alpha_tau * rep.ym1))
    ok = ok and eq_defect <= 1e-9
    assert report(6, "subadditivity", ok, f"worst slack {worst_slack:.2e}, equality defect {eq_defect:.2e}")


def _fifty_pairs():
    for seed in range(50):
        gen = sampling.rng(7000 + seed)
        th = sampling.random_theta(2, gen)
        ph = sampling.random_theta(2, gen)
        q1, q2 = (1, 2) if seed % 5 == 0 else (1, 1)
        c1 = random_connection(th, q1, gen, radius=1, amplitude=0.4)
        c2 = random_connection(ph, q2, gen, radius=1, amplitude=0.4)
        yield c1, c2


def test_criterion_07_additivity():
    ok = True
    worst_defect = 0.0
    worst_mixed = 0.0
    for c1, c2 in _fifty_pairs():
        rep = additivity_report(c1, c2)
        rel = abs(rep.defect) / (1.0 + rep.ym_product)
        worst_defect = max(worst_defect, rel)
        ok = ok and abs(rep.defect) <= 1e-9 * (1.0 + rep.ym_product)
        prod = product_connection(c1, c2)
        f = curvature(prod)
        for i in range(1, c1.n + 1):
            for j in range(c1.n + 1, prod.n + 1):
                worst_mixed = max(worst_mixed, f[(i, j)].max_coeff())
        ok = ok and worst_mixed <= 1e-12
    assert report(7, "additivity-tau-constants", ok, f"worst rel defect {worst_defect:.2e}, mixed {worst_mixed:.2e}")


def test_criterion_08_defect_equals_cross_term():
    ok = True
    worst = 0.0
    for c1, c2 in _fifty_pairs():
        rep = additivity_report(c1, c2)
        dev = abs(rep.defect - rep.cross_term)
        worst = max(worst, dev)
        ok = ok and dev <= 1e-9
    assert report(8, "defect-equals-cross-term", ok, f"max |defect - cross| {worst:.2e}")


def test_criterion_09_critical_splitting():
    ok = True
    implications = []
    # products of flat connections are critical at tol 1e-8
    th = ThetaMatrix([[0.0, 0.25], [-0.25, 0.0]])
    ph = ThetaMatrix([[0.0, -0.4], [0.4, 0.0]])
    rep = critical_splitting_check(Connection.flat(th, 1), Connection.flat(ph, 1), tol=1e-8)
    implications.append(rep)
    ok = ok and rep.necessary and rep.product_critical
    # a deliberately non-critical factor
    rep = critical_splitting_check(example_connection(th), Connection.flat(ph, 1), tol=1e-3)
    implications.append(rep)
    ok = ok and (not rep.necessary) and (not rep.product_critical)
    # two minimizers give a critical product at tol 1e-6
    gen = sampling.rng(9000)
    c1, _ = minimize(random_connection(th, 1, gen, radius=1, amplitude=0.05), grad_tol=1e-9)
    c2, _ = minimize(random_connection(ph, 1, gen, radius=1, amplitude=0.05), grad_tol=1e-9)
    rep = critical_splitting_check(c1, c2, tol=1e-6)
    implications.append(rep)
    ok = ok and rep.necessary and rep.product_critical
    # random pairs: implication product_critical => necessary never violated
    for seed in range(5):
        gen = sampling.rng(9100 + seed)
        tha = sampling.random_theta(2, gen)
        phb = sampling.random_theta(2, gen)
        rep = critical_splitting_check(
            random_connection(tha, 1, gen, radius=1, amplitude=0.3),
            random_connection(phb, 1, gen, radius=1, amplitude=0.3),
            tol=1e-6,
        )
        implications.append(rep)
    ok = ok and all((not r.product_critical) or r.necessary for r in implications)
    assert report(9, "critical-splitting", ok)


def test_criterion_10_closed_form_constants():
    ok = True
    ok = ok and abs(dixmier_torus_constant(1) - 1.0 / math.pi) <= 1e-12
    ok = ok and abs(dixmier_torus_constant(2) - 1.0 / (2.0 * math.pi)) <= 1e-12
    ok = ok and abs(dixmier_torus_constant(3) - 1.0 / (3.0 * math.pi ** 2)) <= 1e-12
    alpha, beta = gamma_constants(2.0, 2.0, 1, 1, 1.0, 1.0)
    ok = ok and alpha == 0.5 and beta == 0.5  # c = Gamma(2)Gamma(2)/Gamma(3) = 1/2 exactly
    assert report(10, "closed-form-constants", ok)


def test_criterion_11_matrix_case_table():
    clauses = {}
    rep1 = form_report(matrix_case_triple(1, 1, [[1.0]]))
    clauses["case1"] = (
        classify_matrix_case(1, 1, [[1.0]]) is MatrixCase.CASE1 and rep1.dim_omega2 == 2
    )
    rep2 = form_report(matrix_case_triple(2, 2, np.diag([1.0, 2.0])))
    clauses["case2"] = (
        classify_matrix_case(2, 2, np.diag([1.0, 2.0])) is MatrixCase.CASE2 and rep2.dim_omega2 == 0
    )
    # case 3: dim Omega^2 = k^2, k the size of the identity-coupled block
    case3 = [
        (2, 1, [[1.0], [0.0]], 1),
        (1, 2, [[1.0, 0.0]], 1),
        (3, 2, [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]], 2),
    ]
    dims3 = []
    for p, q, mu, k in case3:
        rep3 = form_report(matrix_case_triple(p, q, mu))
        dims3.append(f"({p},{q})->{rep3.dim_omega2}")
        clauses[f"case3({p},{q})"] = (
            classify_matrix_case(p, q, mu) is MatrixCase.CASE3 and rep3.dim_omega2 == k * k
        )
    ok = all(clauses.values())
    detail = ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in clauses.items())
    detail += "; case3 dim_omega2 " + " ".join(dims3)
    assert report(11, "matrix-case-table", ok, detail)


def test_criterion_12_product_triple_structure():
    ok = True
    fixtures = [
        (matrix_case_triple(1, 1, [[1.0]]), matrix_case_triple(1, 1, [[1.0]])),
        (matrix_case_triple(1, 1, [[1.0]]), trivial_triple()),
        (matrix_case_triple(2, 2, np.diag([1.0, 2.0])), matrix_case_triple(1, 1, [[1.0]])),
        (matrix_case_triple(2, 1, [[1.0], [0.0]]), matrix_case_triple(1, 1, [[1.0]])),
    ]
    worst_unitary = 0.0
    for t1, t2 in fixtures:
        dev = unitary_equivalence_defect(t1, t2)
        worst_unitary = max(worst_unitary, dev)
        ok = ok and dev <= 1e-12
        checks = product_check(t1, t2).checks
        ok = ok and checks["omega1_ok"] and checks["numerator_ok"]
        ok = ok and checks["denominator_ok"] and checks["intersection_zero"]
        ok = ok and checks["hypothesis_holds"]
        ok = ok and checks["orthogonality"]
    assert report(12, "product-triple-structure", ok, f"worst unitary defect {worst_unitary:.2e}")


def test_criterion_13_determinism(tmp_path):
    configs = [
        {
            "kind": "torus_ym",
            "payload": {
                "theta": {"n": 2, "entries": [0.0, 0.3, -0.3, 0.0]},
                "q": 1,
                "connection": {"random": {"seed": 5, "radius": 1, "amplitude": 0.2}},
                "seed": 9,
                "samples": 10,
            },
        },
        {
            "kind": "finite_forms",
            "payload": {"case": {"p": 2, "q": 1, "mu": [[1.0, 0.0], [0.0, 0.0]]}},
        },
        {"kind": "constants", "payload": {"n": 2}},
    ]
    ok = True
    for i, conf in enumerate(configs):
        path = tmp_path / f"conf{i}.json"
        path.write_text(json.dumps(conf))
        outs = []
        for run_idx in range(2):
            out = tmp_path / f"rep{i}_{run_idx}.json"
            code = cli.main(["run", str(path), "--output", str(out)])
            ok = ok and code in (0, 2)
            doc = json.loads(out.read_text())
            doc.pop("wall_clock_seconds")
            outs.append(json.dumps(doc, sort_keys=True))
        ok = ok and outs[0] == outs[1]
    assert report(13, "determinism", ok)
