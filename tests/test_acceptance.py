"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Scales, tolerances, and seed counts follow the stated criteria; run with
``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
"""

import math
import random

import numpy as np
import pytest

from conftest import random_program
from infwidth import corpus, dsl
from infwidth import exprs as E
from infwidth.cli import run as cli_run
from infwidth.cli import consistency_table
from infwidth.finite import (
    MatFactor,
    MatrixWord,
    dims_for_scale,
    instantiate,
    spectral_moments,
)
from infwidth.freeness import (
    ACTIVATIONS,
    fip_witness_program,
    freeness_sweep,
    jacobian_finite,
    jacobian_limit_moments,
)
from infwidth.laws import (
    catalan,
    free_mul_conv,
    moments_from_s,
    mp_moment,
    mp_moments,
    point_mass_moments,
    s_transform,
)
from infwidth.limits import build_limit, build_replicated
from infwidth.numerics import hermite_pair_expectation, pseudoinverse, stream

SEED = 1000
XY = E.mul(E.x(0), E.x(1))


def report(ok: bool, label: str, detail: str = ""):
    print(f"{'PASS' if ok else 'FAIL'} {label}" + (f"  [{detail}]" if detail else ""))
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="module")
def limit_states():
    names = ["semicircle", "mp_half", "mp_one", "mp_two", "atav", "giabreak"]
    return {
        name: build_replicated(
            corpus.load_program(name), n_samples=200_000, seed=SEED, replicas=8
        )
        for name in names
    }


def test_criterion_1_semicircle_law():
    # A = W + W^T at sigma_W^2 = 1/2, n = 2048, 8 seeds; normalized traces of
    # A^r estimated with Gaussian probes against the Catalan moments
    prog = corpus.load_program("semicircle")
    n = 2048
    est = np.zeros(8)
    for seed in range(8):
        r = instantiate(prog, {"c": n}, seed=SEED + seed)
        w = r.form("W")[0]
        z = stream(SEED + seed, "accept1").standard_normal((n, 48))
        v = z
        for rr in range(1, 9):
            v = w @ v + w.T @ v
            est[rr - 1] += float(np.mean(np.einsum("ip,ip->p", z, v))) / n / 8.0
    even_want = {2: 1.0, 4: 2.0, 6: 5.0, 8: 14.0}
    ok = True
    details = []
    for rr, want in even_want.items():
        tol = 0.10 if rr == 8 else 0.05
        good = abs(est[rr - 1] - want) <= tol * want
        ok &= good
        details.append(f"m{rr}={est[rr - 1]:.3f}~{want}")
    for rr in (1, 3, 5, 7):
        ok &= abs(est[rr - 1]) <= 0.05
    report(ok, "criterion 1: semicircle moments", " ".join(details))


def test_criterion_2_marchenko_pastur():
    for rho, name in [(0.5, "mp_half"), (1.0, "mp_one"), (2.0, "mp_two")]:
        for r in range(1, 21):
            a = mp_moment(r, rho, "explicit")
            b = mp_moment(r, rho, "recurrence")
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))
        prog = corpus.load_program(name)
        word = MatrixWord((MatFactor("A"), MatFactor("A", True)))
        emp = np.zeros(4)
        for seed in range(8):
            r = instantiate(prog, dims_for_scale(prog, 2048), seed=SEED + seed)
            vals = spectral_moments(r, word, 4, method="hutch", probes=48)
            emp += np.array([v[0] for v in vals]) / 8.0
        want = mp_moments(4, rho)
        ok = bool(np.all(np.abs(emp - want) <= 0.05 * np.abs(want)))
        report(
            ok,
            f"criterion 2: MP moments rho={rho}",
            " ".join(f"m{k+1}={emp[k]:.3f}~{want[k]:.3f}" for k in range(4)),
        )


def test_criterion_3_zdot_exactness(limit_states):
    ys, coeffs, ses = limit_states["atav"].correction_coeffs("x")
    ok = ys == ("v",) and abs(coeffs[0] - 1.0) <= 3.0 * ses[0]
    report(ok, "criterion 3a: AtAv correction coefficient {1}",
           f"{coeffs[0]:.4f}+-{ses[0]:.4f}")
    for rho, name in [(0.5, "mp_half"), (1.0, "mp_one"), (2.0, "mp_two")]:
        ys, coeffs, ses = limit_states[name].correction_coeffs("u2")
        ok = ys == ("u1",) and abs(coeffs[0] - rho) <= 3.0 * ses[0]
        report(ok, f"criterion 3b: MP correction coefficient rho={rho}",
               f"{coeffs[0]:.4f}+-{ses[0]:.4f}")
    st = limit_states["semicircle"]
    for k in (1, 2, 3):
        mean, se = st.expect(XY, ["z0", f"z{2 * k}"])
        ok = abs(mean - catalan(k)) <= 3.0 * se
        report(ok, f"criterion 3c: E Z0 Z{2*k} = C_{k}", f"{mean:.4f}+-{se:.4f}")


def test_criterion_4_gia_break(limit_states):
    mean, se = limit_states["giabreak"].expect(E.x(0), ["dx1"])
    report(abs(mean - 2.0) <= 3.0 * se, "criterion 4a: backward mean limit = 2",
           f"{mean:.4f}+-{se:.4f}")
    prog = corpus.load_program("giabreak")
    emp = float(
        np.mean(
            [
                np.mean(instantiate(prog, {"c": 4096}, seed=SEED + s).vectors["dx1"])
                for s in range(4)
            ]
        )
    )
    report(abs(emp - 2.0) <= 0.1, "criterion 4b: finite n=4096 mean near 2",
           f"{emp:.4f}")


def test_criterion_5_consistency_sweep(limit_states):
    sizes = [256, 1024, 4096]
    seeds = [SEED + i for i in range(12)]
    for name, state in limit_states.items():
        program = corpus.load_program(name)
        tests = [
            (f"{expr}:{','.join(vecs)}", E.parse_expr(expr), vecs)
            for expr, vecs in corpus.VERIFY_TESTS[name]
        ]
        rows, all_pass = consistency_table(
            program, tests, sizes, seeds, state, workers=1, tol=0.05
        )
        finals = [r for r in rows if r[1] == sizes[-1]]
        detail = "; ".join(f"{r[0]}: gap {r[4]:.4f}" for r in finals)
        report(all_pass, f"criterion 5: consistency sweep {name}", detail)


def test_criterion_6_fip():
    prog = corpus.load_program("fipbase")
    for wname in ("word_a", "word_b"):
        word = corpus.load_word(wname)
        sweep = freeness_sweep(prog, word, [256, 2048], seeds=list(range(8)))
        med_small, med_big = sweep.rows[0][2], sweep.rows[1][2]
        ok = med_big <= 0.05 and med_big < med_small
        report(ok, f"criterion 6a: free word {wname} trace decays",
               f"median {med_small:.4f} -> {med_big:.4f}")
        witness = fip_witness_program(prog, word)
        st = build_replicated(witness.program, n_samples=160_000, seed=SEED, replicas=8)
        final, se = st.scalar_limit(witness.final_scalar)
        report(abs(final) <= 3.0 * se, f"criterion 6b: witness limit 0 for {wname}",
               f"{final:.5f}+-{se:.5f}")
    negative = corpus.load_word("negative")
    sweep = freeness_sweep(prog, negative, [256, 512, 1024, 2048], seeds=list(range(8)))
    ok = all(row[2] >= 0.15 for row in sweep.rows) and abs(sweep.slope) < 0.2
    report(ok, "criterion 6c: dependent diagonals stay correlated",
           f"medians {[round(r[2], 3) for r in sweep.rows]} slope {sweep.slope:.3f}")


def test_criterion_7_jacobian_law():
    phi, dphi = ACTIVATIONS["identity"]
    lim = jacobian_limit_moments(3, phi, dphi, 1.0, 4)
    ok = bool(np.allclose(lim, [1.0, 3.0, 12.0, 55.0], atol=1e-8))
    report(ok, "criterion 7a: linear depth-3 limit is the free MP square",
           f"{np.round(lim, 6)}")
    emp = np.mean(
        [jacobian_finite(3, 1024, phi, dphi, 1.0, SEED + s, 3) for s in range(8)],
        axis=0,
    )
    ok = bool(np.all(np.abs(emp - lim[:3]) <= 0.10 * np.abs(lim[:3])))
    report(ok, "criterion 7b: linear depth-3 finite moments within 10%",
           " ".join(f"m{k+1}={emp[k]:.3f}~{lim[k]:.1f}" for k in range(3)))
    phi, dphi = ACTIVATIONS["relu"]
    m1_lim = jacobian_limit_moments(2, phi, dphi, 1.0, 1)[0]
    emp1 = float(
        np.mean([jacobian_finite(2, 1024, phi, dphi, 1.0, SEED + s, 1)[0] for s in range(8)])
    )
    ok = abs(m1_lim - 0.5) <= 1e-9 and abs(emp1 - 0.5) <= 0.05
    report(ok, "criterion 7c: relu depth-2 first moment",
           f"limit {m1_lim:.6f}, finite {emp1:.4f}")


def test_criterion_8_free_probability_kernels():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(100):
        m = np.concatenate([rng.uniform(0.5, 2.0, 1), rng.uniform(-2.0, 2.0, 5)])
        back = moments_from_s(s_transform(m), m.size)
        worst = max(worst, float(np.max(np.abs(back - m))))
    report(worst <= 1e-9, "criterion 8a: S-transform roundtrip", f"worst {worst:.2e}")
    worst_c = worst_a = 0.0
    for _ in range(25):
        a = rng.uniform(0.5, 2.0, 8)
        b = rng.uniform(0.5, 2.0, 8)
        c = rng.uniform(0.5, 2.0, 8)
        ab, ba = free_mul_conv(a, b), free_mul_conv(b, a)
        worst_c = max(
            worst_c, float(np.max(np.abs(ab - ba)) / max(1.0, np.abs(ab).max()))
        )
        left = free_mul_conv(ab, c)
        right = free_mul_conv(a, free_mul_conv(b, c))
        # high moments of triple products reach ~1e7, so the 1e-9 agreement
        # is necessarily relative to the value scale
        worst_a = max(
            worst_a, float(np.max(np.abs(left - right)) / max(1.0, np.abs(left).max()))
        )
    report(worst_c <= 1e-9 and worst_a <= 1e-9,
           "criterion 8b: convolution commutative/associative (relative)",
           f"comm {worst_c:.2e} assoc {worst_a:.2e}")
    m = mp_moments(6, 1.0)
    ident = free_mul_conv(m, point_mass_moments(1.0, 6))
    worst = float(np.max(np.abs(ident - m)))
    report(worst <= 1e-9, "criterion 8c: point mass at 1 is the unit", f"{worst:.2e}")


def test_criterion_9_numerical_utilities():
    rng = np.random.default_rng(SEED + 1)
    ok = True
    for _ in range(100):
        n, m = rng.integers(2, 13, size=2)
        r = int(rng.integers(1, min(n, m) + 1))
        a = rng.standard_normal((n, r)) @ rng.standard_normal((r, m))
        ap = pseudoinverse(a)
        scale = max(1.0, float(np.abs(a).max()))
        for c in (a @ ap @ a - a, ap @ a @ ap - ap,
                  (a @ ap).T - a @ ap, (ap @ a).T - ap @ a):
            ok &= float(np.abs(c).max()) <= 1e-10 * scale
    report(ok, "criterion 9a: Penrose conditions on 100 rank-deficient matrices")

    cases = {
        "identity": E.x(0),
        "square": E.pow_(E.x(0), 2),
        "step": E.step(E.x(0)),
        "tanh": E.tanh(E.x(0)),
        "relu_clamped": E.clamp(E.x(0), 0.0, 1.0),
    }
    import warnings

    from infwidth.program import CovDecl, VectorDecl, build_program

    worst = 0.0
    for rho in (-0.9, -0.5, 0.0, 0.5, 0.9):
        prog = build_program(
            [VectorDecl("a", "c"), VectorDecl("b", "c"), CovDecl("a", "b", rho)]
        )
        st = build_limit(prog, n_samples=200_000, seed=4 * SEED + int(10 * rho))
        for fa in cases.values():
            for fb in cases.values():
                test = E.mul(fa, E.substitute(fb, {0: E.x(1)}))
                mc, se = st.expect(test, ["a", "b"])
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    oracle = hermite_pair_expectation(fa, fb, rho, trunc=80)
                worst = max(worst, abs(mc - oracle) / max(3.0 * se, 1e-12))
        ok = worst <= 1.0
    report(ok, "criterion 9b: Hermite oracle vs ensemble on the 5x5 grid",
           f"worst |err|/3se {worst:.2f}")

    st = build_limit(corpus.load_program("semicircle"), n_samples=50_000, seed=SEED)
    n = st.n_samples
    ok = True
    for family in st.families.values():
        cols = np.column_stack([st.gauss_cols[nm] for nm in family.outputs])
        emp = cols.T @ cols / n
        scale = max(1.0, float(np.max(np.abs(family.cov))))
        ok &= float(np.max(np.abs(emp - family.cov))) <= 6.0 / math.sqrt(n) * scale
    fams = list(st.families.values())
    for i in range(len(fams)):
        for j in range(i + 1, len(fams)):
            for a in fams[i].outputs:
                for b in fams[j].outputs:
                    corr = float(np.corrcoef(st.gauss_cols[a], st.gauss_cols[b])[0, 1])
                    ok &= abs(corr) <= 6.0 / math.sqrt(n)
    report(ok, "criterion 9c: ensemble family covariance and independence")


def test_criterion_10_tooling(tmp_path):
    rng = random.Random(SEED)
    failures = 0
    for _ in range(50):
        prog = random_program(rng)
        if dsl.parse_program(dsl.print_program(prog)) != prog:
            failures += 1
    report(failures == 0, "criterion 10a: parse/print fuzz corpus", f"{failures} failures")

    configs = [
        ["sim", "--program", "@semicircle", "--n", "128,256", "--seeds", "4",
         "--test", "x1 * x2:z0,z2"],
        ["verify", "--program", "@atav", "--n", "128,512", "--seeds", "4",
         "--ensemble", "20000"],
    ]
    ok = True
    for i, cfg in enumerate(configs):
        outs = []
        for workers in ("1", "8"):
            path = tmp_path / f"c{i}_{workers}.csv"
            rc = cli_run(cfg + ["--workers", workers, "--out", str(path)])
            assert rc == 0
            outs.append(path.read_bytes())
        ok &= outs[0] == outs[1]
    report(ok, "criterion 10b: byte-identical CSVs across 1 and 8 workers")
