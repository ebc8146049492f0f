"""End-to-end acceptance gate.

Eight criteria, one per test, each printing a single pass line with its
measured quantities and wall time.  Tolerances and budgets are stated
inline; a failure here means the package no longer meets its contract.
"""

import time
import warnings

import numpy as np
import pytest
from numpy.random import default_rng
from pytest import approx

from anisomax.atoms import AtomicSum, make_atom
from anisomax.config import load_config
from anisomax.decomposition import (
    stopping_time,
    verify_stopping,
    verify_whitney,
    whitney_decompose,
)
from anisomax.dilation import fit_diameter_exponent, validate_dilation
from anisomax.errors import TailNotNegligibleWarning
from anisomax.experiments import run_experiment
from anisomax.grid import GridCube
from anisomax.maximal import make_lattice, weak_type_ratio
from anisomax.surface import (
    KernelField,
    autocorrelation_kernel,
    check_kernel_decay,
    check_linfty_bound,
    check_pair_bound,
    classify_pieces,
    excluded_piece_growth,
    make_surface,
    partition_measure,
    surface_quadrature,
)

EPS = 0.25
ZETA = EPS / 8.0


def _diag24():
    return validate_dilation([[2.0, 0.0], [0.0, 4.0]])


def _transversal():
    return validate_dilation([[4.0, 0.0], [0.0, 2.0]])


def _random_instance(D, alpha, n_entries, seed, tau_lo=-6, tau_hi=0, span=6):
    rng = default_rng(seed)
    entries = []
    for _ in range(n_entries):
        tau = int(rng.integers(tau_lo, tau_hi + 1))
        index = (int(rng.integers(-span, span + 1)),
                 int(rng.integers(-span, span + 1)))
        cube = GridCube(0, tau, index, D)
        ratio = 10.0 ** rng.uniform(-2.0, 1.3)
        entries.append((cube, alpha * cube.volume * ratio))
    return entries


def _report(capsys, line: str):
    with capsys.disabled():
        print(f"\n{line}")


def test_criterion_1_whitney_suite(capsys):
    t0 = time.perf_counter()
    D = _diag24()
    for seed in range(200):
        rng = default_rng(1000 + seed)
        n = int(rng.integers(1, 51))
        alpha = float(10.0 ** rng.uniform(-0.5, 0.5))
        entries = _random_instance(D, alpha, n, seed)
        result = whitney_decompose(entries, alpha)
        report = verify_whitney(result, entries, alpha, c_w=16.0)
        assert report.passed, (seed, report.failures())
    dt = time.perf_counter() - t0
    assert dt < 60.0
    _report(capsys, f"criterion 1: PASS - 200 whitney instances, "
                    f"conditions 1-3 hold at C_W=16, {dt:.1f}s")


def test_criterion_2_stopping_suite(capsys):
    t0 = time.perf_counter()
    D = _diag24()
    alpha = 0.7
    built = 0
    mutations = 0
    seed = 0
    while built < 100:
        entries = _random_instance(D, alpha, 40, seed)
        wres = whitney_decompose(entries, alpha)
        seed += 1
        if not wres.selected:
            continue
        kept = [entries[i] for i in sorted(wres.assigned)]
        sres = stopping_time(wres.selected, kept, alpha)
        srep = verify_stopping(sres, wres.selected, kept, alpha,
                               C=100.0, C_iv=32.0, seed=seed)
        assert srep.passed, (seed, srep.failures())
        if mutations < 20:
            # an entry whose level is forced below every selected cube
            # must be caught by the host check
            victim = max(sres.kappa)
            sres.kappa[victim] = -100
            mrep = verify_stopping(sres, wres.selected, kept, alpha,
                                   C=100.0, C_iv=32.0, seed=seed)
            assert not mrep.passed, seed
            mutations += 1
        built += 1
    dt = time.perf_counter() - t0
    assert dt < 300.0
    _report(capsys, f"criterion 2: PASS - 100 stopping instances verified "
                    f"(i)-(iv) at C=100, C_iv=32; {mutations} mutations "
                    f"rejected, {dt:.1f}s")


def test_criterion_3_diameter_exponents(capsys):
    t0 = time.perf_counter()
    p_diag = fit_diameter_exponent(_diag24(), range(-40, -9))
    jordan = validate_dilation([[2.0, 1.0], [0.0, 2.0]])
    p_jordan = fit_diameter_exponent(jordan, range(-40, -9))
    assert -0.2 <= p_diag <= 0.2
    assert 0.8 <= p_jordan <= 1.2
    dt = time.perf_counter() - t0
    assert dt < 1.0
    _report(capsys, f"criterion 3: PASS - diameter exponents "
                    f"diag={p_diag:.4f} in [-0.2,0.2], "
                    f"jordan={p_jordan:.4f} in [0.8,1.2], {dt:.2f}s")


def test_criterion_4_kernel_decay(capsys):
    t0 = time.perf_counter()
    measure = surface_quadrature(make_surface("circle-arc"), 200)
    kernel = autocorrelation_kernel(measure)
    report = check_kernel_decay(kernel)
    assert -1.3 <= report.slope <= -0.7
    flat = KernelField(values=np.ones((255, 255)), half_width=1.0,
                       spacing=2.0 / 255, dim=2, mass_squared=1.0)
    control = check_kernel_decay(flat)
    assert -0.2 <= control.slope <= 0.2
    dt = time.perf_counter() - t0
    assert dt < 120.0
    _report(capsys, f"criterion 4: PASS - circle decay slope "
                    f"{report.slope:.4f} in [-1.3,-0.7], constant control "
                    f"{control.slope:.4f} in [-0.2,0.2], {dt:.1f}s")


def test_criterion_5_exclusion_scaling(capsys):
    t0 = time.perf_counter()
    D = _transversal()
    circle = make_surface("circle-arc")
    for s in range(4, 17):
        pieces = partition_measure(circle, s=s, eps=EPS)
        records = classify_pieces(pieces, circle, D, eps=EPS, zeta=ZETA)
        flagged = sum(1 for r in records if r.in_I1)
        assert flagged == 0, (s, flagged)
    quartic = make_surface("quartic-flat")
    growth = excluded_piece_growth(quartic, D, eps=EPS, zeta=ZETA,
                                   s_values=range(4, 17))
    assert growth.eta > 0.05
    dt = time.perf_counter() - t0
    assert dt < 300.0
    _report(capsys, f"criterion 5: PASS - circle low-curvature set empty "
                    f"for s in 4..16 at eps=0.25; quartic eta="
                    f"{growth.eta:.4f} > 0.05, {dt:.1f}s")


def test_criterion_6_piece_bounds(capsys):
    t0 = time.perf_counter()
    D = _transversal()

    def haar(idx, tau):
        atom = make_atom(GridCube(0, tau, idx, D), "haar", seed=1)
        return AtomicSum(terms=[(atom, 1.0)], dilation=D)

    usable = []
    for kind, s in (("circle-arc", 0), ("circle-arc", 4),
                    ("quartic-flat", 4)):
        surf = make_surface(kind)
        pieces = partition_measure(surf, s=s, eps=EPS)
        classify_pieces(pieces, surf, D, eps=EPS, zeta=ZETA)
        usable.extend(p for p in pieces if not p.excluded)
    configs = [(piece, tau) for piece in usable for tau in (0, -1)][:20]
    assert len(configs) == 20
    worst_lin = worst_pair = 0.0
    for piece, tau in configs:
        lrep = check_linfty_bound(haar((0, 0), tau), piece,
                                  sigma=0, zeta=ZETA, s=piece.s)
        assert lrep.ok, (piece.s, piece.rho, tau)
        prep = check_pair_bound(haar((0, 0), -1), haar((2, 0), -1), piece,
                                sigma_prime=-1, eps=EPS, s=piece.s)
        assert prep.precondition_met and prep.ok, (piece.s, piece.rho)
        worst_lin = max(worst_lin, lrep.sup_ratio, lrep.l1_ratio)
        worst_pair = max(worst_pair, prep.ratio)

    # no-cancellation control: nonnegative profiles make the inner
    # product track the kernel itself, far shallower than quadratic
    def plateau(idx):
        from anisomax.atoms import Atom
        amp = D.det_scale ** 3
        atom = Atom(support=GridCube(0, -3, idx, D), profile="plateau",
                    axis=0, amplitude=amp)
        return AtomicSum(terms=[(atom, 1.0)], dilation=D)

    measure = surface_quadrature(make_surface("circle-arc"), 200)
    dists, inners = [], []
    for idx in (4, 6, 9, 12, 16):
        rep = check_pair_bound(plateau((0, 0)), plateau((idx, 0)), measure,
                               sigma_prime=-4, eps=EPS, s=0, spacing=0.003)
        assert rep.precondition_met
        dists.append(rep.dist)
        inners.append(abs(rep.inner))
    slope = float(np.polyfit(np.log(dists), np.log(inners), 1)[0])
    assert slope >= -1.5
    assert slope < 0.0
    dt = time.perf_counter() - t0
    assert dt < 600.0
    _report(capsys, f"criterion 6: PASS - 20 piece configurations within "
                    f"64x (worst linfty {worst_lin:.3f}, worst pair "
                    f"{worst_pair:.4f}); control slope {slope:.3f} "
                    f"shallower than -1.5, {dt:.1f}s")


def test_criterion_7_weak_type_invariance(capsys, tmp_path):
    t0 = time.perf_counter()
    D = _diag24()
    measure = surface_quadrature(make_surface("circle-arc"), 200)
    base = [((0, 0), 1.0, 1), ((1, 0), 0.7, 2), ((0, 1), 1.3, 3)]
    ratios = {}
    for tau in (0, -2, -4, -6):
        terms = [(make_atom(GridCube(0, tau, idx, D), "haar", seed=sd), lam)
                 for idx, lam, sd in base]
        f = AtomicSum(terms=terms, dilation=D)
        box = [(-4.0 * 2.0 ** tau, 4.0 * 2.0 ** tau),
               (-4.0 * 4.0 ** tau, 4.0 * 4.0 ** tau)]
        lattice = make_lattice(box, (512, 512))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TailNotNegligibleWarning)
            ratios[tau] = weak_type_ratio(f, measure, (-3 + tau, 4 + tau),
                                          lattice)
    values = list(ratios.values())
    assert min(values) > 0.0
    spread = max(values) / min(values)
    assert spread < 3.0

    config = load_config(None, overrides=["alpha=16.0"], seed=7,
                         out_dir=tmp_path / "pipeline")
    status = run_experiment(config, "full-pipeline")
    assert status == 0
    summary = (tmp_path / "pipeline" / "summary.txt").read_text()
    assert "PASS weak_type_outside_E" in summary
    dt = time.perf_counter() - t0
    assert dt < 900.0
    _report(capsys, f"criterion 7: PASS - family ratios at tau 0,-2,-4,-6 "
                    f"spread {spread:.6f}x < 3 on 512^2; pipeline bound "
                    f"outside E holds at alpha=16, {dt:.1f}s")


def test_criterion_8_determinism(capsys, tmp_path):
    t0 = time.perf_counter()
    D = _diag24()

    # the whitney suite re-run on a sample of its instances
    def snapshot(seed):
        rng = default_rng(1000 + seed)
        n = int(rng.integers(1, 51))
        alpha = float(10.0 ** rng.uniform(-0.5, 0.5))
        entries = _random_instance(D, alpha, n, seed)
        result = whitney_decompose(entries, alpha)
        return repr([(S.tau, S.index) for S in result.selected])

    for seed in range(0, 200, 20):
        assert snapshot(seed) == snapshot(seed)

    def run_twice(experiment, files, overrides=()):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{experiment}-{tag}"
            config = load_config(None, overrides=list(overrides), seed=33,
                                 out_dir=out)
            run_experiment(config, experiment)
            outs.append(out)
        for name in files:
            first = (outs[0] / name).read_bytes()
            second = (outs[1] / name).read_bytes()
            assert first == second, (experiment, name)

    run_twice("whitney", ["selected.csv", "summary.txt"])
    run_twice("stopping",
              ["kappa.csv", "kappa_hist.csv", "exceptional.csv",
               "summary.txt"])
    # the weak-type rerun uses a reduced lattice: determinism does not
    # depend on resolution and this keeps the gate fast
    run_twice("maximal-weak-type",
              ["distribution.csv", "maximal_field.bin", "summary.txt"],
              overrides=["lattice.box=[[-2,2],[-2,2]]",
                         "lattice.shape=[192,192]",
                         "atoms.count=6", "atoms.index_span=1",
                         "atoms.tau_range=[-2,0]", "k_range=[-3,3]",
                         "n_gl=96"])
    dt = time.perf_counter() - t0
    _report(capsys, f"criterion 8: PASS - seeded reruns byte-identical for "
                    f"whitney, stopping, and weak-type outputs, {dt:.1f}s")
