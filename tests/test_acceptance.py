"""End-to-end acceptance checks, one per criterion, each printing a verdict."""
import dataclasses
import math
import time

import numpy as np
import pytest

from ambiseg import autograd as ag
from ambiseg import cli
from ambiseg import io as aio
from ambiseg.ambiguity import AefConfig, ambiguity_map
from ambiseg.apm import block_forward, init_apm_block, loss_reg
from ambiseg.cloud import PointCloud, SceneSpec, knn_all, synth_scene
from ambiseg.config import Config
from ambiseg.gradcheck import run_gradcheck
from ambiseg.margin import loss_am_indexed, margin_map
from ambiseg.network import SegModel, build_geometry, forward, train
from ambiseg.refine import build_masks, refine
from oracles import contrast_batch, ply_text


def report(num, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num} [{name}]: {verdict}{suffix}")
    assert ok, f"criterion {num} [{name}] failed{suffix}"


def toy_scene(seed):
    return synth_scene(SceneSpec("planar-boundary", points_per_class=1000,
                                 noise_sigma=0.02, seed=seed))


@pytest.fixture(scope="session")
def overfit_run():
    """Full-size training run shared by the overfit and regression criteria."""
    cloud = toy_scene(seed=0)
    cfg = Config(seed=0, epochs=200)
    model = SegModel(cfg, feat_dim0=3, num_classes=cloud.num_classes)
    start = time.perf_counter()
    history = train(model, [cloud], steps_per_epoch=12)
    elapsed = time.perf_counter() - start
    return cloud, cfg, model, history, elapsed


def brute_ambiguity_oracle(positions, labels, k, beta, dup_epsilon=1e-9):
    """O(n^2) per-point reference; a stable value sort realizes the
    (distance, ascending index) tie rule, and the masked sums keep the same
    reduction order as the library so equality can be exact."""
    n = positions.shape[0]
    out = np.empty(n)
    for i in range(n):
        d2 = np.sum((positions - positions[i]) ** 2, axis=1)
        nb = np.argsort(d2, kind="stable")[:k]
        same = labels[nb] == labels[i]
        n_plus = int(same.sum())
        if n_plus == k:
            out[i] = 0.0
        elif n_plus == 1:
            out[i] = 1.0
        else:
            cc_p = n_plus / max(np.sum(d2[nb] * same), dup_epsilon)
            cc_m = (k - n_plus) / max(np.sum(d2[nb] * ~same), dup_epsilon)
            out[i] = 1.0 / (1.0 + math.exp(beta * (cc_p - cc_m)))
    return out


def test_criterion_01_ambiguity_oracle_equivalence():
    cfg, k = AefConfig(), Config().k
    start = time.perf_counter()
    exact = differing = max_ulp = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        cloud = PointCloud(rng.uniform(0, 4, size=(1000, 3)),
                           rng.integers(0, 3, 1000), 3)
        got = ambiguity_map(cloud.labels, knn_all(cloud.positions, k), cfg).values
        expected = brute_ambiguity_oracle(cloud.positions, cloud.labels, k, cfg.beta)
        exact += int(np.array_equal(got, expected))
        # ambiguities are non-negative, so their int64 bit patterns are
        # ordered like the values and differ by the ulp distance
        ulps = np.abs(got.view(np.int64) - expected.view(np.int64))
        differing += int(np.count_nonzero(ulps))
        max_ulp = max(max_ulp, int(ulps.max()))
    elapsed = time.perf_counter() - start
    report(1, "ambiguity oracle equivalence",
           exact == 20 and elapsed < 10.0,
           f"{exact}/20 clouds exact, {differing} values differ by up to "
           f"{max_ulp} ulp, {elapsed:.1f}s")


def test_criterion_02_ambiguity_spot_values():
    # point 0 of this cloud: cc+ = 2 / 1 = 2 and cc- = 2 / (4 + 4) = 0.25
    spot = PointCloud(np.array([[0.0, 0, 0], [1, 0, 0], [0, 2, 0], [0, 0, 2]]),
                      np.array([0, 0, 1, 1]), 2)
    a = ambiguity_map(spot.labels, knn_all(spot.positions, 4), AefConfig(beta=0.04)).values[0]
    spot_ok = abs(a - 1.0 / (1.0 + math.exp(0.07))) <= 1e-12
    # constructed neighborhoods for both saturation branches
    pos = np.vstack([np.linspace(0, 1, 8)[:, None] @ np.ones((1, 3)), [[0.01, 0, 0]]])
    pure = ambiguity_map(np.zeros(9, dtype=int), knn_all(pos, 5), AefConfig())
    lonely = ambiguity_map(np.array([0] * 8 + [1]), knn_all(pos, 5), AefConfig())
    branch_ok = np.all(pure.values == 0.0) and lonely.values[8] == 1.0
    report(2, "ambiguity spot values", spot_ok and branch_ok,
           f"a={a!r}")


def test_criterion_03_margin_sign_grid():
    cfg = Config(mu=-1.0, nu=0.5)
    grid = np.linspace(0.0, 1.0, 10_000)
    ok = margin_map(np.array([0.5]), cfg.mu, cfg.nu)[0] == 0.0
    margins = margin_map(grid, cfg.mu, cfg.nu)
    for a, m in zip(grid, margins):
        if a < 0.5:
            ok = ok and (m > 0 or a == 0.5)
        elif a > 0.5:
            ok = ok and m < 0
        else:
            ok = ok and m == 0.0
    report(3, "margin sign over ambiguity grid", ok, "10000 values")


def _plain_supervised_contrast(feats, nbr, intra, tau):
    """Independent margin-free supervised contrastive reference."""
    unit = feats / np.linalg.norm(feats, axis=1, keepdims=True)
    total, count = 0.0, 0
    for i in range(feats.shape[0]):
        if intra[i].all():
            continue
        count += 1
        num = sum(math.exp(float(unit[i] @ unit[j]) / tau) for j in nbr[i][intra[i]])
        den = num + sum(math.exp(float(unit[i] @ unit[j]) / tau) for j in nbr[i][~intra[i]])
        total += -math.log(num / den)
    return total / count


def test_criterion_04_margin_zero_reduction():
    rng = np.random.default_rng(0)
    cfg = Config(mu=0.0, nu=0.0)
    worst = 0.0
    for _ in range(100):
        feats, nbr, intra, margins = contrast_batch(rng, mu=0.0, nu=0.0)
        value, _ = loss_am_indexed(feats, nbr, intra, margins, cfg.tau)
        worst = max(worst, abs(value - _plain_supervised_contrast(feats, nbr, intra, cfg.tau)))
    report(4, "zero-margin reduction to supervised contrast", worst <= 1e-12,
           f"max |diff| {worst:.2e} over 100 batches")


def test_criterion_05_gradient_suite():
    start = time.perf_counter()
    worst = run_gradcheck(seed=0)
    elapsed = time.perf_counter() - start
    report(5, "finite-difference gradient suite",
           worst <= 1e-4 and elapsed < 60.0,
           f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_06_toy_overfit(overfit_run):
    cloud, cfg, model, history, elapsed = overfit_run
    geometry = build_geometry(cloud, cfg)
    result = forward(model, cloud, mode="infer", geometry=geometry)
    pred = np.argmax(result.scores.data, axis=1)
    oa = float((pred == cloud.labels).mean())
    totals = np.array([h.l_total for h in history])
    ma = np.convolve(totals, np.ones(20) / 20.0, mode="valid")
    ma_ok = bool(np.all(np.diff(ma) <= 1e-9))
    report(6, "toy overfit", oa >= 0.99 and ma_ok and elapsed < 120.0,
           f"OA {100 * oa:.2f}%, 20-epoch MA non-increasing {ma_ok}, {elapsed:.0f}s")


def _ambiguous_bin_accuracy(seed, mu, nu):
    cloud = toy_scene(seed)
    cfg = dataclasses.replace(Config(seed=seed), mu=mu, nu=nu, epochs=60)
    model = SegModel(cfg, feat_dim0=3, num_classes=cloud.num_classes)
    train(model, [cloud], steps_per_epoch=4)
    geometry = build_geometry(cloud, cfg)
    result = forward(model, cloud, mode="infer", geometry=geometry)
    pred = np.argmax(result.scores.data, axis=1)
    amb = ambiguity_map(cloud.labels, knn_all(cloud.positions, cfg.k),
                        AefConfig(beta=cfg.beta)).values
    mask = amb > 0
    return 100.0 * float((pred[mask] == cloud.labels[mask]).mean())


def test_criterion_07_adaptive_beats_constant_margin():
    adaptive = [_ambiguous_bin_accuracy(seed, mu=-1.0, nu=0.5) for seed in range(5)]
    constant = [_ambiguous_bin_accuracy(seed, mu=0.0, nu=0.5) for seed in range(5)]
    med_a = float(np.median(adaptive))
    med_c = float(np.median(constant))
    report(7, "adaptive vs constant margin", med_a >= med_c - 0.5,
           f"median ambiguous-bin accuracy {med_a:.2f}% vs {med_c:.2f}%")


def test_criterion_08_ambiguity_fraction_monotone_in_k():
    cloud = toy_scene(seed=0)
    fractions = [float((ambiguity_map(cloud.labels, knn_all(cloud.positions, k),
                                      AefConfig()).values > 0).mean())
                 for k in (12, 18, 24, 30)]
    ok = all(a <= b for a, b in zip(fractions, fractions[1:]))
    report(8, "ambiguity fraction non-decreasing in K", ok,
           "fractions " + ", ".join(f"{100 * f:.2f}%" for f in fractions))


def test_criterion_09_apm_regression(overfit_run):
    cloud, cfg, model, _, _ = overfit_run
    geometry = build_geometry(cloud, cfg)
    result = forward(model, cloud, mode="infer", geometry=geometry)
    feats = result.stage_feats[1].data.copy()
    z = np.concatenate([geometry[0].positions, feats], axis=1)
    target = geometry[0].ambiguities
    maes = []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        block = init_apm_block(feats.shape[1], rng)
        params = [p for layer in block for p in layer.parameters()]
        velocity = [np.zeros_like(p.data) for p in params]
        for _ in range(500):
            ag.zero_grads(params)
            out = block_forward(ag.Tensor(z), block, mode="train", update_running=True)
            ag.backward(loss_reg(out, target))
            for p, v in zip(params, velocity):
                if p.grad is not None:
                    v *= 0.9
                    v += p.grad
                    p.data -= 0.05 * v
        pred = block_forward(z, block, mode="infer", update_running=False).data[:, 0]
        maes.append(float(np.mean(np.abs(pred - target))))
    median = float(np.median(maes))
    report(9, "ambiguity regressor error", median <= 0.1,
           f"median MAE {median:.4f} over 5 seeds")


def test_criterion_10_refinement_invariants():
    rng = np.random.default_rng(0)
    feats = ag.Tensor(rng.normal(size=(64, 8)))
    nbr = knn_all(rng.normal(size=(64, 3)), 6)[0][:, 1:]  # anchor excluded
    low = rng.uniform(0.0, 0.5, size=64)
    hot = rng.uniform(0.85, 1.0, size=64)
    noop_ok = (refine(feats, hot, nbr, Config(gamma=0.0, k_tilde=6)) is feats
               and refine(feats, low, nbr, Config(k_tilde=6)) is feats
               and not build_masks(low, nbr, Config(k_tilde=6)).self_mask.any())

    # 10,000 rows of 7 neighbour ambiguities on a coarse grid, which forces ties
    vals = np.round(rng.uniform(size=70_000), 1)
    block = np.arange(70_000).reshape(10_000, 7)
    masks = build_masks(vals, block, Config(k_tilde=8))
    pool_ok, single_ok = True, True
    for row, bits in zip(block, masks.cross_mask):
        row_vals = vals[row]
        # the min-pooled value is the one the cross mask marks
        pool_ok = pool_ok and row_vals[bits == 1][0] == min(float(v) for v in row_vals)
        single_ok = single_ok and bits.sum() == 1 and bits[int(np.argmin(row_vals))] == 1
    report(10, "masked refinement invariants", noop_ok and pool_ok and single_ok,
           f"noop {noop_ok}, min-pool {pool_ok}, single-bit {single_ok}")


def test_criterion_11_cli_round_trip(tmp_path):
    scene = tmp_path / "scene.txt"
    csv_out = tmp_path / "amb.csv"
    ply_out = tmp_path / "amb.ply"
    assert cli.main(["synth", "--kind", "planar-boundary", "--points-per-class",
                     "100", "--noise-sigma", "0.02", "--out", str(scene)]) == 0
    assert cli.main(["ambiguity", "--in", str(scene), "--out", str(csv_out),
                     "--ply", str(ply_out)]) == 0
    cloud = aio.read_cloud(scene)
    amb = ambiguity_map(cloud.labels, knn_all(cloud.positions, Config().k), AefConfig()).values
    # the per-vertex oracle fixes every position string and every colour byte
    ply_ok = ply_out.read_bytes() == ply_text(cloud.positions, amb).encode()

    ckpt_a = tmp_path / "model_a.ckpt"
    ckpt_b = tmp_path / "model_b.ckpt"
    pred_a = tmp_path / "pred_a.csv"
    pred_b = tmp_path / "pred_b.csv"
    tiny = ["--set", "k=8", "--set", "k_tilde=4", "--set", "dims=6,8",
            "--set", "epochs=4"]
    assert cli.main(["train", "--in", str(scene), "--out", str(ckpt_a)] + tiny) == 0
    cfg, arrays, extra = aio.load_checkpoint(ckpt_a)
    aio.save_checkpoint(ckpt_b, cfg, arrays, extra=extra)
    ckpt_ok = ckpt_a.read_bytes() == ckpt_b.read_bytes()
    assert cli.main(["predict", "--in", str(scene), "--checkpoint", str(ckpt_a),
                     "--out", str(pred_a)]) == 0
    assert cli.main(["predict", "--in", str(scene), "--checkpoint", str(ckpt_b),
                     "--out", str(pred_b)]) == 0
    predict_ok = pred_a.read_bytes() == pred_b.read_bytes()
    report(11, "command-line round trip",
           ply_ok and ckpt_ok and predict_ok,
           f"PLY bytes {ply_ok}, checkpoint {ckpt_ok}, "
           f"predictions {predict_ok}")
