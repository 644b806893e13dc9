import hashlib
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from ambiseg import cli
from ambiseg import io as aio
from ambiseg.ambiguity import AefConfig, ambiguity_map
from ambiseg.cloud import PointCloud, knn_all
from ambiseg.config import Config
from ambiseg.margin import margin_map
from oracles import (ambiguity_csv_text, eval_csv_text, partition, ply_text, point_ambiguity,
                     predict_csv_text)

DATA = Path(__file__).parent / "data"

TINY = ["--set", "k=8", "--set", "k_tilde=4", "--set", "dims=6,8",
        "--set", "epochs=4"]


def run(argv):
    return cli.main(argv)


def test_no_command_prints_usage():
    assert run([]) == cli.EXIT_USAGE


def test_unknown_command_maps_to_usage_error():
    assert run(["frobnicate"]) == cli.EXIT_USAGE


def test_synth_and_ambiguity_pipeline(tmp_path):
    cloud_path = tmp_path / "scene.txt"
    csv_path = tmp_path / "amb.csv"
    ply_path = tmp_path / "amb.ply"
    assert run(["synth", "--kind", "planar-boundary", "--points-per-class", "80",
                "--noise-sigma", "0.02", "--seed", "3", "--out", str(cloud_path)]) == 0
    assert run(["ambiguity", "--in", str(cloud_path), "--out", str(csv_path),
                "--ply", str(ply_path)]) == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "index,x,y,z,ambiguity,margin"
    assert len(lines) == 161
    cloud = aio.read_cloud(cloud_path)
    amb = ambiguity_map(cloud.labels, knn_all(cloud.positions, Config().k),
                        AefConfig(beta=Config().beta)).values
    assert ply_path.read_bytes() == ply_text(cloud.positions, amb).encode()


def test_ambiguity_csv_and_ply_bytes_are_pinned(tmp_path):
    # One set of position strings feeds both files; each must stay the per-row
    # oracle's bytes, and both are pinned to the separate writers' output.
    cloud_path, csv_path, ply_path = tmp_path / "scene.txt", tmp_path / "a.csv", tmp_path / "a.ply"
    assert run(["synth", "--kind", "planar-boundary", "--points-per-class", "400",
                "--noise-sigma", "0.02", "--seed", "3", "--out", str(cloud_path)]) == 0
    assert run(["ambiguity", "--in", str(cloud_path), "--out", str(csv_path),
                "--ply", str(ply_path)]) == 0
    cloud = aio.read_cloud(cloud_path)
    amb = ambiguity_map(cloud.labels, knn_all(cloud.positions, Config().k),
                        AefConfig(beta=Config().beta)).values
    margins = margin_map(amb, Config().mu, Config().nu)
    assert csv_path.read_bytes() == ambiguity_csv_text(cloud, amb, margins).encode()
    assert ply_path.read_bytes() == ply_text(cloud.positions, amb).encode()
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest().startswith("440fe190c594a720")
    assert hashlib.sha256(ply_path.read_bytes()).hexdigest().startswith("1d5f0003070c552a")


def test_a_huge_beta_saturates_without_a_warning(tmp_path, capsys):
    # beta * (cc+ - cc-) past the float range saturates each mixed point to 0 or 1,
    # as the oracle does, with no numpy overflow warning (an error in tier-1)
    cloud_path, csv_path = tmp_path / "s.txt", tmp_path / "a.csv"
    ckpt_path, eval_path = tmp_path / "m.ckpt", tmp_path / "e.csv"
    assert run(["synth", "--kind", "two-rooms", "--points-per-class", "50",
                "--noise-sigma", "0.02", "--out", str(cloud_path)]) == 0
    huge = ["--set", "beta=1e308"]
    assert run(["ambiguity", "--in", str(cloud_path), "--out", str(csv_path), *huge]) == 0
    assert run(["train", "--in", str(cloud_path), "--out", str(ckpt_path), *TINY[:-1],
                "epochs=1", *huge]) == 0
    assert run(["eval", "--in", str(cloud_path), "--checkpoint", str(ckpt_path),
                "--out", str(eval_path)]) == 0
    assert capsys.readouterr().err == ""
    cloud = aio.read_cloud(cloud_path)
    k = Config().k
    mixed = [i for i in range(cloud.n)
             if 1 < partition(cloud.positions, cloud.labels, i, k)[1].sum() < k]
    assert mixed
    want = [point_ambiguity(cloud.positions, cloud.labels, i, k, 1e308) for i in range(cloud.n)]
    assert {want[i] for i in mixed} == {0.0, 1.0}
    got = [row.split(",")[4] for row in csv_path.read_text().splitlines()[1:]]
    assert got == [aio.FLOAT_FORMAT % v for v in want]


def test_bad_scene_kind_is_usage_error(tmp_path):
    assert run(["synth", "--kind", "mars-base", "--out", str(tmp_path / "x.txt")]) \
        == cli.EXIT_USAGE


@pytest.mark.parametrize("sigma", ["nan", "inf"])
def test_non_finite_noise_sigma_is_usage_error(tmp_path, capsys, sigma):
    out = tmp_path / "scene.txt"
    assert run(["synth", "--kind", "two-rooms", "--noise-sigma", sigma,
                "--out", str(out)]) == cli.EXIT_USAGE
    assert "noise_sigma must be finite and >= 0" in _one_error_line(capsys)
    assert not out.exists()


def test_missing_input_is_usage_error(tmp_path):
    assert run(["ambiguity", "--in", str(tmp_path / "nope.txt"),
                "--out", str(tmp_path / "out.csv")]) == cli.EXIT_USAGE


def test_bad_override_is_usage_error(tmp_path):
    cloud_path = tmp_path / "scene.txt"
    run(["synth", "--kind", "two-rooms", "--points-per-class", "16",
         "--out", str(cloud_path)])
    assert run(["ambiguity", "--in", str(cloud_path), "--out", str(tmp_path / "o.csv"),
                "--set", "bogus=1"]) == cli.EXIT_USAGE


def test_non_finite_coordinate_is_usage_error(tmp_path, capsys):
    cloud_path = tmp_path / "scene.txt"
    assert run(["synth", "--kind", "two-rooms", "--points-per-class", "16",
                "--out", str(cloud_path)]) == 0
    lines = cloud_path.read_text().splitlines()
    row = next(i for i, line in enumerate(lines) if line and not line.startswith("#"))
    lines[row] = " ".join(["nan"] + lines[row].split()[1:])
    cloud_path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run(["ambiguity", "--in", str(cloud_path),
                "--out", str(tmp_path / "o.csv")]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "must be finite" in err


def test_train_predict_eval_roundtrip(tmp_path):
    cloud_path = tmp_path / "scene.txt"
    ckpt = tmp_path / "model.ckpt"
    pred_a = tmp_path / "pred_a.csv"
    pred_b = tmp_path / "pred_b.csv"
    table = tmp_path / "eval.csv"
    assert run(["synth", "--kind", "planar-boundary", "--points-per-class", "60",
                "--noise-sigma", "0.02", "--out", str(cloud_path)]) == 0
    assert run(["train", "--in", str(cloud_path), "--out", str(ckpt)] + TINY) == 0
    assert run(["predict", "--in", str(cloud_path), "--checkpoint", str(ckpt),
                "--out", str(pred_a)]) == 0
    assert run(["predict", "--in", str(cloud_path), "--checkpoint", str(ckpt),
                "--out", str(pred_b)]) == 0
    assert pred_a.read_bytes() == pred_b.read_bytes()  # deterministic reload
    assert run(["eval", "--in", str(cloud_path), "--checkpoint", str(ckpt),
                "--out", str(table)]) == 0
    lines = table.read_text().splitlines()
    assert lines[0] == "bin,count,miou,macc"
    assert lines[1].startswith("all,120,")
    # the five ambiguity bins follow the "all" row
    assert [ln.split(",")[0] for ln in lines[2:]] == ["zero", "low", "semi", "high", "one"]


def test_train_with_config_file(tmp_path):
    cloud_path = tmp_path / "scene.txt"
    ckpt = tmp_path / "model.ckpt"
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("k = 8\nk_tilde = 4\ndims = 6,8\nepochs = 2\n")
    run(["synth", "--kind", "planar-boundary", "--points-per-class", "60",
         "--out", str(cloud_path)])
    assert run(["train", "--in", str(cloud_path), "--config", str(cfg_path),
                "--out", str(ckpt)]) == 0
    cfg, _, extra = aio.load_checkpoint(ckpt)
    assert cfg.k == 8 and cfg.epochs == 2
    assert extra["num_classes"] == 2


def test_predict_with_corrupt_checkpoint(tmp_path, capsys):
    cloud_path = tmp_path / "scene.txt"
    ckpt = tmp_path / "model.ckpt"
    run(["synth", "--kind", "planar-boundary", "--points-per-class", "60",
         "--out", str(cloud_path)])
    assert run(["train", "--in", str(cloud_path), "--out", str(ckpt)] + TINY) == 0
    data = ckpt.read_bytes()
    # junk, then cuts inside the magic, the header, the config text, a tensor
    # and the last bytes of a real checkpoint
    cases = [b"JUNKJUNKJUNK"] + [data[:size] for size in
                                (0, 3, 10, 200, len(data) // 2, len(data) - 3, len(data) - 1)]
    for content in cases:
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(content)
        capsys.readouterr()
        assert run(["predict", "--in", str(cloud_path), "--checkpoint", str(bad),
                    "--out", str(tmp_path / "p.csv")]) == cli.EXIT_USAGE, len(content)
        err = capsys.readouterr().err
        assert err.count("\n") == 1, err
        if data.startswith(content) and len(content) >= 4:
            assert "truncated checkpoint" in err, err
    # a well-formed checkpoint without the model sizes names the first missing one
    for extra, key in (({}, "feat_dim0"), ({"feat_dim0": 3}, "num_classes")):
        aio.save_checkpoint(bad, Config(), {}, extra=extra)
        capsys.readouterr()
        assert run(["predict", "--in", str(cloud_path), "--checkpoint", str(bad),
                    "--out", str(tmp_path / "p.csv")]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"'{key}'" in err, err


def test_gradcheck_exit_codes(monkeypatch):
    import ambiseg.gradcheck as gc
    monkeypatch.setattr(gc, "run_gradcheck", lambda seed, verbose: 1e-9)
    assert run(["gradcheck"]) == cli.EXIT_OK
    monkeypatch.setattr(gc, "run_gradcheck", lambda seed, verbose: 1e-2)
    assert run(["gradcheck"]) == cli.EXIT_RUNTIME


def test_predict_csv_matches_in_process_model(tmp_path):
    cloud_path = tmp_path / "scene.txt"
    ckpt = tmp_path / "model.ckpt"
    pred_path = tmp_path / "pred.csv"
    run(["synth", "--kind", "planar-boundary", "--points-per-class", "60",
         "--noise-sigma", "0.02", "--out", str(cloud_path)])
    run(["train", "--in", str(cloud_path), "--out", str(ckpt)] + TINY)
    run(["predict", "--in", str(cloud_path), "--checkpoint", str(ckpt),
         "--out", str(pred_path)])
    from ambiseg.network import SegModel, predict
    cfg, arrays, extra = aio.load_checkpoint(ckpt)
    model = SegModel(cfg, feat_dim0=extra["feat_dim0"], num_classes=extra["num_classes"])
    model.load_arrays(arrays)
    cloud = aio.read_cloud(cloud_path, num_classes=extra["num_classes"])
    labels, amb = predict(model, cloud)
    rows = pred_path.read_text().splitlines()[1:]
    got_labels = np.array([int(r.split(",")[1]) for r in rows])
    got_amb = np.array([float(r.split(",")[2]) for r in rows])
    np.testing.assert_array_equal(got_labels, labels)
    np.testing.assert_allclose(got_amb, amb, rtol=1e-8)


def test_predict_and_eval_csvs_match_the_per_row_oracle(tmp_path):
    from ambiseg.ambiguity import AefConfig, ambiguity_map
    from ambiseg.metrics import breakdown, confusion, scores
    from ambiseg.network import predict
    pred_path, eval_path = tmp_path / "pred.csv", tmp_path / "eval.csv"
    io_args = ["--in", str(DATA / "frozen_cloud.txt"), "--checkpoint",
               str(DATA / "frozen_model.ckpt")]
    assert run(["predict", *io_args, "--out", str(pred_path)]) == 0
    assert run(["eval", *io_args, "--out", str(eval_path)]) == 0
    model = cli._load_model(str(DATA / "frozen_model.ckpt"))
    cloud = aio.read_cloud(DATA / "frozen_cloud.txt", num_classes=model.num_classes)
    labels, amb = predict(model, cloud)
    assert pred_path.read_bytes() == predict_csv_text(labels, amb).encode()
    _, macc, miou = scores(confusion(labels, cloud.labels, cloud.num_classes))
    a = ambiguity_map(cloud.labels, knn_all(cloud.positions, model.cfg.k),
                      AefConfig(beta=model.cfg.beta)).values
    table = breakdown(labels, cloud.labels, a, cloud.num_classes)
    assert eval_path.read_bytes() == eval_csv_text(cloud.n, miou, macc, table).encode()
    assert "semi,0,nan,nan" in eval_path.read_text()  # an empty bin writes nan


def test_eval_makes_one_full_cloud_neighbour_search(tmp_path, monkeypatch):
    # eval hands its one search to the geometry's stage 1 and to the ambiguity
    # bins; predict needs no full-cloud search and makes none
    from ambiseg import network
    from ambiseg.cloud import knn_all
    sizes = []

    def counted(pos, k):
        sizes.append(len(pos))
        return knn_all(pos, k)

    for mod in (cli, network):
        monkeypatch.setattr(mod, "knn_all", counted)
    n = aio.read_cloud(DATA / "frozen_cloud.txt").n
    io_args = ["--in", str(DATA / "frozen_cloud.txt"), "--checkpoint",
               str(DATA / "frozen_model.ckpt")]
    assert run(["eval", *io_args, "--out", str(tmp_path / "eval.csv")]) == 0
    assert sizes.count(n) == 1 and len(sizes) == 3, sizes   # plus one per stage
    sizes.clear()
    assert run(["predict", *io_args, "--out", str(tmp_path / "pred.csv")]) == 0
    assert n not in sizes and len(sizes) == 2, sizes


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.count("\n") == 1, err
    return err


def test_bad_config_values_exit_1_with_one_line(tmp_path, capsys):
    cloud_path = tmp_path / "scene.txt"
    run(["synth", "--kind", "planar-boundary", "--points-per-class", "40",
         "--out", str(cloud_path)])
    cases = [("ambiguity", "gamma=2", "gamma must lie in [0, 1]"),
             ("ambiguity", "beta=nan", "beta must be finite"),
             ("ambiguity", "mu=inf", "mu must be finite"),
             ("train", "epochs=0", "epochs must be >= 1"),
             ("train", "epochs=-2", "epochs must be >= 1"),
             ("train", "cross_mask_mode=avg", "cross_mask_mode must be single or sum"),
             ("ambiguity", "beta=0", "beta must be > 0"),
             ("train", "dims=0,8", "dims widths must be >= 1"),
             ("train", "dims=-4,8", "dims widths must be >= 1"),
             ("train", "seed=-1", "seed must be >= 0"),
             ("ambiguity", "seed=-1", "seed must be >= 0")]
    for command, pair, message in cases:
        capsys.readouterr()
        assert run([command, "--in", str(cloud_path), "--out", str(tmp_path / "out"),
                    "--set", pair]) == cli.EXIT_USAGE, pair
        assert message in _one_error_line(capsys)
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("pairs, raw, key", [(["k=abc"], "abc", "k"),
                                             (["k=3", "beta=zz"], "zz", "beta")])
def test_unparsable_override_cites_no_line(tmp_path, capsys, pairs, raw, key):
    # an override has no line number; only a config file's errors cite one
    cloud_path = tmp_path / "scene.txt"
    run(["synth", "--kind", "two-rooms", "--points-per-class", "16", "--out", str(cloud_path)])
    capsys.readouterr()
    argv = ["train", "--in", str(cloud_path), "--out", str(tmp_path / "m.ckpt")]
    assert run(argv + [arg for pair in pairs for arg in ("--set", pair)]) == cli.EXIT_USAGE
    assert _one_error_line(capsys) == f"error: cannot parse value {raw!r} for key {key!r}\n"
    assert not (tmp_path / "m.ckpt").exists()


def test_directory_paths_exit_1_with_one_line(tmp_path, capsys):
    cloud_path = tmp_path / "scene.txt"
    run(["synth", "--kind", "planar-boundary", "--points-per-class", "40",
         "--out", str(cloud_path)])
    for argv in (["ambiguity", "--in", str(tmp_path), "--out", str(tmp_path / "o.csv")],
                 ["ambiguity", "--in", str(cloud_path), "--out", str(tmp_path)],
                 ["synth", "--kind", "two-rooms", "--out", str(tmp_path)],
                 ["predict", "--in", str(cloud_path), "--checkpoint", str(tmp_path),
                  "--out", str(tmp_path / "p.csv")],
                 ["train", "--in", str(cloud_path), "--config", str(tmp_path),
                  "--out", str(tmp_path / "m.ckpt")]):
        capsys.readouterr()
        assert run(argv) == cli.EXIT_USAGE, argv
        assert str(tmp_path) in _one_error_line(capsys)


@pytest.mark.parametrize("term, stage, message", [
    ("l_ce", None, "training diverged at epoch 1: l_ce = nan"),
    ("l_am", 2, "training diverged at epoch 1: l_am (stage 2) = nan"),
    ("l_reg", 1, "training diverged at epoch 1: l_reg (stage 1) = nan"),
], ids=["l_ce", "l_am", "l_reg"])
def test_divergence_names_the_loss_term(tmp_path, capsys, monkeypatch, term, stage, message):
    import ambiseg.network as network
    real = network.loss_joint
    calls = []

    def poisoned(model, result, labels):
        # the second epoch's report carries one non-finite term; the graph is untouched
        total, report = real(model, result, labels)
        calls.append(1)
        if len(calls) == 2:
            if stage is None:
                setattr(report, term, float("nan"))
            else:
                getattr(report, term)[stage - 1] = float("nan")
        return total, report

    monkeypatch.setattr(network, "loss_joint", poisoned)
    cloud_path = tmp_path / "scene.txt"
    run(["synth", "--kind", "planar-boundary", "--points-per-class", "40",
         "--out", str(cloud_path)])
    capsys.readouterr()
    assert run(["train", "--in", str(cloud_path), "--out", str(tmp_path / "m.ckpt")]
               + TINY) == cli.EXIT_RUNTIME
    assert _one_error_line(capsys) == f"runtime failure: {message}\n"


@pytest.mark.parametrize("pair, message", [
    ("lr=1e300", r"l_ce = nan"),
    ("lr=1e100", r"enc\d\.running_var is not finite"),
    ("omega=1e308", r"apm\d\.l\d\.running_var is not finite"),
], ids=["lr=1e300", "lr=1e100", "omega=1e308"])
def test_diverging_train_prints_one_line_and_writes_nothing(tmp_path, capsys, pair, message):
    # Tier-1 turns numpy's RuntimeWarning into an error, so an overflow warning
    # raised inside the epoch loop would escape cli.main here.
    scene = tmp_path / "scene.txt"
    run(["synth", "--kind", "two-rooms", "--points-per-class", "150", "--noise-sigma", "0.02",
         "--seed", "0", "--out", str(scene)])
    capsys.readouterr()
    assert run(["train", "--in", str(scene), "--out", str(tmp_path / "m.ckpt"),
                "--set", "epochs=2", "--set", pair]) == cli.EXIT_RUNTIME
    assert re.fullmatch(rf"runtime failure: training diverged at epoch 1: {message}\n",
                        _one_error_line(capsys))
    assert [p.name for p in tmp_path.iterdir()] == ["scene.txt"]


FROZEN_CKPT = Path(__file__).parent / "data" / "frozen_model.ckpt"


@pytest.mark.parametrize("command", ["ambiguity", "train", "predict", "eval"])
def test_one_point_cloud_exits_1_naming_the_point_count(tmp_path, capsys, command):
    ckpt = ["--checkpoint", str(FROZEN_CKPT)]
    extra = {"train": TINY, "predict": ckpt, "eval": ckpt}.get(command, [])
    one, two = tmp_path / "one.txt", tmp_path / "two.txt"
    one.write_text("0 0 0 0\n")
    two.write_text("0 0 0 0\n1 0.5 0 1\n")
    capsys.readouterr()
    assert run([command, "--in", str(one), "--out", str(tmp_path / "o1")] + extra) \
        == cli.EXIT_USAGE
    assert "need at least 2 points, got 1" in _one_error_line(capsys)
    assert not (tmp_path / "o1").exists()
    assert run([command, "--in", str(two), "--out", str(tmp_path / "o2")] + extra) \
        == cli.EXIT_OK
    assert (tmp_path / "o2").exists()


def test_label_past_int64_exits_1_with_one_line(tmp_path, capsys):
    big = tmp_path / "big.txt"
    big.write_text("0 0 0 0\n1 1 1 99999999999999999999\n")
    capsys.readouterr()
    assert run(["ambiguity", "--in", str(big), "--out", str(tmp_path / "a.csv")]) \
        == cli.EXIT_USAGE
    assert "line 2: label 99999999999999999999 does not fit in int64" in _one_error_line(capsys)
    assert not (tmp_path / "a.csv").exists()


def test_corrupt_checkpoint_counts_exit_1_before_building_the_model(tmp_path, capsys):
    cloud_path, ckpt, bad = tmp_path / "scene.txt", tmp_path / "model.ckpt", tmp_path / "bad.ckpt"
    run(["synth", "--kind", "planar-boundary", "--points-per-class", "40",
         "--out", str(cloud_path)])
    assert run(["train", "--in", str(cloud_path), "--out", str(ckpt)] + TINY) == 0
    cfg, arrays, extra = aio.load_checkpoint(ckpt)
    # 2**20 classes or features would size a model of over 100 MiB
    for key, array in (("num_classes", "head.b"), ("feat_dim0", "enc1.w")):
        aio.save_checkpoint(bad, cfg, arrays, extra=extra | {key: 2 ** 20})
        capsys.readouterr()
        tracemalloc.start()
        try:
            code = run(["predict", "--in", str(cloud_path), "--checkpoint", str(bad),
                        "--out", str(tmp_path / "p.csv")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == cli.EXIT_USAGE, key
        assert f"array {array} has shape" in _one_error_line(capsys)
        assert peak < 16 * 2 ** 20, (key, peak)


@pytest.mark.parametrize("command", ["predict", "eval"])
def test_non_finite_checkpoint_array_exits_1_naming_it(tmp_path, capsys, command):
    cloud_path, ckpt, bad = tmp_path / "scene.txt", tmp_path / "model.ckpt", tmp_path / "bad.ckpt"
    run(["synth", "--kind", "planar-boundary", "--points-per-class", "40",
         "--out", str(cloud_path)])
    assert run(["train", "--in", str(cloud_path), "--out", str(ckpt)] + TINY) == 0
    cfg, arrays, extra = aio.load_checkpoint(ckpt)
    for name, value in (("apm1.l0.running_var", np.inf), ("head.w", np.nan)):
        aio.save_checkpoint(bad, cfg, arrays | {name: np.full_like(arrays[name], value)},
                            extra=extra)
        out = tmp_path / f"{name}.csv"
        capsys.readouterr()
        assert run([command, "--in", str(cloud_path), "--checkpoint", str(bad),
                    "--out", str(out)]) == cli.EXIT_USAGE, name
        assert _one_error_line(capsys) == f"error: checkpoint array {name} is not finite\n"
        assert not out.exists()


def test_out_of_memory_exits_2_with_one_line(tmp_path, capsys, monkeypatch):
    # A 2-point cloud labelled 2**40 sizes a 128 TiB head. The stand-in raises
    # numpy's error for it, so nothing is allocated.
    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 128. TiB for an array with shape "
                          "(1099511627777, 16) and data type float64")

    monkeypatch.setattr(cli, "SegModel", too_large)
    scene, ckpt = tmp_path / "scene.txt", tmp_path / "model.ckpt"
    scene.write_text("0 0 0 0\n1 1 1 1099511627776\n")
    capsys.readouterr()
    assert run(["train", "--in", str(scene), "--out", str(ckpt)] + TINY) == cli.EXIT_RUNTIME
    assert _one_error_line(capsys).startswith(
        "runtime failure: out of memory: Unable to allocate 128. TiB")
    assert not ckpt.exists()


def test_eval_with_sparse_class_ids_counts_only_the_present_classes(tmp_path):
    # classes {0, 3000}: a dense (3001, 3001) confusion count would take 72 MB
    rng = np.random.default_rng(0)
    scene, ckpt = tmp_path / "scene.txt", tmp_path / "model.ckpt"
    labels = np.repeat([0, 3000], 30)
    positions = rng.normal(size=(60, 3)) + 3.0 * (labels == 3000)[:, None]
    aio.write_cloud(scene, PointCloud(positions, labels, 3001))
    assert run(["train", "--in", str(scene), "--out", str(ckpt)] + TINY) == 0
    tracemalloc.start()
    try:
        code = run(["eval", "--in", str(scene), "--checkpoint", str(ckpt),
                    "--out", str(tmp_path / "eval.csv")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == cli.EXIT_OK
    assert peak < 16 * 2 ** 20, peak
    assert (tmp_path / "eval.csv").read_text().startswith("bin,count,miou,macc\nall,60,")


@pytest.mark.parametrize("command", ["ambiguity", "predict", "eval"])
def test_overflowing_squared_distances_exit_1_with_one_line(tmp_path, capsys, command):
    extra = ["--checkpoint", str(FROZEN_CKPT)] if command != "ambiguity" else []
    far, wide = tmp_path / "far.txt", tmp_path / "wide.txt"
    far.write_text("1e160 0 0 0\n0 0 0 0\n0 1 0 1\n0 0 1 1\n1 1 1 0\n")
    wide.write_text("1e150 1e150 -1e150 0\n-1e150 1e150 1e150 1\n1e150 -1e150 1e150 0\n"
                    "-1e150 -1e150 -1e150 1\n0 0 0 0\n1e150 1e150 1e150 1\n")
    # 20 points at x = 0 and 20 at x = gap: each squared distance is finite, but at
    # 1.3e154 (1.7e308 each) a row's sum of two is not; at 2e153 a sum of 40 is
    sums, fits = tmp_path / "sums.txt", tmp_path / "fits.txt"
    for path, gap in ((sums, 1.3e154), (fits, 2.0e153)):
        path.write_text("".join(f"{gap * (i >= 20)!r} {0.001 * i!r} 0 {i % 2}\n"
                                for i in range(40)))
    capsys.readouterr()
    for path in (far, sums):
        out = tmp_path / f"{path.stem}.out"
        assert run([command, "--in", str(path), "--out", str(out)] + extra) == cli.EXIT_USAGE
        err = _one_error_line(capsys)
        assert "squared distances overflow" in err and "Traceback" not in err
        assert not out.exists()
    for path in (wide, fits):
        out = tmp_path / f"{path.stem}.out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # an overflow warning fails the command
            assert run([command, "--in", str(path), "--out", str(out)] + extra) == cli.EXIT_OK
        assert out.exists()


def test_smoke_sequence(tmp_path, capsys):
    """The CLI's end-to-end sequence in one directory: every command's exit code,
    run-to-run byte-equal outputs, and a one-line refusal that writes no file for
    each bad input. One repeat runs in a child process."""
    d = tmp_path

    def ok(*argv):
        assert run(list(map(str, argv))) == cli.EXIT_OK, argv

    def same(a, b):
        assert (d / a).read_bytes() == (d / b).read_bytes(), (a, b)

    def refused(out, *argv):
        capsys.readouterr()
        assert run(list(map(str, argv))) != cli.EXIT_OK, argv
        _one_error_line(capsys)
        assert not (d / out).exists(), argv

    scene, model, refined = d / "scene.txt", d / "model.ckpt", d / "refined.ckpt"
    ok("synth", "--kind", "two-rooms", "--points-per-class", "150", "--noise-sigma", "0.02",
       "--seed", "0", "--out", scene)
    ok("train", "--in", scene, "--out", model, "--set", "epochs=2")
    for tag in ("", "-again"):
        ok("predict", "--in", scene, "--checkpoint", model, "--out", d / f"pred{tag}.csv")
        ok("eval", "--in", scene, "--checkpoint", model, "--out", d / f"eval{tag}.csv")
    same("pred.csv", "pred-again.csv")
    same("eval.csv", "eval-again.csv")
    # a band of [0, 1] refines every point: the masked refinement runs in both modes;
    # the repeat trains in a fresh process
    band = ["--set", "epochs=2", "--set", "epsilon_lo=0.0", "--set", "gamma=0.5"]
    ok("train", "--in", scene, "--out", refined, *band)
    paths = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    child = subprocess.run([sys.executable, "-m", "ambiseg.cli", "train", "--in", str(scene),
                            "--out", str(d / "refined-again.ckpt"), *band],
                           env=env, capture_output=True, text=True, timeout=300)
    assert child.returncode == cli.EXIT_OK, child.stderr
    same("refined.ckpt", "refined-again.ckpt")
    ok("predict", "--in", scene, "--checkpoint", refined, "--out", d / "refined-pred.csv")
    ok("eval", "--in", scene, "--checkpoint", refined, "--out", d / "refined-eval.csv")
    lattice, checker = d / "lattice.txt", d / "checker.txt"
    ok("synth", "--kind", "planar-boundary", "--points-per-class", "300", "--out", lattice)
    for tag in ("", "-again"):
        ok("ambiguity", "--in", lattice, "--out", d / f"ambiguity{tag}.csv",
           "--ply", d / f"ambiguity{tag}.ply")
        ok("synth", "--kind", "checker-columns", "--points-per-class", "200",
           "--noise-sigma", "0.02", "--seed", "3", "--out", d / f"checker{tag}.txt")
    for name in ("ambiguity.csv", "ambiguity.ply", "checker.txt"):
        same(name, name.replace(".", "-again."))
    ok("ambiguity", "--in", checker, "--out", d / "checker-ambiguity.csv")
    # a diverged model (overflowing running variances, then an overflowing loss) is
    # not written; a NaN noise level is a usage error, not a noise-free scene
    for pair in ("omega=1e308", "lr=1e300"):
        refused("inf.ckpt", "train", "--in", scene, "--out", d / "inf.ckpt",
                "--set", "epochs=2", "--set", pair)
    refused("nan.txt", "synth", "--kind", "two-rooms", "--noise-sigma", "nan",
            "--out", d / "nan.txt")
    # tied lattice distances, then every point written twice: zero-distance ties
    # through the ranking and the fallback upsampling rows
    dup = d / "dup.txt"
    text = lattice.read_text()
    dup.write_text(text + "".join(line for line in text.splitlines(keepends=True)
                                  if not line.startswith("#")))
    for cloud in (lattice, dup):
        ok("predict", "--in", cloud, "--checkpoint", model, "--out", d / f"{cloud.stem}-pred.csv")
        ok("eval", "--in", cloud, "--checkpoint", model, "--out", d / f"{cloud.stem}-eval.csv")
