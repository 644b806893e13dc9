from pathlib import Path

import numpy as np
import pytest

from ambiseg import cli
from ambiseg import io as aio

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
    pos, colors = aio.read_ply(ply_path)
    assert pos.shape == (160, 3)
    assert colors.shape == (160, 3)


def test_bad_scene_kind_is_usage_error(tmp_path):
    assert run(["synth", "--kind", "mars-base", "--out", str(tmp_path / "x.txt")]) \
        == cli.EXIT_USAGE


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
             ("train", "dims=-4,8", "dims widths must be >= 1")]
    for command, pair, message in cases:
        capsys.readouterr()
        assert run([command, "--in", str(cloud_path), "--out", str(tmp_path / "out"),
                    "--set", pair]) == cli.EXIT_USAGE, pair
        assert message in _one_error_line(capsys)
        assert not (tmp_path / "out").exists()


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
