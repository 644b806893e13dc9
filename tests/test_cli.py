import numpy as np

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


def test_predict_with_corrupt_checkpoint(tmp_path):
    cloud_path = tmp_path / "scene.txt"
    run(["synth", "--kind", "two-rooms", "--points-per-class", "16",
         "--out", str(cloud_path)])
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"JUNKJUNKJUNK")
    assert run(["predict", "--in", str(cloud_path), "--checkpoint", str(bad),
                "--out", str(tmp_path / "p.csv")]) == cli.EXIT_USAGE


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
