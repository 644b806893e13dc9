from pathlib import Path

import numpy as np
import pytest

from ambiseg import io as aio
from ambiseg.cloud import PointCloud
from ambiseg.config import Config
from ambiseg.network import SegModel, predict


def random_cloud(rng, n=25, with_features=False):
    feats = rng.normal(size=(n, 4)) if with_features else None
    return PointCloud(rng.normal(size=(n, 3)), rng.integers(0, 3, n), 3, feats)


def test_cloud_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    for with_features in (False, True):
        cloud = random_cloud(rng, with_features=with_features)
        path = tmp_path / f"cloud{int(with_features)}.txt"
        aio.write_cloud(path, cloud)
        back = aio.read_cloud(path)
        np.testing.assert_allclose(back.positions, cloud.positions, rtol=1e-8)
        np.testing.assert_array_equal(back.labels, cloud.labels)
        if with_features:
            np.testing.assert_allclose(back.features, cloud.features, rtol=1e-8)
        else:
            assert back.features is None


def test_read_cloud_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# only a comment\n")
    with pytest.raises(ValueError):
        aio.read_cloud(path)
    path.write_text("1 2 3 0\n1 2 3\n")
    with pytest.raises(ValueError, match="line 2"):
        aio.read_cloud(path)
    path.write_text("1 2 0\n")
    with pytest.raises(ValueError):
        aio.read_cloud(path)
    # a token that is not a number names its line, in a coordinate or in the label
    path.write_text("0 0 0 0\n1 1 abc 1\n")
    with pytest.raises(ValueError, match="line 2: could not convert string to float: 'abc'"):
        aio.read_cloud(path)
    path.write_text("# header\n\n0 0 0 1.5\n")
    with pytest.raises(ValueError, match="line 3: .*'1.5'"):
        aio.read_cloud(path)


def test_ambiguity_csv(tmp_path):
    rng = np.random.default_rng(1)
    cloud = random_cloud(rng, n=3)
    amb = np.array([0.0, 0.5, 1.0])
    path = tmp_path / "amb.csv"
    aio.write_ambiguity_csv(path, cloud, amb, 0.5 - amb)
    lines = path.read_text().splitlines()
    assert lines[0] == "index,x,y,z,ambiguity,margin"
    assert len(lines) == 4
    assert lines[2].split(",")[4] == "0.5"


def test_ambiguity_color_formula():
    assert aio.ambiguity_color(0.0) == (0, 0, 255)
    assert aio.ambiguity_color(1.0) == (255, 0, 0)
    for a in np.linspace(0, 1, 101):
        c = int(round(255.0 * a))
        assert aio.ambiguity_color(a) == (c, 0, 255 - c)


def test_ply_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    pos = rng.normal(size=(17, 3))
    amb = rng.uniform(size=17)
    path = tmp_path / "cloud.ply"
    aio.write_ply(path, pos, amb)
    back_pos, colors = aio.read_ply(path)
    np.testing.assert_allclose(back_pos, pos, atol=1e-6)
    for i in range(17):
        assert tuple(colors[i]) == aio.ambiguity_color(amb[i])


def test_read_ply_rejects_other_files(tmp_path):
    path = tmp_path / "x.ply"
    path.write_text("not a ply\n")
    with pytest.raises(ValueError):
        aio.read_ply(path)
    aio.write_ply(path, np.zeros((3, 3)), np.zeros(3))
    lines = path.read_text().splitlines()
    path.write_text("\n".join(line for line in lines if line != "end_header") + "\n")
    with pytest.raises(ValueError, match="end_header"):
        aio.read_ply(path)
    path.write_text("\n".join(lines[:-1]) + "\n")  # one vertex row short
    with pytest.raises(ValueError, match="3 vertex rows"):
        aio.read_ply(path)


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    # floats past nine significant digits must survive exactly
    cfg = Config(k=9, dims=(4, 8), lam=0.37, lr=0.0123456789012, epsilon_lo=0.12345678901)
    arrays = {
        "layer.w": rng.normal(size=(4, 7)),
        "layer.b": rng.normal(size=4),
        "scalarish": rng.normal(size=(1,)),
    }
    path = tmp_path / "model.ckpt"
    aio.save_checkpoint(path, cfg, arrays, extra={"feat_dim0": 3, "num_classes": 5})
    cfg2, arrays2, extra = aio.load_checkpoint(path)
    assert cfg2 == cfg
    assert (cfg2.lr, cfg2.epsilon_lo) == (0.0123456789012, 0.12345678901)
    assert extra == {"feat_dim0": 3, "num_classes": 5}
    assert set(arrays2) == set(arrays)
    for name in arrays:
        np.testing.assert_array_equal(arrays2[name], arrays[name])  # bit exact


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError):
        aio.load_checkpoint(path)


def test_fmt_is_compact():
    assert aio.fmt(0.5) == "0.5"
    assert aio.fmt(1.0) == "1"
    assert aio.fmt(1.0 / 3.0) == "0.333333333"


def test_frozen_checkpoint_loads_and_predicts():
    # written by an earlier version of ambiseg (dims 4,8, three epochs on a 48-point
    # planar-boundary cloud, refinement on every point in "sum" mode); the checkpoint
    # format and the inference path must keep reading it the same way
    data = Path(__file__).parent / "data"
    cfg, arrays, extra = aio.load_checkpoint(data / "frozen_model.ckpt")
    assert cfg == Config(k=8, k_tilde=4, dims=(4, 8), epochs=3, seed=5, epsilon_lo=0.0,
                         gamma=0.5, cross_mask_mode="sum")
    assert extra == {"feat_dim0": 3, "num_classes": 2}
    model = SegModel(cfg, feat_dim0=extra["feat_dim0"], num_classes=extra["num_classes"])
    model.load_arrays(arrays)
    labels, amb = predict(model, aio.read_cloud(data / "frozen_cloud.txt", num_classes=2))
    rows = [line.split(",") for line in (data / "frozen_predict.csv").read_text().splitlines()]
    assert rows[0] == ["index", "label", "ambiguity"] and len(rows) == 49
    np.testing.assert_array_equal(labels, [int(r[1]) for r in rows[1:]])
    np.testing.assert_allclose(amb, [float(r[2]) for r in rows[1:]], rtol=0, atol=1e-9)
