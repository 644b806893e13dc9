from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ambiseg import io as aio
from ambiseg.cloud import PointCloud
from ambiseg.config import Config
from ambiseg.network import SegModel, predict
from oracles import ambiguity_csv_text, cloud_text, ply_text


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


# Inputs whose result must stay what the per-line parser gives: spellings only
# float() and int() accept, and rows numpy's reader would read differently.
READ_CLOUD_EDGES = [
    ("1_0 2 3 1_0\n", [[10.0, 2.0, 3.0]], [10]),
    ("+1 -0 3e0 +1\n", [[1.0, -0.0, 3.0]], [1]),
    ("\uff11 2 3 \uff11\n", [[1.0, 2.0, 3.0]], [1]),  # fullwidth digit one
    ("0 0 0 0\n1 2 3 1 # tail\n", "line 2: inconsistent token count", None),
    ("0 0 0 0\n1 2 3 1#tail\n", "line 2: invalid literal for int() with base 10: '1#tail'", None),
    ("0 0 0 0\n1 2 3 1.5\n", "line 2: invalid literal for int() with base 10: '1.5'", None),
    ("1 2 3 3.0\n", "line 1: invalid literal for int() with base 10: '3.0'", None),
    ("1 2 3\n", "line 1: need at least x y z label", None),
    ("# c\n1 2 3 0\n\n1 2 3 4 0\n", "line 4: inconsistent token count", None),
    ("nan 2 3 0\n", "positions must be finite", None),
    # a private-use character, which numpy 2.4.6's integer parser crashes on
    ("1 2 3 \U0010204a\n", r"line 1: invalid literal for int() with base 10: '\U0010204a'", None),
    # a label int accepts but int64 cannot hold
    ("0 0 0 0\n1 1 1 99999999999999999999\n",
     "line 2: label 99999999999999999999 does not fit in int64", None),
]


@pytest.mark.parametrize("text, expected, labels", READ_CLOUD_EDGES)
def test_read_cloud_edge_cases_keep_the_per_line_result(tmp_path, text, expected, labels):
    path = tmp_path / "edge.txt"
    path.write_text(text, encoding="utf-8")
    if labels is None:
        with pytest.raises(ValueError) as err:
            aio.read_cloud(path)
        assert str(err.value).startswith(expected)
    else:
        cloud = aio.read_cloud(path)
        assert cloud.positions.tobytes() == np.array(expected).tobytes()
        np.testing.assert_array_equal(cloud.labels, labels)


Parsed = namedtuple("Parsed", "positions labels num_classes features")


def test_read_cloud_matches_the_per_line_parser_bit_for_bit(tmp_path, monkeypatch):
    # Every file here is one the one-call reader must take: the per-line parser
    # gives the reference arrays first, then is replaced by a tripwire.
    reference = aio._parse_rows

    def tripwire(lines):
        raise AssertionError("read_cloud fell back to the per-line parser")

    floats = st.floats(allow_nan=False, allow_infinity=False)
    rejected = []

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(rows=st.integers(1, 20).flatmap(lambda n: st.lists(
               st.tuples(st.lists(floats, min_size=3, max_size=6), st.integers(0, 40)),
               min_size=n, max_size=n)),
           columns=st.integers(3, 6), spelling=st.sampled_from([repr, aio.fmt]),
           seps=st.lists(st.sampled_from([" ", "\t", "  ", " \t "]), min_size=1),
           newline=st.sampled_from(["\n", "\r\n"]),
           extras=st.lists(st.tuples(st.integers(0, 20),
                                     st.sampled_from(["", "   ", "# note", "  # 1 2 3 0"]))))
    @example(rows=[([-0.0, 5e-324, -2.5e300], 0), ([0.0, 1e-5, 1.5e16], 3)], columns=3,
             spelling=repr, seps=["\t"], newline="\r\n", extras=[(0, "# x y z label"), (1, "")])
    def check(rows, columns, spelling, seps, newline, extras):
        lines = []
        for i, (values, label) in enumerate(rows):
            tokens = [spelling(v) for v in (values * 2)[:columns]] + [str(label)]
            sep = seps[i % len(seps)]
            lines.append(sep.join(tokens) + (sep if i % 3 == 0 else ""))
        for at, extra in extras:
            lines.insert(min(at, len(lines)), extra)
        path = tmp_path / "cloud.txt"
        path.write_bytes(newline.join(lines).encode() + newline.encode())
        want_values, want_labels = reference(path.read_text().splitlines())
        pos = want_values[:, :3]
        with np.errstate(over="ignore"):
            diag2 = np.sum((pos.max(axis=0) - pos.min(axis=0)) ** 2)
            overflows = not np.isfinite(len(pos) * diag2)   # bounds each row's sum
        with monkeypatch.context() as m:
            m.setattr(aio, "_parse_rows", tripwire)
            if overflows:
                with pytest.raises(ValueError, match="squared distances overflow"):
                    aio.read_cloud(path, num_classes=41)
                rejected.append(rows)
                # the container rejects these positions; compare the arrays the
                # one-call reader hands it
                m.setattr(aio, "PointCloud", Parsed)
            cloud = aio.read_cloud(path, num_classes=41)
        assert cloud.positions.tobytes() == np.ascontiguousarray(want_values[:, :3]).tobytes()
        if columns == 3:
            assert cloud.features is None
        else:
            assert cloud.features.tobytes() == np.ascontiguousarray(want_values[:, 3:]).tobytes()
        assert cloud.labels.tobytes() == want_labels.tobytes()

    check()
    assert rejected


def test_ambiguity_csv(tmp_path):
    rng = np.random.default_rng(1)
    cloud = random_cloud(rng, n=3)
    amb = np.array([0.0, 0.5, 1.0])
    path = tmp_path / "amb.csv"
    aio.write_ambiguity_csv(path, cloud.positions, amb, 0.5 - amb)
    lines = path.read_text().splitlines()
    assert lines[0] == "index,x,y,z,ambiguity,margin"
    assert len(lines) == 4
    assert lines[2].split(",")[4] == "0.5"


def test_ambiguity_color_formula(tmp_path):
    amb = np.linspace(0, 1, 101)
    path = tmp_path / "ramp.ply"
    aio.write_ply(path, np.zeros((101, 3)), amb)
    assert path.read_bytes() == ply_text(np.zeros((101, 3)), amb).encode()
    # the last three tokens of each vertex row after the 10 header lines
    colors = [tuple(int(t) for t in line.split()[3:])
              for line in path.read_text().splitlines()[10:]]
    assert colors[0] == (0, 0, 255)
    assert colors[-1] == (255, 0, 0)
    for a, color in zip(amb, colors):
        c = int(round(255.0 * a))
        assert color == (c, 0, 255 - c)


def test_ply_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    pos = rng.normal(size=(17, 3))
    amb = rng.uniform(size=17)
    path = tmp_path / "cloud.ply"
    aio.write_ply(path, pos, amb)
    # the per-vertex oracle: %.9g positions and ambiguity_color's bytes
    assert path.read_bytes() == ply_text(pos, amb).encode()


def spread_cloud(rng, n, with_features):
    """Random signed values with magnitudes from 1e-8 to 1e8, plus exact zeros and -0.0."""
    def values(*shape):
        v = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-8, 8, size=shape)
        v.flat[:2] = 0.0, -0.0
        return v
    return PointCloud(values(n, 3), rng.integers(0, 11, n), 11,
                      values(n, 2) if with_features else None)


@pytest.mark.parametrize("with_features", [False, True])
def test_writers_match_the_per_row_oracle_byte_for_byte(tmp_path, with_features):
    rng = np.random.default_rng(11 + with_features)
    cloud = spread_cloud(rng, 300, with_features)
    path = tmp_path / "out"
    aio.write_cloud(path, cloud)
    assert path.read_bytes() == cloud_text(cloud).encode()
    amb = np.concatenate([[0.0, 0.5, 1.0], rng.uniform(size=cloud.n - 3)])
    margins = 0.5 - amb
    margins[:4] = -0.0, 0.0, -1e-300, 5e-324
    # the writers take the positions as floats or as their format_floats strings
    formatted = aio.format_floats(cloud.positions)
    assert formatted.shape == cloud.positions.shape
    for positions in (cloud.positions, formatted):
        aio.write_ambiguity_csv(path, positions, amb, margins)
        assert path.read_bytes() == ambiguity_csv_text(cloud, amb, margins).encode()
    # colour rounding at the half-way points (c + 0.5) / 255
    amb = np.concatenate([(np.arange(255) + 0.5) / 255, [0.0, 1.0], rng.uniform(size=43)])
    assert np.sum(255.0 * amb % 1.0 == 0.5) > 100
    for positions in (cloud.positions, formatted):
        aio.write_ply(path, positions, amb)
        assert path.read_bytes() == ply_text(cloud.positions, amb).encode()


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
