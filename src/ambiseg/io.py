"""ASCII point-cloud, CSV, PLY, and binary checkpoint formats."""
from __future__ import annotations

import math
import struct
from io import BytesIO
from pathlib import Path

import numpy as np

from ambiseg.cloud import PointCloud
from ambiseg.config import Config, config_to_text, parse_config

CHECKPOINT_MAGIC = b"AMC3"
CHECKPOINT_VERSION = 1


def fmt(x: float) -> str:
    """Locale-independent %.9g float formatting."""
    return format(float(x), ".9g")


def write_cloud(path: str | Path, cloud: PointCloud) -> None:
    """One point per line: x y z [feat...] label."""
    lines = ["# x y z" + (" feat..." if cloud.features is not None else "") + " label"]
    for i in range(cloud.n):
        cols = [fmt(v) for v in cloud.positions[i]]
        if cloud.features is not None:
            cols += [fmt(v) for v in cloud.features[i]]
        cols.append(str(int(cloud.labels[i])))
        lines.append(" ".join(cols))
    Path(path).write_text("\n".join(lines) + "\n")


def read_cloud(path: str | Path, num_classes: int | None = None) -> PointCloud:
    rows, labels = [], []
    width = None
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        if width is None:
            width = len(tokens)
            if width < 4:
                raise ValueError(f"line {lineno}: need at least x y z label")
        elif len(tokens) != width:
            raise ValueError(f"line {lineno}: inconsistent token count")
        try:
            rows.append([float(t) for t in tokens[:-1]])
            labels.append(int(tokens[-1]))
        except ValueError as e:
            raise ValueError(f"line {lineno}: {e}") from None
    if not rows:
        raise ValueError(f"{path}: no points")
    data = np.array(rows)
    labels = np.array(labels, dtype=np.int64)
    positions = data[:, :3]
    features = data[:, 3:] if data.shape[1] > 3 else None
    if num_classes is None:
        num_classes = int(labels.max()) + 1
    return PointCloud(positions, labels, num_classes, features)


def write_ambiguity_csv(path: str | Path, cloud: PointCloud, ambiguities: np.ndarray,
                        margins: np.ndarray) -> None:
    lines = ["index,x,y,z,ambiguity,margin"]
    for i in range(cloud.n):
        x, y, z = cloud.positions[i]
        lines.append(f"{i},{fmt(x)},{fmt(y)},{fmt(z)},{fmt(ambiguities[i])},{fmt(margins[i])}")
    Path(path).write_text("\n".join(lines) + "\n")


def ambiguity_color(a: float) -> tuple[int, int, int]:
    """Exact colormap: c = round(255 a); (red, green, blue) = (c, 0, 255 - c)."""
    c = int(round(255.0 * a))
    return c, 0, 255 - c


def write_ply(path: str | Path, positions: np.ndarray, ambiguities: np.ndarray) -> None:
    n = positions.shape[0]
    header = [
        "ply",
        "format ascii 1.0",
        f"element vertex {n}",
        "property float x",
        "property float y",
        "property float z",
        "property uchar red",
        "property uchar green",
        "property uchar blue",
        "end_header",
    ]
    lines = header
    for i in range(n):
        r, g, b = ambiguity_color(float(ambiguities[i]))
        x, y, z = positions[i]
        lines.append(f"{fmt(x)} {fmt(y)} {fmt(z)} {r} {g} {b}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_ply(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Positions and (r, g, b) colors back from an ASCII PLY file."""
    text = Path(path).read_text().splitlines()
    if not text or text[0] != "ply":
        raise ValueError("not a PLY file")
    if "end_header" not in text:
        raise ValueError(f"{path}: PLY header has no end_header line")
    body_start = text.index("end_header") + 1
    n = 0
    for line in text[:body_start]:
        if line.startswith("element vertex"):
            n = int(line.split()[-1])
    rows = [line.split() for line in text[body_start:body_start + n]]
    if len(rows) != n or any(len(r) < 6 for r in rows):
        raise ValueError(f"{path}: expected {n} vertex rows of x y z red green blue")
    positions = np.array([[float(t) for t in r[:3]] for r in rows])
    colors = np.array([[int(t) for t in r[3:6]] for r in rows], dtype=np.int64)
    return positions, colors


def save_checkpoint(path: str | Path, cfg: Config, arrays: dict[str, np.ndarray],
                    extra: dict[str, int] | None = None) -> None:
    """Magic, version, serialized config, then named little-endian float64 tensors."""
    cfg_bytes = config_to_text(cfg).encode("utf-8")
    extra = extra or {}
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(extra)))
        for key, val in sorted(extra.items()):
            kb = key.encode("utf-8")
            fh.write(struct.pack("<I", len(kb)))
            fh.write(kb)
            fh.write(struct.pack("<q", int(val)))
        fh.write(struct.pack("<I", len(cfg_bytes)))
        fh.write(cfg_bytes)
        fh.write(struct.pack("<I", len(arrays)))
        for name in sorted(arrays):
            arr = np.ascontiguousarray(arrays[name], dtype="<f8")
            nb = name.encode("utf-8")
            fh.write(struct.pack("<I", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<I", arr.ndim))
            for d in arr.shape:
                fh.write(struct.pack("<Q", d))
            fh.write(arr.tobytes())


def _read(fh: BytesIO, size: int) -> bytes:
    """Exactly ``size`` bytes from the checkpoint, else a ValueError."""
    data = fh.read(size)
    if len(data) != size:
        raise ValueError(f"truncated checkpoint: wanted {size} bytes at offset "
                         f"{fh.tell() - len(data)}, found {len(data)}")
    return data


def _unpack(fh: BytesIO, fmt: str) -> tuple:
    return struct.unpack(fmt, _read(fh, struct.calcsize(fmt)))


def load_checkpoint(path: str | Path) -> tuple[Config, dict[str, np.ndarray], dict[str, int]]:
    # in memory, so a corrupt length field cannot make a read allocate its claimed size
    with BytesIO(Path(path).read_bytes()) as fh:
        if fh.read(4) != CHECKPOINT_MAGIC:
            raise ValueError("bad checkpoint magic")
        (version,) = _unpack(fh, "<I")
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        (n_extra,) = _unpack(fh, "<I")
        extra = {}
        for _ in range(n_extra):
            (klen,) = _unpack(fh, "<I")
            key = _read(fh, klen).decode("utf-8")
            (val,) = _unpack(fh, "<q")
            extra[key] = val
        (clen,) = _unpack(fh, "<I")
        cfg = parse_config(_read(fh, clen).decode("utf-8"))
        (count,) = _unpack(fh, "<I")
        arrays = {}
        for _ in range(count):
            (nlen,) = _unpack(fh, "<I")
            name = _read(fh, nlen).decode("utf-8")
            (rank,) = _unpack(fh, "<I")
            shape = _unpack(fh, f"<{rank}Q")
            data = _read(fh, 8 * math.prod(shape))
            arrays[name] = np.frombuffer(data, dtype="<f8").reshape(shape).copy()
    return cfg, arrays, extra
