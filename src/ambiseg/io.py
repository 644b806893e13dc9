"""ASCII point-cloud, CSV, PLY, and binary checkpoint formats."""
from __future__ import annotations

import math
import struct
import warnings
from io import BytesIO
from pathlib import Path

import numpy as np

from ambiseg.cloud import PointCloud
from ambiseg.config import Config, config_to_text, parse_config

CHECKPOINT_MAGIC = b"AMC3"
CHECKPOINT_VERSION = 1
FLOAT_FORMAT = "%.9g"  # the float rule of every text output
_INT64 = np.iinfo(np.int64)


def fmt(x: float) -> str:
    """Locale-independent %.9g float formatting."""
    return FLOAT_FORMAT % float(x)


def format_floats(values: np.ndarray) -> np.ndarray:
    """A float array as an object array of ``fmt``'s strings, same shape, for a caller
    that writes the same floats to more than one table."""
    strings = [FLOAT_FORMAT % v for v in values.ravel().tolist()]
    return np.array(strings, dtype=object).reshape(values.shape)


def write_table(path: str | Path, header_lines: list[str], columns: list, sep: str) -> None:
    """Header lines, then one ``sep``-joined row per index of equal-length columns.

    Float columns print with ``fmt``'s rule and every other column, such as the
    strings of ``format_floats``, with ``str``.
    """
    columns = [np.asarray(c) for c in columns]
    template = sep.join(FLOAT_FORMAT if c.dtype.kind == "f" else "%s" for c in columns)
    rows = [template % row for row in zip(*(c.tolist() for c in columns), strict=True)]
    Path(path).write_text("\n".join([*header_lines, *rows]) + "\n")


def write_cloud(path: str | Path, cloud: PointCloud) -> None:
    """One point per line: x y z [feat...] label."""
    has_feats = cloud.features is not None
    header = "# x y z" + (" feat..." if has_feats else "") + " label"
    feats = list(cloud.features.T) if has_feats else []
    write_table(path, [header], [*cloud.positions.T, *feats, cloud.labels], " ")


def _parse_rows(lines: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """(values, labels) from the cloud's text lines, one token at a time.

    The reference parser: the only source of line-numbered errors, and of the
    spellings only ``float`` and ``int`` accept, such as ``1_0`` and
    non-ASCII digits.
    """
    rows, labels = [], []
    width = None
    for lineno, line in enumerate(lines, start=1):
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
        if not _INT64.min <= labels[-1] <= _INT64.max:
            raise ValueError(f"line {lineno}: label {tokens[-1]} does not fit in int64")
    return np.array(rows), np.array(labels, dtype=np.int64)


def read_cloud(path: str | Path, num_classes: int | None = None) -> PointCloud:
    """A cloud written as one point per line: x y z [feat...] label.

    Blank lines and lines starting with ``#`` are skipped. An ASCII file is
    parsed by one ``np.loadtxt`` call; a file it rejects, or one with non-ASCII
    text, goes through ``_parse_rows``. Both give the same arrays, bit for bit,
    and every error comes from ``_parse_rows`` with its line number.
    """
    text = Path(path).read_text()
    lines = text.splitlines()
    data = [s for line in lines if (s := line.strip()) and s[0] != "#"]
    if not data:
        raise ValueError(f"{path}: no points")
    width = len(data[0].split())
    values = None
    # Non-ASCII text stays off loadtxt: numpy 2.4.6's int64 field parser crashes
    # the interpreter on some such tokens (U+10204A), and the digits it would
    # have to accept are float's and int's alone.
    if width >= 4 and text.isascii():
        dtype = np.dtype([("values", np.float64, (width - 1,)), ("label", np.int64)])
        try:
            # numpy 1.x reads "1.5" as label 1 with a DeprecationWarning: as an
            # error it is a ValueError, and the row goes to _parse_rows.
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                # comments=None: "1 2 3 1 # tail" is a bad row, not a comment
                table = np.loadtxt(data, dtype=dtype, comments=None, ndmin=1)
            values, labels = table["values"], table["label"]
        except ValueError:
            pass
    if values is None:
        values, labels = _parse_rows(lines)
    positions = values[:, :3]
    features = values[:, 3:] if values.shape[1] > 3 else None
    if num_classes is None:
        num_classes = int(labels.max()) + 1
    return PointCloud(positions, labels, num_classes, features)


def write_ambiguity_csv(path: str | Path, positions: np.ndarray, ambiguities: np.ndarray,
                        margins: np.ndarray) -> None:
    """One row per point. ``positions`` is the (n, 3) floats or ``format_floats`` of them."""
    write_table(path, ["index,x,y,z,ambiguity,margin"],
                [np.arange(positions.shape[0]), *positions.T, ambiguities, margins], ",")


def write_ply(path: str | Path, positions: np.ndarray, ambiguities: np.ndarray) -> None:
    """ASCII PLY coloured by ambiguity: c = round(255 a), half to even; (red, green,
    blue) = (c, 0, 255 - c). ``positions`` is the (n, 3) floats or ``format_floats``
    of them."""
    header = [
        "ply",
        "format ascii 1.0",
        f"element vertex {positions.shape[0]}",
        "property float x",
        "property float y",
        "property float z",
        "property uchar red",
        "property uchar green",
        "property uchar blue",
        "end_header",
    ]
    c = np.rint(255.0 * np.asarray(ambiguities, dtype=np.float64)).astype(np.int64)
    write_table(path, header, [*positions.T, c, np.zeros_like(c), 255 - c], " ")


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
