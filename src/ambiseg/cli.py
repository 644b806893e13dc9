"""Command-line surface: synth, ambiguity, train, eval, predict, gradcheck."""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from ambiseg import io as aio
from ambiseg.ambiguity import ambiguity_map
from ambiseg.cloud import SCENE_KINDS, SceneSpec, knn_all, synth_scene
from ambiseg.config import Config, apply_overrides, parse_config
from ambiseg.margin import margin_map
from ambiseg.metrics import breakdown, confusion, scores
from ambiseg.network import SegModel, predict, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2


def _load_config(args) -> Config:
    cfg = Config()
    if getattr(args, "config", None):
        cfg = parse_config(Path(args.config).read_text())
    if getattr(args, "set", None):
        cfg = apply_overrides(cfg, args.set)
    return cfg


def _read_input(args, num_classes: int | None = None):
    """The --in cloud; fewer than 2 points is a usage error."""
    cloud = aio.read_cloud(getattr(args, "in"), num_classes=num_classes)
    if cloud.n < 2:
        raise ValueError(f"{getattr(args, 'in')}: need at least 2 points, got {cloud.n}")
    return cloud


def cmd_synth(args) -> int:
    spec = SceneSpec(kind=args.kind, points_per_class=args.points_per_class,
                     noise_sigma=args.noise_sigma, seed=args.seed)
    cloud = synth_scene(spec)
    aio.write_cloud(args.out, cloud)
    print(f"wrote {cloud.n} points ({cloud.num_classes} classes) to {args.out}")
    return EXIT_OK


def cmd_ambiguity(args) -> int:
    cfg = _load_config(args)
    cloud = _read_input(args)
    search = knn_all(cloud.positions, min(cfg.k, cloud.n))
    amb = ambiguity_map(cloud.labels, search, cfg.beta)
    margins = margin_map(amb.values, cfg.mu, cfg.nu)
    positions = aio.format_floats(cloud.positions)  # one formatting for the CSV and PLY
    aio.write_ambiguity_csv(args.out, positions, amb.values, margins)
    if args.ply:
        aio.write_ply(args.ply, positions, amb.values)
    print(f"wrote ambiguity for {cloud.n} points to {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _load_config(args)
    cloud = _read_input(args)
    model = SegModel(cfg, feat_dim0=3 if cloud.features is None else cloud.features.shape[1],
                     num_classes=cloud.num_classes)
    history = train(model, [cloud])
    aio.save_checkpoint(args.out, cfg, model.named_arrays(),
                        extra={"feat_dim0": model.feat_dim0, "num_classes": model.num_classes})
    final = history[-1]
    print(f"trained {len(history)} epochs; final total loss {aio.fmt(final.l_total)}")
    print(f"checkpoint written to {args.out}")
    return EXIT_OK


def _load_model(path: str) -> SegModel:
    cfg, arrays, extra = aio.load_checkpoint(path)
    for key in ("feat_dim0", "num_classes"):
        if key not in extra:
            raise ValueError(f"{path}: checkpoint has no {key!r} entry")
    feat_dim0, num_classes = int(extra["feat_dim0"]), int(extra["num_classes"])
    # The counts and the config's widths size the model: check them against the
    # arrays first, so a corrupt count cannot build a model larger than the file.
    widths = (feat_dim0, *cfg.dims)
    expected = {"head.b": (num_classes,)} | {
        f"enc{s}.w": (widths[s], 3 + widths[s - 1]) for s in range(1, cfg.stages + 1)}
    for name, shape in expected.items():
        found = arrays[name].shape if name in arrays else None
        if found != shape:
            raise ValueError(f"{path}: array {name} has shape {found}, but feat_dim0, "
                             f"num_classes and dims give {shape}")
    model = SegModel(cfg, feat_dim0=feat_dim0, num_classes=num_classes)
    model.load_arrays(arrays)
    return model


def cmd_predict(args) -> int:
    model = _load_model(args.checkpoint)
    cloud = _read_input(args, model.num_classes)
    labels, amb = predict(model, cloud)
    aio.write_table(args.out, ["index,label,ambiguity"], [np.arange(cloud.n), labels, amb], ",")
    print(f"wrote predictions for {cloud.n} points to {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    model = _load_model(args.checkpoint)
    cloud = _read_input(args, model.num_classes)
    # one full-cloud search feeds the geometry's stage 1 and the ambiguity bins
    search = knn_all(cloud.positions, min(model.cfg.k, cloud.n))
    pred_labels, _ = predict(model, cloud, search)
    cm = confusion(pred_labels, cloud.labels, cloud.num_classes)
    oa, macc, miou = scores(cm)
    amb = ambiguity_map(cloud.labels, search, model.cfg.beta)
    table = breakdown(pred_labels, cloud.labels, amb.values, cloud.num_classes)
    rows = [("all", cloud.n, miou, macc)] + [(name, *row) for name, row in table.items()]
    aio.write_table(args.out, ["bin,count,miou,macc"], list(zip(*rows)), ",")
    print(f"OA {aio.fmt(oa)}  mACC {aio.fmt(macc)}  mIoU {aio.fmt(miou)}")
    print(f"breakdown written to {args.out}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    from ambiseg.gradcheck import run_gradcheck
    worst = run_gradcheck(seed=args.seed, verbose=True)
    print(f"max relative error {aio.fmt(worst)}")
    if worst > 1e-4:
        print("gradient check FAILED (tolerance 1e-4)", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ambiseg",
                                     description="ambiguity-aware point-cloud segmentation")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("synth", help="generate a synthetic labeled scene")
    p.add_argument("--kind", required=True, choices=SCENE_KINDS)
    p.add_argument("--points-per-class", type=int, default=256)
    p.add_argument("--noise-sigma", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ambiguity", help="ambiguity map and margins from a labeled cloud")
    p.add_argument("--in", required=True)
    p.add_argument("--config")
    p.add_argument("--set", action="append", default=[])
    p.add_argument("--out", required=True)
    p.add_argument("--ply")
    p.set_defaults(func=cmd_ambiguity)

    p = sub.add_parser("train", help="train on a labeled cloud and save a checkpoint")
    p.add_argument("--in", required=True)
    p.add_argument("--config")
    p.add_argument("--set", action="append", default=[])
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict labels and ambiguities")
    p.add_argument("--in", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="metrics and per-ambiguity-level breakdown")
    p.add_argument("--in", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors; map validation problems to 1
        return EXIT_OK if e.code in (0, None) else EXIT_USAGE
    if not getattr(args, "command", None):
        parser.print_usage()
        return EXIT_USAGE
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as e:
        print(f"runtime failure: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as e:
        print(f"runtime failure: out of memory: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
