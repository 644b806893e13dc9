"""The three workloads: set-up, closed-loop operations, output checks and digests.

Each workload runs in the calling process with one client and no threads of its
own: the next operation starts only after the previous one and its checks end.
Inputs are made from the workload seed and written before timing starts.
"""
from __future__ import annotations

import contextlib
import hashlib
import io as pyio
import math
import statistics
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from tracing import Patcher, Tracer, module

ORACLE_TOL = 1e-12        # oracle vs program, absolute, on ambiguity values
CSV_TOL = 1e-9            # CSV text (9 significant digits) vs in-memory value
ORACLE_POINTS = 64        # sampled points per operation checked against the oracle
BINS = ("zero", "low", "semi", "high", "one")


@dataclass(frozen=True)
class Sizes:
    train_ppc: int = 1000           # planar-boundary, n = 2000
    train_epochs: int | None = None  # None: the Config default (150 steps per round)
    eval_ppc: int = 2731            # two-rooms, n = 8193
    ckpt_ppc: int = 200             # two-rooms cloud the eval checkpoint is trained on
    ckpt_epochs: int = 30
    amb_ppc: int = 2040             # planar-boundary, n = 4080 < KDTREE_CUTOFF
    eval_inputs: int = 24           # inputs written up front; the run stops early if used up
    amb_inputs: int = 64


FULL = Sizes()
TINY = Sizes(train_ppc=16, train_epochs=4, eval_ppc=40, ckpt_ppc=16, ckpt_epochs=2,
             amb_ppc=40, eval_inputs=2, amb_inputs=2)


@dataclass
class Outcome:
    """What one run measured; times in seconds."""
    points: int                                   # points per operation
    op_s: list[float] = field(default_factory=list)         # untraced operations
    traced_op_s: list[float] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    failed_ops: set[int] = field(default_factory=set)
    roots: list[int] = field(default_factory=list)          # span of each traced operation
    setup_roots: list[int] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def fail(self, what: str, op: int | None = None) -> None:
        """Record a failed check; `op` is the operation it fails, None for the whole run."""
        self.failures.append(what if op is None else f"op {op}: {what}")
        if op is not None:
            self.failed_ops.add(op)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _params_digest(model) -> str:
    h = hashlib.sha256()
    for name, arr in sorted(model.named_arrays().items()):
        h.update(name.encode())
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return h.hexdigest()


def _keep_going(start: float, durations: list[float], seconds: float, done: int,
                minimum: int, cap: int | None = None) -> bool:
    """Closed loop: start another operation while it is expected to end in time."""
    if done < minimum:
        return True
    if cap is not None and done >= cap:
        return False
    return perf_counter() - start + statistics.median(durations) <= seconds


# ---------------------------------------------------------------------------
# train-planar-2k


def train_planar(seed: int, seconds: float, sizes: Sizes, tracer: Tracer | None,
                 workdir: Path) -> Outcome:
    """One operation is one SGD step inside a single `network.train` call."""
    cloud_mod, config, network = module("cloud"), module("config"), module("network")
    cloud = cloud_mod.synth_scene(cloud_mod.SceneSpec(
        "planar-boundary", points_per_class=sizes.train_ppc, noise_sigma=0.0, seed=seed))
    cfg = config.Config(seed=0)
    if sizes.train_epochs is not None:
        cfg = config.Config(seed=0, epochs=sizes.train_epochs)
    out = Outcome(points=cloud.n)
    st = {"params": [], "step": None, "steps": [], "round_start": 0.0, "n_steps": 0}

    def finish_step(now: float) -> None:
        step = st["step"]
        if step is None:
            return
        if step["root"] is not None:
            tracer.add_span("network.update", step["bwd_end"], now)
            tracer.close(step["root"], end=now)
        step["s"] = now - step["start"] - step["check_s"]
        st["steps"].append(step)
        st["step"] = None

    def forward_probe(fn):
        def probe(*args, **kwargs):
            now = perf_counter()
            if st["step"] is None and not st["steps"]:       # first step ends set-up
                out.setup_s.append(now - st["round_start"])
                if tracer is not None:
                    tracer.close(st["setup_root"], end=now)
            finish_step(now)
            traced = tracer is not None and st["n_steps"] % 2 == 1
            if tracer is not None:
                tracer.active = traced
            st["n_steps"] += 1
            st["step"] = {"start": now, "check_s": 0.0, "bwd_end": now, "loss": math.nan,
                          "grads_ok": True, "traced": traced,
                          "root": tracer.open("op") if traced else None}
            return fn(*args, **kwargs)
        return probe

    def loss_probe(fn):
        def probe(*args, **kwargs):
            total, report = fn(*args, **kwargs)
            st["step"]["loss"] = report.l_total
            return total, report
        return probe

    def backward_probe(fn):
        def probe(*args, **kwargs):
            fn(*args, **kwargs)
            t0 = perf_counter()
            ok = all(p.grad is None or bool(np.isfinite(p.grad).all()) for p in st["params"])
            t1 = perf_counter()
            step = st["step"]
            step["grads_ok"] = step["grads_ok"] and ok
            step["check_s"] += t1 - t0
            step["bwd_end"] = t1
            if step["root"] is not None:
                tracer.exclude(t0, t1)
        return probe

    probes = Patcher()   # bare wrappers: timestamps and return values for the checks
    probes.wrap("network", "forward", forward_probe)
    probes.wrap("network", "loss_joint", loss_probe)
    probes.wrap("autograd", "backward", backward_probe)
    round_s: list[float] = []
    digests: list[str] = []
    start = perf_counter()
    try:
        while _keep_going(start, round_s, seconds, len(round_s), minimum=1):
            st.update(step=None, steps=[], round_start=perf_counter())
            if tracer is not None:
                tracer.active = True
                st["setup_root"] = tracer.open("setup")
                out.setup_roots.append(st["setup_root"])
            model = network.SegModel(cfg, feat_dim0=3, num_classes=cloud.num_classes)
            st["params"] = model.parameters()
            try:
                network.train(model, [cloud])
            except RuntimeError as e:                # divergence: the step in flight failed
                out.fail(str(e), op=st["n_steps"] - 1)
            finish_step(perf_counter())
            if tracer is not None:
                tracer.active = False
            round_s.append(perf_counter() - st["round_start"])
            steps = st["steps"]
            for step in steps:
                op = out.attempted
                out.attempted += 1
                (out.traced_op_s if step["traced"] else out.op_s).append(step["s"])
                if step["root"] is not None:
                    out.roots.append(step["root"])
                if not math.isfinite(step["loss"]):
                    out.fail(f"loss {step['loss']}", op)
                if not step["grads_ok"]:
                    out.fail("non-finite parameter gradient", op)
            if steps and not steps[-1]["loss"] < steps[0]["loss"]:
                out.fail(f"final loss {steps[-1]['loss']} not below first {steps[0]['loss']}",
                         out.attempted - 1)
            digests.append(_params_digest(model))
            out.extra["final_loss"] = steps[-1]["loss"] if steps else math.nan
    finally:
        probes.restore()
    if len(set(digests)) != 1:
        out.fail(f"final parameters differ between identical rounds: {sorted(set(digests))}")
    out.extra["steps_per_round"] = cfg.epochs
    out.extra["digest_final_params"] = digests[0]
    return out


# ---------------------------------------------------------------------------
# CLI workloads: eval-rooms-8k and ambiguity-lattice-4k


def _cli_loop(out: Outcome, seconds: float, tracer: Tracer | None, n_inputs: int,
              run_op, check_op, set_up_again) -> None:
    """Closed loop over `cli.main` calls; in a traced run every second call is traced.

    After each operation and its checks the workload's set-up runs once more,
    untimed as an operation, so that `setup_s` samples the whole run and not
    only the host's speed in its first seconds."""
    cli = module("cli")
    iter_s: list[float] = []
    start = perf_counter()
    i = 0
    while _keep_going(start, iter_s, seconds, i, minimum=1 if tracer is None else 2,
                      cap=n_inputs):
        t_iter = perf_counter()
        argv = run_op(i)
        traced = tracer is not None and i % 2 == 1
        root = None
        if traced:
            tracer.active = True
            root = tracer.open("op")
        sink = pyio.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                rc = cli.main(argv)
        except Exception as e:                      # an unhandled error fails the operation
            traceback.print_exc()
            rc = f"{type(e).__name__}: {e}"
        t1 = perf_counter()
        if traced:
            tracer.close(root, end=t1)
            tracer.active = False
            out.roots.append(root)
            out.traced_op_s.append(t1 - t0 - tracer.excluded_s.get(root, 0.0))
        else:
            out.op_s.append(t1 - t0)
        out.attempted += 1
        if rc != 0:
            out.fail(f"exit {rc}", i)
        else:
            check_op(i)
        set_up_again(i)
        iter_s.append(perf_counter() - t_iter)
        i += 1


def _read_rows(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text().splitlines()]


def eval_rooms(seed: int, seconds: float, sizes: Sizes, tracer: Tracer | None,
               workdir: Path) -> Outcome:
    """One operation is one in-process `ambiseg eval` on a fresh two-rooms cloud."""
    cloud_mod, config, network, aio = (module("cloud"), module("config"), module("network"),
                                       module("io"))
    ckpt = workdir / "model.ckpt"
    cfg = config.Config(seed=0, epochs=sizes.ckpt_epochs)
    train_cloud = cloud_mod.synth_scene(cloud_mod.SceneSpec(
        "two-rooms", points_per_class=sizes.ckpt_ppc, noise_sigma=0.02, seed=seed))
    out = Outcome(points=3 * sizes.eval_ppc)
    ckpt_digests = []

    def set_up() -> None:
        """Train the 3-class checkpoint and save it; repeats write identical bytes."""
        if tracer is not None:
            tracer.active = True
            out.setup_roots.append(tracer.open("setup"))
        t0 = perf_counter()
        model = network.SegModel(cfg, feat_dim0=3, num_classes=train_cloud.num_classes)
        network.train(model, [train_cloud])
        aio.save_checkpoint(ckpt, cfg, model.named_arrays(),
                            extra={"feat_dim0": model.feat_dim0, "num_classes": model.num_classes})
        t1 = perf_counter()
        if tracer is not None:
            tracer.close(out.setup_roots[-1], end=t1)
            tracer.active = False
        out.setup_s.append(t1 - t0)
        ckpt_digests.append(_sha256(ckpt.read_bytes()))

    set_up()
    inputs = []
    for i in range(sizes.eval_inputs):
        cloud = cloud_mod.synth_scene(cloud_mod.SceneSpec(
            "two-rooms", points_per_class=sizes.eval_ppc, noise_sigma=0.02, seed=seed + i))
        path = workdir / f"eval_in_{i}.txt"
        aio.write_cloud(path, cloud)
        inputs.append(path)

    labels_seen: list[np.ndarray] = []

    def predict_probe(fn):
        def probe(*args, **kwargs):
            result = fn(*args, **kwargs)
            labels_seen.append(result[0])
            return result
        return probe

    def run_op(i: int) -> list[str]:
        labels_seen.clear()
        return ["eval", "--in", str(inputs[i]), "--checkpoint", str(ckpt),
                "--out", str(workdir / "eval_out.csv")]

    mious: list[float] = []

    def check_op(i: int) -> None:
        n = out.points
        rows = _read_rows(workdir / "eval_out.csv")
        if rows[0] != ["bin", "count", "miou", "macc"] or rows[1][:2] != ["all", str(n)]:
            out.fail(f"unexpected eval header {rows[:2]}", i)
            return
        mious.append(float(rows[1][2]))
        table = {r[0]: (int(r[1]), float(r[2]), float(r[3])) for r in rows[2:]}
        if tuple(table) != BINS:
            out.fail(f"bins {tuple(table)}", i)
        elif sum(c for c, _, _ in table.values()) != n:
            out.fail(f"bin counts sum to {sum(c for c, _, _ in table.values())}, not {n}", i)
        for name, (count, b_miou, b_macc) in table.items():
            if (count == 0) != math.isnan(b_miou) or (count == 0) != math.isnan(b_macc):
                out.fail(f"bin {name} count {count} with scores {b_miou}, {b_macc}", i)
        if len(labels_seen) != 1 or labels_seen[0].shape != (n,):
            out.fail(f"expected one prediction of {n} labels", i)
            return
        labels = labels_seen[0]
        if labels.min() < 0 or labels.max() >= 3:
            out.fail("predicted label outside [0, 3)", i)
        if i == 0:
            out.extra["digest_labels_op0"] = _sha256(labels.astype("<i8").tobytes())

    probes = Patcher()   # bare wrappers: timestamps and return values for the checks
    probes.wrap("cli", "predict", predict_probe)
    try:
        _cli_loop(out, seconds, tracer, len(inputs), run_op, check_op, lambda i: set_up())
    finally:
        probes.restore()
    if len(set(ckpt_digests)) != 1:
        out.fail("checkpoints from identical set-ups differ")
    out.extra["miou"] = statistics.fmean(mious) if mious else math.nan
    out.extra["digest_checkpoint"] = ckpt_digests[0]
    return out


def oracle_ambiguity(positions: np.ndarray, labels: np.ndarray, i: int, k: int, beta: float,
                     dup_epsilon: float) -> float:
    """Brute-force ambiguity of point i: (squared distance, index) order, libm exp."""
    d2 = np.sum((positions - positions[i]) ** 2, axis=1)
    nbr = np.lexsort((np.arange(d2.size), d2))[:k]
    same = labels[nbr] == labels[i]
    n_plus = int(same.sum())
    if n_plus == k:
        return 0.0
    if n_plus == 1:
        return 1.0
    d_plus = math.fsum(d2[nbr][same])
    d_minus = math.fsum(d2[nbr][~same])
    gap = n_plus / max(d_plus, dup_epsilon) - (k - n_plus) / max(d_minus, dup_epsilon)
    try:
        return 1.0 / (1.0 + math.exp(beta * gap))
    except OverflowError:
        return 0.0


def ambiguity_lattice(seed: int, seconds: float, sizes: Sizes, tracer: Tracer | None,
                      workdir: Path) -> Outcome:
    """One operation is one in-process `ambiseg ambiguity --ply` on a permuted lattice."""
    cloud_mod, config, amb_mod, aio = (module("cloud"), module("config"), module("ambiguity"),
                                       module("io"))
    out = Outcome(points=2 * sizes.amb_ppc)
    inputs = []

    def write_input(i: int) -> tuple[Path, float]:
        """The set-up of operation i (lattice, seeded row permutation, file) and its time."""
        t0 = perf_counter()
        lattice = cloud_mod.synth_scene(cloud_mod.SceneSpec(
            "planar-boundary", points_per_class=sizes.amb_ppc, noise_sigma=0.0, seed=seed))
        perm = np.random.default_rng([seed, i]).permutation(lattice.n)
        cloud = cloud_mod.PointCloud(lattice.positions[perm], lattice.labels[perm],
                                     lattice.num_classes)
        path = workdir / f"amb_in_{i}.txt"
        aio.write_cloud(path, cloud)
        return path, perf_counter() - t0

    for i in range(sizes.amb_inputs):
        path, elapsed = write_input(i)
        if i == 0:                  # the burst of writes up front is one set-up sample
            out.setup_s.append(elapsed)
        # the oracle sees the cloud as written: text rounding moves exact ties
        table = np.loadtxt(path, comments="#", ndmin=2)
        inputs.append((path, table[:, :3], table[:, -1].astype(np.int64),
                       _sha256(path.read_bytes())))

    def set_up_again(i: int) -> None:
        path, elapsed = write_input(i)
        out.setup_s.append(elapsed)
        if _sha256(path.read_bytes()) != inputs[i][3]:
            out.fail("rewriting an input gave different bytes", i)

    cfg = config.Config()
    defaults = amb_mod.AefConfig()
    k = min(cfg.k, out.points)
    values_seen: list[np.ndarray] = []

    def ambiguity_probe(fn):
        def probe(*args, **kwargs):
            result = fn(*args, **kwargs)
            values_seen.append(result.values)
            return result
        return probe

    def run_op(i: int) -> list[str]:
        values_seen.clear()
        return ["ambiguity", "--in", str(inputs[i][0]), "--out", str(workdir / "amb.csv"),
                "--ply", str(workdir / "amb.ply")]

    def check_op(i: int) -> None:
        n = out.points
        _, positions, labels, _ = inputs[i]
        if len(values_seen) != 1 or values_seen[0].shape != (n,):
            out.fail(f"expected one ambiguity map of {n} values", i)
            return
        a = values_seen[0]
        csv_bytes = (workdir / "amb.csv").read_bytes()
        rows = [r.split(",") for r in csv_bytes.decode().splitlines()]
        if rows[0] != ["index", "x", "y", "z", "ambiguity", "margin"] or len(rows) != n + 1:
            out.fail(f"CSV has {len(rows) - 1} rows for {n} points", i)
            return
        csv_a = np.array([float(r[4]) for r in rows[1:]])
        if [int(r[0]) for r in rows[1:]] != list(range(n)):
            out.fail("CSV index column is not 0..n-1", i)
        if not ((csv_a >= 0.0) & (csv_a <= 1.0)).all() or not ((a >= 0.0) & (a <= 1.0)).all():
            out.fail("ambiguity outside [0, 1]", i)
        if np.abs(csv_a - a).max() > CSV_TOL:
            out.fail("CSV ambiguity differs from the computed map", i)
        ply = (workdir / "amb.ply").read_text().splitlines()
        body = ply[ply.index("end_header") + 1:]
        colours = np.array([[int(t) for t in line.split()[3:6]] for line in body])
        expected_red = np.array([int(round(255.0 * v)) for v in a])
        if colours.shape != (n, 3) or not (
                (colours[:, 0] == expected_red).all() and (colours[:, 1] == 0).all()
                and (colours[:, 2] == 255 - expected_red).all()):
            out.fail("PLY colours are not round(255 a)", i)
        rng = np.random.default_rng([seed, i, 1])
        sample = rng.choice(n, size=min(ORACLE_POINTS, n), replace=False)
        worst = max(abs(oracle_ambiguity(positions, labels, int(j), k, cfg.beta,
                                         defaults.dup_epsilon) - a[j]) for j in sample)
        out.extra["oracle_max_abs_err"] = max(out.extra.get("oracle_max_abs_err", 0.0), worst)
        if worst > ORACLE_TOL:
            out.fail(f"ambiguity differs from the brute-force oracle by {worst:.3g}", i)
        if i == 0:
            out.extra["digest_ambiguity_csv_op0"] = _sha256(csv_bytes)

    probes = Patcher()   # bare wrappers: timestamps and return values for the checks
    probes.wrap("cli", "ambiguity_map", ambiguity_probe)
    try:
        _cli_loop(out, seconds, tracer, len(inputs), run_op, check_op, set_up_again)
    finally:
        probes.restore()
    return out


WORKLOADS = {
    "train-planar-2k": train_planar,
    "eval-rooms-8k": eval_rooms,
    "ambiguity-lattice-4k": ambiguity_lattice,
}
