"""Flat key=value configuration with the S3DIS-style defaults."""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace


class ConfigError(ValueError):
    pass


# dataclass field -> file key, where the two differ
_FILE_KEY = {"lam": "lambda"}


@dataclass(frozen=True)
class Config:
    k: int = 24
    beta: float = 0.04
    tau: float = 0.3
    mu: float = -1.0
    nu: float = 0.5
    lam: float = 0.1          # file key: lambda
    omega: float = 0.01
    epsilon_lo: float = 0.9
    epsilon_hi: float = 1.0
    gamma: float = 1.0
    k_tilde: int = 12
    stages: int = 2
    dims: tuple[int, ...] = (16, 32)
    lr: float = 0.01
    epochs: int = 150
    seed: int = 0
    # "sum" keeps every minimizing neighbor per the literal mask definition,
    # inflating magnitude when ties occur; "single" keeps the lowest index.
    cross_mask_mode: str = "single"
    apm_detach: bool = True

    def validate(self) -> None:
        for f in fields(self):
            if isinstance(f.default, float) and not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{_FILE_KEY.get(f.name, f.name)} must be finite")
        for name in ("epsilon_lo", "epsilon_hi", "gamma"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1]")
        if self.epsilon_lo > self.epsilon_hi:
            raise ConfigError("epsilon_lo must be <= epsilon_hi")
        if not 0.0 <= self.lam <= 1.0:
            raise ConfigError("lambda must lie in [0, 1]")
        for name in ("tau", "beta", "lr"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be > 0")
        for name in ("omega", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if self.stages < 1:
            raise ConfigError("stages must be >= 1")
        if len(self.dims) != self.stages:
            raise ConfigError("dims must list one width per stage")
        if min(self.dims) < 1:
            raise ConfigError("dims widths must be >= 1")
        if self.cross_mask_mode not in ("single", "sum"):
            raise ConfigError("cross_mask_mode must be single or sum")
        if self.k < 2 or self.k_tilde < 2:
            raise ConfigError("k and k_tilde must be >= 2")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")


def _parse_bool(raw: str) -> bool:
    if raw.lower() in ("true", "1", "yes"):
        return True
    if raw.lower() in ("false", "0", "no"):
        return False
    raise ValueError(raw)


# (parser, formatter) of each field's text, chosen by the type of its default value
_TEXT = {int: (int, str), str: (str, str),
         float: (float, lambda v: repr(float(v))),
         bool: (_parse_bool, lambda v: "true" if v else "false"),
         tuple: (lambda raw: tuple(int(t) for t in raw.replace(",", " ").split()),
                 lambda v: ",".join(str(x) for x in v))}
_FIELDS = {_FILE_KEY.get(f.name, f.name): f for f in fields(Config)}


def _assign(cfg: Config, pair: str, where: str) -> Config:
    """``cfg`` with one ``key = value`` pair applied; ``where`` prefixes its errors."""
    key, _, raw = (part.strip() for part in pair.partition("="))
    if key not in _FIELDS:
        raise ConfigError(f"{where}unknown key {key!r}")
    f = _FIELDS[key]
    try:
        value = _TEXT[type(f.default)][0](raw)
    except ValueError:
        raise ConfigError(f"{where}cannot parse value {raw!r} for key {key!r}") from None
    return replace(cfg, **{f.name: value})


def parse_config(text: str) -> Config:
    """Parse `key = value` lines over defaults; later duplicates win."""
    cfg = Config()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        cfg = _assign(cfg, stripped, f"line {lineno}: ")
    cfg.validate()
    return cfg


def apply_overrides(cfg: Config, pairs: list[str]) -> Config:
    """Apply repeated --set key=value overrides."""
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"override {pair!r} is not key=value")
        cfg = _assign(cfg, pair, "")
    cfg.validate()
    return cfg


def config_to_text(cfg: Config) -> str:
    """Serialize in the same key=value syntax parse_config accepts."""
    return "".join(f"{key} = {_TEXT[type(f.default)][1](getattr(cfg, f.name))}\n"
                   for key, f in _FIELDS.items())
