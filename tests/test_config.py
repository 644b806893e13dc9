from dataclasses import fields

import pytest

from ambiseg.config import (Config, ConfigError, apply_overrides,
                            config_to_text, parse_config)


def test_defaults():
    cfg = Config()
    assert cfg.k == 24
    assert cfg.beta == 0.04
    assert cfg.tau == 0.3
    assert cfg.mu == -1.0
    assert cfg.nu == 0.5
    assert cfg.lam == 0.1
    assert cfg.omega == 0.01
    assert (cfg.epsilon_lo, cfg.epsilon_hi) == (0.9, 1.0)
    assert cfg.gamma == 1.0
    assert cfg.k_tilde == 12
    assert cfg.stages == 2
    assert cfg.dims == (16, 32)
    assert cfg.lr == 0.01
    assert cfg.epochs == 150
    assert cfg.cross_mask_mode == "single"
    assert cfg.apm_detach is True
    cfg.validate()


def test_parse_basic_and_lambda_key():
    cfg = parse_config("k = 12\nlambda = 0.25\ndims = 8,16\nstages=2\napm_detach = false\n")
    assert cfg.k == 12
    assert cfg.lam == 0.25
    assert cfg.dims == (8, 16)
    assert cfg.apm_detach is False


def test_parse_skips_comments_and_blank_lines():
    cfg = parse_config("# a comment\n\n  tau = 0.5  \n")
    assert cfg.tau == 0.5


def test_parse_duplicate_later_wins():
    cfg = parse_config("seed = 1\nseed = 7\n")
    assert cfg.seed == 7


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("k = 8\nbogus_key = 1\n")
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("k = not-an-int\n")
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("just some words\n")
    # lam is internal; the file key is lambda
    with pytest.raises(ConfigError):
        parse_config("lam = 0.5\n")


def test_parse_validates_result():
    with pytest.raises(ConfigError):
        parse_config("stages = 3\n")  # dims still lists two widths
    with pytest.raises(ConfigError):
        parse_config("epsilon_lo = 0.95\nepsilon_hi = 0.9\n")
    with pytest.raises(ConfigError):
        parse_config("lambda = 2.0\n")
    with pytest.raises(ConfigError):
        parse_config("tau = 0\n")


def test_apply_overrides():
    cfg = apply_overrides(Config(), ["k=10", "lambda = 0.3", "dims=4,8"])
    assert cfg.k == 10 and cfg.lam == 0.3 and cfg.dims == (4, 8)
    with pytest.raises(ConfigError):
        apply_overrides(Config(), ["k"])
    with pytest.raises(ConfigError):
        apply_overrides(Config(), ["unknown=1"])


def test_text_roundtrip():
    cfg = Config(k=9, lam=0.37, dims=(4, 8), cross_mask_mode="sum", apm_detach=False)
    assert parse_config(config_to_text(cfg)) == cfg
    assert parse_config(config_to_text(Config())) == Config()
    # floats keep every digit, not only the first nine
    fine = Config(lr=0.0123456789012, epsilon_lo=0.12345678901, beta=1 / 3, mu=-1e-300)
    assert parse_config(config_to_text(fine)) == fine


# (bad line, message from parse_config, message from apply_overrides or None for
# the same). Each bad line sits on line 2 of the file and is the second override.
BAD_VALUES = [
    ("k = x", "line 2: cannot parse value 'x' for key 'k'",
     "cannot parse value 'x' for key 'k'"),
    ("k = 1.5", "line 2: cannot parse value '1.5' for key 'k'",
     "cannot parse value '1.5' for key 'k'"),
    ("seed = 1e3", "line 2: cannot parse value '1e3' for key 'seed'",
     "cannot parse value '1e3' for key 'seed'"),
    ("beta = x", "line 2: cannot parse value 'x' for key 'beta'",
     "cannot parse value 'x' for key 'beta'"),
    ("dims = 4,a", "line 2: cannot parse value '4,a' for key 'dims'",
     "cannot parse value '4,a' for key 'dims'"),
    ("apm_detach = maybe", "line 2: cannot parse value 'maybe' for key 'apm_detach'",
     "cannot parse value 'maybe' for key 'apm_detach'"),
    ("lam = 0.5", "line 2: unknown key 'lam'", "unknown key 'lam'"),
    ("bogus = 1", "line 2: unknown key 'bogus'", "unknown key 'bogus'"),
    ("words", "line 2: expected 'key = value', got 'words'", "override 'words' is not key=value"),
    ("epsilon_lo = 0.95\nepsilon_hi = 0.9", "epsilon_lo must be <= epsilon_hi", None),
    ("lambda = 2.0", "lambda must lie in [0, 1]", None),
    ("lambda = -0.1", "lambda must lie in [0, 1]", None),
    ("tau = 0", "tau must be > 0", None),
    ("tau = -1", "tau must be > 0", None),
    ("beta = 0", "beta must be > 0", None),
    ("beta = -0.5", "beta must be > 0", None),
    ("lr = 0", "lr must be > 0", None),
    ("lr = -1", "lr must be > 0", None),
    ("omega = -5", "omega must be >= 0", None),
    ("seed = -1", "seed must be >= 0", None),
    ("stages = 0", "stages must be >= 1", None),
    ("stages = 3", "dims must list one width per stage", None),
    ("dims = 8", "dims must list one width per stage", None),
    ("dims = 0,8", "dims widths must be >= 1", None),
    ("dims = 16,-4", "dims widths must be >= 1", None),
    ("k = 1", "k and k_tilde must be >= 2", None),
    ("k_tilde = 1", "k and k_tilde must be >= 2", None),
    ("cross_mask_mode = avg", "cross_mask_mode must be single or sum", None),
    ("gamma = 2", "gamma must lie in [0, 1]", None),
    ("gamma = -0.5", "gamma must lie in [0, 1]", None),
    ("epsilon_hi = 1.5", "epsilon_hi must lie in [0, 1]", None),
    ("epsilon_lo = -0.1", "epsilon_lo must lie in [0, 1]", None),
    ("epochs = 0", "epochs must be >= 1", None),
    ("epochs = -3", "epochs must be >= 1", None),
    ("beta = nan", "beta must be finite", None),
    ("mu = inf", "mu must be finite", None),
    ("lr = nan", "lr must be finite", None),
    ("lambda = nan", "lambda must be finite", None),
]


@pytest.mark.parametrize("path", ["parse_config", "apply_overrides"])
@pytest.mark.parametrize("line, file_msg, override_msg", BAD_VALUES,
                         ids=[row[0].split("\n")[0] for row in BAD_VALUES])
def test_bad_values_fail_with_one_message(path, line, file_msg, override_msg):
    with pytest.raises(ConfigError) as info:
        if path == "parse_config":
            parse_config("# first line\n" + line + "\n")
        else:
            apply_overrides(Config(), ["seed=2"] + line.split("\n"))
    want = file_msg if path == "parse_config" or override_msg is None else override_msg
    assert str(info.value) == want


def test_every_field_round_trips_through_overrides_with_its_type():
    # every field differs from its default, so a field the parser drops shows up
    odd = Config(k=9, beta=0.05, tau=0.25, mu=-0.75, nu=0.25, lam=0.37, omega=0.02,
                 epsilon_lo=0.5, epsilon_hi=0.75, gamma=0.5, k_tilde=5, stages=3,
                 dims=(4, 8, 12), lr=0.005, epochs=7, seed=3, cross_mask_mode="sum",
                 apm_detach=False)
    assert all(getattr(odd, f.name) != getattr(Config(), f.name) for f in fields(Config))
    pairs = [line.replace(" = ", "=") for line in config_to_text(odd).splitlines()]
    got = apply_overrides(Config(), pairs)
    assert got == odd
    for f in fields(Config):
        assert type(getattr(got, f.name)) is type(getattr(odd, f.name)), f.name
    assert all(type(d) is int for d in got.dims)
