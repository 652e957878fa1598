from __future__ import annotations

import json

import pytest

from flowevo.operators import OperatorKind
from flowevo.runconfig import ConfigError, load_run_config, write_manifest


def test_defaults_without_file():
    config = load_run_config()
    assert config.evolution.lambda_ == 0.3
    assert config.evolution.alpha == 5.0
    assert config.evolution.candidate_pool == 4
    assert config.evolution.max_rounds == 20
    assert config.evolution.crossover_rate == 0.10
    assert config.evolution.num_tries == 3


def test_unset_keys_take_the_evolution_config_defaults(monkeypatch):
    from flowevo.engine import EvolutionConfig
    from flowevo.runconfig import _SCALAR_KEYS

    for key in _SCALAR_KEYS:
        monkeypatch.delenv("FLOWEVO_" + key.upper(), raising=False)
    assert load_run_config(None).evolution == EvolutionConfig()


def test_file_values_and_comments(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# a comment\n"
        "lambda = 0.5\n"
        "alpha = 2\n"
        "seeds = a.mmd, b.mmd\n"
        "max_rounds = 7\n",
        encoding="utf-8",
    )
    config = load_run_config(path)
    assert config.evolution.lambda_ == 0.5
    assert config.seeds == ("a.mmd", "b.mmd")
    assert config.evolution.max_rounds == 7


def test_env_overrides_file(tmp_path, monkeypatch):
    path = tmp_path / "run.cfg"
    path.write_text("alpha = 2\n", encoding="utf-8")
    monkeypatch.setenv("FLOWEVO_ALPHA", "9")
    config = load_run_config(path)
    assert config.evolution.alpha == 9.0


def test_explicit_override_beats_env(tmp_path, monkeypatch):
    path = tmp_path / "run.cfg"
    path.write_text("alpha = 2\n", encoding="utf-8")
    monkeypatch.setenv("FLOWEVO_ALPHA", "9")
    config = load_run_config(path, {"alpha": 4})
    assert config.evolution.alpha == 4.0


def test_operator_weight_keys(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "weights.substitution = 0.5\n"
        "weights.addition = 0.5\n",
        encoding="utf-8",
    )
    config = load_run_config(path)
    weights = config.evolution.weights()
    assert weights[OperatorKind.SUBSTITUTION] == 0.5
    assert weights[OperatorKind.ADDITION] == 0.5


SIX_WEIGHTS = "".join(f"weights.{kind.value} = {w}\n" for kind, w in zip(OperatorKind, (0.2,) * 4 + (0.1, 0.1)))


@pytest.mark.parametrize("source", ["file", "env", "flag"])
def test_crossover_rate_with_operator_weights_rejected(tmp_path, monkeypatch, source):
    # the weights replace the crossover_rate split, so the rate would be ignored
    path = tmp_path / "run.cfg"
    path.write_text(SIX_WEIGHTS + ("crossover_rate = 0.5\n" if source == "file" else ""), encoding="utf-8")
    if source == "env":
        monkeypatch.setenv("FLOWEVO_CROSSOVER_RATE", "0.5")
    overrides = {"crossover_rate": 0.5} if source == "flag" else None
    with pytest.raises(ConfigError, match="crossover_rate cannot be combined with weights"):
        load_run_config(path, overrides)


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("frobnicate = yes\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="unknown config keys"):
        load_run_config(path)


def test_templates_key_rejected(tmp_path):
    # emission templates are a flag of `emit`, not a run setting
    path = tmp_path / "run.cfg"
    path.write_text("templates = x\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="unknown config keys: templates"):
        load_run_config(path)


def test_bad_scalar_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("lambda = nine\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="bad value"):
        load_run_config(path)


def test_invalid_evolution_values_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("lambda = 1.5\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="lambda"):
        load_run_config(path)


def test_site_budget_below_one_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("site_budget = 0\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="site_budget must be >= 1"):
        load_run_config(path)


@pytest.mark.parametrize(
    "line, message",
    [
        ("alpha = inf", "alpha must be finite"),
        ("alpha = nan", "alpha must be finite"),
        ("crossover_rate = 1.5", "crossover_rate must lie in"),
        ("weights.substitution = 1.5\nweights.deletion = -0.5", "deletion must be finite and nonnegative"),
        ("weights.substitution = nan\nweights.deletion = 1.0", "substitution must be finite and nonnegative"),
    ],
)
def test_non_finite_or_negative_knobs_rejected(tmp_path, line, message):
    path = tmp_path / "run.cfg"
    path.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=message):
        load_run_config(path)


@pytest.mark.parametrize(
    "line, message",
    [
        ("scenario = nope", "unknown scenario 'nope'; known: math_ensemble_refine, math_wide_ensemble, code_test_tail"),
        ("domain = maths", "domain must be math or code"),
    ],
)
def test_unknown_scenario_or_domain_rejected(tmp_path, line, message):
    path = tmp_path / "run.cfg"
    path.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=message):
        load_run_config(path)


def test_manifest_round_trip(tmp_path):
    config = load_run_config(None, {"seed": 42, "max_rounds": 5})
    path = tmp_path / "manifest.json"
    write_manifest(config, path)
    manifest = json.loads(path.read_text(encoding="utf-8"))
    assert manifest["tool"] == "flowevo"
    assert manifest["config"]["seed"] == 42
    assert manifest["config"]["max_rounds"] == 5
    assert "created_utc" in manifest


def test_manifest_config_keys_and_order():
    # the keys come from the EvolutionConfig and RunConfig fields, in this order
    assert list(load_run_config(None).to_dict()) == [
        "lambda", "alpha", "candidate_pool", "max_rounds", "num_tries", "seed", "crossover_rate",
        "site_budget", "domain", "scenario", "operator_weights", "seeds", "history", "manifest",
        "registry", "proposer_cmd", "judge_cmd", "evaluator_cmd",
    ]
