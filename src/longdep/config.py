"""Run configuration: built-in defaults, config-file loading, and flag
merging with a fixed precedence of flags > config file > defaults.

The built-in defaults form the "reference" profile: segments of 128
tokens, documents truncated to 32768 tokens (so 256 segments), 5000
sampled pairs, unit combination weights, gate threshold 0.05, and a 50%
retention fraction.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .corpus import INPUT_FORMATS, TOKENIZER_KINDS
from .errors import ConfigError
from .jsonio import fingerprint, read_json
from .lds import LdsConfig, typed_fields
from .ngram import check_order_and_k


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs beyond the input paths themselves."""

    lds: LdsConfig
    fraction: float = 0.5
    workers: int = 1
    tokenizer: str = "whitespace"
    input_format: str = "jsonl"
    order: int = 3
    k: float = 0.01
    backend: str = ""

    def __post_init__(self):
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if not (0.0 < self.fraction <= 1.0):
            raise ConfigError(f"fraction must be in (0, 1], got {self.fraction}")
        for name, choices in (("tokenizer", TOKENIZER_KINDS), ("input_format", INPUT_FORMATS)):
            if getattr(self, name) not in choices:
                raise ConfigError(f"{name} must be one of {choices}, got {getattr(self, name)!r}")
        check_order_and_k(self.order, self.k)

    def to_dict(self) -> dict:
        out = self.lds.to_dict()
        out.update({f.name: getattr(self, f.name) for f in _RUN_FIELDS})
        return out

    def fingerprint(self) -> str:
        return fingerprint(self.to_dict())


# The two dataclasses are the only schema: every key list and default
# below, and the type checks of ``typed_fields``, are read off their fields.
_LDS_KEYS = tuple(f.name for f in fields(LdsConfig))
_RUN_FIELDS = tuple(f for f in fields(RunConfig) if f.name != "lds")

REFERENCE_PROFILE: dict = {f.name: f.default for f in fields(LdsConfig) + _RUN_FIELDS}


def load_config_file(path: str) -> dict:
    try:
        raw = read_json(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path!r} must hold a JSON object")
    unknown = set(raw) - set(REFERENCE_PROFILE)
    if unknown:
        raise ConfigError(f"unknown config keys in {path!r}: {sorted(unknown)}")
    return raw


def resolve_config(
    flags: dict | None = None, config_path: str | None = None
) -> RunConfig:
    """Merge the three layers.

    ``flags`` holds only explicitly supplied values (argparse sentinels
    already stripped); the config file fills what flags leave open; the
    reference profile fills the rest. Every value must have its key's
    schema type.
    """
    flags = {k: v for k, v in (flags or {}).items() if v is not None}
    file_cfg = load_config_file(config_path) if config_path else {}
    merged = {**REFERENCE_PROFILE, **file_cfg, **flags}
    lds = LdsConfig(**typed_fields(LdsConfig, {k: merged[k] for k in _LDS_KEYS}))
    run = typed_fields(RunConfig, {f.name: merged[f.name] for f in _RUN_FIELDS})
    return RunConfig(lds=lds, **run)
