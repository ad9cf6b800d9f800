"""Run configuration: one dataclass binding the whole pipeline together.

A config can live in a JSON file; command-line flags override file
values. A config is validated when it is made and never changes. The
fields that affect built artifacts enter the build fingerprint
(``pipeline.build_fingerprint``), so stale artifacts are detected at load
time.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Mapping, get_type_hints

from .remote import BackendEndpoint

MASKERS = ("maxsim", "occlusion")
TIMING_MODES = ("wall", "off")

# The JSON types each field annotation accepts, and how a message names
# them. A bool is not an integer here, and an integer is a valid number.
_JSON_TYPES = {
    str: ((str,), "a string"),
    int: ((int,), "an integer"),
    int | None: ((int, type(None)), "an integer or null"),
    float: ((int, float), "a number"),
    dict[str, dict[str, Any]]: ((dict,), "an object"),
}


@dataclass(frozen=True)
class RunConfig:
    corpus: str = field(default="corpus.jsonl", metadata={"help": "corpus JSONL path"})
    artifacts: str = field(default="artifacts", metadata={"help": "artifact directory"})
    out_dir: str = "reports"
    # search model
    k1: float = field(default=1.2, metadata={"above": 0})
    b_bm25: float = field(default=0.75, metadata={"within": (0, 1)})
    top_k: int = field(default=5, metadata={"min": 2})
    min_count: int = field(default=1, metadata={"min": 1})
    # embeddings
    embed_dim: int = field(default=64, metadata={"min": 2})
    embed_window: int = field(default=5, metadata={"min": 1})
    # language model
    lm_order: int = field(default=3, metadata={"min": 1})
    lm_k: float = field(default=0.1, metadata={"above": 0})
    # masker + editor
    masker: str = field(default="maxsim", metadata={"choices": MASKERS})
    beam: int = field(default=10, metadata={"min": 1})
    lam: float = field(default=0.5, metadata={"within": (0, 1)})
    max_masks: int | None = field(default=None, metadata={"min": 1})
    # remote backends: role -> {url, timeout_ms, retries, token}
    backends: dict[str, dict[str, Any]] = field(default_factory=dict)
    # run behaviour (workers None: 1, or available parallelism if a role is remote)
    workers: int | None = field(default=None, metadata={"min": 1})
    timing: str = field(default="wall", metadata={"choices": TIMING_MODES})

    def __post_init__(self) -> None:
        """Raise ValueError naming the first invalid field, in field order:
        its JSON type, from its annotation, then its rule, from its
        metadata. A number must also make a finite float."""
        hints = get_type_hints(RunConfig)
        for f in fields(self):
            types, kind = _JSON_TYPES[hints[f.name]]
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, types):
                raise ValueError(f"invalid config field: {f.name} (must be {kind})")
            # NaN fails every comparison, an int past the float range this one.
            if float in types and not abs(value) <= sys.float_info.max:
                raise ValueError(f"invalid config field: {f.name} (must be finite)")
            error = _range_error(value, f.metadata)
            if error:
                raise ValueError(f"invalid config field: {f.name} ({error})")
        for role, raw in self.backends.items():
            try:
                BackendEndpoint.from_dict(role, raw)
            except ValueError as exc:
                message = f"invalid config field: backends.{role} ({exc})"
                raise ValueError(message) from exc

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: Any) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ValueError("config must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"invalid config field: {sorted(unknown)[0]}")
        return cls(**raw)

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        """Load and validate a JSON config; a ValueError names the path."""
        with open(path, encoding="utf-8") as fh:
            try:
                return cls.from_dict(json.load(fh))
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from exc

    def with_overrides(self, **overrides: Any) -> "RunConfig":
        """New config with non-None overrides applied, re-validated."""
        return replace(self, **{k: v for k, v in overrides.items() if v is not None})

    def result_dict(self) -> dict[str, Any]:
        """Config fields that may influence results, as report metadata.

        ``workers`` is excluded: parallelism must never change output
        bytes. So are the paths, which differ between run directories,
        and the backend settings, which may hold credentials: only the
        sorted list of remote roles is kept.
        """
        raw = self.to_dict()
        for name in ("workers", "corpus", "artifacts", "out_dir"):
            raw.pop(name)
        raw["backends"] = sorted(self.backends)
        return raw

    def config_hash(self) -> str:
        return short_hash(self.result_dict())


def _range_error(value: Any, rule: Mapping[str, Any]) -> str | None:
    """How ``value`` breaks a field's rule, or None; None is in every range."""
    if value is None:
        return None
    if "min" in rule and value < rule["min"]:
        return f"must be >= {rule['min']}"
    if "above" in rule and not value > rule["above"]:
        return f"must be > {rule['above']}"
    if "within" in rule and not rule["within"][0] <= value <= rule["within"][1]:
        return "must be in [{}, {}]".format(*rule["within"])
    if "choices" in rule and value not in rule["choices"]:
        return f"one of {rule['choices']}"
    return None


def short_hash(payload: Any) -> str:
    """sha256 of ``payload`` as compact sorted-key JSON, cut to 16 hex digits."""
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]
