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
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, get_type_hints

from .evaluation import MASKERS, TIMING_MODES
from .remote import BackendEndpoint

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
    k1: float = 1.2
    b_bm25: float = 0.75
    top_k: int = 5
    min_count: int = 1
    # embeddings
    embed_dim: int = 64
    embed_window: int = 5
    # language model
    lm_order: int = 3
    lm_k: float = 0.1
    # masker + editor
    masker: str = "maxsim"
    beam: int = 10
    lam: float = 0.5
    max_masks: int | None = None
    # remote backends: role -> {url, timeout_ms, retries, token}
    backends: dict[str, dict[str, Any]] = field(default_factory=dict)
    # run behaviour
    workers: int | None = None  # None: 1, or available parallelism if a role is remote
    timing: str = "wall"

    def __post_init__(self) -> None:
        """Raise ValueError naming the first invalid field: types first,
        then ranges. Each field's JSON type comes from its annotation."""
        hints = get_type_hints(RunConfig)
        for f in fields(self):
            types, kind = _JSON_TYPES[hints[f.name]]
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, types):
                raise ValueError(f"invalid config field: {f.name} (must be {kind})")
        if self.beam < 1:
            raise ValueError("invalid config field: beam (must be >= 1)")
        if self.top_k < 2:
            raise ValueError("invalid config field: top_k (must be >= 2)")
        if not self.k1 > 0:
            raise ValueError("invalid config field: k1 (must be > 0)")
        if not 0.0 <= self.b_bm25 <= 1.0:
            raise ValueError("invalid config field: b_bm25 (must be in [0, 1])")
        if self.min_count < 1:
            raise ValueError("invalid config field: min_count (must be >= 1)")
        if self.embed_dim < 2:
            raise ValueError("invalid config field: embed_dim (must be >= 2)")
        if self.embed_window < 1:
            raise ValueError("invalid config field: embed_window (must be >= 1)")
        if self.lm_order < 1:
            raise ValueError("invalid config field: lm_order (must be >= 1)")
        if not self.lm_k > 0:
            raise ValueError("invalid config field: lm_k (must be > 0)")
        if self.masker not in MASKERS:
            raise ValueError(f"invalid config field: masker (one of {MASKERS})")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("invalid config field: lam (must be in [0, 1])")
        if self.max_masks is not None and self.max_masks < 1:
            raise ValueError("invalid config field: max_masks (must be >= 1)")
        if self.workers is not None and self.workers < 1:
            raise ValueError("invalid config field: workers (must be >= 1)")
        if self.timing not in TIMING_MODES:
            raise ValueError(f"invalid config field: timing (one of {TIMING_MODES})")
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


def short_hash(payload: Any) -> str:
    """sha256 of ``payload`` as compact sorted-key JSON, cut to 16 hex digits."""
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]
