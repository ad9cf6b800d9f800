"""Run configuration: one dataclass binding the whole pipeline together.

A config can live in a JSON file; command-line flags override file
values. The subset of fields that affects built artifacts is hashed into
a build fingerprint which the artifact file embeds, so stale artifacts
are detected at load time.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields
from typing import Any

from .remote import ROLES

MASKERS = ("maxsim", "occlusion")
TIMING_MODES = ("wall", "off")


@dataclass
class RunConfig:
    corpus: str = "corpus.jsonl"
    artifacts: str = "artifacts"
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
    seed: int = 0
    workers: int | None = None  # None: use available parallelism
    timing: str = "wall"

    def validate(self) -> None:
        """Raise ValueError naming the first invalid field."""
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
        for role in self.backends:
            if role not in ROLES:
                raise ValueError(f"invalid config field: backends ({role!r})")

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "RunConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"invalid config field: {sorted(unknown)[0]}")
        config = cls(**raw)
        config.validate()
        return config

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def with_overrides(self, **overrides: Any) -> "RunConfig":
        """New config with non-None overrides applied, re-validated."""
        raw = self.to_dict()
        raw.update({k: v for k, v in overrides.items() if v is not None})
        return RunConfig.from_dict(raw)

    def result_dict(self) -> dict[str, Any]:
        """Config fields that may influence results.

        ``workers`` is excluded: parallelism must never change output
        bytes, so it cannot appear in report metadata either.
        """
        raw = self.to_dict()
        raw.pop("workers")
        return raw

    def config_hash(self) -> str:
        canon = json.dumps(self.result_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]

    def build_params(self) -> dict[str, Any]:
        """The fields that determine artifact contents."""
        return {
            "min_count": self.min_count,
            "embed_dim": self.embed_dim,
            "embed_window": self.embed_window,
            "lm_order": self.lm_order,
            "lm_k": self.lm_k,
            "seed": self.seed,
        }


def build_fingerprint(build_params: dict[str, Any], corpus_digest: str) -> str:
    canon = json.dumps(
        {"build": build_params, "corpus": corpus_digest},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]
