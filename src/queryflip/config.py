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
import re
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Iterable, Mapping, get_type_hints
from urllib.parse import urlsplit

MASKERS = ("maxsim", "occlusion")
TIMING_MODES = ("wall", "off")
ROLES = ("score", "embed", "predict", "perplexity")

# The JSON types each field annotation accepts, and how a message names
# them. A bool is not an integer here, and an integer is a valid number.
_JSON_TYPES = {
    str: ((str,), "a string"),
    int: ((int,), "an integer"),
    int | None: ((int, type(None)), "an integer or null"),
    str | None: ((str, type(None)), "a string"),
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
        """Raise ValueError naming the first invalid field, then the first
        invalid ``backends`` entry."""
        fault = _first_fault(self)
        if fault:
            raise ValueError("invalid config field: {} ({})".format(*fault))
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
        _check_keys(raw, (f.name for f in fields(cls)), "invalid config field: ")
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


@dataclass(frozen=True)
class BackendEndpoint:
    """Where one backend role lives and how patiently to call it."""

    base_url: str
    role: str = field(metadata={"choices": ROLES})
    # poll(2) takes at most 2**31 - 1 ms; past it the socket layer overflows.
    timeout_ms: int = field(default=5000, metadata={"above": 0, "max": 2**31 - 1})
    retries: int = field(default=2, metadata={"min": 0})
    # An RFC 6750 b64token: what a Bearer header can carry; null sends none.
    token: str | None = field(default=None, metadata={"pattern": r"[A-Za-z0-9._~+/-]+=*"})

    def __post_init__(self) -> None:
        """Raise ValueError naming the first invalid field, then the url's
        first fault: its scheme, its host and port as urlsplit reads them,
        then a host the transport cannot send."""
        fault = _first_fault(self)
        if fault:
            name, error = fault
            if name == "role":
                raise ValueError(f"unknown backend role: {self.role}")
            name = "url" if name == "base_url" else name  # its config key
            raise ValueError(f"{name} {error}")
        # Case-blind, as requests matches a url to its transport adapter.
        if not self.base_url.lower().startswith(("http://", "https://")):
            raise ValueError("url must start with http:// or https://")
        try:
            parts = urlsplit(self.base_url)
            parts.port  # parsed on first read
        except ValueError as exc:
            raise ValueError(f"url is malformed: {exc}") from None
        if not parts.hostname:
            raise ValueError("url must name a host")
        # urlsplit drops tabs and newlines, which the transport would send
        # on, so the host and port are read from the url as given.
        host_port = re.match(r"[^/]*//([^/?#]*)", self.base_url)[1].rpartition("@")[2]
        if any(c.isspace() or not c.isprintable() for c in host_port):
            raise ValueError(
                "url is malformed: host holds whitespace or a control character"
            )
        try:
            parts.hostname.encode("idna")  # as the transport will
        except UnicodeError as exc:  # an empty label, or one over 63 characters
            raise ValueError(f"url is malformed: {exc.__cause__ or exc}") from None

    @property
    def url(self) -> str:
        return self.base_url.rstrip("/") + "/" + self.role

    @classmethod
    def from_dict(cls, role: str, raw: Any) -> "BackendEndpoint":
        """One ``backends`` config entry; ValueError names what is wrong."""
        if not isinstance(raw, dict):
            raise ValueError("entry must be an object")
        _check_keys(raw, ("url", "timeout_ms", "retries", "token"), "unknown field: ")
        options = dict(raw)
        return cls(options.pop("url", None), role, **options)


def _first_fault(obj: Any) -> tuple[str, str] | None:
    """The first invalid field of a config dataclass and how it fails, in
    field order: its JSON type, from its annotation, then its rule, from
    its metadata, which null always meets. A number must also make a
    finite float."""
    hints = get_type_hints(type(obj))
    for f in fields(obj):
        types, kind = _JSON_TYPES[hints[f.name]]
        value, rule = getattr(obj, f.name), f.metadata
        if isinstance(value, bool) or not isinstance(value, types):
            return f.name, f"must be {kind}"
        # NaN fails every comparison, an int past the float range this one.
        if float in types and not abs(value) <= sys.float_info.max:
            return f.name, "must be finite"
        if value is None:
            continue
        if "min" in rule and value < rule["min"]:
            return f.name, f"must be >= {rule['min']}"
        if "above" in rule and not value > rule["above"]:
            return f.name, f"must be > {rule['above']}"
        if "max" in rule and value > rule["max"]:
            return f.name, f"must be <= {rule['max']}"
        if "within" in rule and not rule["within"][0] <= value <= rule["within"][1]:
            return f.name, "must be in [{}, {}]".format(*rule["within"])
        if "choices" in rule and value not in rule["choices"]:
            return f.name, f"one of {rule['choices']}"
        if "pattern" in rule and not re.fullmatch(rule["pattern"], value):
            return f.name, f"must match {rule['pattern']}"
    return None


def _check_keys(raw: Mapping[str, Any], known: Iterable[str], prefix: str) -> None:
    """Raise ValueError(prefix + key) for the first unknown key, sorted."""
    unknown = sorted(set(raw).difference(known))
    if unknown:
        raise ValueError(prefix + unknown[0])


def short_hash(payload: Any) -> str:
    """sha256 of ``payload`` as compact sorted-key JSON, cut to 16 hex digits."""
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]
