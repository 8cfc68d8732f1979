"""Pipeline configuration: one JSON file drives every subcommand.

Defaults reproduce the reference settings: 300-dimensional vectors, a
10-word window, 10 neighbors per seed, and seed frequency thresholds of
100 then 1000 occurrences.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Union

from .artifacts import CorpusFormatError, text_lines
from .embedding import EmbeddingConfig, require_number
from .lexicon import SeedConfig


@dataclass
class PipelineConfig:
    corpus: str = ""
    general_lexicon: str = ""
    wordnet_dir: str = ""
    work_dir: str = "work"
    min_count: int = 5
    embedding: EmbeddingConfig = field(default_factory=EmbeddingConfig)
    seeds: SeedConfig = field(default_factory=SeedConfig)
    k: int = 10
    kappa_weighting: str = "linear"
    sea_avg: Union[str, float] = "lexicon"
    t_test: str = "welch"
    extra_seeds: Optional[str] = None
    general_columns: Optional[dict[str, str]] = None
    shuffle_sheet: Optional[int] = None

    def validate(self) -> None:
        self.embedding.validate()
        for name, low in (("min_count", 1), ("k", 0)):
            require_number(name, getattr(self, name), low)
        for name in ("n1", "f1", "n2", "f2"):
            require_number("seeds." + name, getattr(self.seeds, name), 1)
        for name in ("corpus", "general_lexicon", "wordnet_dir", "work_dir", "extra_seeds"):
            value = getattr(self, name)
            if not isinstance(value, str) and not (name == "extra_seeds" and value is None):
                kind = "null or a string" if name == "extra_seeds" else "a string"
                raise ValueError(f"{name} must be {kind}, got {value!r}")
        if self.shuffle_sheet is not None:
            require_number("shuffle_sheet", self.shuffle_sheet, 0)
        if self.kappa_weighting not in ("linear", "quadratic"):
            raise ValueError(f"bad kappa_weighting: {self.kappa_weighting!r}")
        if self.t_test not in ("welch", "pooled"):
            raise ValueError(f"bad t_test: {self.t_test!r}")
        if isinstance(self.sea_avg, str):
            if self.sea_avg not in ("lexicon", "dataset"):
                raise ValueError(f'sea_avg must be "lexicon", "dataset" or a finite number, '
                                 f"got {self.sea_avg!r}")
        else:
            require_number("sea_avg", self.sea_avg, -math.inf, integer=False)
        columns = self.general_columns
        if columns is not None and not (
                isinstance(columns, dict) and set(columns) <= {"word", "arousal"}
                and all(isinstance(v, str) and v for v in columns.values())):
            raise ValueError("general_columns must map word and/or arousal to column names, "
                             f"got {columns!r}")

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        """Build and validate a config; an unknown key raises ValueError."""
        data = dict(data)
        embedding = _known(EmbeddingConfig, data.pop("embedding", {}), "embedding.")
        seeds = _known(SeedConfig, data.pop("seeds", {}), "seeds.")
        cfg = _known(cls, data, "", embedding=embedding, seeds=seeds)
        cfg.validate()
        return cfg

    def save(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    @classmethod
    def load(cls, path: str | Path) -> "PipelineConfig":
        """Read a config file. An unreadable file, a byte that is not UTF-8,
        invalid JSON, a key repeated in one object (at any depth) or a value
        that is not an object raises CorpusFormatError naming the path; the
        errors of ``from_dict`` name the key."""
        text = "".join(line for _, line in text_lines(path))
        try:
            data = json.loads(text, object_pairs_hook=functools.partial(_unique_keys, path))
        except (ValueError, RecursionError) as exc:
            raise CorpusFormatError(f"{path}: invalid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise CorpusFormatError(f"{path}: expected a JSON object of config keys, "
                                    f"got {type(data).__name__}")
        return cls.from_dict(data)


def _unique_keys(path: str | Path, pairs: list[tuple[str, object]]) -> dict:
    data = {}
    for key, value in pairs:
        if key in data:
            raise CorpusFormatError(f"{path}: config key {key!r} is repeated")
        data[key] = value
    return data


def _known(kind, data: dict, prefix: str, **nested):
    if not isinstance(data, dict):
        raise ValueError(f"{prefix[:-1]} must be an object of config keys, got {data!r}")
    names = {f.name for f in dataclasses.fields(kind)}
    unknown = sorted(set(data) - names)
    if unknown:
        raise ValueError(
            "unknown config key " + ", ".join(repr(prefix + key) for key in unknown)
        )
    return kind(**data, **nested)


def hash_config_slice(config: PipelineConfig, keys: Iterable[str]) -> str:
    """Short sha256 of the values of the given dotted keys, e.g. "embedding.dim"."""
    selected = {k: functools.reduce(getattr, k.split("."), config) for k in sorted(keys)}
    blob = json.dumps(selected, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]
