"""Line-oriented embedding store: `id<TAB>n<TAB>v1 v2 ... vD`.

Values are printed with shortest round-trip formatting so that read-back
is bit-exact; writes are atomic (temp file + rename).
"""

import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DuplicateId
from .model import _atomic_write


@dataclass
class StoreRecord:
    vector: np.ndarray
    n_utterances: int


class EmbeddingStore:
    def __init__(self, path=None):
        self.path = path
        self.records = {}
        if path is not None and os.path.exists(path):
            self._load(path)

    def _load(self, path):
        dim = None
        first_line = {}
        with open(path, encoding="utf-8") as fh:
            try:
                lines = fh.readlines()
            except UnicodeDecodeError as exc:
                raise ConfigError(f"{path}: not a UTF-8 store: {exc}") from exc
        for lineno, raw in enumerate(lines, 1):
            line = raw.rstrip("\n")
            if not line:
                continue
            if not raw.endswith("\n"):  # `save` ends every line, so the file was cut
                raise ConfigError(f"{path}:{lineno}: line cut short")
            parts = line.split("\t")
            if len(parts) != 3:
                raise ConfigError(f"{path}:{lineno}: malformed store line")
            rec_id, n, values = parts
            try:
                vec = np.array([float(v) for v in values.split(" ")])
                n = int(n)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: unparsable store line: {exc}") from exc
            if n < 1:
                raise ConfigError(f"{path}:{lineno}: utterance count {n} is below 1")
            if not np.all(np.isfinite(vec)):
                raise ConfigError(f"{path}:{lineno}: non-finite embedding value")
            if dim is None:
                dim = len(vec)
            elif len(vec) != dim:
                raise ConfigError(f"{path}:{lineno}: {len(vec)} values, "
                                  f"earlier lines have {dim}")
            if rec_id in first_line:
                raise ConfigError(f"{path}:{lineno}: id {rec_id!r} repeats line "
                                  f"{first_line[rec_id]}")
            first_line[rec_id] = lineno
            self.records[rec_id] = StoreRecord(vec, n)

    def add(self, rec_id, vector, n_utterances=1, overwrite=False):
        if any(sep in rec_id for sep in "\t\n\r"):
            raise ConfigError(f"id {rec_id!r} contains a tab or line break")
        vector = np.asarray(vector, dtype=np.float64)
        if not np.all(np.isfinite(vector)):
            raise ConfigError(f"embedding for {rec_id!r} has non-finite values")
        if int(n_utterances) < 1:
            raise ConfigError(f"utterance count {n_utterances} for {rec_id!r} is below 1")
        if rec_id in self.records and not overwrite:
            raise DuplicateId(f"id {rec_id!r} already stored (use overwrite)")
        stored = {len(rec.vector) for key, rec in self.records.items() if key != rec_id}
        if stored and stored != {len(vector)}:
            where = "" if self.path is None else f"{self.path}: "
            raise ConfigError(f"{where}embedding for {rec_id!r} has {len(vector)} values, "
                              f"the store holds {stored.pop()}")
        self.records[rec_id] = StoreRecord(vector, int(n_utterances))

    def get(self, rec_id) -> StoreRecord:
        return self.records[rec_id]

    def __contains__(self, rec_id):
        return rec_id in self.records

    def save(self, path=None):
        lines = []
        for rec_id in sorted(self.records):
            rec = self.records[rec_id]
            values = " ".join(repr(float(v)) for v in rec.vector)
            lines.append(f"{rec_id}\t{rec.n_utterances}\t{values}\n")
        _atomic_write(path or self.path, "".join(lines).encode("utf-8"))
