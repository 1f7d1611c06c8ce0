"""Line-oriented embedding store: `id<TAB>n<TAB>v1 v2 ... vD`.

Values are printed with shortest round-trip formatting so that read-back
is bit-exact; writes are atomic (temp file + rename).
"""

import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DuplicateId


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
            for lineno, raw in enumerate(fh, 1):
                line = raw.rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) != 3:
                    raise ConfigError(f"{path}:{lineno}: malformed store line")
                rec_id, n, values = parts
                try:
                    vec = np.array([float(v) for v in values.split(" ")])
                    n = int(n)
                except ValueError as exc:
                    raise ConfigError(f"{path}:{lineno}: unparsable store line: {exc}") from exc
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
        if rec_id in self.records and not overwrite:
            raise DuplicateId(f"id {rec_id!r} already stored (use overwrite)")
        stored = {len(rec.vector) for key, rec in self.records.items() if key != rec_id}
        if stored and stored != {len(vector)}:
            raise ConfigError(f"embedding for {rec_id!r} has {len(vector)} values, "
                              f"the store holds {stored.pop()}")
        self.records[rec_id] = StoreRecord(vector, int(n_utterances))

    def get(self, rec_id) -> StoreRecord:
        return self.records[rec_id]

    def __contains__(self, rec_id):
        return rec_id in self.records

    def save(self, path=None):
        path = str(path or self.path)
        lines = []
        for rec_id in sorted(self.records):
            rec = self.records[rec_id]
            values = " ".join(repr(float(v)) for v in rec.vector)
            lines.append(f"{rec_id}\t{rec.n_utterances}\t{values}\n")
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.writelines(lines)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
