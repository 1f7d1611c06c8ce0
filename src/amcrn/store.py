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
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) != 3:
                    raise ConfigError(f"{path}:{lineno}: malformed store line")
                rec_id, n, values = parts
                vec = np.array([float(v) for v in values.split(" ")])
                self.records[rec_id] = StoreRecord(vec, int(n))

    def add(self, rec_id, vector, n_utterances=1, overwrite=False):
        if any(sep in rec_id for sep in "\t\n\r"):
            raise ConfigError(f"id {rec_id!r} contains a tab or line break")
        vector = np.asarray(vector, dtype=np.float64)
        if not np.all(np.isfinite(vector)):
            raise ConfigError(f"embedding for {rec_id!r} has non-finite values")
        if rec_id in self.records and not overwrite:
            raise DuplicateId(f"id {rec_id!r} already stored (use overwrite)")
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
