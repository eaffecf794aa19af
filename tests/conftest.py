"""Shared test settings and fixtures.

One hypothesis profile: every run draws the same examples (derandomized,
no example database), so the suite's outcome and run time do not vary.
"""

import json

import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("suite", derandomize=True, deadline=None,
                          max_examples=200, database=None)
settings.load_profile("suite")


@pytest.fixture()
def rewrite_checkpoint():
    """Re-save a checkpoint with one array dropped, given an extra row or
    cast to another dtype (`retype=(name, dtype)`), or with metadata fields
    changed or one dropped, or with its metadata replaced by what `edit`
    makes of it."""
    def rewrite(path, drop=None, reshape=None, retype=None, drop_meta=None, edit=None,
                **meta_changes):
        with np.load(path) as blob:
            meta = json.loads(bytes(blob["__meta__"]).decode())
            arrays = {k: blob[k] for k in blob.files if k not in ("__meta__", drop)}
        if reshape is not None:
            arrays[reshape] = np.concatenate([arrays[reshape], arrays[reshape][:1]])
        if retype is not None:
            name, dtype = retype
            arrays[name] = arrays[name].astype(dtype)
        meta.update(meta_changes)
        meta.pop(drop_meta, None)
        if edit is not None:
            meta = edit(meta)
        np.savez(path, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
                 **arrays)
    return rewrite
