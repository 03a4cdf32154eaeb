"""Versioned checkpoints: parameter blobs plus a self-describing JSON header.

The header carries the config snapshot, the step count and the run's history,
so a restored trainer continues bit-identically.
"""

from __future__ import annotations

import contextlib
import json
import os
import zipfile

import numpy as np

from .errors import ConfigError, ParseError

SCHEMA_VERSION = 4

_HEADER_KEY = "__header__"
_PARAM_PREFIX = "param::"


@contextlib.contextmanager
def atomic_open(path, mode: str = "w"):
    """Write a file beside ``path`` that replaces it only once fully written,
    so an interrupted write leaves the previous file intact."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def save_checkpoint(path, named_arrays: dict, header: dict) -> None:
    header = dict(header)
    header["schema_version"] = SCHEMA_VERSION
    blob = np.frombuffer(json.dumps(header, sort_keys=True).encode("utf-8"), dtype=np.uint8)
    payload = {_HEADER_KEY: blob}
    for name, arr in named_arrays.items():
        payload[_PARAM_PREFIX + name] = np.asarray(arr)
    with atomic_open(path, "wb") as fh:
        np.savez(fh, **payload)


def load_checkpoint(path):
    """Return (header dict, {name: array})."""
    try:
        # opened here, so that a file numpy cannot read is still closed
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as bundle:
            if _HEADER_KEY not in bundle:
                raise ParseError(f"{path}: not a checkpoint (missing header)")
            header = json.loads(bytes(bundle[_HEADER_KEY].tobytes()).decode("utf-8"))
            params = {
                name[len(_PARAM_PREFIX):]: bundle[name]
                for name in bundle.files
                if name.startswith(_PARAM_PREFIX)
            }
    except FileNotFoundError:
        raise ConfigError(f"checkpoint not found: {path}") from None
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:  # EOFError: an empty file
        raise ParseError(f"{path}: corrupt checkpoint: {exc}") from exc
    if header.get("schema_version") != SCHEMA_VERSION:
        raise ParseError(f"{path}: unsupported checkpoint schema {header.get('schema_version')}")
    # parameters bypass the leaf scan of Tensor(...), and a trapped training
    # step does not raise on a NaN that is already there
    for name, arr in params.items():
        if not np.isfinite(arr).all():
            raise ParseError(f"{path}: parameter {name} has non-finite values")
    return header, params


def restore_parameters(model, params: dict, strict: bool = True) -> None:
    """Copy arrays into the model's parameters of the same name.

    A name in both with different shapes is refused. With strict=False a name
    the checkpoint lacks keeps its initial value (stage-2 initialisation from
    a stage-1 checkpoint, which has no spatial stack).
    """
    for name, tensor in model.named_parameters():
        if name not in params:
            if strict:
                raise ConfigError(f"checkpoint is missing parameter {name}")
        elif params[name].shape != tensor.data.shape:
            raise ConfigError(
                f"checkpoint parameter {name} has shape {params[name].shape}, "
                f"model expects {tensor.data.shape}"
            )
        else:
            tensor.data = params[name].astype(tensor.data.dtype).copy()
