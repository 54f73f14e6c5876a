"""File formats for keys, ciphertexts, shared keys and verdicts, and the one file writer.

Key files carry both halves of the key pair:

    {"params": {...}, "h0_support": [...], "h1_support": [...],
     "sigma_hex": "...", "h_hex": "..."}

Ciphertext files are {"c0_hex": "...", "c1_hex": "..."}.  All JSON emitted by
the package uses sorted keys and compact separators so identical inputs
produce byte-identical files.  Every file the package writes, CSV included,
goes through :func:`write_text`, and every output path the command line names
is checked by :func:`output_path` when that line is parsed.
"""

from __future__ import annotations

import json
import os

from .errors import ParameterError, SchemaError
from .keys import Ciphertext, PrivateKey, PublicKey, SharedKey, SystemParams, custom_params
from .ring import DensePoly, SparsePoly, mul_sparse


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def write_text(path: str, text: str) -> None:
    """The package's one file writer."""
    with open(path, "w") as fh:
        fh.write(text)


def output_path(path: str) -> str:
    """``path``; OSError if it is a directory or lies in no writable one.

    The argparse type of every output flag, so a bad output is refused when
    the command line is read, before any input is opened or any work done.
    Nothing is opened or created.  It raises OSError alone: argparse would
    turn a ValueError into a usage error and drop its message.
    """
    if os.path.isdir(path):
        raise OSError(f"cannot write {path!r}: it is a directory")
    folder = os.path.dirname(path) or "."
    if not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
        raise OSError(f"cannot write {path!r}: {folder!r} is not a writable directory")
    return path


def write_json(path: str, obj) -> None:
    write_text(path, dumps_canonical(obj))


def csv_text(header: str, rows) -> str:
    """The header line, then each row's fields joined by commas, one line each."""
    return "".join(f"{line}\n" for line in [header, *(",".join(map(str, row)) for row in rows)])


def load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            blob = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(blob, dict):
        raise SchemaError(f"{path}: expected a JSON object")
    return blob


def _need(blob: dict, field: str, path: str):
    if field not in blob:
        raise SchemaError(f"{path}: missing field {field!r}")
    return blob[field]


def _indices(blob: dict, field: str, path: str) -> list[int]:
    # int() in SparsePoly.from_indices would read 3.7 or "3" as 3; JSON true is an int too
    v = _need(blob, field, path)
    if not isinstance(v, list) or any(type(i) is not int for i in v):
        raise SchemaError(f"{path}: {field} must be a list of integers")
    return v


def params_from_dict(blob: dict, path: str = "<params>") -> SystemParams:
    if not isinstance(blob, dict):
        raise SchemaError(f"{path}: params must be a JSON object")
    for f in ("r", "w", "t", "l", "lambda"):
        if f not in blob:
            raise SchemaError(f"{path}: params missing {f!r}")
        if type(blob[f]) is not int:
            raise SchemaError(f"{path}: params field {f!r} must be an integer")
    try:
        return custom_params(r=blob["r"], w=blob["w"], t=blob["t"], l=blob["l"],
                             security_bits=blob["lambda"])
    except ParameterError as exc:
        raise SchemaError(f"{path}: invalid params ({exc})") from exc


def write_key(path: str, params: SystemParams, sk: PrivateKey, pk: PublicKey) -> None:
    write_json(path, {"params": params.to_json_dict(), "h0_support": list(sk.h0.support),
                      "h1_support": list(sk.h1.support), "sigma_hex": sk.sigma.hex(),
                      "h_hex": pk.h.to_hex()})


def read_key(path: str) -> tuple[SystemParams, PrivateKey, PublicKey]:
    blob = load_json(path)
    params = params_from_dict(_need(blob, "params", path), path)
    ring = params.ring
    supports = [_indices(blob, f, path) for f in ("h0_support", "h1_support")]
    try:
        h0, h1 = (SparsePoly.from_indices(ring, supp) for supp in supports)
        sigma = bytes.fromhex(_need(blob, "sigma_hex", path))
        h = DensePoly.from_hex(ring, _need(blob, "h_hex", path))
    except (ValueError, TypeError) as exc:
        raise SchemaError(f"{path}: malformed key material ({exc})") from exc
    try:
        sk = PrivateKey(h0=h0, h1=h1, sigma=sigma)
        sk.check_params(params)
    except ParameterError as exc:
        raise SchemaError(f"{path}: inconsistent key material ({exc})") from exc
    if mul_sparse(h0, h) != h1.to_dense():
        raise SchemaError(f"{path}: h_hex is not h1 * h0^-1 (h * h0 != h1)")
    return params, sk, PublicKey(h=h)


def read_public_key(path: str) -> tuple[SystemParams, PublicKey]:
    """Encapsulation needs only params and h; private fields may be absent."""
    blob = load_json(path)
    params = params_from_dict(_need(blob, "params", path), path)
    try:
        h = DensePoly.from_hex(params.ring, _need(blob, "h_hex", path))
    except (ValueError, TypeError) as exc:
        raise SchemaError(f"{path}: malformed h_hex ({exc})") from exc
    return params, PublicKey(h=h)


def write_ciphertext(path: str, c: Ciphertext) -> None:
    write_json(path, {"c0_hex": c.c0.to_hex(), "c1_hex": c.c1.hex()})


def read_ciphertext(path: str, params: SystemParams) -> Ciphertext:
    blob = load_json(path)
    try:
        c0 = DensePoly.from_hex(params.ring, _need(blob, "c0_hex", path))
    except (ValueError, TypeError) as exc:
        raise SchemaError(f"{path}: malformed c0_hex ({exc})") from exc
    try:
        c1 = bytes.fromhex(_need(blob, "c1_hex", path))
    except (ValueError, TypeError) as exc:
        raise SchemaError(f"{path}: malformed c1_hex ({exc})") from exc
    try:
        c = Ciphertext(c0=c0, c1=c1)
        c.check_params(params)
    except ParameterError as exc:
        raise SchemaError(f"{path}: inconsistent ciphertext ({exc})") from exc
    return c


def write_shared_key(path: str, k: SharedKey) -> None:
    write_json(path, {"shared_key_hex": k.data.hex()})
