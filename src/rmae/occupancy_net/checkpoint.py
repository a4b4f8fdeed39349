"""Binary checkpoint format for network parameters.

Layout (all little-endian):

    magic "RMAE" | u32 version | u32 json_len | config json (utf8)
    u32 n_layers
    per layer:  u16 name_len, name | u16 kind_len, kind | u32 n_tensors
    per tensor: u16 name_len, name | u8 ndim | u32 dims... | f64 values

Parameters and running statistics are written in declaration order, so the
same network always serializes to the same bytes.

Version 2 gives only the head a bias.  Version 1 also stored one for each
conv a batch norm follows; load_checkpoint folds it into that batch norm's
running mean (running_mean -= bias), the same eval function up to rounding.
"""

from __future__ import annotations

import dataclasses
import json
import struct

import numpy as np

from ..errors import MalformedFile
from ..records import build
from .network import NetConfig, OccupancyNet

MAGIC = b"RMAE"
VERSION = 2


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack("<H", len(raw)) + raw


def _layer_tensors(layer) -> list[tuple[str, np.ndarray]]:
    out = list(layer.params().items())
    out += list(layer.buffers().items())
    return out


def save_checkpoint(net: OccupancyNet, path) -> None:
    config = dataclasses.asdict(net.config)
    config_json = json.dumps(config, sort_keys=True).encode("utf-8")
    layers = net.named_layers()
    parts = [MAGIC, struct.pack("<II", VERSION, len(config_json)), config_json]
    parts.append(struct.pack("<I", len(layers)))
    for name, layer in layers:
        tensors = _layer_tensors(layer)
        parts.append(_pack_str(name))
        parts.append(_pack_str(layer.kind))
        parts.append(struct.pack("<I", len(tensors)))
        for tname, arr in tensors:
            arr = np.asarray(arr, dtype="<f8")
            parts.append(_pack_str(tname))
            parts.append(struct.pack("<B", arr.ndim))
            parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
            parts.append(arr.tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


class _Reader:
    def __init__(self, raw: bytes, path):
        self.raw = raw
        self.pos = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.raw):
            raise MalformedFile(f"{self.path}: truncated checkpoint")
        out = self.raw[self.pos : self.pos + n]
        self.pos += n
        return out

    def u(self, fmt: str) -> int:
        (v,) = struct.unpack(fmt, self.take(struct.calcsize(fmt)))
        return v

    def string(self) -> str:
        # a name that is not UTF-8 matches no layer or tensor name
        return self.take(self.u("<H")).decode("utf-8", "replace")


def load_checkpoint(path) -> OccupancyNet:
    with open(path, "rb") as fh:
        raw = fh.read()
    r = _Reader(raw, path)
    if r.take(4) != MAGIC:
        raise MalformedFile(f"{path}: bad magic, not a checkpoint")
    version = r.u("<I")
    if version not in (1, VERSION):
        raise MalformedFile(f"{path}: unsupported version {version}")
    cfg_raw = r.take(r.u("<I"))
    try:  # UnicodeDecodeError and JSONDecodeError are ValueErrors
        header = json.loads(cfg_raw.decode("utf-8"))
        config = build(NetConfig, header, MalformedFile, f"{path}: net")
        # numpy refuses some seeds that NetConfig takes, such as -1
        net = OccupancyNet(config)
    except ValueError as e:
        raise MalformedFile(f"{path}: bad config header ({e})") from e

    named = net.named_layers()
    layers = dict(named)
    dead = {}  # version 1: conv name -> the bias its batch norm cancels
    n_layers = r.u("<I")
    if n_layers != len(layers):
        raise MalformedFile(
            f"{path}: layer count {n_layers} != expected {len(layers)}"
        )
    for _ in range(n_layers):
        name = r.string()
        kind = r.string()
        layer = layers.get(name)
        if layer is None or layer.kind != kind:
            raise MalformedFile(f"{path}: unexpected layer {name} ({kind})")
        tensors = dict(_layer_tensors(layer))
        if version == 1 and tensors.keys() == {"weight"}:
            tensors["bias"] = dead[name] = np.zeros(layer.out_ch)
        n_tensors = r.u("<I")
        if n_tensors != len(tensors):
            raise MalformedFile(f"{path}: tensor count mismatch in {name}")
        for _ in range(n_tensors):
            tname = r.string()
            ndim = r.u("<B")
            shape = struct.unpack(f"<{ndim}I", r.take(4 * ndim))
            target = tensors.get(tname)
            if target is None or tuple(target.shape) != shape:
                raise MalformedFile(
                    f"{path}: unexpected tensor {name}.{tname} {shape}"
                )
            count = int(np.prod(shape)) if ndim else 1
            data = np.frombuffer(r.take(8 * count), dtype="<f8").reshape(
                shape
            )
            target[...] = data
    if r.pos != len(raw):
        raise MalformedFile(f"{path}: trailing bytes after checkpoint")
    # named_layers() lists each conv just before its batch norm
    for (conv_name, _), (_, bn) in zip(named[::2], named[1::2]):
        bn.running_mean -= dead.get(conv_name, 0.0)
    return net
