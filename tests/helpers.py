"""Shared test utilities: finite-difference oracles, tolerance checks, flat
weight vectors of a head and checkpoint header surgery."""

from __future__ import annotations

import json

import numpy as np

from synthdetect.tensor import Tensor


def fd_gradient(f, params: list[Tensor], step: float = 1e-4) -> list[np.ndarray]:
    """Central finite differences of scalar f() w.r.t. each parameter tensor.

    f must be deterministic given the parameter values (re-seed any rng inside).
    ``assign`` takes its argument over, so each write goes to a copy.
    """
    grads = []
    for p in params:
        base = p.data.copy()
        g = np.zeros_like(base)
        flat = base.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            p.assign(base.copy())
            hi = f()
            flat[i] = orig - step
            p.assign(base.copy())
            lo = f()
            flat[i] = orig
            gflat[i] = (hi - lo) / (2.0 * step)
        p.assign(base.copy())
        grads.append(g)
    return grads


def fd_gradient_coords(f, param: Tensor, coords, step: float = 1e-4) -> np.ndarray:
    """Central differences at selected flat coordinates of one parameter."""
    base = param.data.copy()
    flat = base.reshape(-1)
    out = np.zeros(len(coords))
    for k, i in enumerate(coords):
        orig = flat[i]
        flat[i] = orig + step
        param.assign(base.copy())
        hi = f()
        flat[i] = orig - step
        param.assign(base.copy())
        lo = f()
        flat[i] = orig
        out[k] = (hi - lo) / (2.0 * step)
    param.assign(base.copy())
    return out


def grad_agrees(analytic: float, numeric: float,
                rtol: float = 1e-4, floor: float = 1e-8) -> bool:
    """Relative comparison; magnitudes below the floor compared absolutely."""
    denom = max(abs(analytic), abs(numeric))
    if denom < floor:
        return abs(analytic - numeric) < floor
    return abs(analytic - numeric) / denom < rtol


def assert_grads_close(analytic: np.ndarray, numeric: np.ndarray,
                       rtol: float = 1e-4, floor: float = 1e-8) -> None:
    a = np.asarray(analytic).reshape(-1)
    n = np.asarray(numeric).reshape(-1)
    assert a.shape == n.shape
    bad = [
        (i, a[i], n[i])
        for i in range(a.size)
        if not grad_agrees(a[i], n[i], rtol=rtol, floor=floor)
    ]
    assert not bad, f"{len(bad)} gradient entries disagree, first: {bad[:3]}"


def weight_count(head) -> int:
    """How many weights the head has: the length of ``flat_weights(head)``."""
    return sum(p.data.size for _, p in head.parameters())


def flat_weights(head) -> np.ndarray:
    """The head's weights as one vector, in ``parameters()`` order."""
    return np.concatenate([p.data.reshape(-1) for _, p in head.parameters()])


def set_flat_weights(head, vec: np.ndarray) -> None:
    """Assign a ``flat_weights``-ordered vector to the head's tensors."""
    params = [p for _, p in head.parameters()]
    sizes = [p.data.size for p in params]
    if np.size(vec) != sum(sizes):
        raise ValueError(f"expected {sum(sizes)} weights, got {np.size(vec)}")
    pos = 0
    for p, n in zip(params, sizes):
        p.assign(np.reshape(vec[pos:pos + n], p.shape).copy())  # assign takes it over
        pos += n


def rewrite_checkpoint_header(src, dst, edit) -> None:
    """Copy a checkpoint file with its JSON header passed through ``edit``."""
    data = src.read_bytes()
    hlen = int.from_bytes(data[12:20], "little")
    header = json.loads(data[20:20 + hlen])
    edit(header)
    raw = json.dumps(header).encode()
    dst.write_bytes(data[:12] + len(raw).to_bytes(8, "little") + raw + data[20 + hlen:])


def poison_checkpoint_tensor(src, dst, name, value: float = np.nan) -> None:
    """Copy a checkpoint file with the first value of tensor ``name`` set to
    ``value``."""
    data = bytearray(src.read_bytes())
    hlen = int.from_bytes(data[12:20], "little")
    offset, = (e["offset"] for e in json.loads(data[20:20 + hlen])["tensors"]
               if e["name"] == name)
    start = 20 + hlen + offset
    data[start:start + 8] = np.array([value], "<f8").tobytes()
    dst.write_bytes(bytes(data))
