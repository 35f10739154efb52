"""Shared test utilities: finite-difference oracles, tolerance checks, flat
weight vectors of a head and checkpoint header surgery."""

from __future__ import annotations

import json

import numpy as np

from synthdetect.tensor import frozen


def fd_gradient(f, params: dict[str, np.ndarray], step: float = 1e-4) -> dict[str, np.ndarray]:
    """Central finite differences of scalar f() w.r.t. each array of the
    name-keyed ``params``, which f must read from the dict on each call.

    f must be deterministic given the parameter values (re-seed any rng inside).
    Each evaluation sees a fresh read-only copy under the parameter's name.
    """
    grads = {}
    for name in list(params):
        base = params[name].copy()
        g = np.zeros_like(base)
        flat = base.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            params[name] = frozen(base.copy())
            hi = f()
            flat[i] = orig - step
            params[name] = frozen(base.copy())
            lo = f()
            flat[i] = orig
            gflat[i] = (hi - lo) / (2.0 * step)
        params[name] = frozen(base.copy())
        grads[name] = g
    return grads


def fd_gradient_coords(f, params: dict[str, np.ndarray], name: str, coords,
                       step: float = 1e-4) -> np.ndarray:
    """Central differences at selected flat coordinates of ``params[name]``."""
    base = params[name].copy()
    flat = base.reshape(-1)
    out = np.zeros(len(coords))
    for k, i in enumerate(coords):
        orig = flat[i]
        flat[i] = orig + step
        params[name] = frozen(base.copy())
        hi = f()
        flat[i] = orig - step
        params[name] = frozen(base.copy())
        lo = f()
        flat[i] = orig
        out[k] = (hi - lo) / (2.0 * step)
    params[name] = frozen(base.copy())
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
    return sum(w.size for w in head.params.values())


def flat_weights(head) -> np.ndarray:
    """The head's weights as one vector, in ``params`` order."""
    return np.concatenate([w.reshape(-1) for w in head.params.values()])


def set_flat_weights(head, vec: np.ndarray) -> None:
    """Write a ``flat_weights``-ordered vector into the head's ``params``."""
    sizes = [w.size for w in head.params.values()]
    if np.size(vec) != sum(sizes):
        raise ValueError(f"expected {sum(sizes)} weights, got {np.size(vec)}")
    pos = 0
    for (name, w), n in zip(list(head.params.items()), sizes):
        head.params[name] = frozen(np.reshape(vec[pos:pos + n], w.shape).copy())
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
