"""Seeded input generation for the benchmark, independent of the package.

The generator is a private copy of splitmix64 so that the inputs stay fixed
even when the package's own random helpers change. Every value is drawn by
hashing (seed, stream, index...), so inputs do not depend on draw order.
The numpy form of the mixer gives the same 64-bit values as the integer
form; the float transforms on top of it (log1p, cos) are numpy's.
Systems and datasets are returned as plain text or tuples; the workloads
turn them into package objects.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4B7C15) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def mix(*parts: int) -> int:
    acc = 0
    for p in parts:
        acc = splitmix64((acc ^ (p & MASK64)) & MASK64)
    return acc


def _splitmix64_array(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        x = x + np.uint64(0x9E3779B97F4B7C15)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def mix_array(*parts) -> np.ndarray:
    """mix() over broadcast integer arrays; uint64 arithmetic wraps like MASK64."""
    arrays = [np.asarray(p, dtype=np.uint64) for p in parts]
    acc = np.zeros(np.broadcast_shapes(*(a.shape for a in arrays)), dtype=np.uint64)
    for a in arrays:
        acc = _splitmix64_array(acc ^ a)
    return acc


def normal_array(*parts) -> np.ndarray:
    """Standard normal deviates by Box-Muller on two hashed uniforms each."""
    scale = 1.0 / float(1 << 53)
    u1 = (mix_array(*parts, 1) >> np.uint64(11)).astype(np.float64) * scale
    u2 = (mix_array(*parts, 2) >> np.uint64(11)).astype(np.float64) * scale
    return np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * np.pi * u2)


def updirected_succ(key: int, n: int, density_pct: int = 35) -> tuple[int, ...]:
    """Successor masks of a random relation repaired to up-directedness.

    Each pair (a, b) is an edge with probability density_pct/100; every
    pair left without a common successor then gets one appointed.
    """
    succ = [0] * n
    for a in range(n):
        for b in range(n):
            if mix(key, a, b) % 100 < density_pct:
                succ[a] |= 1 << b
    for a in range(n):
        for b in range(a, n):
            if not succ[a] & succ[b]:
                t = mix(key, a, b, 7) % n
                succ[a] |= 1 << t
                succ[b] |= 1 << t
    return tuple(succ)


def labels(n: int) -> tuple[str, ...]:
    """Element labels whose string order is their id order (v00, v01, ...),
    so a tie-break by sorted labels and one by element id agree."""
    return tuple(f"v{i:02d}" for i in range(n))


def relation_text(succ: tuple[int, ...]) -> str:
    """The package's relation file format, over the elements labels(n)."""
    lab = labels(len(succ))
    lines = ["elements: " + " ".join(lab)]
    lines += [f"{lab[a]} {lab[b]}" for a, row in enumerate(succ) for b in range(len(succ)) if row >> b & 1]
    return "\n".join(lines) + "\n"


def subset(key: int, n: int, k: int) -> int:
    """A non-empty random subset mask of an n-element universe."""
    full = (1 << n) - 1
    return (mix(key, k) & full) or 1 << (mix(key, k, 1) % n)


def blob_csv(key: int, rows: int, dim: int = 4, blobs: int = 3) -> str:
    """Gaussian blobs of non-negative band intensities as dataset CSV.

    Blob centres sit on a coarse grid far apart relative to the spread,
    so the step-1 relation has a few dense components.
    """
    centres = [
        [10.0 + 20.0 * (mix(key, 900, c, j) % 4) for j in range(dim)]
        for c in range(blobs)
    ]
    r = np.arange(rows)
    which = mix_array(key, 901, r) % np.uint64(blobs)
    noise = normal_array(key, 902, r[:, None], np.arange(dim)[None, :])
    vals = np.maximum(0.0, np.asarray(centres)[which.astype(np.intp)] + 1.5 * noise)
    lines = ["id," + ",".join(f"b{j}" for j in range(dim))]
    lines += [f"r{i}," + ",".join(f"{v:.4f}" for v in row) for i, row in enumerate(vals.tolist())]
    return "\n".join(lines) + "\n"


def fingerprint(inputs) -> str:
    """sha256 of a canonical JSON rendering of the generated inputs."""
    blob = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
