"""Naive in-memory reference merge, independent of the streaming engine.

Everything here is deliberately reimplemented from first principles: its own
container parsing, a scalar-integer SplitMix64/FNV-1a stream, lexsort-based
trimming, and dense whole-model arithmetic. Tests compare the production
engine against this oracle; the two sides share no merge code.
"""

import json
import math

import numpy as np

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def read_checkpoint_dense(path):
    """Parse the container with stdlib tools only: name -> float64 array."""
    with open(path, "rb") as f:
        header_len = int.from_bytes(f.read(8), "little")
        header = json.loads(f.read(header_len).decode("utf-8"))
        data = f.read()
    out = {}
    for name, entry in header.items():
        if name == "__metadata__":
            continue
        begin, end = entry["data_offsets"]
        raw = data[begin:end]
        if entry["dtype"] == "F32":
            vals = np.frombuffer(raw, dtype="<f4").astype(np.float64)
        elif entry["dtype"] == "F16":
            vals = np.frombuffer(raw, dtype="<f2").astype(np.float64)
        elif entry["dtype"] == "BF16":
            bits = np.frombuffer(raw, dtype="<u2").astype(np.uint32) << 16
            vals = bits.view(np.float32).astype(np.float64)
        else:
            raise ValueError(entry["dtype"])
        out[name] = vals
    return out


def fnv1a64_scalar(text):
    h = 0xCBF29CE484222325
    for b in text.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & MASK64
    return h


def splitmix_scalar(seed, count):
    out = []
    state = seed & MASK64
    for _ in range(count):
        state = (state + GAMMA) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        out.append(z ^ (z >> 31))
    return out


def dare_mask_dense(seed, task_index, tensor_name, count, p):
    """Keep-mask of the drop transform, from scalar integer arithmetic."""
    stream = (seed ^ fnv1a64_scalar(tensor_name) ^ ((task_index * GAMMA) & MASK64)) & MASK64
    draws = splitmix_scalar(stream, count)
    return np.array([(d / 2.0**64) >= p for d in draws], dtype=bool)


def trim_dense(v, density):
    """Top-ceil(density*n) magnitudes; threshold ties keep lower indices."""
    n = v.size
    k = math.ceil(density * n)
    if k >= n:
        return v.copy()
    # lexsort: last key is primary -> sort by magnitude desc, then index asc
    order = np.lexsort((np.arange(n), -np.abs(v)))
    out = np.zeros_like(v)
    out[order[:k]] = v[order[:k]]
    return out


def reference_merge(
    base_path,
    model_paths,
    method,
    transform="none",
    ties_density=0.55,
    dare_p=0.5,
    fixed_lambda=0.3,
    seed=0,
    norm_source="transformed",
    lambdas=None,
):
    """Dense re-derivation of the whole merge pipeline. Returns name -> f64."""
    base = read_checkpoint_dense(base_path)
    models = [read_checkpoint_dense(p) for p in model_paths]
    names = sorted(base)
    t_count = len(models)

    # a tensor missing from a model contributes a zero task vector
    raw_vectors = [
        {n: m[n] - base[n] if n in m else np.zeros_like(base[n]) for n in names}
        for m in models
    ]
    if transform == "ties":
        vectors = [{n: trim_dense(v[n], ties_density) for n in names} for v in raw_vectors]
    elif transform == "dare":
        vectors = [
            {
                n: np.where(
                    dare_mask_dense(seed, t, n, v[n].size, dare_p),
                    v[n] / (1.0 - dare_p),
                    0.0,
                )
                for n in names
            }
            for t, v in enumerate(raw_vectors)
        ]
    else:
        vectors = raw_vectors

    if lambdas is not None:
        pass  # externally supplied coefficients
    elif method == "weight_average":
        lambdas = [1.0 / t_count] * t_count
    elif method == "task_arithmetic_fixed":
        lambdas = [fixed_lambda] * t_count
    elif method == "metagpt":
        source = vectors if norm_source == "transformed" else raw_vectors
        sq = [math.fsum(float(np.sum(v[n] * v[n])) for n in names) for v in source]
        total = math.fsum(sq)
        lambdas = [s / total for s in sq]
    else:
        raise ValueError(method)

    out = {}
    for n in names:
        if transform == "ties":
            weighted = sum(lam * v[n] for lam, v in zip(lambdas, vectors))
            sign = np.sign(weighted)
            merged_tv = np.zeros_like(base[n])
            for lam, v in zip(lambdas, vectors):
                keep = (np.sign(v[n]) == sign) & (sign != 0)
                merged_tv += np.where(keep, lam * v[n], 0.0)
            out[n] = base[n] + merged_tv
        else:
            out[n] = base[n] + sum(lam * v[n] for lam, v in zip(lambdas, vectors))
    return out, lambdas
