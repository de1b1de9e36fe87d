"""Workloads of the taskmerge benchmark.

Each workload is a seeded synthetic checkpoint family (a base plus T
fine-tuned models), the one operation the benchmark times on it, and the
correctness gate for that operation's output. The generator writes the
container format itself, so the inputs do not depend on the library's
writer; the gate compares against the independent dense merge in
``tests/dense_reference.py``.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"

# DARE's recipe seed is part of the workload, not of the input seed: the
# workload seed changes the checkpoints, never the recipe.
RECIPE_SEED = 20240617
_DTYPE_BYTES = {"F32": 4, "F16": 2, "BF16": 2}


def program_present() -> bool:
    return (SRC / "taskmerge" / "__init__.py").is_file() and (
        TESTS / "dense_reference.py"
    ).is_file()


def use_checkout() -> None:
    """Import taskmerge and the dense reference from this checkout."""
    for p in (str(TESTS), str(SRC)):
        if p not in sys.path:
            sys.path.insert(0, p)


def _transformer(vocab: int, d: int, ff: int, blocks: int) -> dict[str, tuple[int, ...]]:
    shapes = {"embed.weight": (vocab, d)}
    for b in range(blocks):
        p = f"blocks.{b}."
        for m in ("q", "k", "v", "o"):
            shapes[f"{p}attn.{m}.weight"] = (d, d)
        shapes[p + "mlp.up.weight"] = (ff, d)
        shapes[p + "mlp.down.weight"] = (d, ff)
        shapes[p + "norm1.weight"] = (d,)
        shapes[p + "norm2.weight"] = (d,)
    return dict(sorted(shapes.items()))


@dataclass(frozen=True)
class Workload:
    name: str
    dtype: str
    shapes: dict[str, tuple[int, ...]]
    tasks: int
    # MergeRecipe fields beyond base/tasks/output; None times compute_stats
    recipe: dict | None

    @property
    def params(self) -> int:
        return sum(math.prod(s) for s in self.shapes.values())

    @property
    def largest(self) -> int:
        return max(math.prod(s) for s in self.shapes.values())

    @property
    def is_merge(self) -> bool:
        return self.recipe is not None

    def inputs(self, directory: Path) -> tuple[str, list[str]]:
        d = Path(directory)
        return str(d / "base.st"), [str(d / f"task{t}.st") for t in range(self.tasks)]

    def recipe_dict(self, directory: Path, output: str) -> dict:
        base, models = self.inputs(directory)
        tasks = [{"id": f"task{t}", "path": p} for t, p in enumerate(models)]
        return {"base": base, "tasks": tasks, "output": output, **self.recipe}


# Shapes and recipes as bench/README.md describes them, with why each is here.
_MID = _transformer(2048, 512, 1408, 1)
WORKLOADS = {
    w.name: w
    for w in (
        Workload("merge-plain", "BF16", _transformer(8192, 1024, 2816, 2), 4,
                 {"method": "metagpt", "transform": "none", "output_dtype": "base"}),
        Workload("merge-ties", "BF16", _MID, 4,
                 {"method": "metagpt", "transform": "ties", "ties_density": 0.2,
                  "norm_source": "transformed"}),
        Workload("merge-dare", "F32", _MID, 8,
                 {"method": "metagpt", "transform": "dare", "dare_p": 0.9,
                  "seed": RECIPE_SEED}),
        Workload("stats-gram", "F16",
                 {f"layers.{i:04d}.weight": (64, 64) for i in range(1024)}, 8, None),
    )
}

# The scalar reference stream of DARE takes minutes at full size, so the
# merge-dare gate checks the same recipe on these shapes.
DARE_CHECK = Workload(
    "merge-dare-check", "F32", _transformer(64, 32, 88, 1), 8, WORKLOADS["merge-dare"].recipe
)


def find(name: str) -> Workload:
    """A benchmark workload, or the scaled-down check instance."""
    return DARE_CHECK if name == DARE_CHECK.name else WORKLOADS[name]


# ---------------------------------------------------------------- generation

def _uniform(rng: np.random.Generator, n: int, scale: float) -> np.ndarray:
    """n float32 values spread uniformly over (-scale, scale)."""
    v = rng.integers(-32767, 32768, n, dtype=np.int16).astype(np.float32)
    v *= np.float32(scale / 32768)
    return v


def _stored(values: np.ndarray, dtype: str) -> np.ndarray:
    """float32 values in the little-endian storage layout of *dtype*."""
    if dtype == "F32":
        return values.astype("<f4", copy=False)
    if dtype == "F16":
        return values.astype("<f2")
    # BF16: the upper half of the float32 bit pattern
    return (values.view("<u4") >> np.uint32(16)).astype("<u2")


def _header(w: Workload, metadata: dict[str, str] | None) -> bytes:
    header: dict = {}
    if metadata is not None:
        header["__metadata__"] = metadata
    offset = 0
    for name, shape in w.shapes.items():
        size = math.prod(shape) * _DTYPE_BYTES[w.dtype]
        header[name] = {"dtype": w.dtype, "shape": list(shape),
                        "data_offsets": [offset, offset + size]}
        offset += size
    raw = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return len(raw).to_bytes(8, "little") + raw


def generate(w: Workload, seed: int, directory: Path) -> tuple[str, list[str]]:
    """Write the base and T fine-tuned checkpoints; the same seed gives the
    same bytes. Task t moves (1 + t/2) times as far as task 0, so the
    closed-form coefficients differ."""
    base_path, model_paths = w.inputs(directory)
    Path(directory).mkdir(parents=True, exist_ok=True)
    rngs = [np.random.default_rng([seed, i]) for i in range(w.tasks + 1)]
    base_scale = 0.5 if w.dtype == "F16" else 0.02
    files = [open(p, "wb") for p in [base_path] + model_paths]
    try:
        meta = {"workload": w.name, "seed": str(seed)}
        for i, f in enumerate(files):
            f.write(_header(w, meta if i == 0 else None))
        for name, shape in w.shapes.items():
            n = math.prod(shape)
            base = _uniform(rngs[0], n, base_scale)
            files[0].write(_stored(base, w.dtype))
            for t in range(w.tasks):
                step = base_scale * 0.1 * (1.0 + t / 2)
                files[t + 1].write(_stored(base + _uniform(rngs[t + 1], n, step), w.dtype))
    finally:
        for f in files:
            f.close()
    return base_path, model_paths


# ---------------------------------------------------------------- operations

class Operation:
    """The one timed operation of a workload, run through the public API.

    Library functions are looked up on their modules at call time, so the
    traced run's wrappers see every call."""

    def __init__(self, w: Workload, directory: Path):
        use_checkout()
        from taskmerge import merge_engine, task_vectors, tensor_store

        self.w = w
        self._engine, self._tv, self._store = merge_engine, task_vectors, tensor_store
        self.base, self.models = w.inputs(directory)
        self.output = str(Path(directory) / "merged.st")
        self.recipe = (
            merge_engine.MergeRecipe.from_dict(w.recipe_dict(directory, self.output))
            if w.is_merge else None
        )

    def __call__(self):
        if self.recipe is not None:
            return self._engine.run_recipe(self.recipe)[1]
        base = self._store.open_checkpoint(self.base)
        models = [self._store.open_checkpoint(p) for p in self.models]
        return self._tv.compute_stats(base, models, want_gram=True)

    def fingerprint(self, result) -> str:
        """Digest of everything the operation produced."""
        h = hashlib.sha256()
        if self.recipe is not None:
            h.update(result.to_json().encode("utf-8"))
            with open(self.output, "rb") as f:
                for chunk in iter(lambda: f.read(1 << 20), b""):
                    h.update(chunk)
        else:
            h.update(json.dumps(result.sq_norms).encode("utf-8"))
            h.update(result.gram.tobytes())
        return h.hexdigest()

    def save_first(self, result, path: Path) -> None:
        """Keep the first output for the dense gate."""
        if self.recipe is not None:
            shutil.copyfile(self.output, path)
        else:
            Path(path).write_text(json.dumps(
                {"sq_norms": result.sq_norms, "gram": result.gram.tolist()}))

    def cli_args(self, recipe_path: Path) -> list[str]:
        """Arguments of the `taskmerge` command that runs the same operation;
        writes the recipe file a merge needs."""
        if self.recipe is not None:
            Path(recipe_path).write_text(json.dumps(self.recipe.to_dict()))
            return ["merge", "--recipe", str(recipe_path)]
        return ["stats", "--gram", self.base, *self.models]


# ---------------------------------------------------------------- dense gate

def _spacing(ref: np.ndarray, dtype: str) -> np.ndarray:
    """One unit in the last place of *dtype* at each reference value."""
    mag = np.abs(ref)
    if dtype == "F16":
        return np.spacing(mag.astype(np.float16)).astype(np.float64)
    ulp32 = np.spacing(mag.astype(np.float32)).astype(np.float64)
    return ulp32 * 65536.0 if dtype == "BF16" else ulp32


def merged_matches_reference(w: Workload, directory: Path, output: str) -> str | None:
    """Compare a merged file with the dense reference merge; None if it
    agrees within one unit of the output dtype, else what differs."""
    use_checkout()
    import dense_reference

    base, models = w.inputs(directory)
    r = w.recipe
    ref, _ = dense_reference.reference_merge(
        base, models, r["method"], transform=r["transform"],
        ties_density=r.get("ties_density", 0.55), dare_p=r.get("dare_p", 0.5),
        seed=r.get("seed", 0), norm_source=r.get("norm_source", "transformed"),
    )
    got = dense_reference.read_checkpoint_dense(output)
    if sorted(got) != sorted(ref):
        return f"tensor names differ: {sorted(set(got) ^ set(ref))}"
    out_dtype = "F32" if r.get("output_dtype") == "F32" else w.dtype
    for name in sorted(ref):
        if got[name].shape != ref[name].shape:
            return f"'{name}' has {got[name].size} values, the reference {ref[name].size}"
        err = np.abs(got[name] - ref[name])
        if not np.all(err <= _spacing(ref[name], out_dtype)):  # NaN fails too
            return f"'{name}' differs from the dense reference by up to {np.nanmax(err):.3g}"
    return None


def stats_match_dense(w: Workload, directory: Path, first: Path) -> str | None:
    """Compare saved norms and Gram matrix with a dense numpy computation."""
    use_checkout()
    import dense_reference

    base_path, model_paths = w.inputs(directory)
    base = dense_reference.read_checkpoint_dense(base_path)
    names = sorted(base)
    vectors = np.empty((w.tasks, w.params))
    for t, p in enumerate(model_paths):
        m = dense_reference.read_checkpoint_dense(p)
        vectors[t] = np.concatenate([m[n] - base[n] for n in names])
    gram = vectors @ vectors.T
    got = json.loads(Path(first).read_text())
    if not np.allclose(got["sq_norms"], np.diag(gram), rtol=1e-9, atol=0.0):
        return "squared norms differ from the dense computation"
    if not np.allclose(got["gram"], gram, rtol=1e-9, atol=1e-12 * np.diag(gram).max()):
        return "Gram matrix differs from the dense computation"
    return None


def check_first_output(w: Workload, seed: int, directory: Path, first: Path) -> str | None:
    """The dense gate on the first output of a run; None when it passes."""
    if not w.is_merge:
        return stats_match_dense(w, directory, first)
    if w.name != "merge-dare":
        return merged_matches_reference(w, directory, str(first))
    small = Path(directory) / "dare-check"
    generate(DARE_CHECK, seed, small)
    op = Operation(DARE_CHECK, small)
    op()
    return merged_matches_reference(DARE_CHECK, small, op.output)
