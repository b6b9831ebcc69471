"""Shared value types: data blocks, hyper-parameters, solver states, checkpoints.

Every type here is an immutable value object: array fields are copied on
construction and marked read-only, so instances can be shared freely across
threads.  Solver operations never mutate a state; they return new ones.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "NumericsError",
    "DataBlock",
    "Hyperparams",
    "RiccatiState",
    "ModelSolution",
    "PdhgState",
    "Checkpoint",
    "new_state",
    "validate_block",
    "data_fit_value",
    "read_checkpoint",
    "write_checkpoint",
    "read_blocks",
    "write_blocks",
]

CHECKPOINT_VERSION = "1"


class NumericsError(RuntimeError):
    """Numerical failure: non-finite integration, lost definiteness, bad solve."""


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype, copy=True)
    arr.flags.writeable = False
    return arr


def _set(obj, name, value):
    object.__setattr__(obj, name, value)


@dataclass(frozen=True)
class DataBlock:
    """One data-fitting term: m x n feature matrix, m targets, weight lam >= 0."""

    phi: np.ndarray
    y: np.ndarray
    lam: float = 1.0

    def __post_init__(self):
        phi = _frozen_array(self.phi)
        y = _frozen_array(self.y)
        if phi.ndim != 2:
            raise ValueError(f"phi must be 2-D, got shape {phi.shape}")
        if y.ndim != 1:
            raise ValueError(f"y must be 1-D, got shape {y.shape}")
        if y.shape[0] != phi.shape[0]:
            raise ValueError(
                f"y length {y.shape[0]} does not match phi row count {phi.shape[0]}"
            )
        lam = float(self.lam)
        if not math.isfinite(lam) or lam < 0.0:
            raise ValueError(f"lam must be finite and >= 0, got {lam}")
        if not np.isfinite(phi).all() or not np.isfinite(y).all():
            raise ValueError("phi and y must be finite")
        _set(self, "phi", phi)
        _set(self, "y", y)
        _set(self, "lam", lam)

    @property
    def m(self) -> int:
        return self.phi.shape[0]

    @property
    def n(self) -> int:
        return self.phi.shape[1]


def validate_block(block: DataBlock, n: int) -> None:
    """Check that ``block`` fits a model with ``n`` parameters.

    Internal consistency (finiteness, matching y length, lam >= 0) is already
    enforced by the DataBlock constructor; this adds the cross-check against
    the model dimension.
    """
    if not isinstance(block, DataBlock):
        raise TypeError(f"expected DataBlock, got {type(block).__name__}")
    if block.n != n:
        raise ValueError(f"block has {block.n} feature columns, model expects {n}")


def data_fit_value(theta, blocks) -> float:
    """The data-fit term 1/2 sum_i lam_i ||phi_i theta - y_i||^2, in block order."""
    data_fit = 0.0
    for block in blocks:
        resid = block.phi @ theta - block.y
        data_fit += 0.5 * block.lam * float(resid @ resid)
    return data_fit


@dataclass(frozen=True)
class Hyperparams:
    """Regularization weights (strictly positive diagonal) and prior bias."""

    gamma: np.ndarray
    theta0: np.ndarray

    def __post_init__(self):
        gamma = _frozen_array(self.gamma)
        theta0 = _frozen_array(self.theta0)
        if gamma.ndim != 1 or theta0.ndim != 1:
            raise ValueError("gamma and theta0 must be 1-D")
        if gamma.shape != theta0.shape:
            raise ValueError(
                f"gamma length {gamma.shape[0]} != theta0 length {theta0.shape[0]}"
            )
        if not np.isfinite(gamma).all() or not np.isfinite(theta0).all():
            raise ValueError("gamma and theta0 must be finite")
        if (gamma <= 0.0).any():
            raise ValueError("every gamma entry must be > 0")
        _set(self, "gamma", gamma)
        _set(self, "theta0", theta0)

    @property
    def n(self) -> int:
        return self.gamma.shape[0]

    def evaluation_point(self) -> np.ndarray:
        """Point at which the value function is evaluated: gamma * theta0."""
        return self.gamma * self.theta0

    def with_gamma(self, gamma) -> "Hyperparams":
        return Hyperparams(gamma=gamma, theta0=self.theta0)

    def with_theta0(self, theta0) -> "Hyperparams":
        return Hyperparams(gamma=self.gamma, theta0=theta0)


@dataclass(frozen=True)
class RiccatiState:
    """Quadratic value-function coefficients: matrix p, vector q, optional scalar r.

    ``r`` accumulates the constant part of the value function (used to recover
    the minimal loss); ``elapsed`` is the total integrated time, i.e. the sum
    of processed data weights.
    """

    p: np.ndarray
    q: np.ndarray
    r: float | None = 0.0
    elapsed: float = 0.0

    def __post_init__(self):
        p = _frozen_array(self.p)
        q = _frozen_array(self.q)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ValueError(f"p must be square, got shape {p.shape}")
        if q.ndim != 1 or q.shape[0] != p.shape[0]:
            raise ValueError(f"q length {q.shape} does not match p {p.shape}")
        if not np.isfinite(p).all() or not np.isfinite(q).all():
            raise NumericsError("non-finite entries in state")
        r = self.r
        if r is not None:
            r = float(r)
            if not math.isfinite(r):
                raise NumericsError("non-finite loss accumulator")
        elapsed = float(self.elapsed)
        if not math.isfinite(elapsed) or elapsed < 0.0:
            raise ValueError(f"elapsed must be finite and >= 0, got {elapsed}")
        _set(self, "p", p)
        _set(self, "q", q)
        _set(self, "r", r)
        _set(self, "elapsed", elapsed)

    @property
    def n(self) -> int:
        return self.p.shape[0]

    def symmetry_defect(self) -> float:
        """Max-norm of p - p^T."""
        return float(np.max(np.abs(self.p - self.p.T))) if self.n else 0.0

    def is_spd(self) -> bool:
        """Whether p admits a Cholesky factorization."""
        try:
            np.linalg.cholesky(self.p)
            return True
        except np.linalg.LinAlgError:
            return False


def new_state(hyper: Hyperparams, track_loss: bool = True) -> RiccatiState:
    """Fresh state: p = diag(1/gamma), q = 0, r = 0, elapsed = 0."""
    p = np.diag(1.0 / hyper.gamma)
    q = np.zeros(hyper.n)
    return RiccatiState(p=p, q=q, r=0.0 if track_loss else None, elapsed=0.0)


@dataclass(frozen=True)
class ModelSolution:
    """Minimizer plus loss diagnostics.

    ``data_fit`` and ``reg_value`` are only filled when the data blocks were
    available to evaluate them; ``total_loss`` may also come from the value
    function identity when the loss accumulator was tracked.
    """

    theta_star: np.ndarray
    data_fit: float | None = None
    reg_value: float | None = None
    total_loss: float | None = None

    def __post_init__(self):
        theta = _frozen_array(self.theta_star)
        if theta.ndim != 1:
            raise ValueError("theta_star must be 1-D")
        if not np.isfinite(theta).all():
            raise NumericsError("non-finite minimizer")
        _set(self, "theta_star", theta)
        for name in ("data_fit", "reg_value", "total_loss"):
            v = getattr(self, name)
            _set(self, name, None if v is None else float(v))
        if (
            self.data_fit is not None
            and self.reg_value is not None
            and self.total_loss is not None
        ):
            total = self.data_fit + self.reg_value
            scale = max(abs(total), abs(self.total_loss), 1e-300)
            if abs(total - self.total_loss) > 1e-10 * scale:
                raise ValueError(
                    "total_loss is inconsistent with data_fit + reg_value"
                )


@dataclass(frozen=True)
class PdhgState:
    """Primal-dual iterate pair with extrapolation and step sizes."""

    theta: np.ndarray
    w: np.ndarray
    theta_bar: np.ndarray
    sigma_theta: float
    sigma_w: float
    iteration: int = 0

    def __post_init__(self):
        for name in ("theta", "w", "theta_bar"):
            _set(self, name, _frozen_array(getattr(self, name)))
        st = float(self.sigma_theta)
        sw = float(self.sigma_w)
        if st <= 0.0 or sw <= 0.0:
            raise ValueError("step sizes must be positive")
        if st * sw >= 1.0:
            raise ValueError(
                f"step sizes must satisfy sigma_theta * sigma_w < 1, got {st * sw}"
            )
        if self.iteration < 0:
            raise ValueError("iteration must be >= 0")
        _set(self, "sigma_theta", st)
        _set(self, "sigma_w", sw)
        _set(self, "iteration", int(self.iteration))


@dataclass(frozen=True)
class Checkpoint:
    """Serializable snapshot of a trained model: hyper-parameters plus state."""

    version: str
    n: int
    hyperparams: Hyperparams
    state: RiccatiState
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if self.n != self.hyperparams.n or self.n != self.state.n:
            raise ValueError("checkpoint dimension mismatch")
        meta = {str(k): str(v) for k, v in self.metadata.items()}
        _set(self, "metadata", meta)

    def with_state(self, state: RiccatiState) -> "Checkpoint":
        return replace(self, state=state)

    def with_hyperparams(self, hyper: Hyperparams) -> "Checkpoint":
        if hyper.n != self.n:
            raise ValueError("hyperparams dimension mismatch")
        return replace(self, hyperparams=hyper)


# ---------------------------------------------------------------------------
# On-disk formats.  Checkpoints are a single JSON document; block streams are
# JSON Lines, one {"phi": [[...]], "y": [...], "lambda": w} object per block.
# Python's float repr is shortest-round-trip, so numeric payloads survive
# write/read bit-for-bit.
# ---------------------------------------------------------------------------


def checkpoint_to_dict(ck: Checkpoint) -> dict:
    return {
        "version": ck.version,
        "n": ck.n,
        "gamma": ck.hyperparams.gamma.tolist(),
        "theta0": ck.hyperparams.theta0.tolist(),
        "p": ck.state.p.reshape(-1).tolist(),
        "q": ck.state.q.tolist(),
        "r": ck.state.r,
        "elapsed": ck.state.elapsed,
        "metadata": dict(ck.metadata),
    }


def checkpoint_from_dict(doc: dict) -> Checkpoint:
    try:
        version = str(doc["version"])
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version!r}")
        n = int(doc["n"])
        hyper = Hyperparams(gamma=doc["gamma"], theta0=doc["theta0"])
        p = np.array(doc["p"], dtype=float).reshape(n, n)
        state = RiccatiState(p=p, q=doc["q"], r=doc["r"], elapsed=doc["elapsed"])
    except KeyError as exc:
        raise ValueError(f"not a checkpoint document: missing key {exc}") from exc
    return Checkpoint(
        version=version,
        n=n,
        hyperparams=hyper,
        state=state,
        metadata=dict(doc.get("metadata", {})),
    )


def write_checkpoint(ck: Checkpoint, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        # json.dumps runs the C encoder; json.dump to a file streams through
        # the pure-Python one.  The bytes are the same.
        fh.write(json.dumps(checkpoint_to_dict(ck)) + "\n")


def read_checkpoint(path) -> Checkpoint:
    with open(path, "r", encoding="utf-8") as fh:
        return checkpoint_from_dict(json.load(fh))


def block_to_dict(block: DataBlock) -> dict:
    return {
        "phi": block.phi.tolist(),
        "y": block.y.tolist(),
        "lambda": block.lam,
    }


def block_from_dict(doc: dict) -> DataBlock:
    return DataBlock(phi=doc["phi"], y=doc["y"], lam=doc.get("lambda", 1.0))


def write_blocks(blocks, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for block in blocks:
            fh.write(json.dumps(block_to_dict(block)) + "\n")


def read_blocks(path) -> list[DataBlock]:
    blocks = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                blocks.append(block_from_dict(json.loads(line)))
            except (json.JSONDecodeError, KeyError) as exc:
                raise ValueError(f"{path}:{line_no}: bad block record: {exc}") from exc
    return blocks
