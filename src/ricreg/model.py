"""Shared value types: data blocks, hyper-parameters, solver states, checkpoints.

Every type here is an immutable value object whose array fields are
read-only, so instances can be shared freely across threads.  Solver
operations never mutate a state; they return new ones.

Each array is checked and copied once, where it enters a value object.  An
array from outside the library (any public constructor, the new weights of
``Hyperparams.with_gamma``, the new bias of ``with_theta0``) is copied,
checked and frozen.  An array that a library operation has just allocated
(the p and q of a flow step, a minimizer) is frozen in place and adopted,
after the same checks, each run once: a field taken over from another value
object, or a finiteness scan that the operation has already made, is not
repeated.  The blocks of one ``read_blocks`` call or generated stream are
read-only, non-overlapping views of one stack, checked once.
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
    "Checkpoint",
    "new_state",
    "validate_block",
    "data_fit_value",
    "weighted_rows",
    "read_checkpoint",
    "write_checkpoint",
    "read_blocks",
    "write_blocks",
]

CHECKPOINT_VERSION = "1"


def _check_version(version) -> str:
    """``version`` itself if it is the one this library reads and writes."""
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version!r}")
    return version


class NumericsError(RuntimeError):
    """Numerical failure: non-finite integration, lost definiteness, bad solve."""


def _frozen_array(values, dtype=float) -> np.ndarray:
    """A read-only copy of ``values``: for arrays from outside the library."""
    return _frozen(np.array(values, dtype=dtype, copy=True))


def _frozen(arr: np.ndarray) -> np.ndarray:
    """``arr`` itself, made read-only: for an array that an operation has just
    allocated and that nothing else holds."""
    arr.flags.writeable = False
    return arr


def _init(obj, fields: dict) -> None:
    # Filling __dict__ directly skips the frozen __setattr__ guard, at a third
    # of the cost of object.__setattr__ per field.
    obj.__dict__.update(fields)


def _adopt(cls, fields: dict):
    """An instance of the frozen dataclass ``cls`` over ``fields`` that are
    already checked and frozen, without ``__post_init__``."""
    obj = object.__new__(cls)
    _init(obj, fields)
    return obj


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
        _init(self, {"phi": phi, "y": y, "lam": lam})

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


def weighted_rows(blocks, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows of the blocks with lam > 0, each scaled by sqrt(lam), stacked
    in block order as (Phi~, y~), after checking every block against ``n``.

    Then 1/2 sum_i lam_i ||phi_i theta - y_i||^2 = 1/2 ||Phi~ theta - y~||^2:
    the whole stream as one unit-weight block.
    """
    kept = []
    for block in blocks:
        validate_block(block, n)
        if block.lam != 0.0:
            kept.append(block)
    if not kept:
        return np.empty((0, n)), np.empty(0)
    scale = np.repeat(np.sqrt([b.lam for b in kept]), [b.m for b in kept])
    phi = np.concatenate([b.phi for b in kept])
    phi *= scale[:, None]
    y = np.concatenate([b.y for b in kept])
    y *= scale
    return phi, y


def data_fit_value(theta, blocks) -> float:
    """The data-fit term 1/2 sum_i lam_i ||phi_i theta - y_i||^2, as one
    stacked residual."""
    phi, y = weighted_rows(blocks, len(theta))
    resid = phi.dot(theta) - y
    return 0.5 * float(resid.dot(resid))


@dataclass(frozen=True)
class Hyperparams:
    """Regularization weights (strictly positive diagonal) and prior bias."""

    gamma: np.ndarray
    theta0: np.ndarray

    def __post_init__(self):
        _init(self, _hyper_fields(_frozen_array(self.gamma), _frozen_array(self.theta0)))

    @property
    def n(self) -> int:
        return self.gamma.shape[0]

    def evaluation_point(self) -> np.ndarray:
        """Point at which the value function is evaluated: gamma * theta0."""
        return self.gamma * self.theta0

    def with_gamma(self, gamma) -> "Hyperparams":
        """New weights (copied and checked as in the constructor), same bias."""
        fields = _hyper_fields(_frozen_array(gamma), self.theta0, new_theta0=False)
        return _adopt(Hyperparams, fields)

    def with_theta0(self, theta0) -> "Hyperparams":
        """New bias (copied and checked as in the constructor), same weights."""
        fields = _hyper_fields(self.gamma, _frozen_array(theta0), new_gamma=False)
        return _adopt(Hyperparams, fields)


def _hyper_fields(gamma, theta0, new_gamma=True, new_theta0=True) -> dict:
    # The checks of Hyperparams, in the constructor's order; the scans of
    # values run only for the arrays that are new, the others being the
    # fields of a Hyperparams already.
    if gamma.ndim != 1 or theta0.ndim != 1:
        raise ValueError("gamma and theta0 must be 1-D")
    if gamma.shape != theta0.shape:
        raise ValueError(
            f"gamma length {gamma.shape[0]} != theta0 length {theta0.shape[0]}"
        )
    if (new_gamma and not np.isfinite(gamma).all()) or (
        new_theta0 and not np.isfinite(theta0).all()
    ):
        raise ValueError("gamma and theta0 must be finite")
    if new_gamma and (gamma <= 0.0).any():
        raise ValueError("every gamma entry must be > 0")
    return {"gamma": gamma, "theta0": theta0}


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
        p, q = _frozen_array(self.p), _frozen_array(self.q)
        _init(self, _state_fields(p, q, self.r, self.elapsed))

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


def _state_fields(p, q, r, elapsed) -> dict:
    # The checks of RiccatiState: the one scan of p and q that every state,
    # however it was made, goes through.
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValueError(f"p must be square, got shape {p.shape}")
    if q.ndim != 1 or q.shape[0] != p.shape[0]:
        raise ValueError(f"q length {q.shape} does not match p {p.shape}")
    if not np.isfinite(p).all() or not np.isfinite(q).all():
        raise NumericsError("non-finite entries in state")
    if r is not None:
        r = float(r)
        if not math.isfinite(r):
            raise NumericsError("non-finite loss accumulator")
    elapsed = float(elapsed)
    if not math.isfinite(elapsed) or elapsed < 0.0:
        raise ValueError(f"elapsed must be finite and >= 0, got {elapsed}")
    return {"p": p, "q": q, "r": r, "elapsed": elapsed}


def _new_state(cls, p, q, r, elapsed):
    """A ``cls`` (RiccatiState or a subclass) over the p and q that an
    operation has just built, frozen in place, after the constructor's checks."""
    return _adopt(cls, _state_fields(_frozen(p), _frozen(q), r, elapsed))


def new_state(hyper: Hyperparams) -> RiccatiState:
    """Fresh state: p = diag(1/gamma), q = 0, r = 0, elapsed = 0."""
    p = np.diag(1.0 / hyper.gamma)
    q = np.zeros(hyper.n)
    return _new_state(RiccatiState, p, q, 0.0, 0.0)


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
        _init(self, _solution_fields(theta, self.data_fit, self.reg_value, self.total_loss))


def _solution_fields(theta, data_fit, reg_value, total_loss) -> dict:
    # The checks of ModelSolution.
    if theta.ndim != 1:
        raise ValueError("theta_star must be 1-D")
    if not np.isfinite(theta).all():
        raise NumericsError("non-finite minimizer")
    data_fit, reg_value, total_loss = [
        None if v is None else float(v) for v in (data_fit, reg_value, total_loss)
    ]
    if data_fit is not None and reg_value is not None and total_loss is not None:
        total = data_fit + reg_value
        scale = max(abs(total), abs(total_loss), 1e-300)
        if abs(total - total_loss) > 1e-10 * scale:
            raise ValueError("total_loss is inconsistent with data_fit + reg_value")
    return {
        "theta_star": theta,
        "data_fit": data_fit,
        "reg_value": reg_value,
        "total_loss": total_loss,
    }


def _new_solution(theta, data_fit=None, reg_value=None, total_loss=None) -> ModelSolution:
    """A ModelSolution over a minimizer that an operation has just built,
    frozen in place, after the constructor's checks."""
    return _adopt(ModelSolution, _solution_fields(_frozen(theta), data_fit, reg_value, total_loss))


def _fitted_solution(theta, hyper: Hyperparams, blocks) -> ModelSolution:
    """``_new_solution`` with the data-fit and regularization values of
    ``theta`` evaluated on ``blocks``; total_loss is their sum."""
    data_fit = data_fit_value(theta, blocks)
    diff = theta - hyper.theta0
    reg_value = 0.5 * float(hyper.gamma @ (diff * diff))
    return _new_solution(theta, data_fit, reg_value, data_fit + reg_value)


@dataclass(frozen=True)
class Checkpoint:
    """Serializable snapshot of a trained model: hyper-parameters plus state."""

    version: str
    n: int
    hyperparams: Hyperparams
    state: RiccatiState
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        _check_version(self.version)
        if self.n != self.hyperparams.n or self.n != self.state.n:
            raise ValueError("checkpoint dimension mismatch")
        meta = {str(k): str(v) for k, v in self.metadata.items()}
        _init(self, {"metadata": meta})

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
        version = _check_version(str(doc["version"]))
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


def _stacked_blocks(records) -> list[DataBlock] | None:
    # All records as the views of one (rows x n) stack and one target vector
    # (``_block_views``); None if any record fails a check, so that the
    # caller builds each record with the constructor and reports its message
    # (or accepts a stream whose blocks differ in n).
    try:
        rows, targets, lams, bounds = [], [], [], [0]
        for doc in records:
            phi, y = doc["phi"], doc["y"]
            if type(phi) is not list or type(y) is not list or not phi or len(y) != len(phi):
                return None
            rows += phi
            targets += y
            lams.append(float(doc.get("lambda", 1.0)))
            bounds.append(len(rows))
        phi_all = np.array(rows, dtype=float)
        y_all = np.array(targets, dtype=float)
    except (KeyError, ValueError, TypeError):
        return None
    if phi_all.ndim != 2 or y_all.ndim != 1:
        return None
    try:
        return _block_views(phi_all, y_all, lams, bounds)
    except ValueError:
        return None


def _block_views(phi, y, lams, bounds) -> list[DataBlock]:
    """One DataBlock per weight ``lams[i]``, over rows ``bounds[i]:bounds[i + 1]``
    of the new stacks ``phi`` and ``y``, checked once and frozen in place.  If
    a check fails, the constructor raises the first bad block's error."""
    if not (all(0.0 <= lam < math.inf for lam in lams)
            and np.isfinite(phi).all() and np.isfinite(y).all()):
        for start, stop, lam in zip(bounds, bounds[1:], lams):
            DataBlock(phi[start:stop], y[start:stop], lam)
    phi, y = _frozen(phi), _frozen(y)
    blocks = []
    for start, stop, lam in zip(bounds, bounds[1:], lams):
        # Set one by one, a block's fields take ~140 bytes less than _adopt's dict.
        block = object.__new__(DataBlock)
        object.__setattr__(block, "phi", phi[start:stop])
        object.__setattr__(block, "y", y[start:stop])
        object.__setattr__(block, "lam", lam)
        blocks.append(block)
    return blocks


def write_blocks(blocks, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for block in blocks:
            fh.write(json.dumps(block_to_dict(block)) + "\n")


def read_blocks(path) -> list[DataBlock]:
    """Read a JSON-Lines block stream.  A bad record raises ``ValueError``
    naming the file and line."""
    records, line_nos = [], []
    decode = json.JSONDecoder().raw_decode
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                doc, end = decode(line)
            except json.JSONDecodeError:
                end = -1
            if end != len(line):  # not one JSON value: json.loads gives the error
                try:
                    doc = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValueError(f"{path}:{line_no}: bad block record: {exc}") from exc
            if type(doc) is not dict:
                raise ValueError(
                    f"{path}:{line_no}: bad block record: expected a JSON object, "
                    f"got {type(doc).__name__}"
                )
            records.append(doc)
            line_nos.append(line_no)
    blocks = _stacked_blocks(records)
    if blocks is not None:
        return blocks
    blocks = []
    for line_no, doc in zip(line_nos, records):
        try:
            blocks.append(block_from_dict(doc))
        except (KeyError, ValueError, TypeError) as exc:
            raise ValueError(f"{path}:{line_no}: bad block record: {exc}") from exc
    return blocks
