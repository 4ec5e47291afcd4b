"""Forecaster implementations and the autoregressive ensemble rollout harness.

Desk-scale stand-ins for an operational probabilistic model:

* persistence — step is the identity
* climatology — emits the training-split monthly-mean field
* stochastic_linear — per-cell ridge regression x_{t+24h} ~ a*x_t + b with
  Gaussian residual noise (closed form, fast)
* toy_diffusion — a one-hidden-layer denoiser trained on the noise-prediction
  objective with a log-linear sigma schedule and ancestral sampling

All forecasters expose ``step(states, rng, valid_times) -> next states`` over
a block of rollout rows: ``states`` is [B, var, lat, lon] float64, row b of
every ``rng.standard_normal((B, ...))`` draw comes from row b's own random
stream, and ``valid_times`` is a [B] datetime64 array. Forecasters are
immutable once trained and hold only the arrays ``step`` reads; a saved
forecaster is its kind and those arrays. Rollouts step one day at a time.

Reproducibility: each (seed, member, init) row draws from its own Generator
in a fixed order, so a rollout is bitwise reproducible for a fixed init/member
layout. ``persistence``, ``climatology`` and ``stochastic_linear`` rows are
bitwise independent of the layout (which inits are rolled out together and
how they are blocked); ``toy_diffusion`` rows agree across layouts within
float32 rounding, because its matrix products see a different number of rows.
Blocks are sized by state values (about 2**16, at most 512 rows, at least
one init's members), so a state of 1,024 values steps 64 rows at a time, a
smaller state more rows and a larger one fewer.

Row streams equal ``np.random.default_rng([seed, member, init])``. The
SeedSequence hash of every row is computed in one vectorized pass per
rollout, and small draws are prefetched several at a time per row; neither
changes the values drawn.
"""

from __future__ import annotations

import functools
import math
import operator
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dataset import (COUNT, POSITIVE, STEP_HOURS, GriddedDataset, SplitSpec, check_object,
                      hours_delta, month_index, split_time_indices)
from .selection import SubsetSelection


class ForecastError(ValueError):
    pass


@dataclass(frozen=True)
class ForecasterSpec:
    """A forecaster kind and its hyperparameters, checked on construction
    against the rules of its class's ``hyperparameters`` table, with
    ``sigma_min`` below ``sigma_max``. The spec stores every hyperparameter
    of its kind, the defaults filled in."""

    kind: str
    hyperparameters: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in FORECASTERS:
            raise ForecastError(f"unknown forecaster kind {self.kind!r}")
        table = FORECASTERS[self.kind].hyperparameters
        hp = {k: default for k, (_, default) in table.items()}
        hp.update(check_object(self.hyperparameters,
                               {k: (rule, False) for k, (rule, _) in table.items()},
                               "hyperparameter", ForecastError))
        if "sigma_min" in hp and not hp["sigma_min"] < hp["sigma_max"]:
            raise ForecastError("sigma_min must be below sigma_max")
        object.__setattr__(self, "hyperparameters", hp)


@dataclass
class EnsembleForecast:
    """M-member rollout trajectories, one step per day.

    ``trajectories`` has shape [init, member, step, variable, lat, lon];
    step k is lead (k+1) * lead_stride_hours. Its values are finite:
    ``rollout`` checks every step and ``load_forecast`` checks the file.
    """

    lead_stride_hours = STEP_HOURS  # training pairs are one step apart

    init_indices: list[int]
    trajectories: np.ndarray

    def __post_init__(self):
        if self.trajectories.ndim != 6 or len(self.trajectories) != len(self.init_indices):
            raise ForecastError(f"{len(self.init_indices)} init indices for trajectories of shape "
                                f"{self.trajectories.shape}; need 6-D, one init per index")

    @property
    def n_members(self) -> int:
        return self.trajectories.shape[1]

    @property
    def n_steps(self) -> int:
        return self.trajectories.shape[2]


def _pairs_from_subset(ds: GriddedDataset, subset: SubsetSelection) -> tuple[np.ndarray, int]:
    """The subset's indices that have a successor ``off`` (one forecast step)
    later in ``ds``, and off; raises unless there are at least two."""
    if subset is None:
        raise ForecastError("a learned forecaster needs a training subset")
    off = ds.steps(STEP_HOURS, f"the {STEP_HOURS:g} h forecast step")
    idx = np.asarray(subset.indices, dtype=np.int64)
    pair_idx = idx[idx + off < ds.n_times]
    if pair_idx.size < 2:
        raise ForecastError(f"only {pair_idx.size} usable training pairs in the "
                            f"{subset.strategy} subset")
    return pair_idx, off


# The dimensions of a state: (variable, lat, lon).
STATE_DIMS = ("var", "lat", "lon")


# A forecaster class declares its kind: ``hyperparameters`` (key -> (rule,
# default)), ``fit(ds, subset, split, hp, seed)`` with every key in ``hp``, and
# ``arrays``, the constructor arguments its file holds and their dimensions: an
# int is a fixed size, a name one shared by every entry having it, and a
# function one computed from the named sizes.
class PersistenceForecaster:
    kind = "persistence"
    hyperparameters = {}
    arrays = {}

    @classmethod
    def fit(cls, ds, subset, split, hp, seed):
        return cls()

    def step(self, states, rng, valid_times):
        return states


class ClimatologyForecaster:
    """Emits the monthly-mean training field for the valid time's month."""

    kind = "climatology"
    hyperparameters = {}
    arrays = {"monthly_means": (12, *STATE_DIMS)}

    def __init__(self, monthly_means: np.ndarray):
        self.monthly_means = monthly_means  # [12, var, lat, lon]

    @classmethod
    def fit(cls, ds: GriddedDataset, subset, split: SplitSpec | None, hp, seed):
        """The monthly means of the split's training years; the subset is not read."""
        if split is None:
            raise ForecastError("climatology needs a split")
        idx = split_time_indices(ds, split.train_years)
        months = ds.months()[idx]  # an empty split misses every month
        missing = np.setdiff1d(np.arange(1, 13), months).tolist()
        if missing:
            raise ForecastError(f"training split has no data for months {missing}")
        return cls(np.stack([
            ds.data[idx[months == m]].astype(np.float64).mean(axis=0) for m in range(1, 13)
        ]))

    def step(self, states, rng, valid_times):
        return self.monthly_means[month_index(valid_times)]


class StochasticLinearForecaster:
    """Per-variable, per-cell x_{t+24h} ~ a*x_t + b plus Gaussian residual noise."""

    kind = "stochastic_linear"
    hyperparameters = {"ridge_lambda": (POSITIVE, 1e-3)}
    arrays = {"a": STATE_DIMS, "b": STATE_DIMS, "resid_std": STATE_DIMS}

    def __init__(self, a: np.ndarray, b: np.ndarray, resid_std: np.ndarray):
        self.a = a
        self.b = b
        self.resid_std = resid_std

    @classmethod
    def fit(cls, ds, subset, split, hp, seed):
        return _fit_stochastic_linear(ds, *_pairs_from_subset(ds, subset),
                                      float(hp["ridge_lambda"]))

    def step(self, states, rng, valid_times):
        # (a * x + b) + resid_std * z, as three operations on one new array;
        # the draw z is scratch and takes the noise term
        out = np.multiply(self.a, states)
        out += self.b
        noise = rng.standard_normal(states.shape)
        noise *= self.resid_std
        out += noise
        return out


# float64 values per [pair, column] temporary of the chunked stochastic_linear fit
_FIT_CHUNK_VALUES = 1 << 17


def _fit_stochastic_linear(
    ds: GriddedDataset, pair_idx: np.ndarray, off: int, ridge_lambda: float
) -> StochasticLinearForecaster:
    """Per-cell least squares over the (t, t + off) pairs, in column chunks.

    Each chunk reads its columns of the float32 frames into float64 [P, c]
    arrays, so memory is O(P · c), not O(P · D). The columns are
    independent and each one is summed over the pairs in the same order as
    a whole-array fit, so the result is bitwise the same. A chunk is never
    one column wide unless D is 1: numpy sums a lone column pairwise.
    """
    frames = ds.data.reshape(ds.n_times, -1)
    d = frames.shape[1]
    width = max(_FIT_CHUNK_VALUES // pair_idx.size, 2)
    bounds = [*range(0, d, width), d]
    if len(bounds) > 2 and d - bounds[-2] == 1:
        del bounds[-2]
    a, b, resid_std = np.empty((3, d))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        x = frames[pair_idx, lo:hi].astype(np.float64)    # [P, c]
        y = frames[pair_idx + off, lo:hi].astype(np.float64)
        xm = x.mean(axis=0)
        ym = y.mean(axis=0)
        sxx = ((x - xm) ** 2).sum(axis=0)
        sxy = ((x - xm) * (y - ym)).sum(axis=0)
        a[lo:hi] = sxy / (sxx + ridge_lambda)
        b[lo:hi] = ym - a[lo:hi] * xm
        resid = y - (a[lo:hi] * x + b[lo:hi])
        resid_std[lo:hi] = resid.std(axis=0)
    shape = ds.data.shape[1:]
    return StochasticLinearForecaster(a.reshape(shape), b.reshape(shape), resid_std.reshape(shape))


# ---------------------------------------------------------------------------
# Toy diffusion: one-hidden-layer denoiser, VE noise schedule, ancestral sampler
# ---------------------------------------------------------------------------

def _log_linear_sigmas(sigma_max: float, sigma_min: float, n: int) -> np.ndarray:
    return np.exp(np.linspace(math.log(sigma_max), math.log(sigma_min), n))


class ToyDiffusionForecaster:
    """Small denoiser network sampled by SMLD-style ancestral steps.

    Input is [conditioning state, noisy target, log sigma]; the network
    predicts the injected noise. The forward process is variance-exploding:
    y_noisy = y + sigma * eps.
    """

    kind = "toy_diffusion"
    hyperparameters = {"n_noise_levels": (COUNT, 20), "n_sample_steps": (COUNT, 24),
                       "hidden_width": (COUNT, 64), "learning_rate": (POSITIVE, 1e-3),
                       "n_epochs": (COUNT, 150), "batch_size": (COUNT, 64),
                       "sigma_min": (POSITIVE, 0.02), "sigma_max": (POSITIVE, 3.0)}
    # "values" is the flattened state size; w1 takes [state, noisy state, log sigma]
    arrays = {"w1": (lambda sizes: 2 * sizes["values"] + 1, "hidden"), "b1": ("hidden",),
              "w2": ("hidden", "values"), "b2": ("values",), "sample_sigmas": ("levels",)}

    def __init__(self, w1, b1, w2, b2, sample_sigmas):
        self.w1, self.b1, self.w2, self.b2 = w1, b1, w2, b2
        self.sample_sigmas = sample_sigmas  # noise levels of ``sample``, high to low
        self.training_losses: list[float] = []

    @classmethod
    def fit(cls, ds, subset, split, hp, seed):
        return _train_toy_diffusion(ds, *_pairs_from_subset(ds, subset), hp, seed)

    def sample(self, cond_flat: np.ndarray, rng) -> np.ndarray:
        """One sample per row of cond_flat via ancestral denoising.

        The first layer is split by input block: the conditioning half
        ``cond @ w1[:D] + b1`` is the same at every noise level, so it is
        computed once per call.
        """
        sig = self.sample_sigmas
        d = cond_flat.shape[1]
        w_noisy, w_sigma = self.w1[d : 2 * d], self.w1[2 * d]
        cond_h = cond_flat @ self.w1[:d] + self.b1

        def predict_noise(noisy, sigma):
            h = np.tanh(cond_h + noisy @ w_noisy + math.log(sigma) * w_sigma)
            return h @ self.w2 + self.b2

        y = rng.standard_normal(cond_flat.shape) * sig[0]
        for i in range(len(sig) - 1):
            eps_hat = predict_noise(y, sig[i])
            score = -eps_hat / sig[i]
            dv = sig[i] ** 2 - sig[i + 1] ** 2
            y = y + dv * score + np.sqrt(dv * sig[i + 1] ** 2 / sig[i] ** 2) * rng.standard_normal(
                cond_flat.shape
            )
        eps_hat = predict_noise(y, sig[-1])
        return y - sig[-1] * eps_hat

    def step(self, states, rng, valid_times):
        flat = states.reshape(states.shape[0], -1)
        return self.sample(flat, rng).reshape(states.shape)


# Elements per step of the chunked Adam update: two scratch buffers of this
# many float64 values serve every parameter.
_ADAM_CHUNK = 16384


def _train_toy_diffusion(
    ds: GriddedDataset, pair_idx: np.ndarray, off: int, hp: dict, seed: int
) -> ToyDiffusionForecaster:
    """Adam on the noise-prediction loss over the (t, t + off) pairs, with
    every hyperparameter in ``hp``.

    Memory is O(batch · D), not O(pairs · D): each batch's conditioning and
    target rows are read from the float32 archive into reused float64
    buffers, and every product and gradient is written into a buffer. The
    four parameters are views into one flat vector, which Adam updates in
    fixed-size chunks. Neither changes a bit of the result: the ``rng``
    draws and every floating-point operation keep their order, e.g.
    ``((1 - beta2) * g) * g`` and ``(lr * mhat) / (sqrt(vhat) + eps)``.

    The buffers and the chunked Adam save time as well as memory: on a
    16 x 32 x 2 grid (150 pairs, 90 batches, one BLAS thread), fresh arrays
    per batch cost 1,320 minor page faults per batch against 25 (0.65 s
    against 0.42 s), and a whole-vector Adam adds 3.6 MB to desk_diffusion's
    peak RSS.
    """
    rng = np.random.default_rng([seed, 7])
    frames = ds.data.reshape(ds.n_times, -1)
    target_idx = pair_idx + off
    d = frames.shape[1]
    h = hp["hidden_width"]
    in_dim = 2 * d + 1

    theta = np.zeros(in_dim * h + h + h * d + d)
    grad = np.empty_like(theta)
    ends = np.cumsum([in_dim * h, h, h * d])
    shapes = [(in_dim, h), (h,), (h, d), (d,)]
    w1, b1, w2, b2 = (p.reshape(s) for p, s in zip(np.split(theta, ends), shapes))
    g_w1, g_b1, g_w2, g_b2 = (g.reshape(s) for g, s in zip(np.split(grad, ends), shapes))
    rng.standard_normal(out=w1)
    w1 /= math.sqrt(in_dim)
    rng.standard_normal(out=w2)
    w2 /= math.sqrt(h)

    sigmas = _log_linear_sigmas(hp["sigma_max"], hp["sigma_min"], hp["n_noise_levels"])
    lr = float(hp["learning_rate"])
    n_epochs = hp["n_epochs"]
    batch = hp["batch_size"]
    adam_m = np.zeros_like(theta)
    adam_v = np.zeros_like(theta)
    beta1, beta2, eps_adam = 0.9, 0.999, 1e-8
    t_adam = 0

    rows_max = min(batch, pair_idx.size)
    inp_buf = np.empty((rows_max, in_dim))    # [cond | noisy | log sigma]
    eps_buf = np.empty((rows_max, d))
    hact_buf = np.empty((rows_max, h))
    diff_buf = np.empty((rows_max, d))
    gh_buf = np.empty((rows_max, h))
    scratch = np.empty((2, min(_ADAM_CHUNK, theta.size)))

    model = ToyDiffusionForecaster(
        w1, b1, w2, b2,
        _log_linear_sigmas(hp["sigma_max"], hp["sigma_min"], hp["n_sample_steps"]),
    )

    for epoch in range(n_epochs):
        order = rng.permutation(pair_idx.size)
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, order.size, batch):
            rows = order[start : start + batch]
            n = rows.size
            inp, eps, hact, diff, gh = (
                buf[:n] for buf in (inp_buf, eps_buf, hact_buf, diff_buf, gh_buf)
            )
            cond, noisy = inp[:, :d], inp[:, d : 2 * d]
            cond[...] = frames[pair_idx[rows]]
            level = rng.integers(0, sigmas.size, size=n)
            sigma = sigmas[level][:, None]
            rng.standard_normal(out=eps)
            np.multiply(sigma, eps, out=noisy)
            noisy += frames[target_idx[rows]]
            inp[:, 2 * d :] = np.log(sigma)

            np.matmul(inp, w1, out=hact)
            hact += b1
            np.tanh(hact, out=hact)
            np.matmul(hact, w2, out=diff)
            diff += b2
            diff -= eps
            np.square(diff, out=eps)  # eps is spent; its buffer takes diff ** 2
            loss = float(np.mean(eps))
            epoch_loss += loss
            n_batches += 1

            gout = diff  # 2 * diff / diff.size, in place
            gout *= 2.0
            gout /= diff.size
            np.matmul(hact.T, gout, out=g_w2)
            np.sum(gout, axis=0, out=g_b2)
            np.matmul(gout, w2.T, out=gh)
            np.square(hact, out=hact)  # hact becomes 1 - hact ** 2
            np.subtract(1.0, hact, out=hact)
            gh *= hact
            np.matmul(inp.T, gh, out=g_w1)
            np.sum(gh, axis=0, out=g_b1)

            t_adam += 1
            for lo in range(0, theta.size, scratch.shape[1]):
                hi = min(lo + scratch.shape[1], theta.size)
                p, g, m_, v_ = theta[lo:hi], grad[lo:hi], adam_m[lo:hi], adam_v[lo:hi]
                a, b = scratch[0, : hi - lo], scratch[1, : hi - lo]
                m_ *= beta1
                np.multiply(g, 1 - beta1, out=a)
                m_ += a
                v_ *= beta2
                np.multiply(g, 1 - beta2, out=a)
                a *= g
                v_ += a
                np.divide(m_, 1 - beta1 ** t_adam, out=a)      # mhat
                a *= lr
                np.divide(v_, 1 - beta2 ** t_adam, out=b)      # vhat
                np.sqrt(b, out=b)
                b += eps_adam
                a /= b
                p -= a
        model.training_losses.append(epoch_loss / max(n_batches, 1))

    return model


# ---------------------------------------------------------------------------
# Training entry point and rollout
# ---------------------------------------------------------------------------

# kind -> forecaster class: the one table of kinds
FORECASTERS = {cls.kind: cls for cls in (
    PersistenceForecaster, ClimatologyForecaster, StochasticLinearForecaster,
    ToyDiffusionForecaster,
)}
VALID_KINDS = tuple(FORECASTERS)


def train(
    spec: ForecasterSpec,
    ds: GriddedDataset,
    subset: SubsetSelection | None,
    seed: int = 0,
    split: SplitSpec | None = None,
):
    """Train a forecaster of the requested kind on the subset's one-step pairs.

    The subset holds distinct indices of ``ds``, the whole dataset; a repeat
    raises. A pair whose successor falls past the end of ``ds`` is dropped;
    training candidates (``experiment.training_candidates``) all have theirs
    in the training split.
    """
    indices = [] if subset is None else subset.indices
    if len(set(indices)) < len(indices):
        repeat = next(i for n, i in enumerate(indices) if i in indices[:n])
        raise ForecastError(f"index {repeat} is listed more than once in the "
                            f"{subset.strategy} subset")
    return FORECASTERS[spec.kind].fit(ds, subset, split, spec.hyperparameters, seed)


# A rollout block holds about this many float64 state values (init x member
# rows times values per state), so one step call does enough arithmetic to
# outweigh its overhead, and never more than _BLOCK_MAX_ROWS rows, which
# bounds the per-row Generators and prefetch buffers of one block.
_BLOCK_VALUES = 1 << 16
_BLOCK_MAX_ROWS = 512

# Values per row that one refill of a _RowStreams buffer aims at. One
# standard_normal call costs about as much as 100 normals, so small draws are
# fetched several at a time; draws of this size or more get one call each.
ROW_PREFETCH_VALUES = 1024

# numpy.random.SeedSequence constants (pool of four uint32 words).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _uint32_words(n: int) -> list[int]:
    """Little-endian 32-bit words of a non-negative int, as SeedSequence splits it."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _pool_state(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).generate_state(4, np.uint64)`` for every row of a
    [R, L] uint32 entropy array, as one pass of uint32 array arithmetic."""
    h = _INIT_A

    def hashmix(v):
        nonlocal h
        v = v ^ np.uint32(h)
        h = (h * _MULT_A) & _MASK32
        v = v * np.uint32(h)
        return v ^ (v >> np.uint32(16))

    def mix(x, y):
        r = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return r ^ (r >> np.uint32(16))

    zero = np.zeros(entropy.shape[0], dtype=np.uint32)
    pool = [hashmix(entropy[:, i] if i < entropy.shape[1] else zero) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(4, entropy.shape[1]):
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))
    h = _INIT_B
    state = []
    for i in range(8):
        v = pool[i % 4] ^ np.uint32(h)
        h = (h * _MULT_B) & _MASK32
        v = v * np.uint32(h)
        state.append((v ^ (v >> np.uint32(16))).astype(np.uint64))
    words = [lo | (hi << np.uint64(32)) for lo, hi in zip(state[::2], state[1::2])]
    return np.stack(words, axis=1)


def _row_seed_states(seed: int, n_members: int, init_indices) -> np.ndarray:
    """[init x member, 4] uint64 PCG64 seeding words, init-major: row
    (i, m) equals ``np.random.SeedSequence([seed, m, init_indices[i]])
    .generate_state(4, np.uint64)``."""
    seed = operator.index(seed)
    inits = np.asarray(init_indices, dtype=np.int64).reshape(-1)
    if seed < 0 or (inits < 0).any() or (inits > _MASK32).any():
        raise ValueError("seed must be non-negative and init indices in [0, 2**32)")
    rows = inits.size * n_members
    cols = [np.full(rows, w, dtype=np.uint32) for w in _uint32_words(seed)]
    cols.append(np.tile(np.arange(n_members, dtype=np.uint32), inits.size))
    cols.append(np.repeat(inits.astype(np.uint32), n_members))
    return _pool_state(np.stack(cols, axis=1))


@functools.cache
def _state_words_type() -> type:
    """A seed sequence type that hands PCG64 the precomputed words it asks for.

    It subclasses ``ISeedSequence``: the ABC caches the result of isinstance
    for a subclass, but for a class registered with it every check walks the
    registry again, about 0.35 us per Generator. The type is built on first
    use, not at import, because numpy imports ``numpy.random`` lazily and
    ``import stratacast`` should not load it.
    """

    class StateWords(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return StateWords


def _row_generators(words: np.ndarray) -> list[np.random.Generator]:
    """One PCG64 Generator per row of ``_row_seed_states`` words."""
    state_words = _state_words_type()
    return [np.random.Generator(np.random.PCG64(state_words(w))) for w in words]


class _RowStreams:
    """Noise source for a block of rollout rows: row b of every draw comes
    from ``gens[b]``, so each row's stream is drawn in the same order as in a
    one-row rollout.

    A Generator's float64 normals do not depend on how the draws are split
    into calls, so each row refills a buffer with several draws at once (at
    most ``n_steps`` and about ``ROW_PREFETCH_VALUES`` values) and serves
    the next draws as views into it.
    """

    def __init__(self, gens: list[np.random.Generator], n_steps: int):
        self.gens = gens
        self.n_steps = n_steps
        self.buf = np.empty((len(gens), 0))
        self.pos = 0

    def standard_normal(self, shape) -> np.ndarray:
        r = math.prod(shape[1:])
        if self.buf.shape[1] - self.pos < r:
            n_draws = max(min(self.n_steps, ROW_PREFETCH_VALUES // r), 1)
            tail = self.buf[:, self.pos :]
            buf = np.empty((len(self.gens), tail.shape[1] + n_draws * r))
            buf[:, : tail.shape[1]] = tail
            for gen, row in zip(self.gens, buf):
                gen.standard_normal(out=row[tail.shape[1] :])
            self.buf, self.pos = buf, 0
        out = self.buf[:, self.pos : self.pos + r]
        self.pos += r
        if self.pos == self.buf.shape[1]:
            # a spent buffer is held only by the caller's view, so its memory
            # is freed (and reused) as soon as the caller drops the draw
            self.buf, self.pos = np.empty((len(self.gens), 0)), 0
        return out.reshape(shape)


def _inits_per_block(state_values: int, n_members: int) -> int:
    """Inits per rollout block: about ``_BLOCK_VALUES`` state values, at most
    ``_BLOCK_MAX_ROWS`` rows, and never fewer than one init's members."""
    rows = min(_BLOCK_MAX_ROWS, _BLOCK_VALUES // max(state_values, 1))
    return max(rows // max(n_members, 1), 1)


def rollout(
    forecaster,
    ds: GriddedDataset,
    init_indices,
    n_members: int,
    n_steps: int = 10,
    seed: int = 0,
) -> EnsembleForecast:
    """Autoregressive ensemble rollout from standardized initial states, one
    step per day, as the forecasters are trained.

    Member m of init i uses an rng derived from (seed, m, i), so members are
    independent and the whole forecast is bitwise reproducible. Inits are
    advanced in blocks of init x member rows, one ``forecaster.step`` call
    per block and step. A block holds about 2**16 state values and at most
    512 rows, but always at least one init's members: 512 rows on a
    32-value state, 64 rows on a 1,024-value state, one init on a very
    large state. A forecaster whose state dimensions are not the data's is
    refused, naming the entry.
    """
    init_indices = [int(i) for i in init_indices]
    shape = ds.data.shape[1:]
    _check_shapes(getattr(forecaster, "arrays", {}), vars(forecaster), "forecaster",
                  dict(zip(STATE_DIMS, shape), values=math.prod(shape)))
    traj = np.empty(
        (len(init_indices), n_members, n_steps) + shape, dtype=np.float32
    )
    step_dt = hours_delta(EnsembleForecast.lead_stride_hours)
    words = _row_seed_states(seed, n_members, init_indices)
    per_block = _inits_per_block(math.prod(shape), n_members)
    for start in range(0, len(init_indices), per_block):
        inits = init_indices[start : start + per_block]
        gens = _row_generators(words[start * n_members : (start + len(inits)) * n_members])
        rng = _RowStreams(gens, n_steps)
        states = np.repeat(ds.data[inits].astype(np.float64), n_members, axis=0)
        times = np.repeat(ds.timestamps[inits], n_members)
        out = traj[start : start + len(inits)]
        for k in range(n_steps):
            times = times + step_dt
            states = forecaster.step(states, rng, times)
            if not np.isfinite(states).all():
                bad = np.isfinite(states.reshape(len(gens), -1)).all(axis=1).argmin()
                ii, m = divmod(int(bad), n_members)
                raise ForecastError(
                    f"non-finite state at init {inits[ii]}, member {m}, step {k}"
                )
            out[:, :, k] = states.reshape((len(inits), n_members) + shape)
    return EnsembleForecast(init_indices, traj)


# ---------------------------------------------------------------------------
# Serialization: one ``<prefix>.npz`` of named arrays per forecast or forecaster
# ---------------------------------------------------------------------------

def _write_npz(prefix: str | Path, **entries) -> None:
    path = Path(prefix).with_suffix(".npz")
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, **entries)


class _Entries(dict):
    """The arrays of one npz file by name; a missing one raises ForecastError."""

    def __init__(self, path: Path, entries):
        super().__init__(entries)
        self.path = path

    def __missing__(self, name):
        raise ForecastError(f"{self.path} has no entry {name!r}")


def _read_npz(prefix: str | Path) -> _Entries:
    path = Path(prefix).with_suffix(".npz")
    try:  # np.load leaves a file it opened unclosed when the zip does not parse
        with open(path, "rb") as f, np.load(f, allow_pickle=False) as z:
            return _Entries(path, z)
    except (zipfile.BadZipFile, EOFError) as e:
        raise ForecastError(f"{path} is not an npz file: {e}") from e


def save_forecast(fc: EnsembleForecast, prefix: str | Path) -> None:
    """Write ``<prefix>.npz``: float32 ``trajectories`` and ``init_indices``."""
    _write_npz(
        prefix,
        trajectories=np.asarray(fc.trajectories, dtype=np.float32),
        init_indices=np.asarray(fc.init_indices, dtype=np.int64),
    )


def load_forecast(prefix: str | Path) -> EnsembleForecast:
    z = _read_npz(prefix)
    if not np.isfinite(z["trajectories"]).all():
        raise ForecastError("non-finite trajectory values")
    return EnsembleForecast(z["init_indices"].reshape(-1).tolist(), z["trajectories"])


def save_forecaster(model, prefix: str | Path) -> None:
    """Write ``<prefix>.npz``: the ``kind`` and the float64 arrays its class
    lists, losslessly."""
    if type(model) is not FORECASTERS.get(getattr(model, "kind", None)):
        raise ForecastError(f"cannot serialize {type(model).__name__}")
    _write_npz(prefix, kind=model.kind, **{name: getattr(model, name) for name in model.arrays})


def load_forecaster(prefix: str | Path):
    z = _read_npz(prefix)
    kind = str(z.get("kind"))  # a file without one is an unknown kind
    if kind not in FORECASTERS:
        raise ForecastError(f"unknown serialized kind {kind!r}")
    cls = FORECASTERS[kind]
    _check_shapes(cls.arrays, z, str(z.path))
    return cls(*(z[name] for name in cls.arrays))


def _check_shapes(dims: dict, arrays, where: str, sizes: dict | None = None) -> None:
    """Raises ForecastError naming the first of a forecaster's ``arrays``
    whose shape does not fit the ``dims`` its class lists, with the shapes of
    all. A named dimension has its size in ``sizes`` or, failing that, in the
    first entry that has it."""
    shapes = {name: np.shape(arrays[name]) for name in dims}
    sizes = dict(sizes or {})

    def refuse(name, want):
        listing = ", ".join(f"{n} {shape}" for n, shape in shapes.items())
        raise ForecastError(f"{where} entry {name!r} has shape {shapes[name]}, not {want} "
                            f"(entry shapes: {listing})")

    for name, spec in dims.items():
        if len(shapes[name]) != len(spec):
            refuse(name, f"{len(spec)}-D")
        for d, n in zip(spec, shapes[name]):
            if isinstance(d, str):
                sizes.setdefault(d, n)
    for name, spec in dims.items():
        want = tuple(sizes[d] if isinstance(d, str) else d(sizes) if callable(d) else d
                     for d in spec)
        if shapes[name] != want:
            refuse(name, want)
