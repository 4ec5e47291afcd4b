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
SeedSequence words of every row are computed in one vectorized pass per
rollout, and each block has one ``_RowStreams`` that builds its rows'
Generators from those words and prefetches small draws several at a time
per row; neither changes the values drawn. ``toy_diffusion`` makes its draws
on a helper thread, one item ahead and in stream order (``_ahead``): the
training batches' draws from its one training Generator, and each sampler
sub-step's draw from the block's row streams. So the draws overlap the
matrix products on a second CPU when one exists, and every weight, loss and
trajectory is bitwise that of drawing in the loop.

``rollout_leads`` rolls several models out with one seed, as ``run`` does
for a seed's strategies, and keeps only the scored leads. A kind that
declares ``draws_per_step`` has each block's noise drawn once from the row
streams and shared by every model of that kind; ``toy_diffusion`` keeps its
own streams. Each model's forecast is bitwise the lead steps of its own
``rollout``.
"""

from __future__ import annotations

import functools
import itertools
import math
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dataset import (COUNT, POSITIVE, STATE_DIMS, STEP_HOURS, GriddedDataset, SplitSpec,
                      check_entries, check_integer, check_object, hours_delta, integer_array,
                      month_index, read_npz, split_time_indices, write_npz)
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

    ``trajectories`` has shape [init, member, step, variable, lat, lon], as
    ``FORECAST_ENTRIES`` lists; step k is lead (k+1) * lead_stride_hours. Its
    values are finite: ``rollout`` checks every step and ``load_forecast`` the file.
    A leads-only forecast (``rollout_leads``) sets ``lead_days``: step k is
    then lead ``lead_days[k]`` days, and the other steps are not kept.
    """

    lead_stride_hours = STEP_HOURS  # training pairs are one step apart

    init_indices: list[int]
    trajectories: np.ndarray
    lead_days: tuple | None = None

    def __post_init__(self):
        sizes = {"init": len(self.init_indices)}
        if self.lead_days is not None:
            sizes["step"] = len(self.lead_days)
        check_entries(TRAJECTORY_ENTRY, vars(self), "forecast", ForecastError, sizes)

    @property
    def n_members(self) -> int:
        return self.trajectories.shape[1]

    @property
    def n_steps(self) -> int:
        return self.trajectories.shape[2]


# A forecast's trajectories, its entries, and the entry of a forecaster file that names its kind.
TRAJECTORY_ENTRY = {"trajectories": ("f", ("init", "member", "step", *STATE_DIMS))}
FORECAST_ENTRIES = {"init_indices": ("i", ("init",)), **TRAJECTORY_ENTRY}
KIND_ENTRY = {"kind": ("U", ())}
# The noise a rollout may be given: each init x member row's draws, in order.
NOISE_ENTRY = {"noise": ("f", ("row", "draw"))}


def _pairs_from_subset(ds: GriddedDataset, subset: SubsetSelection) -> tuple[np.ndarray, int]:
    """The subset's indices that have a successor ``off`` (one forecast step)
    later in ``ds``, and off; raises on an index past the end of ``ds``, and
    unless at least two are left."""
    if subset is None:
        raise ForecastError("a learned forecaster needs a training subset")
    idx = ds.check_indices(subset.indices, "subset index", ForecastError)
    off = ds.steps(STEP_HOURS, f"the {STEP_HOURS:g} h forecast step")
    pair_idx = idx[idx + off < ds.n_times]
    if pair_idx.size < 2:
        raise ForecastError(f"only {pair_idx.size} usable training pairs in the "
                            f"{subset.strategy} subset")
    return pair_idx, off


# A forecaster class declares its kind: ``hyperparameters`` (key -> (rule,
# default)), ``fit(ds, subset, split, hp, seed)`` with every key in ``hp``,
# ``arrays``, the entry table of the float constructor arguments its file
# holds, whose ``var``, ``lat``, ``lon`` and ``values`` are the data's in a
# rollout, and ``draws_per_step``: the state-shaped normals its step draws,
# or None when its draws are too many to hold a block's worth at once, so
# that ``rollout_leads`` leaves the kind to its own row streams.
class PersistenceForecaster:
    kind = "persistence"
    hyperparameters = {}
    arrays = {}
    draws_per_step = 0

    @classmethod
    def fit(cls, ds, subset, split, hp, seed):
        return cls()

    def step(self, states, rng, valid_times):
        return states


class ClimatologyForecaster:
    """Emits the monthly-mean training field for the valid time's month."""

    kind = "climatology"
    hyperparameters = {}
    arrays = {"monthly_means": ("f", (12, *STATE_DIMS))}
    draws_per_step = 0

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
    arrays = {"a": ("f", STATE_DIMS), "b": ("f", STATE_DIMS), "resid_std": ("f", STATE_DIMS)}
    draws_per_step = 1

    def __init__(self, a: np.ndarray, b: np.ndarray, resid_std: np.ndarray):
        self.a = a
        self.b = b
        self.resid_std = resid_std

    @classmethod
    def fit(cls, ds, subset, split, hp, seed):
        return _fit_stochastic_linear(ds, *_pairs_from_subset(ds, subset),
                                      float(hp["ridge_lambda"]))

    def step(self, states, rng, valid_times):
        # (a * x + b) + resid_std * z on one new array; the draw z may be
        # shared with other forecasters, so it is read, never written
        out = np.multiply(self.a, states)
        out += self.b
        out += rng.standard_normal(states.shape) * self.resid_std
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


_END = object()  # what the helper of ``_ahead`` returns once ``items`` is spent


def _ahead(items):
    """Yield the items of ``items`` in order, each one made on a one-worker
    helper thread while the caller works on the item before it.

    The helper makes item k + 1 once item k is handed over, so it runs at
    most one item ahead, and a bounded ``items`` that the caller reads to
    the end is read exactly as far as a plain loop reads it. An error raised
    while making an item reaches the caller, type and message unchanged,
    when it asks for that item. numpy's Generator fills and BLAS products
    both release the GIL, so draws made here overlap the caller's matrix
    work on a second CPU when one exists. A caller that may stop early
    closes the generator (``contextlib.closing``), which joins the helper.
    ``items`` draws only: it calls no public function of the package, so
    every call a tracer sees stays on the caller's thread.
    """
    from concurrent.futures import ThreadPoolExecutor  # not loaded by ``import stratacast``

    items = iter(items)
    with ThreadPoolExecutor(1) as helper:
        pending = helper.submit(next, items, _END)
        while (item := pending.result()) is not _END:
            pending = helper.submit(next, items, _END)
            yield item


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
    arrays = {"w1": ("f", (lambda sizes: 2 * sizes["values"] + 1, "hidden")),
              "b1": ("f", ("hidden",)), "w2": ("f", ("hidden", "values")),
              "b2": ("f", ("values",)), "sample_sigmas": ("f", ("levels",))}
    # n_sample_steps draws per step: 10 steps of a 64-row block of a
    # 1,024-value state would hold 126 MB of them
    draws_per_step = None

    def __init__(self, w1, b1, w2, b2, sample_sigmas):
        if not (sample_sigmas.size and ((sample_sigmas > 0) & (sample_sigmas < np.inf)).all()):
            raise ForecastError("entry 'sample_sigmas' must hold positive finite noise levels")
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
        computed once per call. The ``n_sample_steps`` state-shaped draws
        are made in stream order on a helper thread (``_ahead``), each one
        while the network works on the sub-step before it, so the values
        are those of drawing in the loop.
        """
        sig = self.sample_sigmas
        d = cond_flat.shape[1]
        w_noisy, w_sigma = self.w1[d : 2 * d], self.w1[2 * d]
        cond_h = cond_flat @ self.w1[:d] + self.b1

        def predict_noise(noisy, sigma):
            h = np.tanh(cond_h + noisy @ w_noisy + math.log(sigma) * w_sigma)
            return h @ self.w2 + self.b2

        with closing(_ahead(rng.standard_normal(cond_flat.shape) for _ in sig)) as draws:
            y = next(draws) * sig[0]
            for i, z in enumerate(draws):
                eps_hat = predict_noise(y, sig[i])
                score = -eps_hat / sig[i]
                dv = sig[i] ** 2 - sig[i + 1] ** 2
                y = y + dv * score + np.sqrt(dv * sig[i + 1] ** 2 / sig[i] ** 2) * z
        eps_hat = predict_noise(y, sig[-1])
        return y - sig[-1] * eps_hat

    def step(self, states, rng, valid_times):
        flat = states.reshape(states.shape[0], -1)
        return self.sample(flat, rng).reshape(states.shape)


def _train_toy_diffusion(
    ds: GriddedDataset, pair_idx: np.ndarray, off: int, hp: dict, seed: int
) -> ToyDiffusionForecaster:
    """Adam on the noise-prediction loss over the (t, t + off) pairs, with
    every hyperparameter in ``hp``, in O(batch · D) memory, not O(pairs · D):
    each batch's rows are read from the float32 archive. The ``rng`` draws
    and every floating-point operation keep the order of a loop over
    whole-set float64 pair copies, e.g. ``(g * (1 - beta2)) * g``, so the
    weights and losses are bitwise that loop's. After the initial weights,
    the draws (per epoch a permutation, then per batch the noise levels and
    the noise) are made in that order on a helper thread (``_ahead``), one
    batch ahead; the gathers, products and Adam updates stay on the
    caller's thread."""
    rng = np.random.default_rng([seed, 7])
    frames = ds.data.reshape(ds.n_times, -1)
    d, h = frames.shape[1], hp["hidden_width"]
    in_dim = 2 * d + 1
    w1 = rng.standard_normal((in_dim, h)) / math.sqrt(in_dim)
    w2 = rng.standard_normal((h, d)) / math.sqrt(h)
    b1, b2 = np.zeros(h), np.zeros(d)
    params = [w1, b1, w2, b2]
    moments = [(np.zeros_like(p), np.zeros_like(p)) for p in params]  # Adam m, v
    beta1, beta2, eps_adam = 0.9, 0.999, 1e-8
    lr, t_adam = float(hp["learning_rate"]), 0
    sigmas = _log_linear_sigmas(hp["sigma_max"], hp["sigma_min"], hp["n_noise_levels"])
    model = ToyDiffusionForecaster(
        *params, _log_linear_sigmas(hp["sigma_max"], hp["sigma_min"], hp["n_sample_steps"]))
    batches = range(0, pair_idx.size, hp["batch_size"])

    def batch_draws():  # every later rng call, in training order
        for _ in range(hp["n_epochs"]):
            order = rng.permutation(pair_idx.size)
            for start in batches:
                rows = pair_idx[order[start : start + hp["batch_size"]]]
                sigma = sigmas[rng.integers(0, sigmas.size, size=rows.size)][:, None]
                yield rows, sigma, rng.standard_normal((rows.size, d))

    with closing(_ahead(batch_draws())) as draws:
        for _ in range(hp["n_epochs"]):
            epoch_loss = 0.0
            for rows, sigma, eps in itertools.islice(draws, len(batches)):
                noisy = sigma * eps
                noisy += frames[rows + off]
                inp = np.concatenate([frames[rows], noisy, np.log(sigma)], axis=1)
                hact = np.tanh(inp @ w1 + b1)
                diff = hact @ w2 + b2 - eps
                epoch_loss += float(np.mean(diff ** 2))
                gout = diff * 2.0 / diff.size
                gh = (gout @ w2.T) * (1.0 - hact ** 2)
                grads = [inp.T @ gh, gh.sum(axis=0), hact.T @ gout, gout.sum(axis=0)]
                t_adam += 1
                bc1, bc2 = 1 - beta1 ** t_adam, 1 - beta2 ** t_adam
                for p, g, (m, v) in zip(params, grads, moments):
                    m *= beta1
                    m += g * (1 - beta1)
                    v *= beta2
                    v += g * (1 - beta2) * g
                    p -= (m / bc1) * lr / (np.sqrt(v / bc2) + eps_adam)
            model.training_losses.append(epoch_loss / len(batches))
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

    The subset holds distinct non-negative indices of ``ds``, the whole
    dataset, as ``SubsetSelection`` checks, and a learned kind refuses one
    past its end. A pair whose successor falls past the end of ``ds`` is
    dropped; training candidates (``experiment.training_candidates``) all
    have theirs in the training split. Raises ForecastError for a seed that
    is not an integer >= 0 (a bool or a float is refused, a numpy int taken).
    """
    seed = check_integer(seed, "seed", ForecastError)
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


def _row_seed_states(seed: int, n_members: int, init_indices) -> np.ndarray:
    """[init x member, 4] uint64 row seeding words, init-major: row (i, m) equals
    ``np.random.SeedSequence([seed, m, init_indices[i]]).generate_state(4, np.uint64)``
    for the seed >= 0 and the indices below 2**32 that ``rollout`` checked, as one
    pass of uint32 array arithmetic. The seed enters as numpy splits it: its
    little-endian 32-bit words, one zero word for 0."""
    rows = len(init_indices) * n_members
    seed_words = np.frombuffer(seed.to_bytes(4 * max(-(-seed.bit_length() // 32), 1), "little"),
                               "<u4")
    entropy = [*(np.full(rows, w, dtype=np.uint32) for w in seed_words),
               np.tile(np.arange(n_members, dtype=np.uint32), len(init_indices)),
               np.repeat(np.asarray(init_indices, dtype=np.uint32), n_members)]
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

    entropy += [np.zeros(rows, dtype=np.uint32)] * (4 - len(entropy))
    pool = [hashmix(v) for v in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for v in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(v))
    h = _INIT_B
    state = []
    for i in range(8):
        v = pool[i % 4] ^ np.uint32(h)
        h = (h * _MULT_B) & _MASK32
        v = v * np.uint32(h)
        state.append((v ^ (v >> np.uint32(16))).astype(np.uint64))
    return np.stack([lo | (hi << np.uint64(32)) for lo, hi in zip(state[::2], state[1::2])],
                    axis=1)


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


class _RowStreams:
    """Noise source for a block of rollout rows: row b of every draw comes
    from its own PCG64 Generator, seeded with ``words[b]`` of
    ``_row_seed_states``, so each row's stream is drawn in the same order as
    in a one-row rollout.

    A Generator's float64 normals do not depend on how the draws are split
    into calls, so each row refills a buffer with several draws at once (at
    most ``n_steps`` and about ``ROW_PREFETCH_VALUES`` values) and serves
    the next draws as views into it.
    """

    def __init__(self, words: np.ndarray, n_steps: int):
        state_words = _state_words_type()
        self.gens = [np.random.Generator(np.random.PCG64(state_words(w))) for w in words]
        self.n_steps = n_steps
        self.buf = np.empty((len(self.gens), 0))
        self.pos = 0

    def standard_normal(self, shape) -> np.ndarray:
        r = math.prod(shape[1:])
        if self.buf.shape[1] - self.pos < r:
            n_draws = max(min(self.n_steps, ROW_PREFETCH_VALUES // r), 1)
            tail = self.buf[:, self.pos :]
            buf = np.empty((len(self.gens), tail.shape[1] + n_draws * r))
            buf[:, : tail.shape[1]] = tail
            self.fill(buf[:, tail.shape[1] :])
            self.buf, self.pos = buf, 0
        out = self.buf[:, self.pos : self.pos + r]
        self.pos += r
        if self.pos == self.buf.shape[1]:
            # a spent buffer is held only by the caller's view, so its memory
            # is freed (and reused) as soon as the caller drops the draw
            self.buf, self.pos = np.empty((len(self.gens), 0)), 0
        return out.reshape(shape)

    def fill(self, out: np.ndarray) -> None:
        """Fill row b of ``out`` with the next normals of row b's stream."""
        for gen, row in zip(self.gens, out):
            gen.standard_normal(out=row)


class _DrawnRows:
    """Noise source over a block's drawn ``[rows, values]`` noise: each draw
    is the next columns of every row, as a read-only view, so row b's draws
    come in the order its own stream made them."""

    def __init__(self, noise: np.ndarray):
        self.noise = noise
        self.pos = 0

    def standard_normal(self, shape) -> np.ndarray:
        r = math.prod(shape[1:])
        if self.pos + r > self.noise.shape[1]:
            raise ForecastError(f"the noise holds {self.noise.shape[1]} values per row, "
                                f"fewer than the rollout draws")
        out = self.noise[:, self.pos : self.pos + r]
        self.pos += r
        return out.reshape(shape)


def _inits_per_block(state_values: int, n_members: int) -> int:
    """Inits per rollout block: about ``_BLOCK_VALUES`` state values, at most
    ``_BLOCK_MAX_ROWS`` rows, and never fewer than one init's members."""
    rows = min(_BLOCK_MAX_ROWS, _BLOCK_VALUES // max(state_values, 1))
    return max(rows // n_members, 1)


def rollout(
    forecaster,
    ds: GriddedDataset,
    init_indices,
    n_members: int,
    n_steps: int = 10,
    seed: int = 0,
    noise: np.ndarray | None = None,
) -> EnsembleForecast:
    """Autoregressive ensemble rollout from standardized initial states, one
    step per day, as the forecasters are trained.

    Member m of init i uses an rng derived from (seed, m, i), so members are
    independent and the whole forecast is bitwise reproducible. ``noise``,
    when given, replaces those streams: a float [init x member, draw]
    array, init-major, whose row is read left to right as the row's draws.
    Drawn from the row streams, it gives the same forecast. It is read and
    never written, so several rollouts can share one draw. Inits are
    advanced in blocks of init x member rows, one ``forecaster.step`` call
    per block and step. A block holds about 2**16 state values and at most
    512 rows, but always at least one init's members: 512 rows on a
    32-value state, 64 rows on a 1,024-value state, one init on a very
    large state. Before any work, ForecastError names an init index that is
    not an integer (a float, 3.0 included, or a bool) or lies outside
    ``ds``, a seed that is not an integer >= 0, an ``n_members`` or
    ``n_steps`` that is not an integer >= 1 and a forecaster whose state
    dimensions are not the data's, and ``noise`` of the wrong rows. An empty
    init list gives an empty forecast.
    """
    init_indices = ds.check_indices(init_indices, "init index", ForecastError)
    seed = check_integer(seed, "seed", ForecastError)
    n_members = check_integer(n_members, "n_members", ForecastError, 1)
    n_steps = check_integer(n_steps, "n_steps", ForecastError, 1)
    shape = ds.data.shape[1:]
    check_entries(getattr(forecaster, "arrays", {}), vars(forecaster), "forecaster",
                  ForecastError, dict(zip(STATE_DIMS, shape), values=math.prod(shape)))
    if noise is None:
        words = _row_seed_states(seed, n_members, init_indices)
    else:
        check_entries(NOISE_ENTRY, {"noise": noise}, "rollout", ForecastError,
                      {"row": len(init_indices) * n_members})
        noise = np.asarray(noise).view()
        noise.flags.writeable = False
    traj = np.empty(
        (len(init_indices), n_members, n_steps) + shape, dtype=np.float32
    )
    step_dt = hours_delta(EnsembleForecast.lead_stride_hours)
    per_block = _inits_per_block(math.prod(shape), n_members)
    for start in range(0, len(init_indices), per_block):
        inits = init_indices[start : start + per_block]
        block = slice(start * n_members, (start + len(inits)) * n_members)
        rng = _RowStreams(words[block], n_steps) if noise is None else _DrawnRows(noise[block])
        states = np.repeat(ds.data[inits].astype(np.float64), n_members, axis=0)
        times = np.repeat(ds.timestamps[inits], n_members)
        out = traj[start : start + len(inits)]
        for k in range(n_steps):
            times = times + step_dt
            states = forecaster.step(states, rng, times)
            if not np.isfinite(states).all():
                bad = np.isfinite(states.reshape(states.shape[0], -1)).all(axis=1).argmin()
                ii, m = divmod(int(bad), n_members)
                raise ForecastError(
                    f"non-finite state at init {inits[ii]}, member {m}, step {k}"
                )
            out[:, :, k] = states.reshape((len(inits), n_members) + shape)
    return EnsembleForecast(init_indices.tolist(), traj)


class RolloutError(ForecastError):
    """A rollout of ``rollout_leads`` failed: ``key`` names its model, and
    the message and ``__cause__`` are the rollout's error."""

    def __init__(self, key, error: Exception):
        super().__init__(str(error))
        self.key = key


def rollout_leads(
    models: dict,
    ds: GriddedDataset,
    init_indices,
    n_members: int,
    n_steps: int,
    seed: int,
    leads_days,
) -> dict:
    """Each model of ``models`` (key -> forecaster) rolled out with one
    seed's row streams, as a leads-only forecast under the same key: the
    ``leads_days`` steps of ``rollout(model, ds, init_indices, n_members,
    n_steps, seed)``, bit for bit.

    Inits go in ``rollout``'s blocks, one ``rollout`` call per model and
    block. Each block's ``n_steps * draws_per_step`` state-shaped normals
    per row are drawn once, from the row streams, and shared by every model
    whose class declares that ``draws_per_step``; a kind that declares None,
    or no such attribute, draws from its own streams. A failed rollout
    raises RolloutError naming its key.
    """
    init_indices = ds.check_indices(init_indices, "init index", ForecastError)
    seed = check_integer(seed, "seed", ForecastError)
    n_members = check_integer(n_members, "n_members", ForecastError, 1)
    n_steps = check_integer(n_steps, "n_steps", ForecastError, 1)
    lead_days = tuple(int(lead) for lead in leads_days)
    steps = [lead - 1 for lead in lead_days]
    if not all(0 <= k < n_steps for k in steps):
        raise ForecastError(f"leads {list(lead_days)} must lie within 1..{n_steps} rollout steps")
    shape = ds.data.shape[1:]
    kept = {key: np.empty((len(init_indices), n_members, len(steps)) + shape, dtype=np.float32)
            for key in models}
    words = _row_seed_states(seed, n_members, init_indices)
    per_block = _inits_per_block(math.prod(shape), n_members)
    for start in range(0, len(init_indices), per_block):
        inits = init_indices[start : start + per_block]
        block = slice(start * n_members, (start + len(inits)) * n_members)
        drawn = {}  # draws_per_step -> this block's shared noise
        for key, model in models.items():
            draws = getattr(model, "draws_per_step", None)
            if draws is not None and draws not in drawn:
                drawn[draws] = np.empty((block.stop - block.start,
                                         n_steps * draws * math.prod(shape)))
                if draws:
                    _RowStreams(words[block], n_steps).fill(drawn[draws])
            try:
                fc = rollout(model, ds, inits, n_members, n_steps, seed, noise=drawn.get(draws))
            except Exception as e:  # tag the failing model for the caller
                raise RolloutError(key, e) from e
            kept[key][start : start + len(inits)] = fc.trajectories[:, :, steps]
    return {key: EnsembleForecast(init_indices.tolist(), traj, lead_days)
            for key, traj in kept.items()}


# ---------------------------------------------------------------------------
# Serialization: one ``<prefix>.npz`` of named arrays per forecast or forecaster
# ---------------------------------------------------------------------------

def _npz_path(prefix: str | Path) -> Path:
    """``<prefix>.npz``, or ``prefix`` itself when it already ends in ``.npz``."""
    return Path(prefix if str(prefix).endswith(".npz") else f"{prefix}.npz")


def save_forecast(fc: EnsembleForecast, prefix: str | Path) -> None:
    """Write ``<prefix>.npz``: float32 ``trajectories`` and int64 ``init_indices``.
    A leads-only forecast is refused: its file would read back as steps 1..n."""
    if fc.lead_days is not None:
        raise ForecastError(f"cannot save a forecast that keeps only leads "
                            f"{list(fc.lead_days)}: a forecast file holds every step")
    write_npz(
        _npz_path(prefix),
        trajectories=np.asarray(fc.trajectories, dtype=np.float32),
        init_indices=integer_array(fc.init_indices, "init index", ForecastError),
    )


def _check_finite(path: Path, arrays: dict, table: dict) -> None:
    """Raise ForecastError naming the file and the first float entry of
    ``table`` whose values in ``arrays`` are not all finite."""
    for name, (kind, _) in table.items():
        if kind == "f" and not np.isfinite(arrays[name]).all():
            raise ForecastError(f"{path} entry {name!r} holds non-finite values")


def load_forecast(prefix: str | Path) -> EnsembleForecast:
    path = _npz_path(prefix)
    z = read_npz(path, ForecastError, FORECAST_ENTRIES)
    _check_finite(path, z, FORECAST_ENTRIES)
    return EnsembleForecast(z["init_indices"].tolist(), z["trajectories"])


def save_forecaster(model, prefix: str | Path) -> None:
    """Write ``<prefix>.npz``: the ``kind`` and the float64 arrays its class
    lists, losslessly."""
    if type(model) is not FORECASTERS.get(getattr(model, "kind", None)):
        raise ForecastError(f"cannot serialize {type(model).__name__}")
    write_npz(_npz_path(prefix), kind=model.kind,
              **{name: getattr(model, name) for name in model.arrays})


def load_forecaster(prefix: str | Path):
    path = _npz_path(prefix)
    z = read_npz(path, ForecastError, KIND_ENTRY)
    kind = str(z["kind"])
    if kind not in FORECASTERS:
        raise ForecastError(f"{path} holds the unknown serialized kind {kind!r}")
    cls = FORECASTERS[kind]
    check_entries(cls.arrays, z, str(path), ForecastError)
    try:
        model = cls(*(z[name] for name in cls.arrays))
    except ForecastError as e:
        raise ForecastError(f"{path} {e}") from None
    _check_finite(path, z, cls.arrays)  # after the class's own, more specific refusals
    return model
