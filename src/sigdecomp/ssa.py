"""Sliding singular spectrum analysis.

Each analysis window is embedded into a Hankel trajectory matrix X whose
lag-covariance X Xᵀ is eigendecomposed.  Eigentriples whose singular
value sqrt(lambda) clears a relative threshold are diagonal-averaged back
into window-length series, all in one FFT convolution, grouped into a
requested number of classes by 1-D k-means on their dominant frequencies
(deterministically seeded), and the per-class series are overlap-added
across windows under a normalized Hann cross-fade.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ContractViolation, Decomposition, RunRecord, Signal, _check_fields, _unit_scaled
from .metrics import dominant_frequency_hz


@dataclass(frozen=True)
class SsaConfig:
    L: int = 110  # embedding dimension
    K: int = 3  # output classes
    epsilon: float = 1e-6  # relative singular-value floor
    window_len: int | None = None  # defaults to min(N, 4*L)
    hop: int | None = None  # defaults to window_len // 4

    def __post_init__(self):
        _check_fields(self, L=2, K=1, window_len=2, hop=1)
        if not self.epsilon > 0:
            raise ContractViolation("epsilon must be positive")

    def resolved(self, n: int) -> tuple[int, int]:
        window = self.window_len if self.window_len is not None else min(n, 4 * self.L)
        window = min(window, n)
        if self.L > window // 2:
            raise ContractViolation("need L <= window_len / 2")
        hop = self.hop if self.hop is not None else max(window // 4, 1)
        if hop > window and n > 2 * window:
            raise ContractViolation("need hop <= window_len, or samples go uncovered")
        return window, hop


def embed(window: np.ndarray, L: int) -> np.ndarray:
    """Hankel trajectory matrix: column j is window[j .. j+L-1]."""
    window = np.asarray(window, dtype=np.float64)
    if window.size <= L:
        raise ContractViolation("window must be longer than the embedding dimension")
    cols = window.size - L + 1
    idx = np.arange(L)[:, None] + np.arange(cols)[None, :]
    return window[idx]


def diagonal_average_rank1(sigma: float | np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Hankelize sigma * outer(u, v) back into a series.

    Anti-diagonal sums of a rank-1 matrix are the full linear convolution
    of its factors, so this is a convolve divided by the per-diagonal
    element counts.  ``u`` (..., L) and ``v`` (..., K) may stack triples
    along leading axes, with ``sigma`` a scalar or one value per triple;
    every triple goes through one FFT convolution.
    """
    L = u.shape[-1]
    cols = v.shape[-1]
    n = L + cols - 1
    sums = np.fft.irfft(np.fft.rfft(u, n) * np.fft.rfft(v, n), n)
    counts = np.minimum(np.minimum(np.arange(1, n + 1), L), cols)
    counts = np.minimum(counts, L + cols - np.arange(1, n + 1))
    return np.asarray(sigma)[..., None] * sums / counts


def _kmeans_1d(freqs: np.ndarray, energies: np.ndarray, k: int) -> np.ndarray:
    """Deterministic 1-D k-means; centroids seed at the k largest-energy
    triples' frequencies (distinct values, energy-ranked)."""
    order = np.argsort(energies)[::-1]
    centroids: list[float] = []
    for i in order:
        f = float(freqs[i])
        if all(abs(f - c) > 1e-9 for c in centroids):
            centroids.append(f)
        if len(centroids) == k:
            break
    while len(centroids) < k:  # duplicate frequencies: pad deterministically
        centroids.append(centroids[len(centroids) % max(len(centroids), 1)] + 1e-6)
    centers = np.array(sorted(centroids))

    labels = np.full(freqs.size, -1, dtype=np.int64)
    for _round in range(100):
        labels_new = np.argmin(np.abs(freqs[:, None] - centers[None, :]), axis=1)
        if np.array_equal(labels_new, labels):
            break
        labels = labels_new
        for j in range(k):
            members = labels == j
            if np.any(members):
                centers[j] = freqs[members].mean()
    return labels


def _window_classes(
    window: np.ndarray, fs: float, cfg: SsaConfig
) -> tuple[np.ndarray, np.ndarray, int]:
    """Decompose one window into at most K class series (ascending energy-
    weighted mean frequency), the discarded-triples remainder and the count of kept triples."""
    # at its own unit peak, which keeps a quiet window accurate
    scaled, exponent = _unit_scaled(window)
    traj = embed(scaled, cfg.L)
    lam, u = np.linalg.eigh(traj @ traj.T)
    lam, u = lam[::-1], u[:, ::-1]
    s = np.sqrt(np.maximum(lam, 0.0))
    keep = s > cfg.epsilon * s[0]
    u = u[:, keep].T
    # a kept triple sigma u vᵀ is u (uᵀ X): no division by sigma
    series = diagonal_average_rank1(1.0, u, u @ traj)
    freqs = dominant_frequency_hz(series, fs)
    series = np.ldexp(series, exponent)
    energies = lam[keep]

    k_eff = min(cfg.K, len(series))
    labels = _kmeans_1d(freqs, energies, k_eff) if k_eff > 0 else np.zeros(0, dtype=int)
    member = labels == np.arange(k_eff)[:, None]  # (classes, kept triples)
    weight = member @ energies
    class_freq = np.full(k_eff, np.inf)  # an empty class sorts last
    np.divide(member @ (freqs * energies), weight, out=class_freq, where=weight > 0)
    classes = (member @ series)[np.argsort(class_freq)]
    return classes, window - classes.sum(axis=0), len(series)


def _window_weights(length: int) -> np.ndarray:
    # Hann taper floored away from zero so the normalized overlap-add
    # weights stay well defined at the outermost samples
    w = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(length) / max(length - 1, 1))
    return np.maximum(w, 1e-6)


def ssa_decompose(x: Signal, cfg: SsaConfig = SsaConfig()) -> Decomposition:
    """Sliding-window SSA into at most ``cfg.K`` classes.

    Windows of ``window_len`` samples advance by ``hop``; per-window class
    series are blended with a normalized Hann cross-fade (the weights form
    a partition of unity).  Classes are index-aligned across windows by
    their frequency ordering.  The residual carries the eigentriples
    dropped by the epsilon threshold.  It runs at unit peak.  The record stops ``exhausted``
    below ``cfg.K`` classes, else ``converged``, and counts each window's kept triples.
    """
    samples, exp = _unit_scaled(x.samples)
    n = len(x)
    window_len, hop = cfg.resolved(n)
    starts = list(range(0, n - window_len + 1, hop))
    if starts[-1] + window_len < n:
        starts.append(n - window_len)

    weights = _window_weights(window_len)
    acc = np.zeros((min(cfg.K, cfg.L), n))  # a window keeps at most L eigentriples
    acc_res = np.zeros(n)
    norm = np.zeros(n)
    kept = []
    for start in starts:
        classes, remainder, triples = _window_classes(samples[start : start + window_len], x.sample_rate_hz, cfg)
        kept.append(triples)
        sl = slice(start, start + window_len)
        acc[: len(classes), sl] += weights * classes
        acc_res[sl] += weights * remainder
        norm[sl] += weights

    acc /= norm[None, :]
    acc_res /= norm
    modes = [row for row in acc if np.any(row)]
    stop = "exhausted" if len(modes) < cfg.K else "converged"
    record = RunRecord("ssa", 0, stop, counters={"triples_kept": tuple(kept)})
    return Decomposition.of(modes, acc_res, x.sample_rate_hz, exp=exp, record=record)
