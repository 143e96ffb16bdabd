"""IoU Sketch: in-memory reference implementation + accuracy analysis.

Two halves live here:

* :class:`IoUSketch` — the insert/query data structure of §IV-A,
  operating on in-memory postings. It is the test oracle for the
  structure's semantics; the distributed Builder
  (:mod:`repro.core.builder`) builds the same structure via Spark
  aggregations and does not call it.
* The analysis of §IV-A/§IV-B as plain functions: the per-document false
  positive probability ``q_i(L)`` and its approximation (Eq 1), the
  expected number of false positives ``F(L)`` (Eq 2), its derivative
  building block (Eq 3), the corpus coefficient ``sigma_X`` reported in
  Table II, and the Hoeffding deviation bound (Eq 5).

All analysis functions take the corpus profile as ``doc_word_counts`` —
the multiset of |W_i| (number of *distinct* words per document) — plus
optional per-document coefficients ``c_i`` (probability that a query word
is irrelevant to document i; with the default uniform query prior,
``c_i = (|W| - |W_i|) / |W|``).
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Hashable, Iterable

import numpy as np

from repro.core.hashing import HashFamily


@dataclass
class IoUSketch:
    """L-layer hash table whose bins hold merged (super) postings lists.

    ``insert(word, postings)`` unions the word's postings into one bin
    per layer; ``query(word)`` intersects the word's L superposts.
    Generic over the posting type (document ids in tests, byte-range
    postings in the engine).
    """

    family: HashFamily
    layers: list[list[set]] = field(init=False)

    def __post_init__(self):
        self.layers = [
            [set() for _ in range(self.family.bins_per_layer)]
            for _ in range(self.family.n_layers)
        ]

    @classmethod
    def create(cls, n_layers: int, bins_per_layer: int, seed: int = 0) -> "IoUSketch":
        return cls(HashFamily.create(n_layers, bins_per_layer, seed))

    def insert(self, word: str, postings: Iterable[Hashable]) -> None:
        """Union ``postings`` into the word's bin in every layer."""
        postings = set(postings)
        for layer, b in enumerate(self.family.bins(word)):
            self.layers[layer][b] |= postings

    def query(self, word: str) -> set:
        """Intersection of the word's superposts across all layers.

        Guaranteed superset of the word's true postings (no false
        negatives); may contain false positives (§IV-A).
        """
        bins = self.family.bins(word)
        result = set(self.layers[0][bins[0]])
        for layer in range(1, self.family.n_layers):
            result &= self.layers[layer][bins[layer]]
        return result

    def superpost(self, layer: int, bin_idx: int) -> set:
        return self.layers[layer][bin_idx]


# -- accuracy analysis (Eqs 1-3, 5; Table II) --------------------------------


def q_i(L: float, B: float, w_i: int) -> float:
    """Exact per-document false-positive probability (Eq 1, left).

    Probability that document i (with |W_i| distinct words) survives the
    L-way intersection for an irrelevant query word, with B bins split
    evenly over L layers.
    """
    bins_per_layer = B / L
    if bins_per_layer <= 1:
        return 1.0
    return (1.0 - (1.0 - 1.0 / bins_per_layer) ** w_i) ** L


def q_hat_i(L: float, B: float, w_i: int) -> float:
    """Approximate per-document false-positive probability (Eq 1, right)."""
    return (1.0 - math.exp(-w_i * L / B)) ** L


def _c_coeffs(doc_word_counts: np.ndarray, n_terms: int | None) -> np.ndarray:
    """Default uniform-prior coefficients c_i = (|W| - |W_i|)/|W|."""
    if n_terms is None:
        return np.ones_like(doc_word_counts, dtype=float)
    return (n_terms - doc_word_counts) / n_terms


def expected_false_positives(
    L: float,
    B: float,
    doc_word_counts: Iterable[int],
    n_terms: int | None = None,
    c: Iterable[float] | None = None,
    approx: bool = False,
) -> float:
    """F(L) of Eq 2: expected count of false-positive documents per query.

    ``c`` overrides the per-document coefficients; otherwise a uniform
    query prior over the corpus vocabulary of size ``n_terms`` is assumed
    (``c_i = 1`` when ``n_terms`` is None — the worst case of §IV-A).
    Identical |W_i| values are grouped so cost is O(#distinct lengths).
    """
    counts = np.asarray(list(doc_word_counts))
    cs = np.asarray(list(c)) if c is not None else _c_coeffs(counts, n_terms)
    if len(cs) != len(counts):
        raise ValueError("c must align with doc_word_counts")
    total = 0.0
    fn = q_hat_i if approx else q_i
    grouped: Counter[int] = Counter()
    csum: dict[int, float] = {}
    for w, ci in zip(counts.tolist(), cs.tolist()):
        grouped[w] += 1
        csum[w] = csum.get(w, 0.0) + ci
    for w in grouped:
        total += csum[w] * fn(L, B, w)
    return total


def q_hat_derivative(L: float, B: float, w_i: int) -> float:
    """d/dL of the approximate q̂_i (Eq 3) — used by the optimizer tests."""
    z = 1.0 - math.exp(-w_i * L / B)
    if z <= 0.0 or z >= 1.0:
        return 0.0
    return z ** (L - 1) * (z * math.log(z) - (1 - z) * math.log(1 - z))


def sigma_x(n_docs: int, n_terms: int, doc_word_counts: Iterable[int] | None = None,
            sum_wi: float | None = None) -> float:
    """Corpus coefficient sigma_X of Table II under a uniform query prior.

    sigma_X^2 = sum_i sum_{w not in W_i} p_w^2 = (n|W| - sum_i |W_i|) / |W|^2
    with p_w = 1/|W|. Accepts either the |W_i| multiset or its precomputed
    sum (so Table II's full-scale rows can be derived analytically).
    """
    if sum_wi is None:
        if doc_word_counts is None:
            raise ValueError("need doc_word_counts or sum_wi")
        sum_wi = float(sum(doc_word_counts))
    var = (n_docs * n_terms - sum_wi) / (n_terms**2)
    return math.sqrt(max(0.0, var))


def deviation_bound(sigma: float, delta: float) -> float:
    """Eq 5 inverted: with prob >= 1-delta the observed FP count deviates
    from F(L) by at most sqrt(sigma_X^2 * ln(1/delta) / 2)."""
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    return math.sqrt(0.5 * sigma**2 * math.log(1.0 / delta))
