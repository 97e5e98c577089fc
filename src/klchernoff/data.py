"""Observed count data, simplex points, and the bundled fixture."""

from __future__ import annotations

import csv
import io
import math
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

_CSV_HEADER = ("frequency", "species")


@dataclass(frozen=True)
class ProbVector:
    """A point of the probability simplex with tolerance-checked normalization."""

    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.probs) == 0:
            raise ValueError("probability vector must be nonempty")
        if any(p < 0.0 for p in self.probs):
            raise ValueError("probabilities must be nonnegative")
        total = math.fsum(self.probs)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities must sum to 1 within 1e-12, got {total}")

    def __len__(self) -> int:
        return len(self.probs)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.probs, dtype=float)


@dataclass(frozen=True)
class FrequencyTable:
    """Observed category counts, each at least 1.

    Constructed either from raw per-category counts or from
    frequency-of-frequencies rows (how many categories were seen exactly
    f times).
    """

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.counts) == 0:
            raise ValueError("frequency table must be nonempty")
        if any(not isinstance(c, int) or c < 1 for c in self.counts):
            raise ValueError("all counts must be positive integers")

    @classmethod
    def from_counts(cls, counts) -> "FrequencyTable":
        return cls(counts=tuple(int(c) for c in counts))

    @classmethod
    def from_frequencies(cls, pairs) -> "FrequencyTable":
        counts: list[int] = []
        for frequency, species in pairs:
            frequency, species = int(frequency), int(species)
            if frequency < 1:
                raise ValueError(f"frequency must be a positive integer, got {frequency}")
            if species < 1:
                raise ValueError(f"species count must be a positive integer, got {species}")
            counts.extend([frequency] * species)
        return cls(counts=tuple(counts))

    @property
    def n(self) -> int:
        return sum(self.counts)

    @property
    def k_observed(self) -> int:
        return len(self.counts)

    def phat(self) -> np.ndarray:
        return np.asarray(self.counts, dtype=float) / self.n

    def frequency_entries(self) -> tuple[tuple[int, int], ...]:
        """Collapsed (frequency, species) pairs, ordered by frequency."""
        tally = Counter(self.counts)
        return tuple((f, tally[f]) for f in sorted(tally))

    def to_csv_text(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(_CSV_HEADER)
        writer.writerows(self.frequency_entries())
        return out.getvalue()

    @classmethod
    def from_csv_text(cls, text: str) -> "FrequencyTable":
        reader = csv.reader(io.StringIO(text))
        rows = [row for row in reader if row]
        if not rows:
            raise ValueError("empty count data")
        header = tuple(cell.strip().lower() for cell in rows[0])
        if header != _CSV_HEADER:
            raise ValueError(f"expected CSV header 'frequency,species', got {rows[0]!r}")
        pairs = []
        for row in rows[1:]:
            if len(row) != 2:
                raise ValueError(f"malformed row {row!r}")
            try:
                pairs.append((int(row[0]), int(row[1])))
            except ValueError:
                raise ValueError(f"non-integer entry in row {row!r}") from None
        if not pairs:
            raise ValueError("count data has a header but no rows")
        return cls.from_frequencies(pairs)

    @classmethod
    def from_csv_path(cls, path) -> "FrequencyTable":
        return cls.from_csv_text(Path(path).read_text())


def butterfly_fixture_path() -> Path:
    """Path of the bundled Corbet butterfly species-frequency dataset."""
    return Path(str(resources.files("klchernoff") / "datasets" / "corbet_butterflies.csv"))


def butterfly_table() -> FrequencyTable:
    """The bundled butterfly dataset: 435 species, 2029 individuals."""
    return FrequencyTable.from_csv_path(butterfly_fixture_path())
