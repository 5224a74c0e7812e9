"""Synthetic literary corpus: the offline stand-in for *The Great Gatsby*.

The paper's spout reads lines of *The Great Gatsby* as sentences, and the
Splitter's input/output coefficient — the mean words per sentence — is
measured as 7.63–7.64 (Fig. 5).  Only two properties of the text reach the
models: the mean sentence length (it *is* the Splitter's alpha) and the
word-frequency distribution (it drives fields-grouping shares into the
Counter).  This module describes a deterministic corpus with both
properties configurable, defaulting to the paper's measured values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.errors import TopologyError
from repro.heron.groupings import KeyDistribution

__all__ = ["SyntheticCorpus"]

_CONSONANTS = "bcdfghjklmnprstvw"
_VOWELS = "aeiou"


def _synthetic_word(index: int) -> str:
    """A pronounceable, unique word for vocabulary rank ``index``."""
    syllables = []
    n = index + 1
    while n > 0:
        n, rem = divmod(n, len(_CONSONANTS) * len(_VOWELS))
        consonant = _CONSONANTS[rem % len(_CONSONANTS)]
        vowel = _VOWELS[rem // len(_CONSONANTS)]
        syllables.append(consonant + vowel)
    return "".join(syllables)


@dataclass(frozen=True)
class SyntheticCorpus:
    """A deterministic corpus with controlled text statistics.

    Parameters
    ----------
    mean_sentence_words:
        Expected words per sentence; this becomes the Splitter component's
        I/O coefficient.  Default 7.635, the midpoint of the paper's
        measured 7.63–7.64 band.
    vocabulary_size:
        Number of distinct words.  *The Great Gatsby* has roughly 6,000
        distinct words; the default mirrors that.
    zipf_exponent:
        Skew of the word-frequency distribution.  English prose is close
        to Zipf with exponent ~1; the paper observed that Twitter-scale
        key diversity makes fields-grouping bias weak, which holds here
        because hashing scatters ranks across instances.
    """

    mean_sentence_words: float = 7.635
    vocabulary_size: int = 6000
    zipf_exponent: float = 0.6

    def __post_init__(self) -> None:
        if self.mean_sentence_words <= 1.0:
            raise TopologyError("mean_sentence_words must exceed 1")
        if self.vocabulary_size < 1:
            raise TopologyError("vocabulary_size must be positive")

    # ------------------------------------------------------------------
    # Vocabulary
    # ------------------------------------------------------------------
    @property
    def vocabulary(self) -> tuple[str, ...]:
        """The distinct words, most frequent first."""
        return _vocabulary(self.vocabulary_size)

    def word_distribution(self) -> KeyDistribution:
        """Zipf-weighted word frequencies as a routing key distribution."""
        return KeyDistribution.zipf(self.vocabulary, self.zipf_exponent)

    # ------------------------------------------------------------------
    # Sentence statistics
    # ------------------------------------------------------------------
    def words_per_sentence(self) -> float:
        """The corpus-wide mean words per sentence (the Splitter alpha)."""
        return self.mean_sentence_words


@lru_cache(maxsize=8)
def _vocabulary(size: int) -> tuple[str, ...]:
    """Generate (and cache) a deterministic vocabulary of ``size`` words."""
    return tuple(_synthetic_word(i) for i in range(size))
