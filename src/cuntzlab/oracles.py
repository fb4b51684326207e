"""Closed-form induced maps used as independent oracles.

Each oracle is a total word-to-word rule with a fixed sliding window of 1
or 2 letters: on input w of length L it outputs a word of length
L - (window - 1).  They are implemented straight from their displayed
formulas, independently of the symbolic engine, and serve as ground truth
for block-map tables (alphabet {1, 2} throughout).
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from .algebra import Word, words
from .dynamics import BlockMapTable, pack_word
from .endomorphism import EndomorphismSpec

import numpy as np


def _segments(prefix: Word) -> int:
    """Number of maximal constant segments of a word."""
    if not prefix:
        return 0
    return 1 + sum(1 for a, b in zip(prefix, prefix[1:]) if a != b)


def _ones(prefix: Word) -> int:
    return sum(1 for c in prefix if c == 1)


def _oracle_id(w: Word) -> Word:
    return w


def _oracle_shift(w: Word) -> Word:
    return w[1:]


def _oracle_flip(w: Word) -> Word:
    return tuple(3 - c for c in w)


def _oracle_first_letter_flip(w: Word) -> Word:
    return (3 - w[0],) + w[1:]


def _oracle_psi12(w: Word) -> Word:
    # out_k = 1 iff the number of 1s among the first k letters is odd
    return tuple(1 if _ones(w[:k]) % 2 == 1 else 2 for k in range(1, len(w) + 1))


def _oracle_psi1324(w: Word) -> Word:
    return tuple(2 if _ones(w[:k]) % 2 == 1 else 1 for k in range(1, len(w) + 1))


def _oracle_t13(w: Word) -> Word:
    return tuple(1 if w[k] != w[k + 1] else 2 for k in range(len(w) - 1))


def _oracle_t1432(w: Word) -> Word:
    out = [1 if w[0] == w[1] else 2]
    out.extend(1 if w[k] != w[k + 1] else 2 for k in range(1, len(w) - 1))
    return tuple(out)


def _oracle_t123(w: Word) -> Word:
    return tuple(1 if _segments(w[:k + 2]) % 2 == 0 else 2
                 for k in range(len(w) - 1))


def _oracle_t142(w: Word) -> Word:
    # out_k depends on the parity of k plus the segment count of w|_{k+1}
    return tuple(1 if (k + 1 + _segments(w[:k + 2])) % 2 == 0 else 2
                 for k in range(len(w) - 1))


def _oracle_tEF(w: Word) -> Word:
    return tuple(1 if w[k] == w[k + 1] else 2 for k in range(len(w) - 1))


def _oracle_case2A(w: Word) -> Word:
    return tuple(1 if w[k + 1] == 2 else 2 for k in range(len(w) - 1))


def _oracle_case2B(w: Word) -> Word:
    return tuple(1 if w[k + 1] == 1 else 2 for k in range(len(w) - 1))


ORACLES: Dict[str, Tuple[int, Callable[[Word], Word]]] = {
    "id": (1, _oracle_id),
    "shift": (2, _oracle_shift),
    "flip": (1, _oracle_flip),
    "first-letter-flip": (1, _oracle_first_letter_flip),
    "psi12": (1, _oracle_psi12),
    "psi1324": (1, _oracle_psi1324),
    "t13": (2, _oracle_t13),
    "t1432": (2, _oracle_t1432),
    "t123": (2, _oracle_t123),
    "t142": (2, _oracle_t142),
    "tEF": (2, _oracle_tEF),
    "case2A": (2, _oracle_case2A),
    "case2B": (2, _oracle_case2B),
}


def oracle_map(name: str, w: Word) -> Word:
    """Apply the named oracle to w; |w| must be at least the window size."""
    window, fn = ORACLES[name]
    if len(w) < window:
        raise ValueError(f"oracle {name} needs at least {window} letters")
    return fn(w)


def oracle_table(name: str, p: int, window_hint: int = 2) -> BlockMapTable:
    """Depth-p block-map table of the oracle over the window length that a
    rank-`window_hint` endomorphism would use (p + window_hint - 1)."""
    length = p + window_hint - 1
    n = 2
    table = np.zeros(n ** length, dtype=np.int64)
    for w in words(n, length):
        out = oracle_map(name, w)[:p]
        table[pack_word(w, n)] = pack_word(out, n)
    return BlockMapTable(n, p, length, table)


def oracle_equivalence(dyn, name: str, depth: int) -> bool:
    """True iff the engine's block maps match the oracle's truncations at
    every depth p <= depth.  `dyn` is a CantorDynamics, ProductMasaDynamics
    included."""
    for p in range(1, depth + 1):
        engine = dyn.block_map(p)
        oracle = oracle_table(name, p, window_hint=engine.window - p + 1)
        if not np.array_equal(engine.table, oracle.table):
            return False
    return True


def case2_oracle_for(endo: EndomorphismSpec) -> str:
    """Pick case2A or case2B from the computed image of s_1 s_1^*.

    Rank-2 diagonal-preserving endomorphisms whose induced map forgets the
    first input letter are determined by rho(s_1 s_1^*): either
    s_{12}s_{12}^* + s_{22}s_{22}^* (out_k = 1 iff w_{k+1} = 2) or
    s_{11}s_{11}^* + s_{21}s_{21}^* (out_k = 1 iff w_{k+1} = 1)."""
    from .algebra import AlgebraElement
    from .parsing import parse_element

    img = endo.apply(AlgebraElement.diagonal(2, (1,)))
    if img == parse_element("s[12] t[12] + s[22] t[22]", 2):
        return "case2A"
    if img == parse_element("s[11] t[11] + s[21] t[21]", 2):
        return "case2B"
    raise ValueError("endomorphism does not match either first-letter-forgetting case")
