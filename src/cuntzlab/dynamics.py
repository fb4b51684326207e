"""Induced Cantor-set dynamics of a diagonal-preserving endomorphism.

The standard masa of O_N is generated by the cylinder projections
s_w s_w^*; a diagonal-preserving endomorphism of rank k induces a
continuous map T on one-sided infinite words whose first p output letters
depend only on the first p + k - 1 input letters.  The finite data is a
BlockMapTable; topological entropy is computed from exact join counts of
the depth-p cylinder partition under T.
"""

from __future__ import annotations

import collections.abc
import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .algebra import AlgebraElement, Word, pack_word, unpack_word, words
from .endomorphism import EndomorphismSpec
from .errors import (DEFAULT_BUDGET, BudgetExceededError,
                     DiagonalNotPreservedError, PartitionError)


@dataclass(frozen=True)
class BlockMapTable:
    """Total map from length-`window` input words to length-`p` output
    words, stored as a packed integer table in lexicographic order."""

    n_gens: int
    p: int
    window: int
    table: np.ndarray  # shape (N^window,), values in [0, N^p)

    def __post_init__(self):
        if self.p <= 0:
            raise ValueError("output depth p must be positive")
        if len(self.table) != self.n_gens ** self.window:
            raise ValueError("table length does not match window")

    def map_word(self, word: Word) -> Word:
        if len(word) != self.window:
            raise ValueError(f"expected a word of length {self.window}")
        code = int(self.table[pack_word(word, self.n_gens)])
        return unpack_word(code, self.p, self.n_gens)

    def partition_ok(self) -> bool:
        """Preimages of distinct outputs are disjoint and exhaust the input
        words; with a total table this reduces to the value range check."""
        return bool((self.table >= 0).all()
                    and (self.table < self.n_gens ** self.p).all())

    def restrict(self, p: int) -> "BlockMapTable":
        """Truncate outputs to depth p <= self.p and shrink the window by
        the same amount."""
        if not 1 <= p <= self.p:
            raise ValueError("restriction depth out of range")
        drop = self.p - p
        stride = self.n_gens ** drop
        return BlockMapTable(self.n_gens, p, self.window - drop,
                             self.table[::stride] // stride)


class JoinCounts(collections.abc.Sequence):
    """The join-count series N(n, p), n = 1..n_max, as (n, N(n, p)) pairs.

    Stored as the counts that refinement computed (the head) and the rule
    that gives every later count exactly (the tail):

    * "stable": the partition stopped refining, so every later count is
      the last head count;
    * "discrete": every partition is discrete, so each step multiplies the
      count by N;
    * None: the head runs to n_max.

    Immutable, and equal to the list of pairs it stands for."""

    __slots__ = ("head", "n_max", "tail", "n_gens")

    def __init__(self, head: Tuple[int, ...], n_max: int,
                 tail: Optional[str], n_gens: int):
        self.head = head
        self.n_max = n_max
        self.tail = tail
        self.n_gens = n_gens

    @property
    def refined_steps(self) -> int:
        return len(self.head)

    def __len__(self) -> int:
        return self.n_max

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        yield from enumerate(self.head, start=1)
        count = self.head[-1]
        factor = self.n_gens if self.tail == "discrete" else 1
        for n in range(len(self.head) + 1, self.n_max + 1):
            count *= factor
            yield n, count

    def __getitem__(self, index):
        return list(self)[index]

    def __eq__(self, other):
        if isinstance(other, (JoinCounts, list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return (f"JoinCounts({list(self)!r}, refined_steps="
                f"{self.refined_steps}, tail={self.tail!r})")


@dataclass(slots=True)
class EntropyReport:
    """Join-count series N(n, p) with exact integer counts and a verdict."""

    perm: str
    masa: str
    p: int
    counts: JoinCounts
    verdict: str  # "log2" | "zero" | "inconclusive"
    estimate_nats: float

    @property
    def increments(self) -> List[Union[int, float]]:
        """log2 of each ratio of consecutive counts, read off the counts."""
        return _increments([c for _, c in self.counts])

    def to_dict(self) -> dict:
        return {
            "perm": self.perm,
            "masa": self.masa,
            "p": self.p,
            "counts": [[n, str(c)] for n, c in self.counts],
            "refined_steps": self.counts.refined_steps,
            "tail": self.counts.tail,
            "increments": [
                float(x) if isinstance(x, float) else str(x) for x in self.increments
            ],
            "verdict": self.verdict,
            "estimate_nats": self.estimate_nats,
        }


def _increments(values: Sequence[int]) -> List[Union[int, float]]:
    """log2 of each ratio of consecutive counts: int bits for an exact
    power of two, else a float."""
    increments: List[Union[int, float]] = []
    for prev, cur in zip(values, values[1:]):
        if cur % prev == 0 and (q := cur // prev) & (q - 1) == 0:
            increments.append(q.bit_length() - 1)
        else:
            increments.append(math.log2(cur / prev))
    return increments


def _verdict(counts: Sequence[Tuple[int, int]]) -> Tuple[str, float]:
    """Exact (verdict, estimate in nats).  A proved tail decides: "stable"
    counts are constant from some n on, so zero, and "discrete" counts
    over two letters double every step, so log2.  Otherwise log2 if the
    last four ratios are exactly 2, zero if the last four counts are
    equal, else inconclusive with an LSQ slope."""
    proved = counts.tail if isinstance(counts, JoinCounts) else None
    if proved == "stable":
        return "zero", 0.0
    if proved == "discrete" and counts.n_gens == 2:
        return "log2", math.log(2.0)
    values = [c for _, c in counts]
    tail = _increments(values)[-4:]
    if len(tail) == 4 and all(x == 1 for x in tail):
        return "log2", math.log(2.0)
    if len(values) >= 4 and len(set(values[-4:])) == 1:
        return "zero", 0.0
    import numpy as np
    ns, logs = [n for n, _ in counts], [math.log(c) for c in values]
    slope = float(np.polyfit(ns, logs, 1)[0]) if len(ns) >= 2 else 0.0
    return "inconclusive", slope


class CantorDynamics:
    """Block maps and entropy for one endomorphism on the standard masa.

    The window at depth p is p + step letters, step = rank - 1.  A
    permutative rho_sigma is read through the spec's sigma^{-1} step table:
    on a head h (the first rank letters of a window) T emits the letter
    first[h] and continues on the word rest[h], the first letter and the
    other step letters of sigma^{-1}(h).  first and rest are plain lists,
    so a series that the discrete tail closes loads no numpy; numpy is
    imported where a table is built, refined or fitted.  Any other rho
    applies itself to cylinder projections."""

    def __init__(self, endo: EndomorphismSpec, budget: int = DEFAULT_BUDGET):
        self.endo = endo
        self.n_gens = endo.n_gens
        self.step = max(endo.rank - 1, 0)
        self.budget = budget
        self._tables: Dict[int, BlockMapTable] = {}
        self._steps: Optional[tuple] = None if endo.perm is None else endo.steps()
        self._step_arrays: Optional[tuple] = None  # made by the first block map
        self._separates = self._separating()  # read by every `_join_counts`

    def label(self) -> str:
        return self.endo.label()

    def masa_name(self) -> str:
        return "standard"

    def diagonal_invariant(self, depth: int) -> bool:
        """Whether the symbolic block map builds at every depth <= `depth`:
        every cylinder projection maps to an exact 0/1 sum of cylinder
        projections, and these sums partition the input words."""
        try:
            for p in range(1, depth + 1):
                self._symbolic_table(p)
        except (DiagonalNotPreservedError, PartitionError):
            return False
        return True

    def block_map(self, p: int) -> BlockMapTable:
        if p <= 0:
            raise ValueError("depth p must be positive")
        if p not in self._tables:
            self._tables[p] = (self._symbolic_table(p) if self._steps is None
                               else self._prepend_letter(p))
        return self._tables[p]

    def _prepend_letter(self, p: int) -> BlockMapTable:
        """Depth-p table from the depth-(p-1) table, for a map that reads
        its input through a window of step + 1 letters.  For each head h
        (the first step + 1 letters of a depth-p window) the map emits the
        letter first[h] and continues on the word rest[h] (step letters)
        followed by the unread input, which is exactly a depth-(p-1)
        window:

            table_p[h, tail] = first[h] * N^(p-1) + table_{p-1}[rest[h], tail]

        The depth-0 table maps every length-`step` word to the empty
        output 0.  first and rest become arrays once, at the first call."""
        import numpy as np
        if self._step_arrays is None:
            self._step_arrays = tuple(map(np.asarray, self._steps))
        first, rest = self._step_arrays
        n = self.n_gens
        window = p + self.step
        self._check_budget(window)
        low = n ** (p - 1)
        prev = (self.block_map(p - 1).table if p > 1
                else np.zeros(n ** self.step, dtype=np.int64))
        table = first[:, None] * low + prev.reshape(-1, low)[rest]
        return BlockMapTable(n, p, window, table.ravel())

    def _symbolic_table(self, p: int) -> BlockMapTable:
        """Generic construction from rho applied to cylinder projections."""
        import numpy as np
        n = self.n_gens
        window = p + self.step
        self._check_budget(window)
        table = np.full(n ** window, -1, dtype=np.int64)
        for v in words(n, p):
            img = self.endo.apply(AlgebraElement.diagonal(n, v))
            if any(d != 0 for d in img.degrees()):
                raise DiagonalNotPreservedError(
                    f"image of cylinder {v} has unbalanced terms", v)
            lev = img.level({0: window}, self.budget)
            if not lev.is_diagonal_01():
                raise DiagonalNotPreservedError(
                    f"image of cylinder {v} is not a 0/1 diagonal sum", v)
            code_v = pack_word(v, n)
            for mono in lev.terms:
                w = pack_word(mono.left, n)
                if table[w] != -1:
                    raise PartitionError(
                        f"input word {mono.left} claimed by two outputs",
                        mono.left)
                table[w] = code_v
        if (table == -1).any():
            word = unpack_word(int(np.argmin(table)), window, n)
            raise PartitionError(f"block map is not total: {word} uncovered",
                                 word)
        return BlockMapTable(n, p, window, table)

    def _check_budget(self, length: int) -> None:
        if self.n_gens ** length > self.budget:
            raise BudgetExceededError(
                f"word length {length} needs {self.n_gens ** length} words, "
                f"budget {self.budget}")

    # -- join counting ------------------------------------------------------

    def join_count(self, p: int, n_steps: int) -> int:
        """N(n, p): number of distinct itineraries (w|_p, (Tw)|_p, ...,
        (T^{n-1}w)|_p), exact."""
        return self._join_counts(p, n_steps)[-1][1]

    def _join_counts(self, p: int, n_max: int) -> JoinCounts:
        """Incremental itinerary-class refinement: the class of w after n
        steps is the pair (w|_p, class of Tw after n-1 steps).

        Two exact tails end refinement early.

        Stable: each partition refines the one before it, so N(n+1, p) =
        N(n, p) means the two partitions are equal; then the class after
        n+2 steps is (w|_p, class of Tw after n+1 steps) = the class after
        n+1 steps, and every later count is the same.

        Discrete: when `_separating()` holds, every partition is discrete
        and N(n, p) = N^(p+n-1), so no table is read.  The tables come
        from `_prepend_letter` with step 1, so for a window w of m+1
        letters table_m[w] = first(w_0 w_1) N^(m-1) +
        table_(m-1)[rest(w_0 w_1) w_2 ... w_m].  `_separating()` says
        that w_0 and first(w_0 w_1) give w_1, hence the letter
        rest(w_0 w_1), and by induction on m the rest of the output gives
        w_2 ... w_m.  So w|_p and (Tw)|_(length-1) determine w: a partition
        discrete at step n-1 is discrete at step n, and at n = 1 it is
        discrete.

        The pair is the key h * n_classes + class(Tw) in [0, N^p *
        n_classes).  While that range fits the budget, the keys are marked
        in a boolean array instead of sorted: the marks count the classes,
        and when every word has its own key the partition is discrete, so
        the words label themselves and no class array is built.  Otherwise
        the rank of each key among the marked ones is its label, built
        only when the count moved: a stable step ends the series unlabelled.
        Past the budget the keys are sorted.

        The budget is checked per refined step, by the block map each step
        reads (N^length words, as many as the keys), so a series that a
        tail closes early is never refused for the steps it did not take."""
        if p < 1:
            raise ValueError(f"partition depth p must be at least 1, got {p}")
        if n_max < 1:
            raise ValueError(f"join steps n must be at least 1, got {n_max}")
        n = self.n_gens
        # the discrete tail reads no table, so it is not budgeted
        if self._separates:
            return JoinCounts((n ** p,), n_max, "discrete", n)
        import numpy as np
        head = [n ** p]
        # None: the partition is discrete and each word is its own class
        cls: Optional[np.ndarray] = None
        n_classes = n ** p
        for steps in range(2, n_max + 1):
            length = p + (steps - 1) * self.step
            # the block map of depth length - step sends each length-`length`
            # word to its full image; words are packed most-significant
            # letter first, so row h of the (N^p, N^(length-p)) view holds
            # the words with prefix h
            full_image = self.block_map(length - self.step).table
            img_cls = full_image if cls is None else cls[full_image]
            keys = (np.arange(n ** p, dtype=np.int64)[:, None] * n_classes
                    + img_cls.reshape(n ** p, -1)).ravel()
            key_range = n ** p * n_classes
            if key_range <= self.budget:
                mark = np.zeros(key_range, dtype=bool)
                mark[keys] = True
                refined = int(np.count_nonzero(mark))
                if refined == keys.size:
                    cls = None
                elif refined != n_classes:  # a stable step needs no labels
                    lookup = np.empty(key_range, dtype=np.int64)
                    lookup[np.flatnonzero(mark)] = np.arange(refined)
                    cls = lookup[keys]
            else:
                _, cls = np.unique(keys, return_inverse=True)
                refined = int(cls.max()) + 1
            head.append(refined)
            if refined == n_classes:
                return JoinCounts(tuple(head), n_max, "stable", n)
            n_classes = refined
        return JoinCounts(tuple(head), n_max, None, n)

    def _separating(self) -> bool:
        """Whether the discrete tail of `_join_counts` applies: rho is
        permutative, step is 1, and for each letter x0 the map
        x1 -> first(sigma^{-1}(x0 x1)) is one-to-one, i.e. every run of N
        consecutive entries of first (the heads x0 x1 with one x0) is a
        permutation of the letters.  The depth-1 table is first itself,
        so this is `separation_check(1)`: x0 and the output letter give
        x1.  Any other rho is refined.  The constructor runs it once."""
        if self._steps is None or self.step != 1:
            return False
        n, first = self.n_gens, self._steps[0]
        # the entries are letters 0..N-1, so N distinct ones are all of them
        return all(len(set(first[h:h + n])) == n for h in range(0, n * n, n))

    def entropy(self, p_max: int = 4, n_max: int = 16) -> List[EntropyReport]:
        """One EntropyReport per depth p = 1..p_max."""
        if p_max < 1:
            raise ValueError(
                f"maximum partition depth must be at least 1, got {p_max}")
        label, masa = self.label(), self.masa_name()
        reports = []
        for p in range(1, p_max + 1):
            counts = self._join_counts(p, n_max)
            reports.append(EntropyReport(label, masa, p, counts,
                                         *_verdict(counts)))
        return reports

    @staticmethod
    def summarize(reports: Sequence[EntropyReport]) -> EntropyReport:
        """Supremum over depths: the largest estimate, and on equal
        estimates log2 before inconclusive before zero."""
        rank = {"zero": 0, "inconclusive": 1, "log2": 2}
        return max(reports, key=lambda r: (r.estimate_nats, rank[r.verdict]))

    # -- separation certificate --------------------------------------------

    def separation_check(self, depth: int) -> bool:
        """Certificate for h_top(T) >= log 2: whenever two inputs share
        their first j letters but differ at letter j+1, their depth-j
        outputs differ (for every j <= depth).  Equivalently, on each
        fixed-prefix fiber the output determines the (j+1)-th input letter."""
        import numpy as np
        n = self.n_gens
        for j in range(1, depth + 1):
            tbl = self.block_map(j)
            length = tbl.window
            if length < j + 1:
                return False
            codes = np.arange(n ** length, dtype=np.int64)
            prefix = codes // (n ** (length - j))
            midletter = (codes // (n ** (length - j - 1))) % n
            pairs = prefix * (n ** j) + tbl.table
            triples = pairs * n + midletter
            if len(np.unique(triples)) != len(np.unique(pairs)):
                return False
        return True


# bench/tracing.py and bench/make_refs.py wrap the dynamics by this name
JoinDynamics = CantorDynamics
