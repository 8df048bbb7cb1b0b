"""Instances, the counting comparison oracle, and instance generators.

An instance is n colored balls, identified by the indices 1..n, whose
colors are one read-only int64 array that generation, the oracle, brute
force and the instance files all read.  Algorithms never see colors; they
learn about them only through CountingOracle, which answers "same color?"
one pair at a time (``cmp``), for a whole batch of pairs (``cmp_many``), as
an early-stopping scan over pairs (``scan_until``), or as the comparisons of
Boyer-Moore's first pass over a list of balls (``vote``), and bills one
comparison for every answer it hands out.
The oracle can optionally record a transcript of (x, y, equal) triples,
which is what the certificate auditing in `certify` consumes; each call
records one batch of arrays, so the batches keep call order.

The billing rule is that the solver never learns a comparison it is not
billed for.  ``scan_until`` looks colors up in doubling windows and may
look past its stopping point, but nothing past the stop is billed, recorded
or returned.  ``vote`` looks up the colors of all its balls at once,
steps the start of each segment of the pass through a counter loop and
finishes a segment whose lead grows long with array windows, bills every
comparison of the pass, one per ball that does not become a fresh
candidate, and records them as one batch.

The primitives check balls in one place, ``_ball`` for one ball and
``_indices`` for an array or sequence: a value that is not an integer,
bools and floats included, raises ValueError and a ball outside 1..n
IndexError naming it, before anything is billed.  ``_indices`` range-checks
once, into a fresh array of 0-based indices that the primitive gathers the
colors into in place, so the caller's arrays are only read.  The
transcript keeps copies of the balls, since callers may reuse theirs.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .rng import RandomStream

__all__ = [
    "Instance",
    "ComparisonRecord",
    "Transcript",
    "CountingOracle",
    "DistributionSpec",
    "parse_distribution",
    "generate",
    "relabel",
    "read_instance",
    "write_instance",
]


def _require_integers(values: Sequence | np.ndarray, what: str) -> None:
    """Raise ValueError unless every value is an integer (bools are not).

    An array of an integer dtype passes at once.  Anything else is checked
    value by value, since converting it to int64 would truncate a float or
    parse a string.  Object arrays pass when they hold ints only, such as
    ids too large for int64.
    """
    if isinstance(values, np.ndarray):
        if values.dtype.kind in "iu" or not values.size:
            return
        if values.dtype != object:
            raise ValueError(f"{what} must be integers, got dtype {values.dtype}")
        values = values.flat
    for value in values:
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{what} must be integers, got {value!r}")


def _integer(value, what: str) -> int:
    """The value as a Python int; ValueError unless it is an integer (bools are not)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


class Instance:
    """Immutable multiset of colored balls; colors are opaque unsigned ints.

    The colors live in one read-only int64 array, ``color_array``, which
    construction copies from a sequence or array, or adopts without a copy
    when it is already a read-only int64 array.  Color ids too large for
    int64 are stored as their ranks among the instance's distinct ids,
    which keeps every equality and the order of the ids, and the ids
    themselves are kept as the table of labels those ranks index.
    """

    __slots__ = ("color_array", "_labels")

    def __init__(self, colors: Sequence[int] | np.ndarray):
        labels = None
        int64_array = isinstance(colors, np.ndarray) and colors.dtype == np.int64
        if int64_array and not colors.flags.writeable:
            ids = colors
        else:
            if not isinstance(colors, (np.ndarray, Sequence)):  # a scalar, say, or None
                raise ValueError(f"colors must be one-dimensional, got shape {np.shape(colors)}")
            _require_integers(colors, "color ids")
            if isinstance(colors, np.ndarray) and colors.dtype == np.uint64 and colors.size:
                # Cast to int64, ids past its range would wrap; as objects they
                # overflow into the rank path below.
                if colors.max() > np.iinfo(np.int64).max:
                    colors = colors.astype(object)
            try:
                ids = np.array(colors, dtype=np.int64)
            except OverflowError:
                if np.ndim(colors) != 1:
                    raise ValueError(
                        f"colors must be one-dimensional, got shape {np.shape(colors)}"
                    ) from None
                colors = [int(c) for c in colors]
                labels = tuple(sorted(set(colors)))
                if labels[0] < 0:
                    raise ValueError("color ids must be unsigned") from None
                rank = {c: i for i, c in enumerate(labels)}
                ids = np.array([rank[c] for c in colors], dtype=np.int64)
        if ids.ndim != 1:
            raise ValueError(f"colors must be one-dimensional, got shape {ids.shape}")
        if len(ids) and ids.min() < 0:
            raise ValueError("color ids must be unsigned")
        ids.flags.writeable = False
        object.__setattr__(self, "color_array", ids)
        object.__setattr__(self, "_labels", labels)

    def __setattr__(self, name, value):
        raise AttributeError(f"Instance is immutable; cannot set {name!r}")

    def __reduce__(self):
        return Instance, (self.color_array if self._labels is None else self.colors,)

    @property
    def n(self) -> int:
        return len(self.color_array)

    @property
    def colors(self) -> tuple[int, ...]:
        """The color ids as a tuple of Python ints, built on each call."""
        if self._labels is None:
            return tuple(self.color_array.tolist())
        return tuple(map(self._labels.__getitem__, self.color_array.tolist()))

    def color_of(self, ball: int) -> int:
        """Color of a 1-based ball index. Test/generator privilege only.

        A ball that is not an integer raises ValueError, and one outside
        1..n IndexError naming it.
        """
        ball = _integer(ball, "color_of: a ball")
        if not 1 <= ball <= self.n:
            raise IndexError(f"ball index out of range: color_of got {ball} with n={self.n}")
        color = int(self.color_array[ball - 1])
        return color if self._labels is None else self._labels[color]

    def __eq__(self, other):
        if not isinstance(other, Instance):
            return NotImplemented
        same_labels = self._labels == other._labels
        return same_labels and np.array_equal(self.color_array, other.color_array)

    def __hash__(self):
        return hash((self.color_array.tobytes(), self._labels))

    def __repr__(self):
        return f"Instance({self.colors!r})"


class ComparisonRecord(NamedTuple):
    left: int
    right: int
    equal: bool


class Transcript:
    """The comparisons an oracle answered, in call order, stored as columns.

    Each oracle call adds its records as one chunk of arrays, so the chunks
    keep call order.  ``columns`` joins them into one chunk when read.
    Iterating yields ComparisonRecords; ``columns`` yields the arrays.
    """

    __slots__ = ("_chunks",)

    def __init__(self):
        self._chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def _add_batch(self, left: np.ndarray, right: np.ndarray, equal: np.ndarray) -> None:
        self._chunks.append((left, right, equal))

    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(left, right, equal) over every record: int64, int64, bool."""
        if not self._chunks:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty, np.zeros(0, dtype=bool)
        if len(self._chunks) > 1:
            self._chunks = [tuple(np.concatenate(col) for col in zip(*self._chunks))]
        return self._chunks[0]

    def __len__(self) -> int:
        return sum(len(chunk[0]) for chunk in self._chunks)

    def __iter__(self) -> Iterator[ComparisonRecord]:
        left, right, equal = self.columns()
        return map(ComparisonRecord._make, zip(left.tolist(), right.tolist(), equal.tolist()))


# The shortest window of pairs whose colors scan_until looks up at once,
# and of balls that _segment_end steps through at once.
_FIRST_WINDOW = 1024

# The lead at which vote stops stepping a segment ball by ball.
_WALK_LEAD = 16


def _segment_end(colors: np.ndarray, color: int, lo: int, lead: int) -> int:
    """The position after the ball that ends a segment of Boyer-Moore's pass one.

    The segment's candidate has ``color`` and leads by ``lead`` before
    position ``lo``; from there every ball raises the lead by one if it has
    that colour and lowers it by one if not.  Returns the position after the
    first ball that brings the lead to zero, or len(colors) if none does.
    The balls are stepped through in windows that double in length, as in
    ``scan_until``.
    """
    m, size = len(colors), _FIRST_WINDOW
    while lo < m:
        hi = min(m, lo + size)
        same = colors[lo:hi] == color
        walk = np.subtract(same, ~same, dtype=np.int64)  # each ball's step
        np.cumsum(walk, out=walk)
        ends = walk == -lead
        end = int(ends.argmax())
        if ends[end]:
            return lo + end + 1
        lead += int(walk[-1])
        lo, size = hi, 2 * size
    return m


class CountingOracle:
    """Comparison oracle over one instance.

    Counts every comparison, including repeated and self-comparisons: the
    cost model charges for asking, not for learning something new, so there
    is deliberately no memoization.  cmp(x, x) returns True and costs 1.
    Every answer handed out is billed and, when recording, recorded in the
    order the equivalent cmp calls would make them.

    The primitives are ``cmp`` (one pair), ``cmp_many`` (a batch of pairs),
    ``scan_until`` (pairs in order up to the k-th event) and ``vote``
    (Boyer-Moore's first pass, which reports the balls that joined the
    candidate and leaves the cancelled pairs to the caller).  Each call
    records one batch, ``cmp`` a batch of one row.  Each checks its balls
    through ``_ball`` or ``_indices`` before it bills anything.
    """

    __slots__ = ("instance", "_ids", "_colors", "_n", "comparisons", "_transcript")

    def __init__(self, instance: Instance, record_transcript: bool = False):
        self.instance = instance
        self._ids = instance.color_array
        self._colors = memoryview(self._ids)  # indexes to Python ints, for scalar cmp
        self._n = instance.n
        self.comparisons = 0
        self._transcript: Transcript | None = Transcript() if record_transcript else None

    def _ball(self, op: str, x) -> int:
        """One ball as a Python int: ValueError unless an integer (bools are
        not), IndexError naming it unless in 1..n.  A Python int skips the
        type check, so scalar ``cmp`` stays cheap."""
        if type(x) is not int:
            x = _integer(x, f"{op}: a ball")
        if not 1 <= x <= self._n:
            raise IndexError(f"ball index out of range: {op} got {x} with n={self._n}")
        return x

    def _indices(self, op: str, balls) -> tuple[np.ndarray, np.ndarray]:
        """The balls as an int64 array, and a fresh int64 array of their 0-based indices.

        Balls that are not integers or not one-dimensional raise ValueError,
        and IndexError names the first ball outside 1..n by its own value,
        even one beyond int64.  An int64 array is not copied.  Viewed as
        unsigned, an index below 0 wraps past n, so one max checks both ends.
        """
        n = self._n
        if not isinstance(balls, (np.ndarray, Sequence)):  # a scalar, say, or a generator
            raise ValueError(f"{op}: balls must be one-dimensional, got shape {np.shape(balls)}")
        _require_integers(balls, f"{op}: balls")
        try:
            array = np.asarray(balls, dtype=np.int64)  # a uint64 ball past int64 wraps below 1
        except OverflowError:  # a ball beyond int64, in a list or an object array
            array = np.asarray(balls, dtype=object)
        if array.ndim != 1:
            raise ValueError(f"{op}: balls must be one-dimensional, got shape {array.shape}")
        if array.dtype == np.int64:
            idx = np.subtract(array, 1)
            if not len(idx) or np.maximum.reduce(idx.view(np.uint64)) < n:
                return array, idx
        values = balls.tolist() if isinstance(balls, np.ndarray) else balls
        bad = next(b for b in values if not 1 <= b <= n)
        raise IndexError(f"ball index out of range: {op} got {bad} with n={n}")

    def cmp(self, x: int, y: int) -> bool:
        """Compare balls x and y: bills one comparison and returns True if equal.

        A ball that is not an integer raises ValueError and a bad index
        IndexError, before anything is billed or recorded.
        """
        x, y = self._ball("cmp", x), self._ball("cmp", y)
        self.comparisons += 1
        equal = self._colors[x - 1] == self._colors[y - 1]
        if self._transcript is not None:
            pair = np.array((x, y), dtype=np.int64)
            self._transcript._add_batch(pair[:1], pair[1:], np.array((equal,)))
        return equal

    def cmp_many(self, xs: int | np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Compare xs[i] with ys[i] for every i; xs may be a single ball.

        Bills len(ys) comparisons and returns the answers as a bool array.
        The whole batch is checked first, as in ``cmp``, and the colours are
        gathered into the index arrays the check makes.
        """
        ys, iy = self._indices("cmp_many", ys)
        ids = self._ids
        single = not isinstance(xs, (np.ndarray, list, tuple))
        if single:
            xs = self._ball("cmp_many", xs)
            color = ids[xs - 1]
        else:
            xs, ix = self._indices("cmp_many", xs)
            if xs.shape != ys.shape:
                raise ValueError(f"cmp_many: {xs.shape} left balls against {ys.shape} right")
            # In place: "clip" skips the copy of the output that "raise" makes,
            # and every index is already in range.
            color = ids.take(ix, out=ix, mode="clip")
        equal = ids.take(iy, out=iy, mode="clip") == color
        self.comparisons += len(ys)
        if self._transcript is not None:
            left = np.full(len(ys), xs, dtype=np.int64) if single else xs.copy()
            self._transcript._add_batch(left, ys.copy(), equal)
        return equal

    def scan_until(
        self, v: int | None, firsts: np.ndarray, seconds: np.ndarray, k: int
    ) -> np.ndarray:
        """Walk the pairs (firsts[i], seconds[i]) in order; stop after the k-th event.

        With ``v`` None a pair costs one comparison, firsts[i] against
        seconds[i], and its event is that the two differ.  With a ball
        ``v`` a pair compares v with firsts[i] and, only if that missed,
        with seconds[i]; its event is two misses.  Returns the event flags
        of the pairs walked: up to and including the k-th event, or all of
        them.  Bills and records exactly the comparisons of that loop, in
        its order.  Balls are checked as in ``cmp``; mismatched columns or a
        k that is not an integer of at least 1 raise ValueError.
        """
        return self._scan(v, firsts, seconds, k)[0]

    def _scan(
        self, v: int | None, firsts: np.ndarray, seconds: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """``scan_until``, also returning whether v missed firsts[i] for each pair walked.

        Without a ball ``v`` these misses are the events.
        """
        firsts, ix = self._indices("scan_until", firsts)
        seconds, iy = self._indices("scan_until", seconds)
        if firsts.shape != seconds.shape:
            raise ValueError(f"scan_until: {firsts.shape} first balls against {seconds.shape}")
        k = _integer(k, "scan_until: k")
        if k < 1:
            raise ValueError(f"scan_until: k must be at least 1, got {k}")
        ids, color = self._ids, None
        if v is not None:
            v = self._ball("scan_until", v)
            color = ids[v - 1]
        # Colors are looked up in windows that double in length, never twice
        # for one pair, until the k-th event is inside one.  The k-th event
        # is at pair k or later, and a lookup costs less than a numpy call,
        # so the first window holds max(k, _FIRST_WINDOW) pairs.  Each window
        # is gathered in place into the index arrays, as in cmp_many.
        chunks: list[np.ndarray] = []
        misses: list[np.ndarray] = []
        found, lo, hi = 0, 0, min(len(ix), max(k, _FIRST_WINDOW))
        walked = len(ix)
        while True:
            first = ids.take(ix[lo:hi], out=ix[lo:hi], mode="clip")
            second = ids.take(iy[lo:hi], out=iy[lo:hi], mode="clip")
            if color is None:
                event = first != second
            else:
                miss = first != color
                misses.append(miss)
                event = miss & (second != color)
            chunks.append(event)
            hits = event.nonzero()[0]
            if found + len(hits) >= k:
                walked = lo + int(hits[k - 1 - found]) + 1
                break
            if hi == len(ix):
                break
            found += len(hits)
            lo, hi = hi, min(len(ix), 2 * hi)
        events = np.concatenate(chunks)[:walked]
        if v is None:
            self.comparisons += walked
            if self._transcript is not None:
                left, right = firsts[:walked].copy(), seconds[:walked].copy()
                self._transcript._add_batch(left, right, ~events)
            return events, events
        miss = np.concatenate(misses)[:walked]
        asked = walked + int(np.count_nonzero(miss))
        self.comparisons += asked
        if self._transcript is not None:
            # Pair i asks v against firsts[i] in slot 2i and, only on a miss,
            # against seconds[i] in slot 2i + 1.
            slots = np.column_stack((np.ones(walked, dtype=bool), miss)).ravel().nonzero()[0]
            right = np.column_stack((firsts[:walked], seconds[:walked])).ravel().take(slots)
            equal = np.column_stack((~miss, ~events)).ravel().take(slots)
            self._transcript._add_batch(np.full(asked, v, dtype=np.int64), right, equal)
        return events, miss

    def vote(self, balls: np.ndarray) -> tuple[int, np.ndarray]:
        """Boyer-Moore's first pass over the balls, in their order.

        A ball met while the candidate's lead is zero becomes the candidate
        at no cost.  Every other ball is compared with the candidate: an
        equal one raises the lead, an unequal one lowers it.  Returns the
        last candidate and ``joined``, a bool array that is True for the
        balls that became the candidate or matched it and False for the
        balls that cancelled one.  Bills and records exactly the comparisons
        of that pass, in its order, as one batch.  A bad index raises
        IndexError, and balls that are not integers or no balls raise
        ValueError, before anything is billed or recorded.

        The pass runs as a counter loop over the gathered colours until a
        segment's lead reaches _WALK_LEAD; ``_segment_end`` then finds the
        end of that segment with array windows and the loop resumes after
        it.  A segment of many colours rarely gets that far and pays for the
        counter loop alone; a long lead, as on fair coins, costs numpy steps
        instead of Python ones.
        """
        balls, idx = self._indices("vote", balls)
        m = len(balls)
        if not m:
            raise ValueError("vote: needs at least one ball")
        # In place, as in cmp_many.
        colors = self._ids.take(idx, out=idx, mode="clip")
        # A counter loop starts every segment at ``pos``.  A segment whose
        # lead falls to zero after ``up`` joins holds 2 * up + 2 balls.  Once
        # its lead reaches _WALK_LEAD, _segment_end finishes the segment with
        # arrays and the list iterator jumps past it.
        fresh: list[int] = []  # the positions of the fresh candidates
        pos, walk_lead = 0, _WALK_LEAD
        values = iter(colors.tolist())
        for color in values:
            fresh.append(pos)
            lead, up = 1, 0
            for c in values:
                if c == color:
                    lead += 1
                    up += 1
                    if lead == walk_lead:
                        # Behind it: the candidate, up joins, up + 1 - lead cancels.
                        pos = _segment_end(colors, color, pos + 2 * up + 2 - lead, lead)
                        values.__setstate__(pos)
                        break
                else:
                    lead -= 1
                    if not lead:
                        pos += 2 * up + 2
                        break
        fresh.append(m)
        bounds = np.array(fresh)
        starts = bounds[:-1]
        lengths = bounds[1:] - starts
        joined = colors[starts].repeat(lengths) == colors
        self.comparisons += m - len(starts)
        if self._transcript is not None:
            # Each ball met the latest fresh candidate at or before it: its owner.
            owner = starts.repeat(lengths)
            # Integer indices: a mask this irregular gathers far more slowly.
            asked = (owner != np.arange(m)).nonzero()[0]
            left = balls[owner[asked]]
            self._transcript._add_batch(left, balls[asked], joined[asked])
        return int(balls[starts[-1]]), joined

    def distinct_balls(self, balls: Iterable[int]) -> np.ndarray:
        """The given balls as an int64 array, in their order; an int64 array is not copied.

        Raises ValueError, before anything is billed, when the balls are not
        a one-dimensional list of integers, or when a ball lies outside 1..n
        or appears twice.  The balls are checked as the primitives check
        theirs, and one sort of their indices puts a repeat next to its twin.
        """
        if isinstance(balls, Iterable) and not isinstance(balls, np.ndarray):
            balls = list(balls)  # a scalar is left for _indices to reject
        try:
            given, idx = self._indices("distinct_balls", balls)
        except IndexError as exc:
            raise ValueError(f"balls must lie in 1..{self._n}: {exc}") from None
        idx.sort()
        if np.count_nonzero(idx[1:] == idx[:-1]):
            raise ValueError("balls must be distinct")
        return given

    @property
    def recording(self) -> bool:
        return self._transcript is not None

    @property
    def transcript(self) -> Transcript:
        if self._transcript is None:
            raise ValueError("transcript recording was not enabled")
        return self._transcript


# ----------------------------------------------------------------------
# Instance generation
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DistributionSpec:
    """Parsed form of a distribution string.

    kind: "binary" | "profile" | "distinct" | "uniform"
    """

    kind: str
    p: float = 0.5                       # binary
    fractions: tuple[float, ...] = ()    # profile (fractions variant)
    counts: tuple[int, ...] = ()         # profile (exact counts variant)
    rest_colors: int = 0                 # profile: spread remainder over this many colors
    k: int | None = None                 # uniform; None means k = n


def parse_distribution(text: str) -> DistributionSpec:
    """Parse the CLI distribution grammar.

    binary:p=0.5 | profile:0.48,rest=100 | profile:5,3 | distinct | uniform:k=64

    A malformed spec raises ValueError.  So does a number in it that does
    not parse, or a profile fraction that is not finite, naming the spec.
    """
    text = text.strip()

    def number(convert, value: str):
        try:
            return convert(value)
        except ValueError:
            raise ValueError(f"bad number {value.strip()!r} in distribution {text!r}") from None

    head, _, body = text.partition(":")
    head = head.strip().lower()

    if head == "distinct":
        if body:
            raise ValueError("distinct takes no arguments")
        return DistributionSpec(kind="distinct")

    if head == "binary":
        p = 0.5
        if body:
            key, _, val = body.partition("=")
            if key.strip() != "p":
                raise ValueError(f"binary expects p=..., got {body!r}")
            p = number(float, val)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"binary p must be in [0,1], got {p}")
        return DistributionSpec(kind="binary", p=p)

    if head == "uniform":
        if not body:
            return DistributionSpec(kind="uniform", k=None)
        key, _, val = body.partition("=")
        if key.strip() != "k":
            raise ValueError(f"uniform expects k=..., got {body!r}")
        val = val.strip()
        if val == "n":
            return DistributionSpec(kind="uniform", k=None)
        k = number(int, val)
        if k < 1:
            raise ValueError("uniform k must be >= 1")
        return DistributionSpec(kind="uniform", k=k)

    if head == "profile":
        if not body:
            raise ValueError("profile needs at least one weight")
        rest = 0
        parts = [p.strip() for p in body.split(",") if p.strip()]
        weights: list[str] = []
        for part in parts:
            if part.startswith("rest="):
                rest = number(int, part[5:])
                if rest < 1:
                    raise ValueError("rest must be >= 1")
            else:
                weights.append(part)
        if not weights:
            raise ValueError("profile needs at least one weight")
        if all("." not in w and "e" not in w.lower() for w in weights):
            counts = tuple(number(int, w) for w in weights)
            if rest:
                raise ValueError("rest= only applies to fractional profiles")
            if any(c < 0 for c in counts):
                raise ValueError("profile counts must be nonnegative")
            return DistributionSpec(kind="profile", counts=counts)
        fractions = tuple(number(float, w) for w in weights)
        if not all(math.isfinite(f) for f in fractions):
            raise ValueError(f"profile fractions must be finite, got {text!r}")
        if any(f < 0 for f in fractions):
            raise ValueError("profile fractions must be nonnegative")
        total = sum(fractions)
        if rest:
            if total > 1.0 + 1e-9:
                raise ValueError(f"profile fractions sum to {total} > 1 with rest=")
        elif abs(total - 1.0) > 1e-6:
            raise ValueError(f"profile fractions must sum to 1, got {total}")
        return DistributionSpec(kind="profile", fractions=fractions, rest_colors=rest)

    raise ValueError(f"unknown distribution kind {head!r}")


def _rounded_counts(fractions: Iterable[float], n: int) -> list[int]:
    # Largest-remainder rounding so the counts sum to exactly n.
    exact = [f * n for f in fractions]
    counts = [int(e) for e in exact]
    shortfall = n - sum(counts)
    order = sorted(range(len(exact)), key=lambda i: exact[i] - counts[i], reverse=True)
    for i in order[:shortfall]:
        counts[i] += 1
    return counts


def generate(spec: DistributionSpec | str, n: int, rng: RandomStream) -> Instance:
    """Draw an instance of size n from a distribution spec.

    Color ids are arbitrary labels; algorithms only ever see equality.
    Profile instances are shuffled so ball position carries no signal.
    """
    if isinstance(spec, str):
        spec = parse_distribution(spec)
    n = _integer(n, "n")  # an int, so that n + 1 cannot wrap
    if n < 0:
        raise ValueError("n must be nonnegative")

    if spec.kind == "distinct":
        ids = np.arange(1, n + 1, dtype=np.int64)
    elif spec.kind == "binary":
        draws = rng.numpy_child().random(n)
        ids = np.subtract(2, draws < spec.p, dtype=np.int64)  # 1 below p, else 2
    elif spec.kind == "uniform":
        k = spec.k if spec.k is not None else max(n, 1)
        ids = rng.numpy_child().integers(1, k + 1, size=n, dtype=np.int64)
    elif spec.kind == "profile":
        if spec.counts:
            counts = list(spec.counts)
            if sum(counts) != n:
                raise ValueError(f"profile counts sum to {sum(counts)}, expected n={n}")
        else:
            fractions = list(spec.fractions)
            if spec.rest_colors:
                remainder = max(0.0, 1.0 - sum(fractions))
                fractions += [remainder / spec.rest_colors] * spec.rest_colors
            counts = _rounded_counts(fractions, n)
        ids = np.repeat(np.arange(1, len(counts) + 1, dtype=np.int64), counts)
        # The same draws as ids[permutation(n)], without the index array.
        rng.numpy_child().shuffle(ids)
    else:
        raise ValueError(f"unknown distribution kind {spec.kind!r}")
    ids.flags.writeable = False  # so that Instance adopts it without a copy
    return Instance(ids)


def relabel(instance: Instance, rng: RandomStream) -> Instance:
    """Randomly permute color ids. Answers must be invariant under this."""
    ids, inverse = np.unique(instance.color_array, return_inverse=True)
    # Rank ids are in label order, so the labels table lines up with ids.
    shuffled = ids.tolist() if instance._labels is None else list(instance._labels)
    rng.shuffle(shuffled)
    return Instance(np.array(shuffled, dtype=object)[inverse])


# ----------------------------------------------------------------------
# Instance files: line 1 holds n, then one color id per line.
# ----------------------------------------------------------------------


def write_instance(instance: Instance, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(f"{instance.n}\n")
        for color in instance.colors:
            fh.write(f"{color}\n")


def read_instance(path: str) -> Instance:
    values: list[int] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            token = line.strip()
            if not token:
                continue
            try:
                values.append(int(token))
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: expected an integer, got {token!r}"
                ) from None
    if not values:
        raise ValueError(f"{path}: empty instance file")
    n, colors = values[0], values[1:]
    if len(colors) != n:
        raise ValueError(f"{path}: header says n={n} but found {len(colors)} colors")
    try:
        return Instance(colors)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
