"""Seeded generator of random valid ladder data for the ``sweep`` workload.

Each datum has one or two blocks over the four label kinds (block size d = 1
or 2, integral or half-integral exponents), each block of size t <= 6.  The
seed draws every datum's exponents, each label's size d (which with the
exponents fixes the group and the rank), and the order of the data.

What a datum costs grows steeply with a few of its features, so a corpus
drawn freely would make the total work, the slowest data and the peak
memory depend on the seed.  The corpus is therefore stratified: a fixed
list of templates, drawn once from ``TEMPLATE_SEED`` with the same
generator, sets each datum's cost class, and the seed redraws the datum
until it falls in that class.  A block keeps its template's parity, size
t, pairing count l and sign eta; its class is, besides these, how many of
its exponents are at most -1 and how many are -1/2 (these fix the
permutation tuples the expansion enumerates), and, to within a factor
``STEP``, how many nonzero summands those tuples give and how many
exponent tuples its Jacquet expansion enumerates (these set the cost of
the slowest data).  Templates whose expansion would enumerate more
than ``MAX_TUPLES`` permutation tuples are redrawn: the sweep is for small
data, and one such datum would set the sweep's peak memory alone.

Data are JSON objects in the command line's input schema, so the sweep
decodes them the way it decodes a user's input.  Every block is canonical
(no middle exponent -1/2), which makes the duality and graph round trips
exact equalities.
"""

from __future__ import annotations

import itertools
import math
import random
from functools import cache

MAX_T = 6
MAX_TUPLES = 600  # larger expansions are for det-classical
STEP = 2 ** (1 / 8)  # ratio of the Jacquet tuple or summand counts one class spans
TEMPLATE_SEED = 0
PARITIES = ("integral", "half-integral")

Block = tuple[str, int, list[int], int]  # parity, l, doubled exponents, eta


def _block_sign(t: int, l: int, eta: int) -> int:
    return (-1) ** (t // 2 + l) * eta**t


def _exponents(rng: random.Random, integral: bool, t: int, l: int) -> list[int]:
    """Doubled exponents x_1 < ... < x_t meeting the positivity clauses."""
    floor = 0 if integral else 1  # smallest middle exponent
    middle = []
    cursor = floor + 2 * rng.randint(0, 2)
    for _ in range(t - 2 * l):
        middle.append(cursor)
        cursor += 2 * rng.randint(1, 2)
    # highs[k] pairs with lows[k]; both run outward from the middle
    highs, lows = [], []
    above = middle[-1] if middle else floor - 2
    ceiling = middle[0] if middle else None
    for _ in range(l):
        high = above + 2 * rng.randint(1, 2)
        if ceiling is None:
            ceiling = high
        high = max(high, 2 - ceiling)
        low = rng.randrange(-high, ceiling - 1, 2)  # low + high >= 0, low < ceiling
        highs.append(high)
        lows.append(low)
        above, ceiling = high, low
    return lows[::-1] + middle + highs


def _tuples(l: int, xs: list[int], eta: int) -> int:
    """How many permutations of the block the expansion enumerates: l! times
    the ways to choose its first l indices, which hold every exponent at most
    -1, and then its middle indices, which hold no -1/2 when eta = -1."""
    t, confined = len(xs), sum(x <= -2 for x in xs)
    middles = math.comb(t - l, t - 2 * l)
    if eta == -1 and -1 in xs:  # -1/2 among the first l, or left out of the middle
        firsts = math.comb(t - confined - 1, l - confined - 1) * middles
        ways = firsts + math.comb(t - confined - 1, l - confined) * math.comb(t - l - 1, t - 2 * l)
    else:
        ways = math.comb(t - confined, l - confined) * middles
    return ways * math.factorial(l)


def _skeleton(rng: random.Random) -> list[Block]:
    """A random datum's blocks, with global sign +1 and at most MAX_TUPLES
    permutation tuples."""
    while True:
        blocks = []
        for _ in range(rng.choice((1, 1, 2))):
            parity = rng.choice(PARITIES)
            t = rng.randint(1, MAX_T)
            l = rng.randint(0, t // 2)
            eta = -1 if 2 * l == t else rng.choice((1, -1))
            blocks.append((parity, l, _exponents(rng, parity == "integral", t, l), eta))
        if math.prod(_block_sign(len(xs), l, eta) for _, l, xs, eta in blocks) != 1:
            continue
        if math.prod(_tuples(l, xs, eta) for _, l, xs, eta in blocks) <= MAX_TUPLES:
            return blocks


def _jacquet_tuples(integral: bool, l: int, xs: list[int], eta: int) -> int:
    """How many exponent tuples the block's Jacquet expansion enumerates:
    y_1 < ... < y_t (doubled, stepping by 2 from each x_i) with
    -x_{t+1-i} - 1 <= y_i <= x_i, y_i at least i - l - 1 (less eta/2 when
    half-integral) in the middle zone, and y_i + y_{t+1-i} >= -1 for the
    last l."""
    t = len(xs)

    @cache
    def count(i: int, last: int | None, firsts: tuple[int, ...]) -> int:
        if i > t:
            return 1
        lo, hi = -xs[t - i] - 2, xs[i - 1]
        if l < i <= t - l:
            lo = max(lo, 2 * (i - l - 1) - (0 if integral else eta))
        if i > t - l:
            lo = max(lo, -2 - firsts[t - i])
        if last is not None:
            lo = max(lo, last + 2)
        lo += (lo - hi) % 2
        return sum(count(i + 1, y, firsts + (y,) if i <= l else firsts) for y in range(lo, hi + 1, 2))

    return count(1, None, ())


def _summands(l: int, xs: list[int], eta: int) -> int:
    """How many nonzero summands the block contributes over its permutation
    tuples.  A tuple's summand is zero when a pair with its low index first
    gives a segment [x, y] with y > x + 1, or when a middle exponent -1/2
    gets sign -1; each other pair doubles it by its sign choice, unless one
    of its exponents is -1/2 (a size-0 piece, which sign -1 kills)."""
    t = len(xs)
    confined = {i for i in range(t) if xs[i] <= -2}
    banned = confined | ({i for i in range(t) if xs[i] == -1} if eta == -1 else set())
    total = 0
    for firsts in itertools.combinations(range(t), l):
        if not confined <= set(firsts):
            continue
        rest = [i for i in range(t) if i not in firsts]
        for middle in itertools.combinations(rest, t - 2 * l):
            if banned & set(middle) or any(xs[i] == -1 and (-1) ** k * eta == -1 for k, i in enumerate(middle)):
                continue
            pool = [i for i in rest if i not in middle]
            for lasts in itertools.permutations(pool):
                ways = 1
                for low, high in zip(firsts, reversed(lasts)):
                    if low < high and -xs[high] > xs[low] + 2:
                        ways = 0
                        break
                    if low > high and -1 not in (xs[low], xs[high]):
                        ways *= 2
                total += ways
    return total


def _bucket(n: int) -> int:
    return round(math.log(n, STEP)) if n else -1


def _cost_class(parity: str, l: int, xs: list[int], eta: int) -> tuple[int, ...]:
    """t, l, the exponents at most -1, those equal to -1/2, and the counts
    of nonzero summands and of Jacquet tuples in steps of STEP."""
    jacquet = _jacquet_tuples(parity == "integral", l, xs, eta)
    counts = _bucket(_summands(l, xs, eta)), _bucket(jacquet)
    return len(xs), l, sum(x <= -2 for x in xs), xs.count(-1), *counts


def _like(rng: random.Random, template: list[Block]) -> list[Block]:
    """A random datum with the template's cost class, block by block.  Each
    block keeps the template's parity and sign eta, so the global sign stays
    +1."""
    blocks = []
    for parity, l, xs, eta in template:
        wanted = _cost_class(parity, l, xs, eta)
        while True:
            ys = _exponents(rng, parity == "integral", len(xs), l)
            if _cost_class(parity, l, ys, eta) == wanted:
                break
        blocks.append((parity, l, ys, eta))
    return blocks


def _fraction(twice: int) -> str:
    return str(twice // 2) if twice % 2 == 0 else f"{twice}/2"


def random_datum(skeleton: list[Block], rng: random.Random) -> dict:
    if len(skeleton) == 2 and skeleton[0][0] == skeleton[1][0]:
        sizes = rng.sample((1, 2), 2)  # equal parities need distinct labels
    else:
        sizes = [rng.choice((1, 2)) for _ in skeleton]
    blocks = []
    dimension = 0
    for (parity, l, xs, eta), d in zip(skeleton, sizes):
        label = {"id": f"{parity[0]}{d}", "d": d, "parity": parity}
        blocks.append({"rho": label, "X": [_fraction(v) for v in xs], "l": l, "eta": eta})
        dimension += (sum(xs) + len(xs)) * d
    return {"group": "Sp" if dimension % 2 else "SOodd", "blocks": blocks}


def corpus(seed: int, size: int) -> list[dict]:
    """``size`` valid data; the same seed always gives the same list."""
    templates, rng = random.Random(TEMPLATE_SEED), random.Random(seed)
    data = [random_datum(_like(rng, _skeleton(templates)), rng) for _ in range(size)]
    rng.shuffle(data)
    return data
