"""String distance and similarity measures.

These drive the "minor variations and misspellings" category of the
semantic-diversity table: nearest-neighbour clustering of variable names
(as in Google Refine's NN method) needs cheap, well-behaved distances.

All similarities returned here lie in [0, 1] with 1 meaning identical.
"""

from __future__ import annotations

from .tokenize import ngrams


def levenshtein(a: str, b: str) -> int:
    """Classic edit distance (insert/delete/substitute, unit costs).

    Iterative two-row dynamic program: O(len(a) * len(b)) time,
    O(min(len)) space.
    """
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            current.append(
                min(
                    previous[j] + 1,  # deletion
                    current[j - 1] + 1,  # insertion
                    previous[j - 1] + cost,  # substitution
                )
            )
        previous = current
    return previous[-1]


def damerau_levenshtein(a: str, b: str) -> int:
    """Edit distance counting adjacent transposition as one operation.

    ``air_temperatrue`` is one transposition from ``air_temperature`` —
    the canonical misspelling in the paper's Table resolves at distance 1
    here (2 under plain Levenshtein).  Restricted (optimal string
    alignment) variant.
    """
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    # Three rows are enough for the restricted variant.
    len_b = len(b)
    two_ago: list[int] = []
    previous = list(range(len_b + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            best = min(
                previous[j] + 1,
                current[j - 1] + 1,
                previous[j - 1] + cost,
            )
            if (
                i > 1
                and j > 1
                and ca == b[j - 2]
                and a[i - 2] == cb
            ):
                best = min(best, two_ago[j - 2] + 1)
            current.append(best)
        two_ago = previous
        previous = current
    return previous[-1]


def damerau_levenshtein_within(a: str, b: str, limit: int) -> int:
    """:func:`damerau_levenshtein` if it is at most ``limit``, else
    ``limit + 1``.

    The bounded kernel for callers that only ask "within ``limit``?" or
    "closer than the best so far?".  An alignment costing at most
    ``limit`` never leaves the band of cells within ``limit`` of the
    diagonal, so each row fills only that band; cells outside it hold
    ``limit + 1``, which can only overstate a cost already past the
    limit.  The scan stops once a row's minimum exceeds ``limit``: no
    later row can come back under it.  That holds for transpositions
    too: one into row ``i + 1`` costs one more than a cell of row
    ``i - 1``, and the diagonal step from that cell into row ``i``
    costs at most one, so row ``i`` already holds a cell no dearer.

    Raises:
        ValueError: for a negative ``limit``.
    """
    if limit < 0:
        raise ValueError("limit must be non-negative")
    if a == b:
        return 0
    len_a = len(a)
    len_b = len(b)
    over = limit + 1
    if abs(len_a - len_b) > limit:
        return over
    if not a or not b:
        return len_a or len_b
    two_ago: list[int] = []
    previous = [j if j <= limit else over for j in range(len_b + 1)]
    for i in range(1, len_a + 1):
        ca = a[i - 1]
        current = [over] * (len_b + 1)
        if i <= limit:
            current[0] = i
        for j in range(max(1, i - limit), min(len_b, i + limit) + 1):
            cb = b[j - 1]
            best = previous[j - 1] + (ca != cb)
            cost = previous[j] + 1
            if cost < best:
                best = cost
            cost = current[j - 1] + 1
            if cost < best:
                best = cost
            if i > 1 and j > 1 and ca == b[j - 2] and a[i - 2] == cb:
                cost = two_ago[j - 2] + 1
                if cost < best:
                    best = cost
            current[j] = best
        if min(current) > limit:
            return over
        two_ago = previous
        previous = current
    return min(previous[len_b], over)


def levenshtein_similarity(a: str, b: str) -> float:
    """1 - normalized Levenshtein distance; 1.0 for identical strings."""
    if not a and not b:
        return 1.0
    return 1.0 - levenshtein(a, b) / max(len(a), len(b))


def damerau_similarity(a: str, b: str) -> float:
    """1 - normalized Damerau-Levenshtein distance."""
    if not a and not b:
        return 1.0
    return 1.0 - damerau_levenshtein(a, b) / max(len(a), len(b))


def jaro(a: str, b: str) -> float:
    """Jaro similarity in [0, 1]."""
    if a == b:
        return 1.0
    if not a or not b:
        return 0.0
    window = max(len(a), len(b)) // 2 - 1
    window = max(window, 0)
    a_matched = [False] * len(a)
    b_matched = [False] * len(b)
    matches = 0
    for i, ca in enumerate(a):
        lo = max(0, i - window)
        hi = min(len(b), i + window + 1)
        for j in range(lo, hi):
            if not b_matched[j] and b[j] == ca:
                a_matched[i] = True
                b_matched[j] = True
                matches += 1
                break
    if matches == 0:
        return 0.0
    # Count transpositions among matched characters.
    transpositions = 0
    j = 0
    for i, matched in enumerate(a_matched):
        if not matched:
            continue
        while not b_matched[j]:
            j += 1
        if a[i] != b[j]:
            transpositions += 1
        j += 1
    transpositions //= 2
    m = float(matches)
    return (m / len(a) + m / len(b) + (m - transpositions) / m) / 3.0


def jaro_winkler(a: str, b: str, prefix_scale: float = 0.1) -> float:
    """Jaro-Winkler similarity: Jaro boosted by shared prefix (max 4).

    Raises:
        ValueError: if ``prefix_scale`` is outside [0, 0.25] (values above
            0.25 can push the score past 1).
    """
    if not 0.0 <= prefix_scale <= 0.25:
        raise ValueError("prefix_scale must lie in [0, 0.25]")
    base = jaro(a, b)
    prefix = 0
    for ca, cb in zip(a[:4], b[:4]):
        if ca != cb:
            break
        prefix += 1
    return base + prefix * prefix_scale * (1.0 - base)


def ngram_jaccard(a: str, b: str, n: int = 2) -> float:
    """Jaccard similarity of the strings' character n-gram sets."""
    grams_a = set(ngrams(a, n))
    grams_b = set(ngrams(b, n))
    if not grams_a and not grams_b:
        return 1.0 if a == b else 0.0
    if not grams_a or not grams_b:
        return 0.0
    inter = len(grams_a & grams_b)
    return inter / (len(grams_a) + len(grams_b) - inter)


def dice_coefficient(a: str, b: str, n: int = 2) -> float:
    """Sørensen-Dice coefficient over character n-gram sets."""
    grams_a = set(ngrams(a, n))
    grams_b = set(ngrams(b, n))
    if not grams_a and not grams_b:
        return 1.0 if a == b else 0.0
    if not grams_a or not grams_b:
        return 0.0
    return 2.0 * len(grams_a & grams_b) / (len(grams_a) + len(grams_b))
