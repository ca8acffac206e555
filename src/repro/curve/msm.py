"""Multi-scalar multiplication over G1 and G2: two kernels, chosen by size.

**Short folds: interleaved wNAF (Straus).**  The Plonk verifier's two
folds (2 and 19 terms an audit, 16 and 82 a settlement batch of eight)
have too few points to fill buckets, so up to :data:`STRAUS_MAX` terms
:func:`msm_jacobian` runs :func:`_straus_msm_g1`: GLV half-scalars in
width-5 non-adjacent form, a table of odd multiples per point, every
addend summed per bit position by batched-affine additions, and one
shared double-and-add chain of ~129 steps.

**Everything larger: Pippenger (bucket method).**  The Plonk and Groth16
provers spend most of their group time in MSMs of the form
sum_i k_i * P_i with n up to a few thousand; the bucket method brings
that from O(n * 256) point additions down to roughly O(n + 2^c * 256/c).

Scalars are recoded into *signed* windows (digits in
[-2^(c-1)+1, 2^(c-1)]), which halves the bucket count per window relative
to the unsigned method: negating a normalised point is a single field
negation, and the smaller bucket array nearly halves the running-sum
aggregation work.

Input points are batch-normalised to ``z = 1`` first (one field inversion
for the whole batch).  The G1 path — the prover's hottest loop — goes
further with batch-affine bucket accumulation (:func:`_bucket_msm_g1`):
bucket contents stay affine and are reduced with batched-inverse affine
additions.  G2 MSMs are comparatively rare and small, so they use the
generic signed bucket loop with mixed Jacobian additions.

The SRS commitments run neither: :func:`msm_fixed_window` folds every
window of a precomputed table into one bucket pass.
"""

from __future__ import annotations

from repro.errors import CurveError
from repro.curve import glv
from repro.curve.fq import Q, fq2_is_zero, fq2_neg, fq_batch_inverse
from repro.curve.g1 import (
    G1,
    JAC_INF,
    jac_add,
    jac_batch_normalize,
    jac_double,
    reduce_scalar,
)
from repro.curve.g2 import (
    G2,
    JAC_INF as JAC2_INF,
    jac2_add,
    jac2_batch_normalize,
    jac2_double,
    jac2_mul,
)

_SCALAR_BITS = 254


def _window_size(n: int) -> int:
    """Empirical window width for the signed bucket method.

    ``n`` is the pair count the bucket loop sees — on the G1 path that
    is *after* the GLV split, two half-width pairs per term, and only
    folds above :data:`STRAUS_MAX` terms get there: G1 reaches the rows
    from ``n < 200`` up (194 pairs at the crossover).  The rows below
    that serve G2's :func:`_bucket_msm`, which sees every size from two
    pairs.  The rows below 512 were fitted to the G1 kernel
    (EXPERIMENTS.md, "MSM window widths at the small end").
    """
    if n < 12:
        return 2
    if n < 32:
        return 3
    if n < 96:
        return 4
    if n < 200:
        return 5
    if n < 512:
        return 6
    if n < 2048:
        return 7
    if n < 4096:
        return 8
    return 10


def _signed_digits(s: int, c: int, num_windows: int) -> list[int]:
    """Recode a scalar into base-2^c digits in [-2^(c-1)+1, 2^(c-1)].

    A trailing carry may emit one extra digit, so the returned list has
    ``num_windows`` or ``num_windows + 1`` entries.
    """
    half = 1 << (c - 1)
    full = 1 << c
    mask = full - 1
    digits = []
    carry = 0
    for w in range(num_windows):
        d = ((s >> (w * c)) & mask) + carry
        if d > half:
            d -= full
            carry = 1
        else:
            carry = 0
        digits.append(d)
    if carry:
        digits.append(1)
    return digits


def _jac_is_inf(p: tuple) -> bool:
    return p[2] == 0


def _jac2_is_inf(p: tuple) -> bool:
    return fq2_is_zero(p[2])


def _collect_pairs(points: list, scalars: list, is_inf, label: str) -> list:
    """Pair up non-trivial (point, scalar) terms with reduced scalars."""
    if len(points) != len(scalars):
        raise CurveError("%s: %d points but %d scalars" % (label, len(points), len(scalars)))
    pairs = []
    for p, s in zip(points, scalars):
        s = reduce_scalar(int(s))
        if s and not is_inf(p):
            pairs.append((p, s))
    return pairs


def _bucket_msm(pairs: list, inf: tuple, add, double, neg, is_inf) -> tuple:
    """Generic signed-window Pippenger loop; ``pairs`` must hold ``z = 1``
    points.

    The window/bucket structure is identical for G1 and G2 — only the
    group law differs, so it is injected as ``add`` / ``double`` / ``neg``
    (``neg`` negates a normalised point, staying normalised).
    """
    c = _window_size(len(pairs))
    half = 1 << (c - 1)
    num_windows = (_SCALAR_BITS + c - 1) // c
    decomposed = [(p, _signed_digits(s, c, num_windows)) for p, s in pairs]
    top = max(len(d) for _, d in decomposed)
    result = inf
    for w in range(top - 1, -1, -1):
        if not is_inf(result):
            for _ in range(c):
                result = double(result)
        buckets: list[tuple | None] = [None] * half
        for p, digits in decomposed:
            if w >= len(digits):
                continue
            d = digits[w]
            if d == 0:
                continue
            if d > 0:
                q, idx = p, d - 1
            else:
                q, idx = neg(p), -d - 1
            cur = buckets[idx]
            # ``q`` is normalised, so this is always a mixed addition.
            buckets[idx] = q if cur is None else add(cur, q)
        running = inf
        acc = inf
        for b in range(half - 1, -1, -1):
            if buckets[b] is not None:
                running = add(running, buckets[b])
            acc = add(acc, running)
        result = add(result, acc)
    return result


def _g2_neg_norm(p: tuple) -> tuple:
    return (p[0], fq2_neg(p[1]), p[2])


def _batch_affine_reduce(buckets: list) -> None:
    """Reduce every bucket list to at most one affine point, in place.

    Each round halves every pending bucket by pairwise affine additions;
    all slope denominators across all buckets share a single batched
    inversion per round.
    """
    pending = [i for i, b in enumerate(buckets) if len(b) > 1]
    while pending:
        ops = []  # (bucket_index, x1, y1, x2, y2, is_doubling)
        denoms = []
        for bi in pending:
            lst = buckets[bi]
            for j in range(0, len(lst) - 1, 2):
                x1, y1 = lst[j]
                x2, y2 = lst[j + 1]
                if x1 == x2:
                    if (y1 + y2) % Q == 0:
                        continue  # P + (-P): the pair cancels to infinity
                    denoms.append(2 * y1 % Q)
                    ops.append((bi, x1, y1, x2, y2, True))
                else:
                    denoms.append((x2 - x1) % Q)
                    ops.append((bi, x1, y1, x2, y2, False))
            buckets[bi] = [lst[-1]] if len(lst) % 2 else []
        if denoms:
            invs = fq_batch_inverse(denoms)
            for (bi, x1, y1, x2, y2, dbl), dinv in zip(ops, invs):
                if dbl:
                    lam = 3 * x1 * x1 * dinv % Q
                else:
                    lam = (y2 - y1) * dinv % Q
                x3 = (lam * lam - x1 - x2) % Q
                buckets[bi].append((x3, (lam * (x1 - x3) - y1) % Q))
        pending = [bi for bi in pending if len(buckets[bi]) > 1]


def _bucket_msm_g1(pairs: list, bits: int = _SCALAR_BITS) -> tuple:
    """Signed-window G1 MSM with batch-affine bucket accumulation.

    ``pairs`` must hold normalised ``z = 1`` points.  Bucket contents are
    kept *affine* throughout: every bucket is reduced by pairwise affine
    additions whose slope denominators are inverted together (one
    :func:`fq_batch_inverse` per round across all windows), so each
    addition costs ~6 field multiplications instead of the ~11 of a mixed
    Jacobian addition.  The final running-sum aggregation then adds affine
    buckets into Jacobian accumulators via the mixed-addition fast path.

    G1 has prime order, so no finite point has ``y == 0`` and the affine
    doubling denominator ``2y`` is always invertible.

    ``bits`` bounds the scalar widths: the GLV front-end passes
    half-width pairs with ``bits ~ 129``, halving the window count (and
    with it the doubling chain in phase 3).
    """
    c = _window_size(len(pairs))
    half = 1 << (c - 1)
    num_windows = (bits + c - 1) // c

    # Phase 1: scatter affine points into per-window bucket lists (the
    # signed recoding's trailing carry can spill into one extra window).
    buckets: list[list] = [[] for _ in range((num_windows + 1) * half)]
    top = 0
    for (x, y, _), s in pairs:
        digits = _signed_digits(s, c, num_windows)
        for w, d in enumerate(digits):
            if d == 0:
                continue
            if d > 0:
                buckets[w * half + d - 1].append((x, y))
            else:
                buckets[w * half - d - 1].append((x, Q - y))
            if w >= top:
                top = w + 1

    # Phase 2: reduce every bucket to at most one affine point.
    _batch_affine_reduce(buckets)

    # Phase 3: running-sum aggregation per window, then fold windows.
    result = JAC_INF
    for w in range(top - 1, -1, -1):
        if result[2] != 0:
            for _ in range(c):
                result = jac_double(result)
        base = w * half
        running = None
        acc = None
        for b in range(half - 1, -1, -1):
            lst = buckets[base + b]
            if lst:
                x, y = lst[0]
                if running is None:
                    running = (x, y, 1)
                else:
                    running = jac_add(running, (x, y, 1))
            if running is not None:
                acc = running if acc is None else jac_add(acc, running)
        if acc is not None:
            result = jac_add(result, acc)
    return result


#: Largest fold the interleaved wNAF kernel takes; the bucket kernel has
#: everything above.  From the sweep in EXPERIMENTS.md ("The verifier paid
#: Fermat for every inversion"): Straus is 30% ahead at 2-19 terms, 13% at
#: 82, 6-10% at 96, inside the noise at 128-160 and 13% behind at 300.
#: Width 5 wins that sweep from 16 terms up (per point 2 * 129/6 addends
#: and 8 table steps; width 4 is 3-5% ahead at one and two terms only).
STRAUS_MAX = 96
_NAF_WIDTH = 5


def _wnaf(k: int) -> list[tuple[int, int]]:
    """Width-``_NAF_WIDTH`` non-adjacent form of ``k > 0`` as ``(position,
    digit)`` pairs, low position first: ``sum d * 2^pos == k``, every
    digit odd with ``|d| < 2^(width-1)``, positions at least ``width``
    apart.  Zero runs are skipped by the lowest set bit, not walked."""
    full = 1 << _NAF_WIDTH
    out = []
    pos = 0
    while k:
        shift = (k & -k).bit_length() - 1
        k >>= shift
        pos += shift
        d = k & (full - 1)
        if d > full >> 1:
            d -= full
        out.append((pos, d))
        k -= d
    return out


def _straus_msm_g1(pairs: list) -> tuple:
    """Interleaved wNAF (Straus) G1 MSM for the verifier's short folds.

    ``pairs`` holds normalised ``z = 1`` points with scalars in (0, r).
    Every GLV half-scalar is recoded by :func:`_wnaf`; the odd multiples
    ``P, 3P, ..., (2^(w-1) - 1)P`` of the base points are built affine,
    one batched inversion per step across all points (``psi`` of a
    multiple is one multiplication by ``glv.BETA`` at scatter time, so
    there is no second table); each digit's addend lands in the list of
    its bit position, the lists are summed by :func:`_batch_affine_reduce`,
    and one double-and-add chain of ~``glv.HALF_BITS`` steps folds them.
    Nothing is kept between calls.
    """
    # Odd multiples: 2P, then (2m+1)P = (2m-1)P + 2P — never a doubling
    # or a cancellation, since G1 has prime order and 2m + 1 < 2^w.
    rows = [[(x, y)] for (x, y, _), _ in pairs]
    twice = [[(x, y), (x, y)] for (x, y, _), _ in pairs]
    _batch_affine_reduce(twice)
    for _ in range((1 << (_NAF_WIDTH - 2)) - 1):
        step = [[row[-1], dbl[0]] for row, dbl in zip(rows, twice)]
        _batch_affine_reduce(step)
        for row, nxt in zip(rows, step):
            row.append(nxt[0])

    beta = glv.BETA
    slots: list[list] = [[] for _ in range(glv.HALF_BITS + 1)]
    for row, (_, s) in zip(rows, pairs):
        k1, k2 = glv.decompose(s)
        for kk, multiples in ((k1, row), (k2, [(x * beta % Q, y) for x, y in row])):
            neg = kk < 0
            for pos, d in _wnaf(-kk if neg else kk):
                x, y = multiples[abs(d) >> 1]
                slots[pos].append((x, Q - y if (d < 0) != neg else y))
    _batch_affine_reduce(slots)

    result = JAC_INF
    for lst in reversed(slots):
        result = jac_double(result)
        if lst:
            result = jac_add(result, (lst[0][0], lst[0][1], 1))
    return result


def msm_jacobian(points: list[tuple], scalars: list[int]) -> tuple:
    """MSM over G1 Jacobian point tuples; returns a Jacobian tuple.

    Folds of up to :data:`STRAUS_MAX` terms run the interleaved wNAF
    kernel.  Beyond it each (point, scalar) pair is GLV-split into two
    half-width pairs before bucketing: twice the bucket insertions, but
    half the windows — and the per-window doubling chain in the
    aggregation phase is the serial bottleneck.
    """
    pairs = _collect_pairs(points, scalars, _jac_is_inf, "msm")
    if not pairs:
        return JAC_INF
    normalized = jac_batch_normalize([p for p, _ in pairs])
    pairs = [(p, s) for p, (_, s) in zip(normalized, pairs)]
    if len(pairs) <= STRAUS_MAX:
        return _straus_msm_g1(pairs)
    return _bucket_msm_g1(glv.split_pairs(pairs), bits=glv.HALF_BITS)


# --------------------------------------------------------- fixed-base MSM

#: Bounds for the precomputed-table path: below the floor the single
#: window is mostly empty slots (the plain GLV path wins).  The cap is
#: "circuit size + blinding margin": every SRS-prefix MSM a Plonk circuit
#: of size n <= 2048 issues (blinded wires and the opening quotients carry
#: up to n + ``plonk.keys.DEGREE_MARGIN`` scalars; t_hi of a circuit that
#: opens a, b and c at zeta omega, pi_k at n = 256, carries one more) stays
#: on the tables: pi_k, and a pi_e of up to 20 entries (n = 128 / 256 / 512
#: / 1024 for 1 / 2 / 4 / 8 entries, n = 2048 up to 20).  Larger circuits
#: (a pi_e of 21 entries and up, n >= 4096, and any pi_t past n = 2048) are
#: proved once per asset or transformation, so their tables would never
#: amortise their build and footprint.
FIXED_WINDOW_MIN = 32
_BLINDING_MARGIN = 8  # == plonk.keys.DEGREE_MARGIN (this layer cannot import it; tests pin it)
FIXED_WINDOW_MAX = 2048 + _BLINDING_MARGIN


def fixed_window_c(n: int) -> int:
    """Window width for :func:`msm_fixed_window` when one process multiplies
    ``n`` scalars, its share of the MSM (empirical, like :func:`_window_size`,
    but wider: the precomputed window shifts remove the per-window
    aggregation).  EXPERIMENTS.md, "Table widths per process share"."""
    return 8 if n < 128 else 9 if n < 256 else 10


def window_table_depth(c: int) -> int:
    """Rows per point: one per half-width window plus the carry spill."""
    return (glv.HALF_BITS + c - 1) // c + 1


def build_window_tables(jac_points: list[tuple], c: int) -> list[list[tuple]]:
    """Precompute ``2^(w*c) * P`` for every point and window ``w``.

    The tables turn a fixed-base MSM into a *single-window* bucket pass
    (:func:`msm_fixed_window`): every digit of every scalar lands in one
    shared bucket array, so the per-window doubling chain and running-sum
    aggregation of the generic method collapse into one final sweep.
    Rows are normalised to ``z = 1``; identity points get all-infinity
    rows (they contribute nothing and are skipped at scatter time).
    """
    depth = window_table_depth(c)
    flat = []
    finite = []
    for i, p in enumerate(jac_points):
        if p[2] == 0:
            continue
        finite.append(i)
        t = p
        flat.append(t)
        for _ in range(depth - 1):
            for _ in range(c):
                t = jac_double(t)
            flat.append(t)
    norm = jac_batch_normalize(flat)
    tables: list[list[tuple]] = [[JAC_INF] * depth for _ in jac_points]
    for row, i in enumerate(finite):
        tables[i] = norm[row * depth : (row + 1) * depth]
    return tables


def msm_fixed_window(tables: list[list[tuple]], c: int, scalars: list[int]) -> tuple:
    """GLV MSM against precomputed window tables.

    Each scalar is GLV-decomposed into two half-width signed parts; the
    ``k2`` part maps through the endomorphism on the fly (``psi`` commutes
    with scalar multiplication, so ``psi(2^(wc) P) = 2^(wc) psi(P)`` costs
    one field multiplication per scattered point instead of a second
    table).  All windows scatter into one bucket array.
    """
    half = 1 << (c - 1)
    depth = window_table_depth(c)
    buckets: list[list] = [[] for _ in range(half)]
    beta = glv.BETA
    for i, k in enumerate(scalars):
        tab = tables[i]
        k1, k2 = glv.decompose(k)
        for kk, endo in ((k1, False), (k2, True)):
            if kk == 0:
                continue
            neg = kk < 0
            digits = _signed_digits(-kk if neg else kk, c, depth - 1)
            for w, d in enumerate(digits):
                if d == 0:
                    continue
                x, y, z = tab[w]
                if z == 0:
                    continue
                if endo:
                    x = x * beta % Q
                if (d < 0) != neg:
                    y = Q - y
                buckets[(d if d > 0 else -d) - 1].append((x, y))
    _batch_affine_reduce(buckets)
    running = None
    acc = None
    for b in range(half - 1, -1, -1):
        lst = buckets[b]
        if lst:
            x, y = lst[0]
            running = (x, y, 1) if running is None else jac_add(running, (x, y, 1))
        if running is not None:
            acc = running if acc is None else jac_add(acc, running)
    return acc if acc is not None else JAC_INF


def msm_g2_jacobian(points: list[tuple], scalars: list[int]) -> tuple:
    """MSM over G2 Jacobian point tuples; returns a Jacobian tuple."""
    pairs = _collect_pairs(points, scalars, _jac2_is_inf, "msm_g2")
    if not pairs:
        return JAC2_INF
    if len(pairs) == 1:
        return jac2_mul(pairs[0][0], pairs[0][1])
    normalized = jac2_batch_normalize([p for p, _ in pairs])
    pairs = [(p, s) for p, (_, s) in zip(normalized, pairs)]
    return _bucket_msm(
        pairs, JAC2_INF, jac2_add, jac2_double, _g2_neg_norm, _jac2_is_inf
    )


def msm_g1(points: list[G1], scalars: list[int]) -> G1:
    """MSM over affine :class:`G1` points; returns an affine point."""
    jac = msm_jacobian([p.to_jacobian() for p in points], [int(s) for s in scalars])
    return G1.from_jacobian(jac)


def msm_g2(points: list[G2], scalars: list[int]) -> G2:
    """MSM over affine :class:`G2` points; returns an affine point."""
    jac = msm_g2_jacobian([p.to_jacobian() for p in points], [int(s) for s in scalars])
    return G2.from_jacobian(jac)
