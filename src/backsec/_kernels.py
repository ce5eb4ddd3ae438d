"""The Monte Carlo kernel: event counts of one batch from a counter-based stream.

Draw number (t*slots + slot) of batch b comes from a splitmix64 finalizer
keyed on (seed, b), so event counts are reproducible for a fixed (seed,
trials, batch_size) no matter how batches are scheduled across workers.

The kernel walks a batch in tiles of _TILE_UNIFORMS // slots trials.  Each
tile hashes its own counter range, and a draw depends only on (batch key,
counter), so the counts summed over tiles are exactly the untiled counts:
tiling changes neither the stream nor the results.  All stages of all tiles
write into one workspace allocated per call, 1–3 MB, so the kernel's memory
does not grow with batch_size and its arrays stay in cache.  The workspace is
never shared between calls, so concurrent batches on worker threads stay
independent.  Every array of the workspace starts on a 64-byte cache line:
the allocator alone guarantees 16 bytes, and an offset that depends on what
the process allocated before moves the kernel's speed by about 10%.

The kernel takes two inputs besides the batch key and the trial count.
rows, the (m, lambda~) of each of the 3N (family, tag) gain rows in draw
order, sets the slot count and, with the batch key, fixes the draws, the
Gamma gains and the SOTS, METS and RTS picks.  point, the per-tag activation
thresholds, the per-tag SNR scales e1g and e2g, tau = 2^R and whether R > 0,
feeds only the ratio and the counts; N is its number of tags.

After the log, every stage works on whole runs of adjacent (family, tag)
rows, never on one tag at a time.  The Gamma sums make one add per extra
shape unit for each run of rows with equal m, the divide one call per run of
equal lambda~, and the SOTS, METS and OTS picks a fixed number of calls
whatever N.  With i.i.d. links a tile thus makes 62 + max(m - 1, 1) numpy
calls at any N (63 at m = 1, 64 at m = 3).  That matters most where tiles
are short: at N = 8, m = 3 a tile holds 897 trials.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

_GOLD = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)
_U53 = 2.0 ** -53
_MASK = (1 << 64) - 1
# draws per tile: the tile's workspace stays in a core's L2 cache whatever
# the batch size
_TILE_UNIFORMS = 1 << 16


def mix64(z: int) -> int:
    """splitmix64 finalizer on plain Python ints (host-side seed derivation)."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def batch_seed(seed: int, batch_index: int) -> np.uint64:
    """Independent stream key for one batch, hashed from (seed, batch index)."""
    return np.uint64(mix64((seed + (batch_index + 1) * 0x9E3779B97F4A7C15) & _MASK))


def resolve_backend() -> str:
    """Name of the one MC kernel; perfbench/run.py imports this to record it."""
    return "numpy"


def _workspace(*specs):
    """Views of one fresh buffer, one array per (shape, dtype) spec, each
    starting on a 64-byte boundary.

    One allocation, rather than one per array, lets the allocator hand the
    same pages back on the next call instead of mapping and faulting in new
    ones.
    """
    sizes = [math.prod(shape) * np.dtype(dtype).itemsize for shape, dtype in specs]
    starts = np.cumsum([0] + [-(-size // 64) * 64 for size in sizes])
    buf = np.empty(int(starts[-1]) + 64, dtype=np.uint8)
    starts = starts + (-buf.ctypes.data % 64)
    return [buf[start:start + size].view(dtype).reshape(shape)
            for (shape, dtype), start, size in zip(specs, starts, sizes)]


def _runs(values):
    """(start, stop, value) of each run of equal adjacent values."""
    start = 0
    for value, group in itertools.groupby(values):
        stop = start + sum(1 for _ in group)
        yield start, stop, value
        start = stop


def mc_batch(bseed, n_trials, rows, point):
    """Event counts of one batch of n_trials trials keyed on bseed, from the
    gain rows and the point (thr, e1g, e2g, tau, r_pos) of the module docstring.

    Draw order per trial: the m draws of each row in turn (sources tag-major,
    then destinations, then eavesdroppers), then one uniform for the
    random-selection pick.  Counts columns: (dead tag, secrecy outage while
    powered, intercept while powered); protocol rows: SOTS, METS, OTS, RTS.

    Trials are walked in tiles of about _TILE_UNIFORMS draws through one
    workspace allocated per call; every stage writes into slices of it.
    Within a tile the draws sit slot-major (row = slot, column = trial), and
    the gains sit row-major over (family, tag).
    """
    thr, e1g, e2g, tau, r_pos = point
    n = len(thr)
    slots = sum(m for m, _ in rows) + 1
    tile = min(n_trials, max(1, _TILE_UNIFORMS // slots))

    z, u, gains, ratio, denom, flat, dead, sel, hits = _workspace(
        ((slots, tile), np.uint64),
        ((slots, tile), np.float64),
        ((3, n, tile), np.float64),
        ((n, tile), np.float64),
        ((n, tile), np.float64),
        ((3, tile), np.intp),      # flat picks of SOTS, METS, RTS
        ((n, tile), np.bool_),
        ((4, tile), np.float64),   # picked ratio, -1 when dead: SOTS, METS, RTS, OTS
        ((4, tile), np.bool_),
    )
    shifted = u.view(np.uint64)   # the shift temporary; dead before u is written
    hashed = z.view(np.int64)     # the shifted hash is below 2^53: exact as int64
    weight = denom.view(np.intp)  # pick scratch; dead once the ratio is divided
    trial_idx = np.arange(tile, dtype=np.intp)
    # draw (trial i of the tile, slot s) has counter j = (t0 + i)*slots + s, so
    # its hash input bseed + (j + 1)*GOLD is a per-tile column term plus
    # i*slots*GOLD
    row_term = trial_idx.astype(np.uint64) * np.uint64(slots) * _GOLD
    slot_term = np.arange(1, slots + 1, dtype=np.uint64) * _GOLD

    # gain rows run (family, tag) in draw order, so a run of rows with equal
    # m holds its draws in adjacent slots: a (rows, m, tile) view of them
    g_rows = gains.reshape(3 * n, tile)
    sums, col = [], 0
    for r0, r1, m in _runs([m for m, _ in rows]):
        sums.append((g_rows[r0:r1], u[col:col + (r1 - r0) * m].reshape(r1 - r0, m, tile), m))
        col += (r1 - r0) * m
    scales = [(g_rows[r0:r1], -lam) for r0, r1, lam in _runs([lam for _, lam in rows])]
    # tag k weighs (N - k)*tile: the largest weight among equal tags is the
    # first of them, and N*tile minus it is that tag's flat row offset
    first_weight = ((n - np.arange(n, dtype=np.intp)) * tile)[:, None]
    thr_c, e1g_c, e2g_c = thr[:, None], e1g[:, None], e2g[:, None]
    # (counts column, bound): dead, outage when tau > 1, intercept
    bounds = ((0, 0.0), (1, tau), (2, 1.0)) if r_pos else ((0, 0.0), (2, 1.0))

    counts = np.zeros((4, 3), dtype=np.int64)
    for t0 in range(0, n_trials, tile):
        nt = min(tile, n_trials - t0)
        zt, ut, sh = z[:, :nt], u[:, :nt], shifted[:, :nt]
        tile_key = np.uint64((int(bseed) + t0 * slots * int(_GOLD)) & _MASK)
        np.add((slot_term + tile_key)[:, None], row_term[:nt], out=zt)
        np.right_shift(zt, _S30, out=sh)
        np.bitwise_xor(zt, sh, out=zt)
        np.multiply(zt, _M1, out=zt)
        np.right_shift(zt, _S27, out=sh)
        np.bitwise_xor(zt, sh, out=zt)
        np.multiply(zt, _M2, out=zt)
        np.right_shift(zt, _S31, out=sh)
        np.bitwise_xor(zt, sh, out=zt)
        np.right_shift(zt, _S11, out=zt)
        np.copyto(ut, hashed[:, :nt])
        np.add(ut, 1.0, out=ut)
        np.multiply(ut, _U53, out=ut)
        logs = ut[: slots - 1]
        np.log(logs, out=logs)

        # Gamma(m) gain = (log u_1 + ... + log u_m) / -lambda~, summed left to
        # right over each run of equal m, divided over each run of equal
        # lambda~
        for rows, draws, m in sums:
            g, d = rows[:, :nt], draws[:, :, :nt]
            if m == 1:
                np.copyto(g, d[:, 0])
            else:
                np.add(d[:, 0], d[:, 1], out=g)
                for i in range(2, m):
                    np.add(g, d[:, i], out=g)
        for rows, neg_lam in scales:
            g = rows[:, :nt]
            np.divide(g, neg_lam, out=g)
        gs, gd, ge = gains[0, :, :nt], gains[1, :, :nt], gains[2, :, :nt]

        # w1 = max(gs - thr, 0); ratio = (1 + w1*gd*e1g) / (1 + w1*ge*e2g),
        # then -1 marks a dead tag (ratios are >= 0).  A dead tag's ratio is
        # exactly 1, so -1 leaves the OTS pick below unchanged.
        w1 = gs
        np.subtract(gs, thr_c, out=w1)
        np.maximum(w1, 0.0, out=w1)
        r, den = ratio[:, :nt], denom[:, :nt]
        np.multiply(w1, gd, out=r)
        np.multiply(r, e1g_c, out=r)
        np.add(r, 1.0, out=r)
        np.multiply(w1, ge, out=den)
        np.multiply(den, e2g_c, out=den)
        np.add(den, 1.0, out=den)
        np.divide(r, den, out=r)
        dd = dead[:, :nt]
        np.equal(w1, 0.0, out=dd)
        np.copyto(r, -1.0, where=dd)

        # SOTS and METS: the first argmax of gd and argmin of ge, the first
        # tag equal to the extremum over tags.  Picks are kept as flat
        # indices into ratio (tag*tile + trial) for one gather.
        fl, st, wt = flat[:, :nt], sel[:, :nt], weight[:, :nt]
        best = st[3]   # scratch until the OTS pick is written there
        for p, (key, extremum) in enumerate(((gd, np.maximum), (ge, np.minimum))):
            extremum.reduce(key, axis=0, out=best)
            np.equal(key, best, out=dd)
            np.multiply(dd, first_weight, out=wt)
            np.maximum.reduce(wt, axis=0, out=fl[p])
            np.subtract(n * tile, fl[p], out=fl[p])
        # RTS: tag min(floor(u*N), N-1) from the last slot of the trial,
        # scaled in place: the uniform is not read again
        rts = ut[slots - 1]
        np.multiply(rts, n, out=rts)
        np.copyto(fl[2], rts, casting="unsafe")
        np.minimum(fl[2], n - 1, out=fl[2])
        np.multiply(fl[2], tile, out=fl[2])
        np.add(fl, trial_idx[:nt], out=fl)
        np.take(ratio.reshape(-1), fl, out=st[:3])
        # OTS: the first argmax of max(ratio, 1) is the largest ratio when it
        # exceeds 1, else tag 0 (every tag ties at 1)
        ots, mk = st[3], hits[0, :nt]   # mk: scratch until the counts below
        np.maximum.reduce(r, axis=0, out=ots)
        np.less_equal(ots, 1.0, out=mk)
        np.copyto(ots, r[0], where=mk)

        # column c counts the picked ratios below its bound: the dead ones
        # (ratio -1) below 0, and below tau and 1 the dead ones as well,
        # since powered ratios are >= 0; they come off once, after the tiles
        ht = hits[:, :nt]
        for c, bound in bounds:
            np.less(st, bound, out=ht)
            counts[:, c] += [np.count_nonzero(row) for row in ht]
    counts[:, [c for c, _ in bounds[1:]]] -= counts[:, :1]
    return counts[[0, 1, 3, 2]]   # rows in PROTOCOL_ORDER
