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
"""

from __future__ import annotations

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


def mc_batch(bseed, n_trials, n_tags, m_s, lam_s, m_d, lam_d, m_e, lam_e,
             thr, e1g, e2g, tau, r_pos):
    """Event counts of one batch of n_trials trials keyed on bseed.

    Draw order per trial: source gains tag-major, then destination gains,
    then eavesdropper gains, then one uniform for the random-selection pick.
    Counts columns: (dead tag, secrecy outage while powered, intercept while
    powered); protocol rows: SOTS, METS, OTS, RTS.

    Trials are walked in tiles of about _TILE_UNIFORMS draws through one
    workspace allocated per call; every stage writes into slices of it.
    Within a tile the draws sit slot-major (row = slot, column = trial).
    """
    slots = int(m_s.sum() + m_d.sum() + m_e.sum()) + 1
    tile = min(n_trials, max(1, _TILE_UNIFORMS // slots))
    n = n_tags

    z, u, gains, ratio, denom, best, flat, moved, mask, dead, sel, hits = _workspace(
        ((slots, tile), np.uint64),
        ((slots, tile), np.float64),
        ((3, n, tile), np.float64),
        ((n, tile), np.float64),
        ((n, tile), np.float64),
        ((tile,), np.float64),
        ((3, tile), np.intp),      # flat picks of SOTS, METS, RTS
        ((tile,), np.intp),
        ((tile,), np.bool_),
        ((n, tile), np.bool_),
        ((4, tile), np.float64),   # picked ratio, -1 when dead: SOTS, METS, RTS, OTS
        ((4, tile), np.bool_),
    )
    shifted = u.view(np.uint64)   # the shift temporary; dead before u is written
    trial_idx = np.arange(tile, dtype=np.intp)
    # draw (trial i of the tile, slot s) has counter j = (t0 + i)*slots + s, so
    # its hash input bseed + (j + 1)*GOLD is a per-tile column term plus
    # i*slots*GOLD
    row_term = trial_idx.astype(np.uint64) * np.uint64(slots) * _GOLD
    slot_term = np.arange(1, slots + 1, dtype=np.uint64) * _GOLD

    firsts = []                   # first slot of each (family, tag) Gamma draw
    col = 0
    for ms in (m_s, m_d, m_e):
        for k in range(n):
            firsts.append((col, int(ms[k])))
            col += int(ms[k])
    neg_lam = -np.concatenate((lam_s, lam_d, lam_e))
    thr_c, e1g_c, e2g_c = thr[:, None], e1g[:, None], e2g[:, None]

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
        np.copyto(ut, zt, casting="unsafe")
        np.add(ut, 1.0, out=ut)
        np.multiply(ut, _U53, out=ut)
        logs = ut[: slots - 1]
        np.log(logs, out=logs)

        g = gains.reshape(3 * n, tile)[:, :nt]
        for row, (c, m) in zip(g, firsts):
            if m == 1:
                np.copyto(row, logs[c])
            else:
                np.add(logs[c], logs[c + 1], out=row)
                for i in range(c + 2, c + m):
                    np.add(row, logs[i], out=row)
        np.divide(g, neg_lam[:, None], out=g)
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

        # SOTS and METS: the first argmax of gd and argmin of ge.  A running
        # extremum moves only at a strictly better tag, so the pick is the
        # last tag k where it moved: the max over k of k*moved.  Picks are
        # kept as flat indices into ratio (tag*tile + trial) for one gather.
        bt, mk, fl, st = best[:nt], mask[:nt], flat[:, :nt], sel[:, :nt]
        for p, (key, extremum, better) in enumerate(((gd, np.maximum, np.greater),
                                                     (ge, np.minimum, np.less))):
            np.copyto(bt, key[0])
            fl[p] = 0
            for k in range(1, n):
                better(key[k], bt, out=mk)
                extremum(bt, key[k], out=bt)
                np.multiply(mk, k * tile, out=moved[:nt])
                np.maximum(fl[p], moved[:nt], out=fl[p])
        # RTS: tag min(floor(u*N), N-1) from the last slot of the trial
        np.multiply(ut[slots - 1], n, out=bt)
        np.copyto(fl[2], bt, casting="unsafe")
        np.minimum(fl[2], n - 1, out=fl[2])
        np.multiply(fl[2], tile, out=fl[2])
        np.add(fl, trial_idx[:nt], out=fl)
        np.take(ratio.reshape(-1), fl, out=st[:3])
        # OTS: the first argmax of max(ratio, 1) is the largest ratio when it
        # exceeds 1, else tag 0 (every tag ties at 1)
        ots = st[3]
        np.copyto(ots, r[0])
        for k in range(1, n):
            np.maximum(ots, r[k], out=ots)
        np.less_equal(ots, 1.0, out=mk)
        np.copyto(ots, r[0], where=mk)

        # dead: ratio -1; powered ratios are >= 0, and 1 <= tau, so each
        # below-threshold count minus the dead ones is the powered events
        ht = hits[:, :nt]
        np.less(st, 0.0, out=ht)
        n_dead = np.count_nonzero(ht, axis=1)
        counts[:, 0] += n_dead
        if r_pos:  # tau > 1
            np.less(st, tau, out=ht)
            counts[:, 1] += np.count_nonzero(ht, axis=1) - n_dead
        np.less(st, 1.0, out=ht)
        counts[:, 2] += np.count_nonzero(ht, axis=1) - n_dead
    return counts[[0, 1, 3, 2]]   # rows in PROTOCOL_ORDER

