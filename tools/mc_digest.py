"""Digest of the Monte Carlo event counts over a fixed set of cases.

Run from the repository root:

    PYTHONPATH=src python3 tools/mc_digest.py

Each case is one ``estimate_all`` call with ``batch_size = trials``, so the
whole run is one batch walked in tiles of 2^16 // slots trials.  The tool
builds every scenario with the ``tests/conftest.py`` builders that the tests
use.  The cases:

- ``make_params`` at gamma_t 12 dB with N 1/2/3/5/8, one shape m 1..4 on
  every link and d_e 1/3/6 m (60 points);
- three per-tag scenarios: ``mixed_m_params(0.4)``, N = 4 with m 1/2/3 on the
  s/d/e families and two odd tags; ``per_tag_source_params()``, the same with
  a different source distance on tag 1; ``split_lambda_params()``, N = 4 at
  m = 2 with lambda~ split within the d and e families;
- ``fig2_at``, the fig2 preset at gamma_t 0 and 30 dB;

each at 7 trials, at one tile less 5 trials and at two tiles plus 17 trials
(195 calls).  The digest hashes ``n_case1`` and ``n_case2`` of every
(protocol, metric) estimate in call order.  The tool reads only public names,
so the same file digests an older checkout's ``src/`` as well: a kernel change
that keeps the counts bit for bit keeps the digest.
"""

from __future__ import annotations

import hashlib
import itertools
import sys
from pathlib import Path

from backsec.montecarlo import PROTOCOL_ORDER, McConfig, estimate_all

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from conftest import (  # noqa: E402
    fig2_at,
    make_params,
    mixed_m_params,
    per_tag_source_params,
    split_lambda_params,
)

SEED = 2718
TILE_UNIFORMS = 1 << 16


def points() -> list:
    """The 65 parameter points, in digest order."""
    out = [make_params(gamma_t_db=12.0, n_tags=n, m=m, d_e=d_e)
           for n, m, d_e in itertools.product((1, 2, 3, 5, 8), (1, 2, 3, 4), (1.0, 3.0, 6.0))]
    out += [mixed_m_params(0.4), per_tag_source_params(), split_lambda_params()]
    out += [fig2_at(db) for db in (0.0, 30.0)]
    return out


def trial_counts(params) -> tuple:
    """7 trials, one tile less 5 and two tiles plus 17."""
    slots = sum(link.m for fam in "sde" for link in params.links_of(fam)) + 1
    tile = TILE_UNIFORMS // slots
    return 7, tile - 5, 2 * tile + 17


def main() -> int:
    digest = hashlib.sha256()
    calls = 0
    for params in points():
        for trials in trial_counts(params):
            est = estimate_all(params, McConfig(trials=trials, seed=SEED, batch_size=trials))
            for proto, metric in itertools.product(PROTOCOL_ORDER, ("sop", "ip")):
                e = est[(proto, metric)]
                digest.update(f"{e.n_case1} {e.n_case2}\n".encode())
            calls += 1
    print(f"sha256={digest.hexdigest()} calls={calls}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
