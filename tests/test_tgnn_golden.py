"""Golden embeddings: `forward` must stay bit-identical across rewrites.

Each case pins the sha256 of ``repr(forward(g, cfg).layers)``, so the values,
the layer count and the key order of every layer dict are all fixed. The
digests in ``golden_embeddings.json`` were recorded before the simulator's
hot path was rewritten. Re-record them (``python tests/test_tgnn_golden.py``)
only for a change that is meant to alter embeddings.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from tempowl.gen import fixture, random_tg
from tempowl.tgnn import MODES, VARIANTS, ModelConfig, forward

GOLDEN = Path(__file__).with_name("golden_embeddings.json")
SEEDS = (0, 5, 91)
WIDTHS = (1, 4, 8)
LAYERS = 3


def golden_graphs():
    """(name, graph): the fixtures, plus seeded random graphs."""
    yield "fig2", fixture("fig2")
    yield "fig3", fixture("fig3")
    for name in ("fig5_pair", "fig6_pair"):
        for side, tg in zip("ab", fixture(name)):
            yield f"{name}.{side}", tg
    drift = dict(palette=("green", "blue"))
    yield "drift", random_tg(11, nodes=4, snapshots=3, edge_prob=0.5, **drift)
    yield "uneven", random_tg(
        12, nodes=5, snapshots=4, edge_prob=0.4, uniform_grid=False, **drift
    )
    yield "edgeless", random_tg(13, nodes=3, snapshots=3, edge_prob=0.0, **drift)
    yield "persistent", random_tg(
        14, nodes=6, snapshots=2, edge_prob=0.6, colour_persistent=True, **drift
    )
    # ids that sort out of creation order (v10 before v2)
    yield "eleven", random_tg(15, nodes=11, snapshots=2, edge_prob=0.3, **drift)


def digests() -> dict[str, str]:
    out = {}
    for name, tg in golden_graphs():
        for mode in MODES:
            for variant in VARIANTS:
                for seed in SEEDS:
                    for width in WIDTHS:
                        cfg = ModelConfig(mode, LAYERS, width, variant, seed)
                        text = repr(forward(tg, cfg).layers).encode()
                        key = f"{name}/{mode}/{variant}/seed{seed}/w{width}"
                        out[key] = hashlib.sha256(text).hexdigest()
    return out


def test_golden_embeddings_are_bit_identical():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    computed = digests()
    assert computed.keys() == golden.keys()
    changed = sorted(key for key in golden if computed[key] != golden[key])
    assert not changed, changed


if __name__ == "__main__":
    text = json.dumps(digests(), indent=1, sort_keys=True)
    GOLDEN.write_text(text + "\n", encoding="utf-8")
