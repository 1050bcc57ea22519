"""Seeded property suites behind the `fuzz` CLI command and the acceptance tests.

Each suite draws its instances from the package's own deterministic
generators, so any reported violation carries the trial seed that reproduces
it exactly. Trials are independent and can be fanned out over a process
pool; results merge order-independently. The pool size is capped by the
TEMPOWL_THREADS environment variable.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from tempowl import rwl
from tempowl.distinguish import (
    classify_all,
    classify_pair,
    distinguishable_global,
    distinguishable_local,
)
from tempowl.errors import ValidationError
from tempowl.gen import Xorshift64Star, derive_seed, fixture, permuted_copy, random_tg
from tempowl.iso import pointwise_iso
from tempowl.kgraph import disjoint_union, k_glob, k_loc
from tempowl.tgraph import TimestampedNode, shifted_copy
from tempowl.tgnn import ModelConfig, embedding_equal, forward

_PALETTE = ("green", "blue", "red")
_FUZZ_WIDTH = 4
_FUZZ_LAYERS = 3


@dataclass
class PropertyReport:
    property: str
    trials: int
    violations: list[dict]

    @property
    def passed(self) -> bool:
        return not self.violations

    def min_seed(self) -> int | None:
        """Seed of the earliest failing trial — the minimal reproducer."""
        if not self.violations:
            return None
        return min(self.violations, key=lambda v: v.get("trial", 0))["seed"]


def _variant(k: int) -> str:
    return "sum_sign" if k % 2 == 0 else "concat_sum_relu"


# --- Per-trial checks (return a violation dict, or None) -------------------------


def check_theorem6(trial_seed: int) -> dict | None:
    """A node-renamed (and possibly time-shifted) copy is never distinguished."""
    rng = Xorshift64Star(trial_seed)
    tg = random_tg(
        derive_seed(trial_seed, "graph"),
        nodes=rng.randint(2, 6),
        snapshots=rng.randint(1, 4),
        edge_prob=rng.choice((0.2, 0.4, 0.7)),
        palette=_PALETTE[: rng.randint(1, 3)],
        colour_persistent=rng.chance(0.5),
        uniform_grid=rng.chance(0.5),
    )
    copy, perm = permuted_copy(tg, derive_seed(trial_seed, "perm"))
    shift = rng.randint(0, 7)
    copy = shifted_copy(copy, shift)

    result = classify_all(tg, copy)
    for i in range(len(tg.times)):
        for v in tg.node_ids:
            pair = (TimestampedNode(v, i), TimestampedNode(perm[v], i))
            if result.classes[pair] != "neither":
                return {
                    "seed": trial_seed,
                    "detail": f"pair {pair} classified {result.classes[pair]}",
                }

    for k in range(5):
        sim_seed = derive_seed(trial_seed, "sim", k)
        for mode in ("global", "local"):
            cfg = ModelConfig(
                mode, layers=2, width=_FUZZ_WIDTH, variant=_variant(k), seed=sim_seed
            )
            s1 = forward(tg, cfg)
            s2 = forward(copy, cfg)
            for layer in range(cfg.layers + 1):
                for i in range(len(tg.times)):
                    for v in tg.node_ids:
                        if not embedding_equal(
                            s1,
                            TimestampedNode(v, i),
                            TimestampedNode(perm[v], i),
                            layer,
                            s2,
                        ):
                            return {
                                "seed": trial_seed,
                                "detail": (
                                    f"{mode}/{cfg.variant} seed {sim_seed}: embeddings of "
                                    f"({v},{i}) and ({perm[v]},{i}) differ at layer {layer}"
                                ),
                            }
    return None


def check_theorem9(trial_seed: int) -> dict | None:
    """On colour-persistent input, local separates whatever global separates,
    at no greater depth."""
    rng = Xorshift64Star(trial_seed)

    def draw(tag):
        return random_tg(
            derive_seed(trial_seed, tag),
            nodes=rng.randint(2, 8),
            snapshots=rng.randint(1, 5),
            edge_prob=rng.choice((0.2, 0.5, 0.8)),
            palette=_PALETTE[: rng.randint(1, 3)],
            colour_persistent=True,
            uniform_grid=rng.chance(0.5),
        )

    tg1 = draw("g1")
    tg2 = tg1 if rng.chance(0.25) else draw("g2")
    result = classify_all(tg1, tg2)
    for pair, cls in result.classes.items():
        if cls == "global_only":
            return {"seed": trial_seed, "detail": f"pair {pair} is global_only"}
        gl = result.global_layers[pair]
        ll = result.local_layers[pair]
        if gl is not None and (ll is None or ll > gl):
            return {
                "seed": trial_seed,
                "detail": f"pair {pair}: local layer {ll} exceeds global layer {gl}",
            }
    return None


def check_lemma1(trial_seed: int) -> dict | None:
    """In the local encoding of a colour-persistent graph, colour inequality
    survives shifting both nodes forward along the (uniform) time grid."""
    rng = Xorshift64Star(trial_seed)
    tg = random_tg(
        derive_seed(trial_seed, "graph"),
        nodes=rng.randint(2, 6),
        snapshots=rng.randint(2, 5),
        edge_prob=rng.choice((0.2, 0.4, 0.7)),
        palette=_PALETTE[: rng.randint(1, 3)],
        colour_persistent=True,
        uniform_grid=True,
    )
    colouring = rwl.refine(k_loc(tg))
    # contrapositive sweep: nodes equal after the shift must already have been
    # equal before it, which visits exactly the instances the property quantifies over
    for layer_ids in colouring.layers:
        classes: dict[int, list[TimestampedNode]] = {}
        for tn, cid in zip(colouring.nodes, layer_ids):
            classes.setdefault(cid, []).append(tn)
        for members in classes.values():
            for x in range(len(members)):
                v, i = members[x]
                for y in range(x + 1, len(members)):
                    u, j = members[y]
                    for k in range(1, min(i, j) + 1):
                        a = colouring.position(TimestampedNode(v, i - k))
                        b = colouring.position(TimestampedNode(u, j - k))
                        if layer_ids[a] != layer_ids[b]:
                            return {
                                "seed": trial_seed,
                                "detail": (
                                    f"({v},{i - k}) vs ({u},{j - k}) differ but the "
                                    f"+{k} shift ({v},{i})/({u},{j}) does not"
                                ),
                            }
    return None


def check_soundness(trial_seed: int) -> dict | None:
    """Nodes with equal refinement colours get equal embeddings, every model."""
    rng = Xorshift64Star(trial_seed)

    def draw(tag):
        return random_tg(
            derive_seed(trial_seed, tag),
            nodes=rng.randint(2, 5),
            snapshots=rng.randint(1, 3),
            edge_prob=rng.choice((0.2, 0.4, 0.7)),
            palette=_PALETTE[: rng.randint(1, 3)],
            colour_persistent=rng.chance(0.5),
            uniform_grid=rng.chance(0.5),
        )

    tg1 = draw("g1")
    tg2 = tg1 if rng.chance(0.25) else draw("g2")
    for mode, encode in (("global", k_glob), ("local", k_loc)):
        merged, origin = disjoint_union(encode(tg1), encode(tg2))
        colouring = rwl.refine(merged)
        for k in range(10):
            sim_seed = derive_seed(trial_seed, "sim", k)
            cfg = ModelConfig(
                mode,
                layers=_FUZZ_LAYERS,
                width=_FUZZ_WIDTH,
                variant=_variant(k),
                seed=sim_seed,
            )
            states = (forward(tg1, cfg), forward(tg2, cfg))
            for layer in range(cfg.layers + 1):
                classes: dict[int, list] = {}
                for tagged in colouring.nodes:
                    side, tn = origin[tagged]
                    cid = rwl.colours_at(colouring, layer, tagged)
                    classes.setdefault(cid, []).append((side, tn))
                for members in classes.values():
                    side0, tn0 = members[0]
                    ref = states[side0].value(tn0, layer)
                    for side, tn in members[1:]:
                        if states[side].value(tn, layer) != ref:
                            return {
                                "seed": trial_seed,
                                "detail": (
                                    f"{mode}/{cfg.variant} seed {sim_seed}: colours agree "
                                    f"but embeddings differ at layer {layer} for "
                                    f"{(side0, tn0)} vs {(side, tn)}"
                                ),
                            }
    return None


# --- Fixture regressions ----------------------------------------------------------


def check_theorem7() -> dict | None:
    """Colour drift is visible to global but invisible to local models."""
    tg, tg_p = fixture("fig2"), fixture("fig3")
    b4 = TimestampedNode("b", 3)
    g = distinguishable_global(tg, b4, tg_p, b4)
    l = distinguishable_local(tg, b4, tg_p, b4)
    if (g.distinguishable, g.first_layer) != (True, 1):
        return {"seed": 0, "detail": f"global verdict {g}"}
    if l.distinguishable:
        return {"seed": 0, "detail": f"local verdict {l}"}
    if classify_pair(tg, b4, tg_p, b4) != "global_only":
        return {"seed": 0, "detail": "pair did not classify global_only"}
    return None


def check_theorem8() -> dict | None:
    """A two-step local path separates what global message passing cannot."""
    tg, tg_p = fixture("fig6_pair")
    a2, a2_p = TimestampedNode("a", 1), TimestampedNode("a'", 1)
    g = distinguishable_global(tg, a2, tg_p, a2_p)
    l = distinguishable_local(tg, a2, tg_p, a2_p)
    if g.distinguishable:
        return {"seed": 0, "detail": f"global verdict {g}"}
    if (l.distinguishable, l.first_layer) != (True, 2):
        return {"seed": 0, "detail": f"local verdict {l}"}
    if classify_pair(tg, a2, tg_p, a2_p) != "local_only":
        return {"seed": 0, "detail": "pair did not classify local_only"}
    return None


def run_theorem5(trials: int, seed: int) -> PropertyReport:
    """Pointwise-isomorphic nodes separated by both mechanisms at layer one."""
    violations = []
    tg, tg_p = fixture("fig5_pair")
    a2, a2_p = TimestampedNode("a", 1), TimestampedNode("a'", 1)

    witness = pointwise_iso(tg, tg_p)
    expected_f1 = {"a": "b'", "b": "c'", "c": "a'"}
    if witness is None:
        violations.append({"trial": 0, "seed": seed, "detail": "no pointwise witness"})
    elif witness.maps[0] != expected_f1:
        violations.append(
            {"trial": 0, "seed": seed, "detail": f"unexpected f_1 {witness.maps[0]}"}
        )

    for mode, query in (
        ("global", distinguishable_global),
        ("local", distinguishable_local),
    ):
        verdict = query(tg, a2, tg_p, a2_p)
        if (verdict.distinguishable, verdict.first_layer) != (True, 1):
            violations.append(
                {"trial": 0, "seed": seed, "detail": f"{mode} verdict {verdict}"}
            )
    if classify_pair(tg, a2, tg_p, a2_p) != "both":
        violations.append(
            {"trial": 0, "seed": seed, "detail": "pair did not classify both"}
        )

    # some concrete model must already separate the pair at layer one
    for mode in ("global", "local"):
        separated = False
        for k in range(trials):
            sim_seed = derive_seed(seed, "t5", k)
            cfg = ModelConfig(mode, layers=1, width=8, seed=sim_seed)
            if not embedding_equal(
                forward(tg, cfg), a2, a2_p, 1, forward(tg_p, cfg)
            ):
                separated = True
                break
        if not separated:
            violations.append(
                {
                    "trial": 0,
                    "seed": seed,
                    "detail": f"no {mode} seed out of {trials} separated the pair",
                }
            )
    return PropertyReport("theorem5", trials, violations)


# --- Runner -------------------------------------------------------------------------

_TRIAL_CHECKS = {
    "theorem6": check_theorem6,
    "theorem9": check_theorem9,
    "lemma1": check_lemma1,
    "soundness": check_soundness,
}

_FIXTURE_CHECKS = {
    "theorem7": check_theorem7,
    "theorem8": check_theorem8,
}

PROPERTY_NAMES = tuple(
    sorted({"theorem5", *_TRIAL_CHECKS, *_FIXTURE_CHECKS})
)


def _resolve_jobs(jobs: int | None) -> int:
    env = os.environ.get("TEMPOWL_THREADS")
    if not env:
        cap = os.cpu_count() or 1
    elif env.strip().isdecimal() and int(env) > 0:
        cap = int(env)
    else:
        raise ValidationError(f"TEMPOWL_THREADS must be a positive integer, got {env!r}")
    if jobs is None:
        jobs = cap
    return max(1, min(jobs, cap))


def _trial_args(name: str, base_seed: int, index: int) -> tuple[str, int, int]:
    return (name, derive_seed(base_seed, name, index), index)


def _run_one(args: tuple[str, int, int]) -> dict | None:
    name, trial_seed, index = args
    violation = _TRIAL_CHECKS[name](trial_seed)
    if violation is not None:
        violation["trial"] = index
    return violation


def run_property(
    name: str, trials: int, seed: int, jobs: int | None = None
) -> PropertyReport:
    """Run `trials` independent trials of the named property suite."""
    if name == "theorem5":
        return run_theorem5(trials, seed)
    if name in _FIXTURE_CHECKS:
        violation = _FIXTURE_CHECKS[name]()
        violations = [dict(violation, trial=0)] if violation else []
        return PropertyReport(name, trials, violations)
    if name not in _TRIAL_CHECKS:
        raise ValueError(f"unknown property {name!r}; choose from {PROPERTY_NAMES}")

    work = [_trial_args(name, seed, i) for i in range(trials)]
    jobs = _resolve_jobs(jobs)
    if jobs == 1 or trials < 4:
        results = list(map(_run_one, work))
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(
                pool.map(_run_one, work, chunksize=max(1, trials // (jobs * 8)))
            )
    violations = sorted(
        (v for v in results if v is not None), key=lambda v: v["trial"]
    )
    return PropertyReport(name, trials, violations)
