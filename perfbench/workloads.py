"""Workload job lists for the ccckit benchmark.

A job is either one ``ccckit run`` call made in-process through
``ccckit.cli.main(argv)``, or a seeded job: generators the benchmark builds
from the seed through ccckit's public constructors, checked by
``ccckit.core.verify_ccc`` against the family's shipped witness.

This module imports ccckit only inside the seeded job builders, so the pass
process can import it before it times ``import ccckit.cli``.
"""

from __future__ import annotations

import json
import random


def cli_job(family: str, size: int | None = None, *extra: str) -> dict:
    sized = [] if size is None else ["--size", str(size)]
    argv = ["run", "--family", family, *sized, *extra]
    return {"label": " ".join([family, *sized[1:], *extra]), "kind": "cli", "argv": argv}


def seeded_job(label: str, builder: str, **params) -> dict:
    return {"label": label, "kind": "seeded", "builder": builder, "params": params}


# Seeded jobs verify k generators against an order-2 witness, so the engine
# makes 2 k^2 + k checks and every one of them must pass.
SEEDED_GENERATORS = 3

WORKLOADS: dict[str, list[dict]] = {
    # Matrix inversion dominates: the same few matrices are inverted many
    # times (sp size 4), and the size-2 jobs keep a case where per-call
    # overhead outweighs elimination.  The seeded jobs vary the inputs and
    # the integer entry sizes with the seed.
    "matrix": [cli_job(f, s) for f in ("gl", "sl", "e", "sp", "onn") for s in (2, 4)] + [
        seeded_job("seeded sl-words Z", "matrix_words", modulus=None),
        seeded_job("seeded sl-words Z/5", "matrix_words", modulus=5),
    ],
    # Cheap word and permutation operations, so engine-loop overhead is a
    # large share.  braid 4 (equality cap) and perm 1 / perm 3 (witness
    # parity) fail today and stay in the list so that their fixes show.
    "words": [cli_job("braid", s) for s in (2, 3, 4)]
    + [cli_job("aut-free", s) for s in (2, 8, 32)]
    + [cli_job("perm", s) for s in (1, 2, 3, 4, 64, 256)]
    + [cli_job("closure", 2)] + [
        seeded_job("seeded aut-products", "aut_products"),
    ],
    # Fraction arithmetic in the iet and plhomeo constructors, the bounded
    # verify_czc mode, and wreath normalisation, tower evaluation and seeded
    # sampling; elements rarely repeat.
    "rational": [cli_job("iet", 2), cli_job("iet", 4),
                 cli_job("pl", 3), cli_job("pl", 3, "--bound", "16"),
                 cli_job("wreath-tower", None, "--samples", "50"),
                 cli_job("wreath-tower", None, "--samples", "200")],
}


def _rng(job: dict, seed: int) -> random.Random:
    # a string seed is hashed with SHA-512, so it is stable across processes
    return random.Random(f"{job['label']}|{seed}")


def matrix_words(rng: random.Random, modulus, block: int = 4, letters: int = 40):
    """SL_block words in random elementary generators E_ij(r), 1 <= r <= 3,
    corner embedded under the shipped block-swap witness of size 2 * block.
    Over Z the entries grow with the word length: about 25 bits here."""
    from ccckit import core
    from ccckit import matrixring as mat

    ambient, witness = mat.classical_witness("SL", block, modulus)
    gens = []
    for _ in range(SEEDED_GENERATORS):
        g = mat.identity_matrix(block, modulus)
        for _ in range(letters):
            i, j = rng.sample(range(1, block + 1), 2)
            g = mat.mat_mul(g, mat.elementary(block, i, j, rng.randint(1, 3), modulus))
        gens.append(mat.corner_embed(g, ambient.size))
    return core.verify_ccc(core.GeneratorSet(ambient, tuple(gens)), witness,
                           suite="seeded-matrix-words")


def aut_products(rng: random.Random, block: int = 8, letters: int = 8):
    """Products of random Nielsen moves, their inverses and transpositions of
    F_block, extended to F_(2 block) under the shipped block-swap witness."""
    from ccckit import core
    from ccckit import freegroup as fg

    witness = fg.aut_block_swap_witness(block)
    gens = []
    for _ in range(SEEDED_GENERATORS):
        phi = fg.identity_aut(block)
        for _ in range(letters):
            i, j = rng.sample(range(1, block + 1), 2)
            move = rng.randrange(3)
            if move == 0:
                factor = fg.nielsen_aut(block, i, j)
            elif move == 1:
                factor = fg.aut_inverse(fg.nielsen_aut(block, i, j))
            else:
                factor = fg.permutation_aut(block, {i: j, j: i})
            phi = fg.aut_compose(phi, factor)
        gens.append(fg.extend_rank(phi, 2 * block))
    return core.verify_ccc(core.GeneratorSet(fg.FreeAutFamily(2 * block), tuple(gens)),
                           witness, suite="seeded-aut-products")


BUILDERS = {"matrix_words": matrix_words, "aut_products": aut_products}


def run_seeded(job: dict, seed: int) -> bytes:
    """Build and verify a seeded job; return its report bytes."""
    report = BUILDERS[job["builder"]](_rng(job, seed), **job["params"])
    body = {"job": job["label"], "seed": seed, **report.to_dict()}
    return (json.dumps(body, sort_keys=True, indent=2) + "\n").encode()


def expected_seeded_checks() -> int:
    k = SEEDED_GENERATORS
    return 2 * k * k + k
