"""Golden output bytes: a change that alters any report byte fails here.

The digests are the sha256 of ``quadconc fuzz --seed 42 --count 200`` in
each regime, as the command writes it to stdout.  Two runs agreeing with
each other (``test_determinism_byte_identical``) does not catch a change
in what both of them print.
"""

import hashlib
import io

import pytest

from quadconc.cli import main

GOLDEN = {
    ("gamma1",): "29cf24f6cfa2b07d81c540165cc2b107b26e741af7f0424bcca5934bf807049d",
    ("general",): "5323b08fcc1e388ce0da8a6364cbbc1063c6fe469d98975be1895a483b246e9f",
    ("remarks",): "2caa321a5e82ab801cf1cfbb212b778f0ddb05d948411a6f072e87ea5ec88af2",
    ("remarks", "--shape", "concave"):
        "1e21c51b9ce9b074a72341a34747c3a482f315e822a41097ad04f450919103d3",
    ("general", "--shape", "any"):
        "a0177ae39431cbb4e563b58cd8ae03950efca1cd31e6d49784b462b8cd2bd37e",
}


@pytest.mark.parametrize("regime", sorted(GOLDEN), ids=" ".join)
def test_fuzz_bytes_match_golden_digest(regime):
    out = io.StringIO()
    main(["fuzz", "--seed", "42", "--count", "200", "--regime", *regime], out=out)
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == GOLDEN[regime]
