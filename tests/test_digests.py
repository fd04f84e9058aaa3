"""Golden transcript digests: a change that alters any of these changes
behaviour and must say so, not re-record the table."""

import hashlib

import pytest

from rsa_cegd.harness import RunConfig, run_mode

# sha256 of the report file bytes (report_lines joined, newline-terminated),
# keyed by (mode, bits, exponent, seed).
GOLDEN = {
    ("honest", 32, 3, 1): "995edbbe46510e75ed3343d80da85f02212e995b34afb192a10ddf32f10ae5c9",
    ("honest", 32, 3, 2): "e6b3a989ce8ee6741273506a5d4992f7914ce23e0afc619787f37ae885aea3f1",
    ("honest", 32, 3, 3): "02cdae94ef28d9f67dd5f724eea210709ab2039cf9c0c8cec0ea659f851e805e",
    ("honest", 256, 65537, 1): "6379b5cb21044614fc3a7703e33cbd4ba1bee1c1b8a7d17568050059ba1841ac",
    ("honest", 256, 65537, 2): "84dc8ca6f819c343d67ebcfb65bc04aee2cea5d260a0df251be533f920f5d288",
    ("honest", 256, 65537, 3): "13d0dacddbac4501f27c8c0ca9fd26244522caeaabd0d2aca520a4a97c277ccd",
    ("replay", 32, 3, 1): "30719f1f14acf410b3737011cf2f938403208f86fdd59b6a95936cafb657a964",
    ("replay", 32, 3, 2): "054bb253ea1a91da75d74243e5f758c3ecd4e05a87a14783ea2b525a5992c5b4",
    ("replay", 32, 3, 3): "11f829111970d748b283e8b5920dd14667b6fb7556c85e20a7392d88e647bdda",
    ("replay", 256, 65537, 1): "e3605d9a1725b8966cd3f12c1cfc9653eb888cd07a26356aec2df14761dab4a5",
    ("replay", 256, 65537, 2): "3c019b2c8fcaf935138385488e615c3f9ef45807f87688df89de6e2880f41b19",
    ("replay", 256, 65537, 3): "5be142ae9d8664eb820b2ce9735532535f515adea92a0a84a5e8ab85d9cd0f2b",
    ("eoo-forward", 32, 3, 1): "413b7c40e4180e6e72c63665baaae3fbd14178ade41cdbe57611f4b849986127",
    ("eoo-forward", 32, 3, 2): "c881a51214ea9d1d73287129db5b2ebce5b905c3affd492f0cd78512d7fc999e",
    ("eoo-forward", 32, 3, 3): "e94d4eccc879d1cdf3167c5b2cce949eb275002f22f7e086238feda563ed37f4",
    ("eoo-forward", 256, 65537, 1): "0dbc223aa06ec428b09ac1f04e38ad5a9c9dbae94fc827c11bb46c3d15204a6a",
    ("eoo-forward", 256, 65537, 2): "5074862e8103f5a900300ed26ca515f24bbe218dea7cbdbc6b6faa3b9c5884f9",
    ("eoo-forward", 256, 65537, 3): "c7b80257c2c22db6f06a398b60ccdf53bde8723be7f881dbd76f0c01f80783c3",
}

# Same digest for 140,000 bytes of goods: 4,375 keystream blocks, so the
# goods cross two 64 KiB boundaries and the block index grows from three to
# four hex digits at block 4,096.
LARGE_GOODS = 140_000
GOLDEN_LARGE_GOODS = {
    ("honest", 128, 65537, 1): "d7515fc0f7a644392447398ecd83a4aa4043e0eccc05794acbc7d04dc5b558ee",
    ("replay", 128, 65537, 1): "ef44c9da8ef4efa1f94757da90a741498e0a22374c51d42674d61317a2520dba",
    ("eoo-forward", 128, 65537, 1): "7284c582ba49a86d3884e20e42081263f4b56779a4ede83c9f68cc70a07a45f7",
}


def transcript_digest(mode, bits, exponent, seed, goods_size=64):
    config = RunConfig(mode=mode, bits=bits, exponent=exponent, seed=seed,
                       goods_size=goods_size)
    lines = run_mode(config).to_lines()
    return hashlib.sha256(("\n".join(lines) + "\n").encode("utf-8")).hexdigest()


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_transcript_digest(key):
    assert transcript_digest(*key) == GOLDEN[key]


@pytest.mark.parametrize("key", sorted(GOLDEN_LARGE_GOODS))
def test_large_goods_transcript_digest(key):
    assert transcript_digest(*key, goods_size=LARGE_GOODS) == GOLDEN_LARGE_GOODS[key]


def test_no_state_carried_between_runs():
    # A, B, A: whatever the second run leaves behind in the process must
    # not change a byte of the third.
    a = ("honest", 256, 65537, 1)
    b = ("replay", 256, 65537, 2)
    first = transcript_digest(*a)
    transcript_digest(*b)
    assert transcript_digest(*a) == first == GOLDEN[a]
