"""Golden values: the SHA-256 of the file format, DOT and TikZ bytes of
every CLI preset.  Any change to a construction that alters states,
labels, transitions or finality of a case-study machine shows up here."""

import hashlib

import pytest

from fsmkit import cli, serialize

GOLDEN = {
    "naf-acceptor": (
        "302c6a1e91c4d39e948068c6fbec1e38bbd6aafaf2a75236aa1d04cb0a1e9406",
        "91def41b0fb00c7573d8d15dd9116f351f9bd1909f583692daf0216a8e084946",
        "cc497b54cc454bfe844fd2543c0eebbbeedd2adc8dcca0a34d93567677d38266"),
    "naf1": (
        "bf3991c9ac7ecd54094fad38427d7f285a2321ad79d39f437345fe5219931c15",
        "6bb505a24430c71a191f63e685ffbe67928a2608852bb95ca5d79e31edc5de88",
        "d484da0c7c9dad577ac54a425e2ae130ab1b1a62269885a08065c381e257a071"),
    "naf2": (
        "58d5932c476b14d9b0e0c34496251486a64c3e575585d3f88b6e6d045f3e6f34",
        "900cfd36e98815c69d0bdeea60d82afd31f12c4b4013ee8a0277d2230c343bab",
        "d10c301cc51dd1799707a12dd5c52338c469f504a86ffc2bfe9dbf20c6821f97"),
    "naf-all": (
        "dd0f70d6b32727dc810a87644003eeabccc50037143b8250dd0aa4119f251d99",
        "75502f2492b4734787ce662be9460261a5584236776c1c2da9b2686038f0fe33",
        "7ab2b2f6873d70e79c3dc7e6c5f555eee753dfdda04ff338802f97b25daa50d3"),
    "triple": (
        "8ea8a7793c68d1b7b4c95caa9de399e7abfee8528eb729b3680b9f504d9597ae",
        "f1156a577d31f5c23891c873693b5124724605d353740833b5fa048abf2cc032",
        "bae86e938b187b455656cd56e668f2b19687d9431e94e5377acab1908301507f"),
    "identity": (
        "f698ba3b6ae9f6370ec6330b3272d76b8265fde0c7eaf1ebc678bf741a81b7e1",
        "f572188710e4b7ca80513ab7f83b8caf52c3842c5a4dbe563793886c3ba42444",
        "0ecae1f4fffcb9055ca1c59e7dc9f1edf94bc25caebfa549723bd930192399d2"),
    "weight": (
        "6b68c7d6bf671fd6ede1566aebcc583bfbe3c7b7141c5d3e5d68a2337de9625e",
        "502743b15f5303ef13e16722316c677276e1b42530f76dd8ee53afc701b36ea9",
        "38bae086cb7b8afa282b25259b1529d72f74de2690dc4cba2728b7e988fe2f71"),
    "abs": (
        "56d239a816a755a650cb2cc4c6c9fefe689e91114b2ead57e8f45ca7d6ffa9f0",
        "f4c9e46cffcded9dcbf7604a29eaba683581659ccb7602704ee65a7e5d9eadc2",
        "e21863f4a75f8f001b41e4cf46ae86467f467b2750bcb719c884b211dcf04afa"),
    "minus": (
        "b66e1e08b31100e5f0062cd77a97d7a4918d8011b640e2fcbab1ff346146f10e",
        "f0ec1ab4260e508e3cf36a9674573088567092813180f95d634436883ad5aa03",
        "079e8d7f76d3279f04a1cf9511cc347dcbb249217a22783f0918d06240c8939a"),
    "naf3": (
        "cca9ed9d38bac375569b09720017bee3597730b09e06bebd0a8974ac39893467",
        "d05e0bc3f42b1550ea9d2480fed110d0966c398ae94f3a74c702273b08c84758",
        "fb471abe1ba3643f2d463811617dac515fdffe335d1fc658ef9523968542db49"),
    "combined-3n-n": (
        "a112634de8db879a262817dcb89e18212f1c505e0652525f1128e42380f6a765",
        "50dc93dde2713a32073b98734cd9df5df0fe8842fe1811eb0adcb78325883f68",
        "e7a8f1c7b1a56f8fb838e094a6a2643ded58221067e4ecbc43273a6fe801dfbc"),
    "T": (
        "7256625bd024816403bdff614832843a6f0c119467d40a26df3207056fdbbd15",
        "8473f251e920a666ff6c567e67e88587b4a2233bdd93e7cbc06682262829f2f4",
        "551fc11f713cb79dd74e77e71a0039a5fa5cbc8b364c83ed61793b713659bb29"),
    "W": (
        "c67f15b1019499b81b85b10a488927e67e2f13d86f3dfd8c7e8d72470d08cd82",
        "99d762cb8e6e2ae62f1722022db25edb02732844ec199b1f9d95935b1da47306",
        "5957151c847c51f2579712f46932ffbaeae59bd00c1f66599591b71bf9c11b87"),
    "R": (
        "8b06c057be82c07deb73f43ce91b9fdbad1ee103eabe5a78dc78a85028e42f03",
        "8734fb09740161e492f70ddca79c9af3f664a77bb4303465a4f25e5c7a98c975",
        "3a07af67991ade28e855464c89769f70350dd7844b0c11c22d565192a5cf7c72"),
}


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_every_preset_has_a_golden_entry():
    assert set(GOLDEN) == set(cli.PRESETS)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_preset_bytes_are_pinned(name):
    m = cli.PRESETS[name]()
    got = (_sha256(serialize.dumps(m)), _sha256(m.export("dot")),
           _sha256(m.export("tikz")))
    assert got == GOLDEN[name]
