"""Golden exact analysis values: SHA-256 digests of the stationary vector,
expected density and moment constants of seeded random transducers and of
W, T and naf1, and of the word-count recurrences of seeded random trimmed
DFAs.  Each digest hashes the str() of every value, so 3 and Fraction(3)
hash alike; the values were recorded with the symbolic
(characteristic-polynomial) moment computation and cross-check any other
method."""

import hashlib
import random

import pytest

from fsmkit import analysis, digits
from fsmkit.automata import word_count_recurrence
from fsmkit.machine import AUTOMATON, build_machine

GOLDEN_TRANSDUCERS = {
    "T": (
        "be37be5c09d395148d27a60c5473e797566340a1e6d0976be20299736963cd80",
        "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
        "da5144394e14707b4e822ae58c40680c6ce5e0c16965d82f48d72ab14837d448"),
    "W": (
        "be37be5c09d395148d27a60c5473e797566340a1e6d0976be20299736963cd80",
        "6523f09afbc5ba27530a3abe3ff0f5db40b2b859346f4425d64edd6d596c6eb5",
        "653f9485e832ea075f9963b898d9a1ac7e47f1f53e3ac06057ded380f2fea45c"),
    "naf1": (
        "4b6a9cd1676c113f0271985f1e1548b2033f31fcdc84be59f1f61e4982d62d6c",
        "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
        "462e06613316d384389268264fa7a7bb7bfb3de115d30af782b841829fc29b94"),
    "random0": (
        "460422681502778a291dba0b8c4b79ea7c83349991c444b33f7fb60eaca1bd3e",
        "348be5d7ad06601460048f7f7162d298f72cc79c121cc856069a90b22928ac4b",
        "145a47f3334adfa04f8501a12e5eb895104a657ffde9228c34131c475ce4fb7d"),
    "random1": (
        "d75668008de01986139402ad9e06e2b332b72898b3cdbcac7b1f50c6d6a1fdf5",
        "7eb36c00dadda2bd336936d19a7fe410da5b985f4fc200ce44a1069441200d4a",
        "e38e2abd4b21d0fdd5acc2d34e20869b4a3af9a9869a083dde145a3ae25f9e16"),
    "random2": (
        "8dd8f925d1889d7f080b4b3f610a954f0cb93a9f41e619f0ef19e783a3671869",
        "65e3fe75fe8dab391bef2dfd6f9b798bd1349c41b19e83ca804e8852870180e0",
        "eb2e958518dbad4a9daedb9911d21eaab465dfc67982dc8cd75309f770c6de0c"),
    "random3": (
        "608e538b2719d3a73c012e2372ff19996bf30b59197a4911a9b3c32a3ed02123",
        "173fc53e05e1fc82e732163c82bae251840ddcfa398ca37edbe59d1c62917ebd",
        "32c68e76d78e8fc812fe476984000efdcbf699dd327b03487899a62f5ba2f79c"),
    "random4": (
        "bf8c2dbabf33a77b9a10c9e53f9eafd789f127273b39b4c65aec047d8af20832",
        "26b7d71db1aa9dba9ebb6acce5c695f85dd2b79d8af97c36634f55350f2ecd2a",
        "0eac774c9805b6c7e3fa6f86deed87c5e9ea65312edc2a2c3d9b5128cdbf7456"),
    "random5": (
        "37f27ad2133b952e46693578f226d7254f1d22540bc5527879c92e23129d3b18",
        "e053818e4ab04f7b4fa0572d94d64088d07bbda7eb267d616ed012c98c04230d",
        "0cd4dc247cc4868c56f22fed6211d9135180bdd98bb0c0cffb2452ce59be1c3f"),
    "random6": (
        "b526cdbf4da15752b8ba1afa7dd7db8456d2642f2cd74395363875ba37a6c4ba",
        "2c7b3a25a61211500bca20f1c96a1db2b6cd797c8676998707eeec755d388bd4",
        "9dbda8bdfe7c6904bc30e73f173c3c645aab58d8cfa283d2dbcbc197dc0e99dd"),
    "random7": (
        "8d1821cfff4e7830365372280b3218f75188ae939c728c7311ec773495d374ef",
        "0abc4e6088a20f9e5a3b47872a691f94813850bd78ac479d76fe7bf1a1702899",
        "fc66a75fb5e58128110206c97db7441cdaff406d3755c48917e217dbb6e71ad7"),
    "random8": (
        "66a8218ab10ba1a5b6a7a77eb4a82afcf09ab8622c31916f42d7100353a69f94",
        "b28d3a0cc86ac676b04df2ca626c47c4340f482f2941fb985e615bd49b8cc0f6",
        "1f15e564119408912c18e2618b0cc208cda539a7fedb50414a54df0c36d34d2a"),
    "random9": (
        "4e7c173cee7128c37cf1633d43a039a343421f2ed69c1352c6ca7c8617284633",
        "6c0cc22c13e5c2d7f14b02697d69a8d735af44fdbf28d11ad5774d335a65f6eb",
        "696fff364c3789f0fdc12cc3fa62408ac3dfa28f31321880dc9a34a0f64b854b"),
    "random10": (
        "1b234adf25387b83d8c4e1c842ddd9cb948db2d67675c1456f2fbc392bd147b9",
        "a982014445695e9d4d98fd3a315786e570c477e7e1d99c23e212b86ef6d6def7",
        "6e6b27339e14a105052666565ed85fa531f63456244a0bd6121b093e3a9e894e"),
    "random11": (
        "4fe864efad3773cad7962f9abff0718313eee366b18822700c6ecd75facdd8f3",
        "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
        "cffb57f282df1536574466d3619f10f57855657b9c3b675886960f6de68e7073"),
    "random12": (
        "de7a83d5275dafbbfb9b44b42b919bcb6e5ea83ac75a2e3875738ec1618fa352",
        "0b9db2ecfb8de65fb248232d099982a827055c98d6372e9b4e1fa81d98dc1cc2",
        "1b5ba16ff3350de65386e716f60429138eee036227a6b4bce1819dab6431e1ab"),
    "random13": (
        "c85537277bed5e1e033095cb855f96405483b7ee7d2208595f459fec634c3aa0",
        "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
        "b049f406515bfc42ecedb011f11ca8afd658cb0d1bdcddef3d02bbe4ae540ec0"),
    "random14": (
        "970cf6e7834dae61684f5cbd318c592378595a1b9c15911acc05b8b30185e8f0",
        "b485ba57705fa67ccdc8c284b0880bd729a98ccef90882edfed5e36e84d76746",
        "b234f218c24d004baae764a0343606c4c043ccd57490e6d5af264ae2ad5d7d6d"),
    "random15": (
        "d5631977005b4c7a7fa41cfc89f4b7567fc9d91a91fcbf33ecabbe4c1ec3d6e9",
        "0eeb9bb0fb4ed772c29e0ba88d915e81bc55e7a9da100ffbd1724d50c6a0e664",
        "a8ee288edad7d6474cf3fe70c1f3b1271a93c48bff84cf30b545369fa9af367f"),
    "random16": (
        "e899324e9234de3815efee30a2b2e33f191a3698822c0ab1d091b164e9d20a33",
        "ee6cd353943a34a7548a0ee4b7a039040bfff0fb927377862c9688b591add943",
        "86a9d96d77a4b4cc7176d49fed9d9ba4d59bdef2abf268e997e94cf52ebac8fe"),
    "random17": (
        "8d69c636e9207a944fabb2d2c811246defbf6efe07a3d680587bed3b288998b2",
        "1594c89ec0f2a62914b00b24f8389cf95a3e7ab507e11c8262d97070d1b8ae6c",
        "f4af31e132d62629899f4e77f1ab271871bcde4801e0206d3d19419af2fcb52b"),
    "random18": (
        "037a5d5678abbb599b1226b7b77b67d69336f02e17ccbff61d92cab1cd9561c6",
        "298aa6c5d73143a7abee6f7849d41e985840232e74acf6c8316d627806ebb229",
        "fbb83c3cff80cc3dc3c97730cb5fe5c879ab18460e1c725a96b46de168354abb"),
    "random19": (
        "902fde0c02b8eb948eb46509ba571fdd99571e1382ceb28ca6e885b9431f8e80",
        "554c625f1ea5b9b4baf53d76e72e14df1739b59f6211828e98ca3f44ac28f766",
        "94957daf2e11a96829284e5f6e9e0bf67051cbdda4f3d0f4b78d139ea4962de2"),
}

GOLDEN_DFAS = {
    "dfa0": (
        "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
        "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b"),
    "dfa1": (
        "f4264fa5a25ba11ef2d19da54dcfb3274407eb15c775cb355dd88722fe4aa5bc",
        "b60239929ec51129fc3ce086806e97f234c9256292430cdfe1128bbc93bcdde4"),
    "dfa2": (
        "699197984bc5f58b11402250cf7904f6ddf60729923169f11508f6c16399fcc3",
        "65de6ad82b9f704f1029ccb83ff4afeacc83a07b443f7b422961bb36ff91e66a"),
    "dfa3": (
        "582f30248d87ee34d172ab33a55a818cecb27d490a7d6f4db431252b28a5638a",
        "47faad37f6d85e6ffe857b0ea7299f268ea7f8b49cdef341e910171d0d978dd8"),
    "dfa4": (
        "cf6aa147ada4557427257ea9508bb3bf23f78b3c5f497e2b332b2d83eea3af61",
        "0ac958893fbe4c8e3b7b7f065ffef404c023bd8322e7d5cb0068d020c145ad48"),
    "dfa5": (
        "fbd64879e79f6afe310f48c6a5e68201b4ade0a25a23b52315b5756bd63de438",
        "4b4da4b37e73283111ceab678327c2469a6b82cd9bb5b434b3fac506c4066c6a"),
    "dfa6": (
        "1654d8768d6194f49bfad5e0ba966bad520b3211a1a402c9213ab0884aaa60f8",
        "2cc12f3421f0129134f4e2327d3392754a1a11102ec76e8a4fd2ee4b10f213a4"),
    "dfa7": (
        "ade9c06278ccce49fc3eec0635bba561bd229ac2af97e6733df22e6910c3b48a",
        "409b591688e918087dc605b84c93f75569c3486eefb1e225ff8f6e8d6478a3d1"),
    "dfa8": (
        "77921dbc0aea81eef9db380a1c10035402af41bf4821e55d995c077532749946",
        "9bd6081e0df1d71faeed869016f6b5a3c7554044c1b739035a29b4d18a94e701"),
    "dfa9": (
        "e9793987317686ee0d165efe23a6a200017292d4acbb1003b61b36b8b45bd3c7",
        "136df810ed2e46d15453817b555ab1b516ff09245a2d65b6f0f5f1113dae05ce"),
    "dfa10": (
        "16860ca1749b892dc0b386208badda403aff4d94f70df330724edf15472d06da",
        "f3d1301ea065aa5621d65ba85bb8667d927a561bdd43fcc7cb187e27a26dea4f"),
    "dfa11": (
        "5c97061d2f6ad71df9ead0f67f15b29fcf61c44514b832aa0b239d086d3e0ad8",
        "813817440e37998a93b9150e6e27cb1fc69c93dd22d72f5baf8ec6d7c6d03a41"),
    "dfa12": (
        "d4735e3a265e16eee03f59718b9b5d03019c07d8b6c51f90da3a666eec13ab35",
        "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b"),
    "dfa13": (
        "56d4275def58246bd5d0cc057d91b21648992ecee6fc1947058fba34683a7c3b",
        "c553228271d4cf65305957e97cd75da60964776a9e615c702bd6a4c077d266c0"),
    "dfa14": (
        "e28e81d883680f8860a0dcf4a93a3fea325176c7e53b8ac4dac805f7bb3a92a8",
        "907152a6205ec48e9af7c98cc0d7e6b8ef52897b4d4f14bdad764fc239da312b"),
    "dfa15": (
        "e585b77e5a5361698e6ea729452e180f2361663fe7482780707ebf2e910b9e94",
        "9a149b446e8629a08722cec221d48e43b9e4bef15c3b6f02676005f8cc15c605"),
    "dfa16": (
        "d7041a98e799d4a2f586e1319d838c93f018f0fa4b60ec906b5e22c91f47e81e",
        "a7bdecd0e22836ce9a28a6ecc0a6b8c2ee8ae2280d724daa2386504167fd7683"),
    "dfa17": (
        "c57cae5fad221599f63f20429550a2acf2743a16fef020b0f97b41ec57028367",
        "75b3ab8d84c17d8fca6ff5368bcada93b8e05c8cfee6f0a6c8c6fe530ccbe78f"),
    "dfa18": (
        "f3e4b78f1616cfbc750e5c17e055961e62e00b51257542ce67fe240fd23f56c0",
        "0f33450b7cda059b9ca20ebe57692305f3bb105cefcb4566354da2165af385f9"),
    "dfa19": (
        "dc09b47a4b86a774425bf2ecdc3bd01732c9908eaa1ebd124fa48a23d0336878",
        "1feb667e69805138d0551eff970b3226999ff9e49acb18085c90e693a82255e9"),
}

OUTPUT_DIGITS = (-1, 0, 1)


def _alphabet(seed):
    return (0, 1) if seed % 2 == 0 else (-1, 0, 1)


def random_transducer(seed):
    """Complete, strongly connected, aperiodic transducer with 2-12 states
    writing up to two digits per letter, redrawn until it qualifies."""
    rng = random.Random(seed)
    n = 2 + seed % 11
    alphabet = _alphabet(seed)
    while True:
        rows = [(s, rng.randrange(n), a,
                 [rng.choice(OUTPUT_DIGITS) for _ in range(rng.randrange(3))])
                for s in range(n) for a in alphabet]
        m = build_machine(rows, [0], range(n), alphabet)
        components = analysis.strongly_connected_components(m)
        if (len(components) == 1 and len(components[0]) == n
                and analysis.is_aperiodic(m, components[0])):
            return m


def random_dfa(seed):
    """Trimmed deterministic automaton with 1-12 states: a random spanning
    tree from state 0 keeps every state accessible, and drafts with a
    state that reaches no final state are redrawn."""
    rng = random.Random(1000 + seed)
    n = 1 + seed % 12
    alphabet = _alphabet(seed)
    while True:
        delta = {}
        for s in range(1, n):
            while True:
                key = (rng.randrange(s), rng.choice(alphabet))
                if key not in delta:
                    delta[key] = s
                    break
        for s in range(n):
            for a in alphabet:
                if (s, a) not in delta and rng.random() < 0.6:
                    delta[(s, a)] = rng.randrange(n)
        finals = {s for s in range(n) if rng.random() < 0.35}
        coaccessible = set(finals)
        grew = True
        while grew:
            grew = False
            for (s, _), t in delta.items():
                if t in coaccessible and s not in coaccessible:
                    coaccessible.add(s)
                    grew = True
        if finals and len(coaccessible) == n:
            rows = [(s, t, a) for (s, a), t in sorted(delta.items())]
            return build_machine(rows, [0], sorted(finals), alphabet,
                                 kind=AUTOMATON)


NAMED = {"W": digits.build_W, "T": digits.build_T, "naf1": digits.build_naf1}
TRANSDUCERS = {**{f"random{seed}": (lambda s=seed: random_transducer(s))
                  for seed in range(20)}, **NAMED}
DFAS = {f"dfa{seed}": (lambda s=seed: random_dfa(s)) for seed in range(20)}


def _digest(values):
    text = "\n".join(str(v) for v in values)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def analysis_digests(m):
    moments = analysis.asymptotic_moments(m)
    return (_digest(analysis.stationary_distribution(m)),
            _digest([analysis.expected_density(m)]),
            _digest([moments.expectation, moments.variance,
                     moments.covariance]))


def recurrence_digests(a):
    rec = word_count_recurrence(a)
    return _digest(rec.coefficients), _digest(rec.initial_terms)


def test_every_machine_has_a_golden_entry():
    assert set(GOLDEN_TRANSDUCERS) == set(TRANSDUCERS)
    assert set(GOLDEN_DFAS) == set(DFAS)


def test_random_machines_have_the_promised_shape():
    for build in TRANSDUCERS.values():
        assert build().is_complete()
    for build in DFAS.values():
        a = build()
        assert a.is_deterministic() and a.trim() == a


@pytest.mark.parametrize("name", sorted(TRANSDUCERS))
def test_analysis_values_are_pinned(name):
    assert analysis_digests(TRANSDUCERS[name]()) == GOLDEN_TRANSDUCERS[name]


@pytest.mark.parametrize("name", sorted(DFAS))
def test_recurrences_are_pinned(name):
    assert recurrence_digests(DFAS[name]()) == GOLDEN_DFAS[name]
