"""Golden construction order: SHA-256 digests of repr((states,
transitions)) of determinize, minimize, complement and intersection on
seeded random nondeterministic automata, of determinize, complement,
minimize and intersection(d, complement(d)) on seeded random
deterministic automata, of intersection(d, n) and intersection(n, d) on
seeded pairs of a random deterministic and a random nondeterministic
automaton, and of simplify on seeded random deterministic
transducers.  `serialize.dumps` sorts, so the preset
goldens do not see the order of states and transitions; DOT/TikZ exports
and `Machine.transitions` do, and these digests pin it."""

import hashlib
import random

import pytest

from fsmkit.automata import complement, determinize, intersection, minimize
from fsmkit.machine import (AUTOMATON, TRANSDUCER, Machine, State,
                            Transition, build_machine)
from fsmkit.symbols import word
from fsmkit.transducers import simplify

GOLDEN_AUTOMATA = {
    0: (
        "5d8e42294cb95f5df821eef75d8ddf9dfb5dfb31856a961cce2bfc4ee575cab6",
        "34c27e0de4eca784541178f73d3db9630867e427f8ec35532ab02a24ab0280cc",
        "7062e151e82ad33280989e2e478a2bc4211f720aa09efbe3203a6877ba03aeb7",
        "7a311e00f136230583ee252f557dd961af461522ec14548912d452e6bbd60b1e"),
    1: (
        "cb302b7795409c411fab1ffe853c9bf3a793d0a66132eb5c5c87f3c430bdf4e9",
        "3b85c10b368371d355b23084e85a021c93a37cd2a3095907c2fbf17592465aca",
        "34f74221ae98087958640d3707470e4f996da41a7a0fcf3f63b1ad40a8650c8b",
        "f101b83d3f802fd339c02235cf51a41b6f4c905627baaa152e022c2555101ed6"),
    2: (
        "f36cffec8518d0ee76d235577902064a5f8a734740f1c5cc0dfceb7657e5cacd",
        "b24956f2d5db2033dce5bd58f4220ef1f3df4d44da86fdb0005d06489e937a42",
        "654ff87407ebf9f42fc616c90827972de1c88e958822767ec36e35715ba06900",
        "9dd3e5aecde35bf30dea8da8c9547cea52e49c780ebc8a4728a1c89a1ac9b36c"),
    3: (
        "07882db0947148a88c3222c13ad7ccc25e6a97ad97878998683dd059f777cdbe",
        "47dd9a48b3b42e93b7258e4985961d669cba3cc2f941d64405fa81dd8cbbe206",
        "3ebbad08aa92d2310a890993d337e7b700ded55b5400a16e87dd42307ce4500c",
        "68326612d523c4f58b73617a6d913ae4662937b0ad26616ffcaa89e2b18bd3dd"),
    4: (
        "288006ef31cc7a2691045eadee24acb066213bfc2fa72d3792eab4267d6b0ca0",
        "76c55cea80973bcc47d90fae63404d016be599ab03e4a51bd87d7072a67e6ec0",
        "3fcb13e5bd09cd4cdcbc1e6106c05a71744a2472a819469b3a16f70cb38fb971",
        "ac653d1eafbac0951e6c371a3f9c53a3eed3f38a4762a91d3e1f94de019bce60"),
    5: (
        "76dc4f9f30b4a44d425656cd14d8979f0b049e6b3bb991304223ce454bb67846",
        "8001a9204cccd7c4a9f1c1868494b3e18a69ca3e6209a393801089fb92020333",
        "b7bf1c880ec41e2d7f6f28658a99e2fa4b3ba5654aa453f401dbc50dac8d0019",
        "b28c65f4c298328e3d4d7b7746ba5bb6ed253401e885f8839b40e0149d26ddd1"),
    6: (
        "830763790b6413fdbc1cc91fa77acb4704f994557c1b2fb90a6f124790dbff9b",
        "ee271d1e2066e63df8ffafe3ed0fe4a675b1fb4cbd31245d654dd21160a942d8",
        "ca9a0048e201373a2b139164f0b28fe9f175be44aa2db9468bdd07ea8909bca8",
        "a7a1bafd6b7c035e4be97ba490011d786b2c5fac849c8d2000cff3b5dc8ece24"),
    7: (
        "1374abe2730f6cd5119317b038e7df76ee33ac44768e947abc08d73ba5a795ec",
        "f8495a3b4562d838ef7511cf38d6c4fe4a0cc4184a13f9caea786960604f3932",
        "8d7645726c1c855abce3995b32bee3b4e2880b8e8650351e085de90576bffc65",
        "0aeb02330578fad1608215ecce370b0f2f27d5db66faaadc0bd9a1dd0cb00772"),
    8: (
        "567c553a88a74f95f5518b888675229de059b18f812b2a91ac90b972ed767b37",
        "6efc4389134684b018edc618e05fded7daf3d2357525718f2c466fd14dfd22b2",
        "072df0208a3a683c2f5abcdce4ac63c4cf693e3de7218a6418d3bbbe89c6d8fc",
        "74bbd09413a05c76c6cd4d9471a0408984d7bdefaef2c76a2a06ae15debbf47d"),
    9: (
        "9fdc4a3e5c92ff97af0a54cf25caf070ef9e05f9505442a921756421cffa472e",
        "45fe3eb23674533311151815c9de6e378663996a168ece8bf00e77e4030f65ed",
        "372d5b90b53f1c26878cb823a8759e165678bdde9d45395053ee08b04d509208",
        "fffad38346f3349b6fcc5387eb46329fe07eb9b408251c18bf57fcf11d31fecf"),
    10: (
        "00078979021ac051fb058bdfc10b52e31b6147899023202a0191af8a3e470749",
        "854392eb9f16acae373cf499c5b7d6621be8a3ea5706b2c17815ab872d23e251",
        "ccdec3e4033814fda4eeddfe84b8e5ee5cd1af8fc4495a7911995afc87447ad6",
        "c6416950dccc6ef4d9d56db8d223c7d73d831d3baf0f4258014f477decd022c3"),
    11: (
        "6ca9c1170ffd8ca8585715b268f65d5319d1fb085a3804fd14c47d4a79e79c51",
        "50cc612eb04e506d0ff8f8ad37130da15ed71eedfcfda2866a99965219d69d62",
        "1c32acc3f9d712d8d81ee665e0ff59cd6fb086a403fc0292afd20e07f4cfd114",
        "61e8a1caca447c810814b97334325a5c5805d2c4ef8b157bff3aa9987a0e113f"),
    12: (
        "3ca44b6decbe6c39ffa160e3831f4e10a88926dddce551ba798c006d98a2deb7",
        "34c27e0de4eca784541178f73d3db9630867e427f8ec35532ab02a24ab0280cc",
        "6c991e0baf76f2ada5cc53745fb9bb44825db903029e99bf59f90521b4884090",
        "a11f2ed3dfac42cdd44232288807c956b0a8cfcb9cce73662f06ff57f2bd100b"),
    13: (
        "57a7d882abbeb6a00b9a814b347b7b57d1b93677553f179bbb769d0e8b0c775c",
        "478542a16454637c54da4758f3d16f783cc628e4c8a4c6fb1d6fb1817d499ecb",
        "00c781b33d23db7c36fd362a436de929edcb7d8fdd8097fd58947b8bb165a60f",
        "efe74ed1995aff2eb2b4ee00b3438e91da0421e2ee7010b3fd7ba76a677b0f8e"),
    14: (
        "6940770f3b64a0b1d527a50336cca5d7c1342e82b9bedaca9307b2f9c33aed28",
        "89b4f570586c4d66200ac0c623b5852e54a813d9d540e06ad17ad1e441e4f023",
        "cb12a3d0b85dbe6707f95a031002ae3394ba275a7e1d66b4949f6532a4c57078",
        "74d3ed999bf00c821f9495814b8d8249ea901755bf9efc0c3bcf6eb2e6990c5d"),
    15: (
        "89af8f51eecddb78990ed26443827bd731a55dad6fbb5a301b6707ab1cecc84b",
        "3b85c10b368371d355b23084e85a021c93a37cd2a3095907c2fbf17592465aca",
        "57527fd743d2eec84b15f8ef51f9927b84a0486942522e3c27e128f459d5171a",
        "cb42c8c2f795d1f1dc50b78a1804aa1ac10baa9bb6c2716a4fecd812bea21880"),
    16: (
        "8d4104b5ef3afc5b859dc23d1f9fb5b0dcf3e8b0be05a65c78cfbffaf0f23b2d",
        "76c55cea80973bcc47d90fae63404d016be599ab03e4a51bd87d7072a67e6ec0",
        "f9a5258f67e498ae37e435a01f516df0a7d8ea64ea49eb1669b003fe5538b862",
        "7886504626277bfc1f3f94794982061312e27eb081eabd6ee304d37b06c2f6ba"),
    17: (
        "cb00a473cee3a5201929f3c3efcdaa0030c8a574e99802a09b4bb01ea9e89ba0",
        "bdeec7a68c67fe171502550f40c321ee294e368561dc05f2ef53764f770781f2",
        "954cc25f650fdfd6f45313e8ad827829e7b28b1302a6f9bcb26ae40e3a7e029c",
        "f50f8d347ed249a27adcd5ab7a23fcc731ce9152856a72acbc34d37c172014c7"),
    18: (
        "143392b04cd2a96aa863b004514ab53b22e085cece02668441778c082190b65a",
        "8c98a97aae4de4d04ef45426d843aac46eb0337a88e71f723c0497ae11d64c94",
        "cb8193d57fabc31a0668217b0d313c9ebde3c4a6d6bbfab9b6899889763fa9ff",
        "b4d6f70f0379937c8cf54eb7eaac42c36546e098a9ea48926c8ee4043e28d6a0"),
    19: (
        "c7248e1acdf40c8d0b912234b9708315b61caeb29ec3564924f0cce93b75cf18",
        "6afd39597a8052d29176d0f9829b1279d1598cd5b468f4c5c57b3926494ffdd2",
        "963b69d44b62b20c8e1a76ce459b099f5baeb4a3775bc70957ac043178472ddb",
        "08bd4f4a7fa9ead15bb6043195f2809d5f36b63323ab9493f35e314b97ae9437"),
    20: (
        "93faedc16c38b281fab7cfe48e13f1a522205c1a8881d1b46bd43639fd60e4be",
        "34c27e0de4eca784541178f73d3db9630867e427f8ec35532ab02a24ab0280cc",
        "24d4bfe0dd572bebcdb15cfc14700a1d1f68531149e9414753ef633a9a4c7405",
        "98672b95f19ad0a3edd0275c12bbeb1d33a86eb0b6ec7f0ecf7e7b257e14c8f1"),
    21: (
        "a676611c9d4081b86f45e7327d9128db35ca2adc2b1fbbf36c575030e4bdb4ae",
        "9ad124960cee1204231387f83508392601748066482abb9d1c9295739fcf9734",
        "c358613919967e89cc8a50b8323aa963e35c01557c75a211d72618109b077f71",
        "692b893d9ab28653b75cedda55f0be25615a2b10eff8bcf183e08b24de5d8bc6"),
    22: (
        "2ff68aca9bc1359cc90fb08656288d28d9d73f126953422135771c077f7c5dc3",
        "76c55cea80973bcc47d90fae63404d016be599ab03e4a51bd87d7072a67e6ec0",
        "891482aa0ee300bb1a0fdca07e223c306422a769d5fb875883d70a2b2ad80064",
        "a3ebbb500bbc4fffde96e1ce1c471174873c6194f18b6634eaed001085a1216d"),
    23: (
        "892f89c9e96bf4b46bb4f5e12012abab00192c119101cf9724124e7cbbbdc67f",
        "1312af4e777ffd08ef482ad68bcf321589c2ed191490683734120217be365138",
        "9ea97315a805ab127c9d5f949ea2bb9f8ff12866f640a39f93022eaecf5114af",
        "f758a2b7315264590d034afa31771b47804067475c98d669438beece8035300d"),
    24: (
        "25fd2ac91c1d726b49ce3696e4050985b5e44b20c70acd0bfe580bd7b8e646c0",
        "4b999a4eaf4ad6f43d06dfd1933958b9cb226b928b149f286fa1e978e53e4a5b",
        "d02877c8187d1611b864c19b98f691290e0ac6bba1ccc4b56766d82d13edf5a2",
        "a5b4c763e02b34d04cb9627b510db6040805d8669672dba73c5da50f03dbcd6f"),
    25: (
        "0c008f20ff7162815020aaac26a81bced0b23ef703657cca67d6e1ce902c3890",
        "6c8898f3f84c1d1a27716204870503ef49e3197236cbca3f963e7461ea994ac7",
        "3bd3be263f52c7a0ef1ce28e071c037ec128b7cccea8d0ad3c0e039dc5e31fd8",
        "ff3ee3d079ebdedd86daf575492b89c0d1ce48f8b7498cd5d2a8839a712a9fea"),
    26: (
        "826d58137f21c2f69100c83b25e0ca04c1eedbcd87349596926950a952bff16a",
        "e93eea0377170bd3e63f36a70737209cf90524c42cdf0e5d34f1db4d8695ed16",
        "f75ac631d1375397a68816d72066b797266c8bd6f90657cb78be4730ad860d1d",
        "a69c9d95ac8aa81c287f28c3790d31878d7c4ca9ce81438d2d251ad54cc53a13"),
    27: (
        "9c74d46105bfdb0cd076d387f41c0980a710bc39896dacffbf3f324679882286",
        "a53492d399ac692d9a03a4e215c6d51620bcac1969f4a6f8bea4b5614d843651",
        "7221bf79a4a58b4093644b1c57da037f7e0c4468a594291ddbe6e3ba4b2cbb25",
        "ff3d77b89e91bf38d33e226271e78c5ec7ba42b401088261a6522ef7749385d3"),
    28: (
        "a8cc94a74a5300fce10bb97715c9e92c48a7ee2cc9ad9528cb59163f9932c99c",
        "4dff0f1b9e5542bc76aba3897f7f9978cce681bde79af59a0034fec811e1b8ad",
        "cae4bb4167dac45dd115fa734fee718c0078f8fd41e1f26104add75069f11209",
        "dfcd19d55d62499f221257b9fafb8b087aaad96c8d6c5e85b3042353e9afcbff"),
    29: (
        "e237540d24ae1f0513abeda561a3272b462904f30f96452c2fa31bfc17eb9cbf",
        "c03e55f4e0f1ad6b4d512c6c564d95089246aa0128ce477bfcd55be671894f33",
        "af22e0015d2f3933c815f3373eb46d709d59327d7af43ef37bb56d0dabc0766e",
        "48ed9da79e5884369525e48a0054d705b57e28a275586b76b790fc810c9e98e1"),
    30: (
        "914a43ea88782c4c18e7b070026673ed8c58f30bf703da4dcfbb4219e0a5a39c",
        "34c27e0de4eca784541178f73d3db9630867e427f8ec35532ab02a24ab0280cc",
        "f5d0662d14b67b502d82d526e0685653dbe403a301d8bb664fa2162bfba33ada",
        "f5096b2933c82ac0d5867bbe08ddc5a871149f1384c17fdc56e467cb95ba778b"),
    31: (
        "ea5cd45574ce6f1d6a2d170089c8e4b8aa88ec305182d69cab2e60e23889e456",
        "ed7644e1103617f9168507dcba7b868825d10c2a9706ff0ff9ada24479200932",
        "4ee1546437c9b9e250b79d55150e52b84a2205b49db09d87d5b8073bf39201c2",
        "74ec0399488440b623cae9b2d64e97baa0ed825ca33936dd4d9f3718bb18e6e2"),
    32: (
        "36840ee00a826907fcc8972b6ff0f67273854abe3bd4b9ccb660fc41103665d1",
        "854392eb9f16acae373cf499c5b7d6621be8a3ea5706b2c17815ab872d23e251",
        "3d0fa002c0d4cf675e1f9fd9e973c349a1cceb46bc00e4cbae10e9515b43e48d",
        "781245713b6cd58e88edf5a53a6d79c367456bb75b40d53583433a72c800a405"),
    33: (
        "cb7ae183438ac797582c9e0c71e1273e593e4eca4408a6988b67c8c8bd3e4e6a",
        "413690badcb2cddd54a21ba5690d67cbea0774d0a7005a7afba7818d3e57b25c",
        "b6e2fdc5d8740b05994d0f4f04d77ba1fd51c53339a03ccf6493b7172e701e5d",
        "9006b7d6e346c4ed443675b6a80f275709a692dc5fb77a0dee15f2367c0a88bd"),
    34: (
        "a734b9c9d87dc28d88dade7f92c625376b5e1b1a89d06ba37098816c986859c1",
        "34c27e0de4eca784541178f73d3db9630867e427f8ec35532ab02a24ab0280cc",
        "bbb5353210d5d813d4962fa848c68389c745aef9f75c8e6c54a5381f12aa08a0",
        "d1520acc4962c64ffff3fad42747487a440f91ad28114d5edc37e0b997ccc09e"),
    35: (
        "33c4e863a311a52ba94fe64ec1b7ea9f81245fdd3e14ac03f51aeae2a8184b2c",
        "db1f4e388a56e31027749c0053b442d547ff3e389d2fca92e51f5c0d9aad1d27",
        "0be9c0b01e9e8d22e568643e11e5f29e3c017d9149b88be7b2f60848ad5bb9eb",
        "b3067a5210da4622b4904d519fbff9bf9323e7821c75b450b49dd33837162ca8"),
    36: (
        "4fc405005d17b1252347cfcea22a44fbe8b67a69bb050dcc2f7182ccadeefa4d",
        "21040ac3deb7c302748b256a56a1bfd647cda3d70f9e4ddc92d6a41d33651a93",
        "6ba4a2a80c5df8f8ce8f47f4dd8fd58175ff63a42ee7d97a2615adf0cd8e53f6",
        "e2b8e5d058e85176d6d2f0a9311685ea47be9ae0c22c0b402c6a15362c6716b8"),
    37: (
        "305512adb81e1239b9bae9142e0409ac61ea44069ab0e9f00a9e72e77fd83995",
        "edef5bbce2eba39b0d73b351fe54af0b9983f71697a603b7f1826cd8c3466f35",
        "add6ccf278a331bfe18c7e372063544ab28573890f10dd13338b029aa3074589",
        "181d5b7f510d2d1258bbd0a56bf3302d4f3f7b657b52a6568f0ecf70138deed4"),
    38: (
        "6cd6894cf61771e77ec7a19e552c0dc903c3ce538697414c259cfc632b10246a",
        "1e6cdcf0f3c6b4c913ed86c3eb3628bf57360eaf55341ed723d393a978358197",
        "74f87527a290d3d690340e1d10edce05a250a428336db63303428dcf3b0a2e30",
        "5181cb80b1607f8b5bbafc16403adb3d504a3502099c8272b025a5a8cbc44a97"),
    39: (
        "c10089754198958f9b50ac0c7f1bd860b4009d726c93e8ea34b0433f6e821514",
        "87550221170f10eac2bc0c3e0a745aafcc4274e85e7fdff3db2cb569efd8effd",
        "bb48cd43370d202d764f80ec9c8fa46f007e5d5486d2eeb50cee6e5f2dd9ebc3",
        "4240f381517ea3f321f64cc9b8c55e780590f2976cf818dbfa6d891c9141fd26"),
}

GOLDEN_DETERMINISTIC = {
    0: (
        "b821275126ba6efbdf0dacb3142ddb34fed2bcd1daabe14f52bae5709fbc7792",
        "2b2361645fc6838f27b7085d907e195c602f1316589379a3016961f6045cb614",
        "34c27e0de4eca784541178f73d3db9630867e427f8ec35532ab02a24ab0280cc",
        "7542a04a0115812e09acaff3b480a86815e9d8b242394070feda3c360c2588ad"),
    1: (
        "8343862bcea5b9da9964712cf6d9b9b607969c15a3ec884ff58a646e3800c60d",
        "44ddece69b87f6ab9d3caea4005f96d6671358446ff41598a0b459b1c4c707a2",
        "f8495a3b4562d838ef7511cf38d6c4fe4a0cc4184a13f9caea786960604f3932",
        "a1ffa9356e880603034419565e951785ffa4904cee29494fd74d0430ffee3c41"),
    2: (
        "e37bc10664974875ea77cbf8356eb14c7c5b7a62db289b925b9781c000b7575f",
        "4c180837c7ef04b24fa40bd10cdce1a47fea8967e65d8c9c4561cf0c0796a844",
        "b24956f2d5db2033dce5bd58f4220ef1f3df4d44da86fdb0005d06489e937a42",
        "3e5e7e6c545fef6d36779e0550eb76c47a855aba46d30742b432a7f25e043110"),
    3: (
        "3eba95132565c7e9169811b39809cb6238da40b1a2852d54d065d51a603fc940",
        "510644e1d0c31675efcfa8846d635c18c872c376c00555627d4490ec66a631a5",
        "f8495a3b4562d838ef7511cf38d6c4fe4a0cc4184a13f9caea786960604f3932",
        "ca7468d29c303a0e2f1ba184d649d7a50e6b5edda210c37a1918d978f4dc50f3"),
    4: (
        "23ecb5988bd73b6838c062f0534a2551ec7f766c30a40afb90ce5c21bdcb6e5b",
        "af6613c36aad8e4690c1a6963204225a1c434cff247a9a53c77939d8a89e7b27",
        "854392eb9f16acae373cf499c5b7d6621be8a3ea5706b2c17815ab872d23e251",
        "e1af5f2db40cc7abcca357cfa4a62ced0b727a1a2b1816a8376ebf4e0e4073f6"),
    5: (
        "15cbaa31c828f4bc1b8c0c1a3db1d282bbd1a6f248e8805c7f74620fe5357c4c",
        "cbf98baf3a172f16cf3c889c159120cf333ce0c66a247d50e041c17b44ba8a51",
        "226dc5e7f29d3aab5829dc3bb1f203e51e3af0b2ba493f77d8b2cdec648f3710",
        "0f4f00f355bb3a54702ee3f2a24ad28f717da8aebacba49f25d4495241aaf325"),
    6: (
        "8b03bb4eea89e7008a3ef0ac8626b45fa68d63c239bc096d0a9bd21480c6b335",
        "14a553a600592d5304ecc0c0401b092f50eefdec43905f14f580293e4820dc3b",
        "2b953f4a4708163f4a247626f3c42913247d585e6b5edd76259d2019a11695ce",
        "cacafe26c5cb394017b79cc4bbb0fd03fc81a83f34cafcfd1388fdf6e97c7f38"),
    7: (
        "77c744058f87adf7cecd66971874a181f6ccd565debc79baf941dae427ee9ed0",
        "6d104ee22002964f5ccc33bfab72778c5d79d54089cab1010b69476e5c495d50",
        "abae83471c5cd501afd4925d1e982c9d4379f28328a91741281fd233347ee3f3",
        "37f0b731e5c7ceca266e7307d1022decf8c95d1b844beb4d42ae662ee14e8c64"),
    8: (
        "bec07d195df6e49e3928b1f814f0d458b6e868bfa7f9fb23dba8a7292e9eafe2",
        "fd30adda069d151e1a5bc3cce4b179a3066a02ee50f122e9ba577cc5864c744a",
        "974e4df59ab07108ba093eb26f69c8221fe093f3739b861a31db971bb79c1592",
        "14d4d8192b22dc106445f3e465b21522c8d33af6d87d1a4770770ac5304ed695"),
    9: (
        "56390662652fe88a34f70d12dbcbcc6a070b831d698bb6a920f0b1999927b389",
        "0a136f22aab422feb366f314bc89582975de8bcaef9560161062ef0f75808fef",
        "3b85c10b368371d355b23084e85a021c93a37cd2a3095907c2fbf17592465aca",
        "b47752925afad8e804e36174cfc11d301aa72d625364859599133dcf7a3cfe34"),
    10: (
        "b93b61bf645497bcc31c56a48483de1c62ecc15bcf928458e809fab3ef88f745",
        "86380eb4d4cc9ca478639924e26dc5bbb89058de3b170173b1d9798caa474cf2",
        "f9692ce44ab301260cafd34d5cdc8203dcc565b0a307c0333df8139b6a4243e8",
        "baf719b52a9be50b5c0b51815a2583873d3de2fb909507bbc39ee09ce596d0fa"),
    11: (
        "fe92911e7c65b0f0d1f79559fb64c3b234914edb0bb2473dace7aa9ce2a3072f",
        "fe5667463b81ceef37a7d881e0970b0da12ec62362600edea7dcf30e7f20f127",
        "9ad124960cee1204231387f83508392601748066482abb9d1c9295739fcf9734",
        "49e180424fff182b8002ef4786150d5e17c9b94eb597b80ec1e5651402cd6583"),
    12: (
        "2679f818b733572089aaaf8ba410fdf8f6678ea1477680cb6a7aeb1f2bec5862",
        "f7b5adade9b632b85c17c4b77766f6e28e17c740a4ce42f38430d7a179c9b916",
        "134d504120e6b8636aa01fd5ea7d8c0054c9a98ab242492fbec576e593af78a9",
        "1e19f4bb1a61f445979826e57efd3cf5606c4e45692db299404937f662749f3c"),
    13: (
        "169ee57f826574d0b7529f279cac097e6b52f809f7a518a856b2a3fc7f036f46",
        "1a006d390ec5b7edd818ea3493327fd257bcf199a95e5ce022492b9f76655025",
        "f5fb1bd8f52c2438f822229a0ecabe538672050cd7dcbf9a1d8341a826c6745f",
        "d3fabb453f425cdd77d88580bf85463fe43d57cce046245688bc31b452330b79"),
    14: (
        "0b94c02a5cff9e015f11dac60006b66287492299215abe1d7bed6fa98141e7a4",
        "3566d15bfb93a5f8c67d243f83169f6c7f91c85bcbe994b76a49238197dd4e22",
        "7d9f1f9e4a56ebb3f70d2d325bf16961d4e068b412732ff4b15c2ced00012194",
        "2d3306487abadedb4bedbb2a2543a9b86a9af74c563025cc676cedcd2d7f0a7d"),
    15: (
        "72b180945cdba3bc81bb7ddad3d8305e6d6742d63299f7fe684ada174794f83a",
        "7cfa0f23ae08413a9c012a40d7c8c39cf76448ea00b151555767be24604c9189",
        "f2333717cd88c08b79545615a2134f685ec1f7d1ef558dfc03ddbc609dc9a13d",
        "3e08128fcda655087230150a2d8623736a50b1f11fa5c568bdd63d3ac41132a1"),
    16: (
        "02eabdba944f9cf3ae70a4bc31ddd7415fae773554218c50d8d79026e4ff92bf",
        "fe85586cefc2dc7e37d0f1793b6cd01ed55596307cc88383e90957855450a662",
        "ce4cb4da1a4e483a83f9386746cd129ca7e379e4abe1d704085868bb288fcbd2",
        "b67e49738f43d510f8336a011933ff4c37bb0ca523eb5d5e585eb865e67ab222"),
    17: (
        "f086da8c53ab16e1c578e8cdd43256a6fe11d8cf56b1ecce2fc26f930ea443be",
        "21330ec9e6ebe266f4191d3a375cbd3b3c52a83276f41ab479dcb101923424e4",
        "c378e265be513f381f32a0846797be5fe212482d2f2f79ac2d60213d4b2b939c",
        "b5e73480ad096f486cf3043a6a60357922558998479fcaec1f4cd15ff8b68289"),
    18: (
        "b821275126ba6efbdf0dacb3142ddb34fed2bcd1daabe14f52bae5709fbc7792",
        "2b2361645fc6838f27b7085d907e195c602f1316589379a3016961f6045cb614",
        "34c27e0de4eca784541178f73d3db9630867e427f8ec35532ab02a24ab0280cc",
        "7542a04a0115812e09acaff3b480a86815e9d8b242394070feda3c360c2588ad"),
    19: (
        "1359a180ae3062d5e21d8c3eff41a1ac4c4ae9202e2005a2f2192e46146fd8d9",
        "dc20b38359e150ab59369ebebbed9a56c0fbfc78137ac8f9dd9474e3bd60cb24",
        "f8495a3b4562d838ef7511cf38d6c4fe4a0cc4184a13f9caea786960604f3932",
        "97cfc263a948ff744b3d212fc4e177e56f685605af497b420a96f5f713d41a11"),
    20: (
        "259debaeec305ff4a98e45f920884eeb851bdc5bb52d407dd4a6df7fa2b45c58",
        "315977633dd84b461398740ea915ed8a2227ab45912376dae02e34c017bcae94",
        "7e3d91821e5d434eb3f959c64c6e2f632ef2c08f18106a4f2e6ef4f18150dc6a",
        "86ab28c3d6d4daa9387ccbc003375171de7d9b453841237c0ab1a9e22c5b138c"),
    21: (
        "65b6fd3d68b04b0a8bbd4a453f8e957554928733a7e9add886b67e093914ada6",
        "46c0a9a0258505882de85e2ec69d299f2c81ccadd246d71801c36cde712e24f8",
        "b04c65526914ef7526d5f3a746710d49c5e063ab551c3937ef4e0abc0794764b",
        "2f69d96ee2aa3b690fd67a88884cbbe783c480933400be14bd949351ee576f2e"),
    22: (
        "0a95fd5e5c66dfdf11d123b8f9b7d3c512d5326f210c2343eec8f9db6f6d8b60",
        "916a6b4ab00d536c33f0a4d6b4bb479231996bbba7f6b4325dccd802ea1c9e04",
        "725302cf4551e0b7ce956200e752a468c98d8877ea1a7aca507cf11fe19dbbb1",
        "729c84e2823c3700c354f8f6b7065f63bec140d6b2dd670489d1b4163662010a"),
    23: (
        "cfb32a9382c256657deb3437e70759ac1db50979f5c432df8cc386640f132e30",
        "ede36cd5512ef71f97b269ac587160ecea83c9932835d1286aa198d5c6ea7cef",
        "34d413823224d3069f06af3328c2f735a20a72fa1d83c3450c27a000c32a3211",
        "17b0d7f82ded8fa14f4efa5b4c5af2dd3410a427f441041d62f3eff9bfea28ab"),
    24: (
        "947d361ff2639ee1c57c7e582cf74ca0ab4b89773542792b9cb2304af3dfe3b2",
        "754ce668b19f6f5c26f2f1e6369d963e4944e249b67dfef84fa6f04111e4459f",
        "1078bf71262e87b4119be6ee2fced59f5f27cacd3ad93c365cbce83389181ada",
        "06b79e76b18a6f8fe28e0037deb2dbb234c9f55fc7c7820f30ef9ffc3644ad18"),
    25: (
        "8da4f18ee796d5c293cc0e781b6ad661f879071e5bfb00cc867ff98b149432d8",
        "fe0bc813942e8c6e2d8e3ea2cb97514d1890a8b5fca18126119a166111564300",
        "5a4ad3215b0c31dd732a073b1bd4c41f7a303ad301b1b12dfa7bb860483c9cd8",
        "98fe11d8ba8d9687febb617b2668a71d949d7028b21b11aa95a857802cacb878"),
    26: (
        "d7aa26812e780e576ad1db622ffb1df2d80eb16250ba3f1afa803c5e62dce837",
        "47c8331bae932cc01cddcd108497fcfebf7a61946cc9a6505fa2c69ab651ced7",
        "f69df6a001e91b3de9ea2198349d1b04ebe342e158af9a5db47ab617e197446c",
        "b6b71a368744972aca3e092b5c3675f55782f925e17a66d271ad2e97111ab5e6"),
    27: (
        "2ae2bed2415848962deb17399b40aeda2ffb1f5b606553cb6cb82c1cf85216e8",
        "7a7db9612631e9c5202f796eff6fd08a0fcd9f267fcbe4a290e2950f2a8c3e55",
        "3b85c10b368371d355b23084e85a021c93a37cd2a3095907c2fbf17592465aca",
        "49ae34e96b9d468499672c1cc44cb468a8630bda2330b0c0482ca5faa9093323"),
    28: (
        "960e0c3c51a8c200dfa500367744c5333e21632c75654b5eab218b990010be9a",
        "a751432ec3f85965b27b7e6920af349fa0b1623cf261ca1e5a8a9680fe10923a",
        "34c27e0de4eca784541178f73d3db9630867e427f8ec35532ab02a24ab0280cc",
        "6dd19e06021609ecf278932a34911601dc34a6d7b1dfdad9ef4b8adb56c80b8f"),
    29: (
        "0619b7311ed176200f52f205f383e99b732fcfdde8a899c74beb08581d679108",
        "daa7cb1a996f119032d16223d031a54a8db8ad2cca02c10217b6fe32efe46d6e",
        "f8495a3b4562d838ef7511cf38d6c4fe4a0cc4184a13f9caea786960604f3932",
        "a67840baa42a2a87420cb576e587c85dfb40eb79206e4ec58ff7078f65b3df20"),
}

GOLDEN_MIXED = {
    0: (
        "773db3808b45bbd8ca7fbecf4fd8a0bfc6ada64f293163234bfab755cbeee550",
        "ecabb5cc659a834f08f2318977da54f702211f8251166773cf654056f0a78fbb"),
    1: (
        "c97e65a88afdb4a0eb6955c2df2d51f358b69cd301de77431ec8cd242424fb7b",
        "a8aca4264f0c5fff71e80850ac77c9a3e122f32c9129e8ddb85c4ed502492fe4"),
    2: (
        "abf18740e7cdd75b7f278279d23bb1f2a42890a3d0720861e0d95fd5bb26bf35",
        "16e24ab07ab2bbb4fa6ea515e9c048f21a5539dbe90c78694d0b438d53c1e435"),
    3: (
        "1d4cdc3b85729051d9f74a99ce1da874bf27c310431a9840da3b3d2db2373d6a",
        "fe444f021307b75dbeec69d1c48547d0005cd958e52ce01be64d8d6a83c1220e"),
    4: (
        "ee2687d730fad057fe5114f36fa499c9856ba768163aa76bf9b8c07bd7e7d9ae",
        "d12f37ac6b4759f3b0a73e5145da7d27d24ed16e7864b6b669d4095eaf74bb88"),
    5: (
        "162bf19868b8bb4cfd6216045084a865f72a424610feaf0d42cd6e7e5aee8087",
        "507b11f1711a8aef88439def2bc2951d039f042fa0b8848e8cb2243206770695"),
    6: (
        "83ca8add48d2b654faf0d9bc9d272caee4e2ece8f34e0a998bb353e105860fb6",
        "6458ddbd22e8ea7172e749b269564a3a934be5446f12d9da9371537dc29fecb4"),
    7: (
        "9e6f421780860d12bb80881ad002362f53654b3a08b0f1b795ba40bddfcaba07",
        "68e186378bfa07dfca9d9b1a5cccacf7a1b75cadebd08eb648aacc761c77ab6c"),
    8: (
        "bd3dada74ee4ddd65cd6cb2b75c95c190c4e7179951474c500b92bca1e0587a9",
        "86087b9b9be16a10180bb5e64c6d27be762159d18f4ecb77e52815b5508580ee"),
    9: (
        "12071837c977e9ffe509da01c9246c000eb83a6e1d182195f44431ccf012c2a9",
        "60700660f973c48954650982d43e9c1daf63c20eec88c4303cd953c8cef9ddf8"),
    10: (
        "eb15b321a8e62d806315bf65183af8e0b02d5e75596182eb0e183e19ac131c11",
        "024c05ab245e5e5f9767bd947c7ea893e2f70dcf209edb6262cdca436f890cda"),
    11: (
        "c9a265b0050ad4d7547514840708c9025a16090f92a95f162c8c62e608579bf9",
        "d0b86197098affc4d3e71c53be4cfcc1ac0ca1c7f8ff7e416a19cc8b6f2efceb"),
    12: (
        "834166226c71cacc9b314ea38a213a2916bf618ccb849255500e34e649802a4f",
        "e11f5d94ed86d947a24f0a3d47fdc91960e159b55abfc1a8a61f855bd7f84885"),
    13: (
        "ca50dc496d66f620c204efbd22d79aa375d09a10f5122b57789f4b8761363574",
        "dd5689d5fdf97ce92fae9461fb260d899556ff58280e49afb8a63988815f5dcf"),
    14: (
        "3c6d75bd766324cce148c09cbf1d8e162ccd75a2cf3457d2eb7d8cca6877c120",
        "9a63a0f69cc5d04d0a96b76de5c0bd9cc2220034b99c5ac3fdcc614f38a0139d"),
    15: (
        "dc1fcad78a8052830983844fcd005772bb2afe5198b020d763950e576bda9a5f",
        "0c715079279a29fd8b29446f80af75b88856af710b5f9580b5463a75e9eaba48"),
    16: (
        "11a9ee97069bd724b1ae77f7e6c078d5931536aae072dfd77be0229c778086fa",
        "0d3475f9eecc52a330bf6920d1a7ab17294503ddf84eb637a2d509c7d0698eae"),
    17: (
        "223668e94939e114210a772e5471c6765b18db1356ee94509e06e1523d3a6658",
        "c2d5983c8198221a09ff8acad66af7b0379e34e756042a26f3b9976ba8da26fd"),
    18: (
        "d75aa71932fee58145e4e00fdbadda9d0a3ce8d12dc41f5030cc1052334ec53d",
        "987c468633afc86eeef5e3f3b74c6cec8441a63c5e41b60eb1902126c26b4a84"),
    19: (
        "cfbf853aad85954087505361634c4a26b0110da5c7e0278c407aca157b803ff4",
        "12b146f4840f068b7d5c29127bc4c88c67082ba00fe95437d7b1c93b2197cf20"),
    20: (
        "f1a12ee38e6957212ec38b1f982096b5e1759e93cf6a7b771f24544018d9e6e3",
        "683575f8d05fe1b9d238f9728dae0a343366cba69bf06327590f6916a9577177"),
    21: (
        "9e4e49fab5982bcf0a725b3a2012029702027852d3b0b7a04c596a21aba0651d",
        "80764e70c09cbb9c945ad25f07f9917be5128757a12f1dd9689bad052fdd5336"),
    22: (
        "8caa7b8c21c86ed56e03a104a53869b039c531909ee60b99a661b00e80ecc9ca",
        "c2e92c4e90bf1e08fda79ba1902b59ddd0c8b8803a3988037e79a4e34969cb09"),
    23: (
        "de438a6d10db51df3cfa5383e175179ce7b3fd7b012bb4f641c92d29f28b1b5e",
        "340c9b940271cb8d6f2b9721bca4dfbf9dbfdd648372759a8c5e3d022f254799"),
    24: (
        "cad33b270aeef10bec02180dc478ac792d810b6a1493a57babcc3e120aea84d8",
        "b2f091aa639f863930ce00c720c617156186673a94358effbb4420a755f30a92"),
    25: (
        "10c7854c9ba8764d37370c85f286136ca8f07b469840d127284cf22cdda78a31",
        "6fe4b24a89b1c345d030382a14f2a26cd10d07bdcc14bcb781142e0ed57c33e7"),
    26: (
        "d1e497e812012b920742c1eda6b6fb4fee18e7536eed0544d0989b830a06194f",
        "49d484b28ab3df7792c5a7da797853f56d1e2ab76b7884f39d20f2b2719a0faa"),
    27: (
        "ed4b6220a5896a17c153607d3a0835954344590b5812b2d6a32b02df9191290e",
        "7dafa45e85aef5b08d3d6d73711ad40222c341ff6beb9eaff531fd32a6cf9dfe"),
    28: (
        "464338efdc293ac21aa297b8320c5d423046df11f3d7e0a990e7570e820704bd",
        "7250d55d58ba1a7db2849760fa69dcce64875d520f43dd009cf6aec329bbfdcd"),
    29: (
        "f92aab1377907f4a0830248b4e2cc75589e89534aa1de48b16330611f56b0536",
        "94d3cbe15c91d392f3a234c3885d5df7722ccaa2388b8d8dc770ef8fde8565f7"),
}

GOLDEN_TRANSDUCERS = {
    0: "9a27d59da5448ea4ff440f7245709195bdf66dc9406813e74c850970d77a5542",
    1: "5b37a83471e41e0cbfe4af1c25614693120081231e81273483e295e9dddc5ffe",
    2: "7530be5f0afeb603724ab99969cbd9cdbdbe695390220f8b47f97a6584cdbbce",
    3: "10c7e4ca64fe04daa1b3e7f83ca3bf5a578eb8cb4e673fb4558ae3a1eb9f0c3a",
    4: "27ebb8707ab1d273d5c42afa692c9ace9628910eac188641f231e650b38326b6",
    5: "94699f1978ba9fa03b136eec00ba76917737d8d83c0ceffc6233b15cac94522c",
    6: "1b5a3b52e91fda386e2bc92823e118fcede41ed9d86fb23208ab2854e2e43cf9",
    7: "7d2e8d60a35ae56ff68685204443e458a7010b13e4117a955409d581561d2a4e",
    8: "65d9944486e1602bedec9a8e9cab0b701282108ff73e012a3edc6afa8aa312a5",
    9: "bba2ca7d9d46e160cb51ad42b6555962ccca69dbe2b6ea1d6f235058845e6342",
    10: "07f1190ba4db00d6a22362fc5806e2370666eeced41db3253949590371e79441",
    11: "49745629d73ea9962aaf57ed0242f9ceec74c2387047ebbb19e1549e2f79b6a1",
    12: "8a0258e72a68d15e019c1ecccf2cde308a93d1310e83141bb3f969dbc26ac1ff",
    13: "d47e3c7eda4314943a94c731598a0bd58836aad504a162ce5e87056d5ff48619",
    14: "93c53969f8acf715f90b7f7ec57102839b21ce5caeacd4bfd4fce6119d78397d",
    15: "07378f53940b7dcf7a24d87ef211e784f13a79a9f0e860e92d896b56034fa5f5",
    16: "f265bb5c1a1398022dffc0bf2fa6378acc0d05e5d2f81d65aa3a495037bb4dde",
    17: "000b0893e179abdf023a43665dfc85d11dea25fb6ec40a81eaaf8cffa566b5c0",
    18: "2cb341f12354f2e380edc6598dd20e3cb23e7e666dbb146f502f52a9e0d341bb",
    19: "aeef66b520d825f2cf4972b665e0edcae5f78fff7ac03c0c292579b11c8df84a",
}


def _alphabet(seed):
    return (0, 1) if seed % 2 == 0 else (-1, 0, 1)


def random_nfa(seed):
    """2-11 states, epsilon moves, several moves per letter, one to three
    initial states and a random set of final states."""
    rng = random.Random(2000 + seed)
    n = 2 + seed % 10
    alphabet = _alphabet(seed)
    rows = [(rng.randrange(n), rng.randrange(n),
             rng.choice((None,) + alphabet))
            for _ in range(rng.randrange(n, 3 * n + 1))]
    initial = rng.sample(range(n), 1 + seed % 3 if n > 2 else 1)
    final = [s for s in range(n) if rng.random() < 0.4]
    return build_machine(rows, sorted(initial), final, alphabet,
                         kind=AUTOMATON)


def random_dfa(seed):
    """Deterministic automaton: 1-9 states listed out of label order, with
    labels holding ",", "{", "}" and "#", complete for seeds divisible by
    three and partial otherwise, its initial state anywhere in the list,
    its transitions shuffled, and for odd seeds up to two states that
    nothing reaches."""
    rng = random.Random(4000 + seed)
    n = 1 + seed % 9
    alphabet = _alphabet(seed)
    shapes = ("{}", "q{},{}", "{{{}}}", "#{}", "}}{}{{", "{},#1", "{{{},{}}}")
    labels = [rng.choice(shapes).format(i, i) for i in range(n)]
    rng.shuffle(labels)
    unreachable = set(rng.sample(range(1, n), min(n - 1, 2))
                      if seed % 2 else ())
    reachable = [i for i in range(n) if i not in unreachable]
    rows = [Transition(labels[s], labels[rng.choice(
                reachable if s not in unreachable else range(n))], (a,))
            for s in range(n) for a in word(alphabet)
            if seed % 3 == 0 or rng.random() < 0.7]
    rng.shuffle(rows)
    initial = rng.choice(reachable) if n > 1 else 0
    states = [State(label, i == initial, rng.random() < 0.5)
              for i, label in enumerate(labels)]
    return Machine(AUTOMATON, states, rows, alphabet)


def random_transducer(seed):
    """Deterministic transducer: 2-8 random states, partial for odd seeds,
    plus 1-4 copies of random states (same moves, finality and final
    output) that some moves are redirected to, so that equivalent states
    occur; some states may be unreachable."""
    rng = random.Random(3000 + seed)
    n = 2 + seed % 7
    alphabet = _alphabet(seed)
    outputs = ((), (0,), (1,), (0, 1))
    moves = {(s, a): (rng.randrange(n), rng.choice(outputs))
             for s in range(n) for a in alphabet
             if seed % 2 == 0 or rng.random() < 0.75}
    final = {s: rng.choice(outputs[:2]) for s in range(n)
             if rng.random() < 0.5}
    for copy in range(n, n + 1 + seed % 4):
        original = rng.randrange(n)
        for a in alphabet:
            if (original, a) in moves:
                moves[copy, a] = moves[original, a]
        if original in final:
            final[copy] = final[original]
        for key, (target, out) in list(moves.items()):
            if target == original and rng.random() < 0.5:
                moves[key] = (copy, out)
    rows = [(s, t, a, list(out)) for (s, a), (t, out) in moves.items()]
    m = build_machine(rows, [0], sorted(final), alphabet)
    states = [State(s.label, s.is_initial, s.is_final,
                    word(final[int(s.label)]) if s.is_final else ())
              for s in m.states]
    return Machine(TRANSDUCER, states, m.transitions, alphabet)


def _digest(m):
    text = repr((m.states, m.transitions))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def automaton_digests(seed):
    a, b = random_nfa(seed), random_nfa(seed + 2)  # same alphabet
    return (_digest(determinize(a)), _digest(minimize(a)),
            _digest(complement(a)), _digest(intersection(a, b)))


def deterministic_digests(seed):
    d = random_dfa(seed)
    return (_digest(determinize(d)), _digest(complement(d)),
            _digest(minimize(d)), _digest(intersection(d, complement(d))))


def mixed_digests(seed):
    d, n = random_dfa(seed), random_nfa(seed)  # same alphabet
    return _digest(intersection(d, n)), _digest(intersection(n, d))


def test_random_machines_have_the_promised_shape():
    nondeterministic = [s for s in range(40)
                        if not random_nfa(s).is_deterministic()]
    assert len(nondeterministic) > 30
    assert any(len(random_nfa(s).initial_states()) > 1 for s in range(40))
    dfas = [random_dfa(s) for s in range(30)]
    assert all(d.is_deterministic() for d in dfas)
    assert 5 < sum(d.is_complete() for d in dfas) < 25
    assert sum(len(d.accessible().states) < len(d.states) for d in dfas) > 5
    assert all(any(c in st.label for d in dfas for st in d.states)
               for c in ",{}#")
    transducers = [random_transducer(s) for s in range(20)]
    assert all(t.is_deterministic() for t in transducers)
    assert any(not t.is_complete() for t in transducers)
    assert any(len(t.accessible().states) < len(t.states)
               for t in transducers)
    merged = [t for t in transducers
              if len(simplify(t).states) < len(t.states)]
    assert len(merged) > 5


@pytest.mark.parametrize("seed", range(40))
def test_automaton_constructions_are_pinned(seed):
    assert automaton_digests(seed) == GOLDEN_AUTOMATA[seed]


@pytest.mark.parametrize("seed", range(30))
def test_deterministic_constructions_are_pinned(seed):
    assert deterministic_digests(seed) == GOLDEN_DETERMINISTIC[seed]


@pytest.mark.parametrize("seed", range(30))
def test_mixed_intersections_are_pinned(seed):
    assert mixed_digests(seed) == GOLDEN_MIXED[seed]


@pytest.mark.parametrize("seed", range(20))
def test_simplify_is_pinned(seed):
    assert _digest(simplify(random_transducer(seed))) \
        == GOLDEN_TRANSDUCERS[seed]
