"""Regression guard on the full ``verify_all`` report.

Every check's name, verdict and witness string is pinned, by the sha256 of
``repr(verify_all(...))`` per instance, over a fixed corpus: random
instances n = 1..10 in exact and float mode, circle-grid instances with
three wells, and corrupted barriers that must fail with their witnesses.
A rewrite of a check's loops must leave every digest unchanged.

The float instance ``random:6:1`` passes every check: its reduced powers
first repeat at R^196 = R^199, which the liminf oracle finds by Brent's
cycle detection.  Its digest was re-recorded when that search replaced a
fixed horizon of 4n^2 + 8 = 152 powers, within which the oracle did not
stabilize and ``barrier.matches_liminf_oracle`` failed.

``PYTHONPATH=src python tests/test_report_digest.py`` prints the digests.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction as F

import pytest

from wkam import critical_value, make_instance, peierls_barrier
from wkam.models import fk_potential_well, gen_fk, gen_random
from wkam.numbers import Mode
from wkam.oracle import verify_all

FLOAT = Mode("float", 1e-9)


def _t2():
    return make_instance([[F(2), F(0)], [F(1), F(3)]], labels=["a", "b"])


def _t3():
    return make_instance(
        [[F(1), F(0), F(9)], [F(0), F(9), F(9)], [F(9), F(9), F(9)]],
        labels=["a", "b", "c"],
    )


def _nudged(inst, cells, seed=0):
    """verify_all with the instance's own barrier shifted at some cells."""
    h = [list(row) for row in peierls_barrier(inst, critical_value(inst)).h.entries]
    for (x, y), d in cells:
        h[x][y] += d
    return verify_all(inst, seed=seed, barrier_override=tuple(map(tuple, h)))


def _corpus():
    cases = {}
    for mode, lo, hi in (("exact", -2, 2), ("float", -2.0, 2.0)):
        m = FLOAT if mode == "float" else Mode()
        for n in range(1, 11):
            for seed in range(3):
                cases[f"{mode} random:{n}:{seed}"] = (
                    lambda n=n, seed=seed, m=m, lo=lo, hi=hi:
                    verify_all(gen_random(n, seed, lo, hi, mode=m), seed=seed)
                )
    for c in (0, 3, 7):
        cases[f"fk:10:1:well@{c}"] = lambda c=c: verify_all(
            gen_fk(10, 1, fk_potential_well(10, c))
        )
    cases["override t2"] = lambda: verify_all(
        _t2(), barrier_override=((F(0), F(5)), (F(-9), F(0)))
    )
    cases["override t3"] = lambda: verify_all(
        _t3(),
        barrier_override=((F(0), F(0), F(8)), (F(0), F(0), F(9)), (F(-1), F(-1), F(8))),
    )
    cases["override random:5:2 off grid"] = lambda: _nudged(
        gen_random(5, 2, -2, 2), [((3, 0), -F(1, 13)), ((1, 2), F(1, 13))], seed=2
    )
    cases["override float random:5:3"] = lambda: _nudged(
        gen_random(5, 3, -2.0, 2.0, mode=FLOAT), [((2, 4), -0.25), ((0, 1), 0.5)], seed=3
    )
    return cases


CORPUS = _corpus()


def report_digest(case: str) -> str:
    return hashlib.sha256(repr(CORPUS[case]()).encode()).hexdigest()


# recorded before verify_all compared whole tables
DIGESTS = {
    'exact random:1:0': '0d38fbf622a23a68353e17ed0ace98c1f16b2ce9bbb0a683c78250af0e1bbeed',
    'exact random:1:1': 'd999c0b568fb375b09faa28b6133f74d217a7ab45ee191b47e682dad8ac70d31',
    'exact random:1:2': 'c9dcc0237d22ffa4c837e2484c2447b9ca81a89b045c195ef6780e1ab2eff748',
    'exact random:2:0': '0a788622e65082c6d207a9dbd0adb037a888ee46be016c68ee7135964867b310',
    'exact random:2:1': '1205f07c6c6f0b1119d88719de949d7c1447347be7e5f6737ec0682d94dc2c56',
    'exact random:2:2': 'fef45ec66358453b839f05023560a45c4990161ed8a48367d909353545839778',
    'exact random:3:0': '77c0ad5a1c99b95479c70bfccdc2fb7464bbee24d50b6e64ca9618bb23207296',
    'exact random:3:1': '939345c53253ed527e3339b97d629c4018fdb3f448ce1ca3e828a936ed64a46c',
    'exact random:3:2': '6748900da809a94de422e9a433d546f4d621ea8063db4265bae9d1b391dbdf7d',
    'exact random:4:0': '6a59d8fed418a56600f056ccb87ea034bbbf58ee08815b67837f827ffdcdfda0',
    'exact random:4:1': 'a5f163f4d5a293b3bc40887f6a6169e2ec740131d95bd21eae0d19ef2736a485',
    'exact random:4:2': '232a8b90c06340007fc32e87a0a382cded9904e455c12da4a8c5ff2a3f38dcb4',
    'exact random:5:0': '06a39c491abb36bad87a9780ede1525065a1b4ce23e48b6576ac980c4d5b6254',
    'exact random:5:1': 'fab429f38101d4776433390d6d645d9ce7e6af681da7cb84ce22e106b3e0a6b9',
    'exact random:5:2': '0d706649733c88afa2f5bd8e0f69d10ce984f0f9b2c5359612492943ddf1473e',
    'exact random:6:0': '21e59ce931e1d55c31b36a7ec4eb399330af7ace481b5d6fd3afc62191f5e3c7',
    'exact random:6:1': 'adad2ecbf2873d4f355b9036d170ba3f82994c0441ae1ebefe380fe549d13ff4',
    'exact random:6:2': 'dbb0130c07dcc3bc1bb25e646d0a42c308e75116f838827dabe4f4810d3ea103',
    'exact random:7:0': '9b4875fd19fcecee6c44b1a6fcdacc5f99b209f9d7e2dee8e54a6fe5a27facb6',
    'exact random:7:1': '25e7db6b85ff66b80a4747f1ae203e999c01b29d3e2d89b7d919391a573c3cbb',
    'exact random:7:2': 'b286c90c76002f66399225eae116ea475c6a39d6b66e008c8d59442581f1fef9',
    'exact random:8:0': '1b5a9f3651f6e8148cea432697bbd374160c8783ad49382df360f961620482e1',
    'exact random:8:1': '3c7e90cb60391c478e458993e1df40281bd64d15835f8fb31e52302e6e3f6f3c',
    'exact random:8:2': '8238ab2c22791720077436396ce258d0632d90f7ea07cfa42fd48cd4317f5803',
    'exact random:9:0': 'c3fe8d67e473d8d0cdd9ecfb5ab9c0f37583c9167c25fe0140b3185b74b074ea',
    'exact random:9:1': '2a7fed061977fe218bef02f612a60f0284420af56492837bdacb506214abf268',
    'exact random:9:2': '0e028d639ea010edfcef72b7e39de0c9ae75c1159a5b16fc09eb80cf384527d4',
    'exact random:10:0': 'd2e8182a855405f1476a9312be2723c403cadb5ade55c8a56225ef18f448afee',
    'exact random:10:1': 'd34a16adb580184d412879028054b1699852cd7d0471b704b8faa142bf44bb2b',
    'exact random:10:2': '075f874924dfddd9d95bba976b0ff6b14022dce8aac819c5c7a721a9edd3a737',
    'float random:1:0': '7b6b4bf977cb28450e906b2185a7b211c21760456c2c73d046dccd77b3a32c73',
    'float random:1:1': '6e92ac6a2128483989aded7d9377e8ab0ccd59f5fe1047a069931f6c506a986b',
    'float random:1:2': 'fadafd52e290a94eb342227adbdce40702784acc52c672933cf2cb85bee8b86d',
    'float random:2:0': '21492753e8a4e4d111a93b8bfb85bae2a87c321dea7dbf7c53a78a43830bd365',
    'float random:2:1': 'ad77de6232b58075071107d05a62da5d33bc4cabb12c1471417ae75102cb075d',
    'float random:2:2': '43ecc78396b2b2a2e30f3fddc993476076a8b81149b47f5f31c981e692f61bdc',
    'float random:3:0': '24652f8749cb95f0faed2edac203e62dcbc59806c11cfe8502136893d54a3bf5',
    'float random:3:1': '95ad76d9eac7ca03213fa9ef07aaef45d092a7869a4c623c98fa23ba634148ab',
    'float random:3:2': '5e9b094e2ce2bf8d180ebafc9df95d150d6a3b6a43b32ca27b116a3f563fcc93',
    'float random:4:0': 'a22d0332f9ca49f55c3f6dde96d10c87061d9386cb22161fde8b518c8a5237ca',
    'float random:4:1': 'cf8672149dfbad6f8b3274a48f799d7885aa38ef0b7f1cae5bfd667f98dc18b6',
    'float random:4:2': '2e3ef492c32dede2dfb0b69592aa05c3b8a04e18126289e92d8ffd033b112e2f',
    'float random:5:0': 'c6b242ab64c9439a9ac942f77e76b872e286f4be961860b409b05cff6245b430',
    'float random:5:1': 'e2cea999cda22198a07085b3fc26c21ed526079f15f3f6f313a770d4af3d2d44',
    'float random:5:2': '270e0d8365c5597b38532776f908cf589ac1c83b559c14889aa913d494aa6e47',
    'float random:6:0': '4829e448a16917a84689785d16ef8a524d4811c49d390a9691ce4c8f0e04fa55',
    'float random:6:1': 'dff8c15d2a3c3eb33933fa9ec954ce12622af4e4a519d30e447d7288d6f42440',
    'float random:6:2': '5171f7d9c59e465b8e89252b0f9f0f6208c3ffad9894d8c7b015654e3b4fd5d7',
    'float random:7:0': 'e0450e770d4c99edda9e5ed4821b8bb9b8a906e76d781a176be6916cd4897052',
    'float random:7:1': 'ef8bf5f65c76dd06acec0e0fcd198397f56d254a053b98cf311a89b126aed0c7',
    'float random:7:2': 'cb1c2e29143cf97d2b778be7759ff847de062ad496046cdfd3db406722eca4f7',
    'float random:8:0': 'a2638fdfbaae053602fa0fdea1f8b14e7d7fe370f0c1959fab70703d27f0ad97',
    'float random:8:1': '1d488398afb3ec6745ee6d8041ad97e3c77d041d9c022377657d1985cb69f9a0',
    'float random:8:2': '35491ffc3153f5dcf2e9ec920d8a0c7e36c3089fbede3b85d30c90b4c3611a41',
    'float random:9:0': '19a6d8344dcc27f9d92033b84ca3bbd97700106aa7ad8d3f80c301c9614ea526',
    'float random:9:1': 'a49498da3ad9a86dda236ac87c8ff2c57ea310fd99657a4beb2826b7df128ebe',
    'float random:9:2': '806bacd85c915fbc62ef63454450f1f2a84cf29440bbe656ed3fce5ec096981d',
    'float random:10:0': '0f4663f475b2c03866ace6a111953bf36f669c13363bd08c1bd393864d015f79',
    'float random:10:1': 'b661b9efd8fdfd2a2fa9ef1b23dbaea009d5d57840ee176ab9826f949ce127d6',
    'float random:10:2': '382b2fde2f472a0ed3fe17ce2d8150fbc72cfdc5eb5464afcb0a553b7cd58aa9',
    'fk:10:1:well@0': '94cb2cb777d9970f794a85931dcfcefd8ddd271da7e7969d673902c70a095ac5',
    'fk:10:1:well@3': 'ff844ae70c8851ef4b3df8736285afa4c942ef305f78cc6d20314c9887e0db23',
    'fk:10:1:well@7': '8487df0b0ef6bad19b886ff214871dc1c344c4bba6e65bc981fb732d1c21c2d1',
    'override t2': 'f664ac6dd48c44174f8f7ca77a42180121547f63aed4d65b38ed720d7f3c45e8',
    'override t3': '7547f2549e4cd77fe72b1573e5a744d7da70d0d52ed3ef73ce340d80e7550e47',
    'override random:5:2 off grid': 'eee3429e97361b4a3bf41e942ce87ffbb2318a69bce9f6f436cc21478ffe6568',
    'override float random:5:3': 'b34dd088c59c9d4d38e84c1e95536ac87069ec1c34eefdade0fd9f0412ec09cc',
}


@pytest.mark.parametrize("case", list(CORPUS))
def test_report_digest_unchanged(case):
    assert report_digest(case) == DIGESTS[case]


if __name__ == "__main__":
    for case in CORPUS:
        print(f"    {case!r}: {report_digest(case)!r},")
