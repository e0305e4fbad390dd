"""Regression guard on the full ``verify_all`` report.

Every check's name, verdict and witness string is pinned, by the sha256 of
``repr(verify_all(...))`` per instance, over a fixed corpus: random
instances n = 1..10 in exact and float mode, circle-grid instances with
three wells, and corrupted barriers that must fail with their witnesses.
A rewrite of a check's loops must leave every digest unchanged.

The float instance ``random:6:1`` passes every check: its reduced powers
first repeat at R^196 = R^199, past which the liminf oracle's tail minima,
found by doubling, are fixed.  Its digest was re-recorded when a period
search replaced a fixed horizon of 4n^2 + 8 = 152 powers, within which the
oracle did not stabilize and ``barrier.matches_liminf_oracle`` failed; the
doubling that replaced the period search moved no digest.

The float digests were re-recorded when float mode became exact mode on the
dyadic values of its doubles: in the 14 that moved, only the last digits of
alpha0 in the report's summary changed, to the correctly rounded value.

All 67 digests were re-recorded when five checks whose identities follow
from checks that stay left the report (``critical.alpha0_lower_bound``,
``potential.tail_recursion``, ``potential.forward_vanish``,
``potential.rows_and_columns_dominated`` and ``barrier.min_formula``): each
report equals the one before with those five entries dropped, its summary
included.

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


# re-recorded when the five checks above left the report
DIGESTS = {
    'exact random:1:0': '2bd241a6b461978dbe0f3bcf168ee88ed3e6406948cf52412ee3ad78b7676012',
    'exact random:1:1': 'f4ab68d7c16f2bfaf335110eae0ded0b39695508d8352b4b6ac06a158d0fb7e8',
    'exact random:1:2': '89e0156cfa513b0bc8639d2ea921f2233e75143982930d44b2d80e1b4030fbdf',
    'exact random:2:0': 'b22bc9a18fd06052c247f3bdb0169fd689c7904b31d5b68e2a3dcddaa6ee39e9',
    'exact random:2:1': 'c3e29e4032d9ee360d7d1eb7fc2ca6302e4687ee9d6a09278349e582022f6a10',
    'exact random:2:2': '64a113ccb336ec91eff86f7f4c19329aae2a35cffedfc39fc8572489007b50e8',
    'exact random:3:0': 'd27b89e63a1d8e93e71c349639d48079976ba4e96b4ed5b825b38dad6ef73d5b',
    'exact random:3:1': 'ea23047ea4c4c77f8b0fe26ad16cd95c48b7afb83f64bec7974941a74468fcbf',
    'exact random:3:2': 'b4e888e6ec0d5c5fb98a7b572ad5b87bf9903e088cf06f2b94328dc8dde168d8',
    'exact random:4:0': '4a7412375cf7f7c829fdfc829a8e9e339e33f7e295c1975ffe10289c67655839',
    'exact random:4:1': '10c33b9652fe8ae1f264eb90a6fa382be48497e34ed547cec3e90b557996144e',
    'exact random:4:2': '817d59670bf4f974c9c210a897300b66eb9c813589ffd833ede5f560ab98e940',
    'exact random:5:0': '95e1163e145e23bd981aa57d179d26d39d3b23ab98b554d7f9f13beb26d5ceb2',
    'exact random:5:1': '5df4ffd736e43c1b225e3f987e496cedb8d6db3bf8f2b640e6de3e737f9e6a73',
    'exact random:5:2': '98a6fdc1d7e1b492d34683e336da7488dd377b8dd6bcbf853724126b415008c1',
    'exact random:6:0': 'ee93a4b4a8e86207c6efba9f3c8d6be9aca7bd215bca7ddf87ce9927e8db4c53',
    'exact random:6:1': 'beb6b203076ed132ec2cc05aead40f65a247347a5925c9f4c976e6640bc0b6b6',
    'exact random:6:2': 'a983f87a4ba887000cf2c5260285ed2f4af0376ddf97a0539ceed56151b373ca',
    'exact random:7:0': 'd72d58558b91b4fbdf54e6856135f8070d442e2d6519da9ba703362c4acae707',
    'exact random:7:1': '3bd5801b62ac1a8da323bba073f71af4dcfd33d68a8a74c834133576c4b739c8',
    'exact random:7:2': 'd0e2960e846d0ecba3ef9c30f7353558dc28f04067324ee268eb8d1ca5651b76',
    'exact random:8:0': '07a79a6de6d28bd73cac76ffc9547588ce69756ef30c3d9a6472c7d6474ec130',
    'exact random:8:1': '04dfc17dc24d0c2c7b014d303eaafaa5a0eba9771b9cd7a94c89c2e9175d16c6',
    'exact random:8:2': 'e913b78d6359208713221cec612e0bc5c2e2e00ee6384542f56b1a34d7169823',
    'exact random:9:0': '7276b9827f9ce64f3ae606773bda5c13b405faf97431d0acc8bb681d5931869f',
    'exact random:9:1': '6d38322ffcea1e2809fee7bb5017438db97db6c471bc9078bafb6bd6ec51a779',
    'exact random:9:2': '506d79226e52b6167f44b3fc4328cefa7033c205d01e6fe1e643fc2edf211d94',
    'exact random:10:0': 'b80837c91be71eaee873bb6903f81b6ed520d9b04dc1056713cb4965c4f1c4cb',
    'exact random:10:1': 'eb588e8437abeacfe43cccaf8047d00a52995d9904d7fb83be7da77d97d2d1ef',
    'exact random:10:2': 'cf546720cb2e8ef49c3cfc8498883f20b57615b435bd52352defa58660944a01',
    'float random:1:0': 'fc0eff059dde7d80e26aa0f0c3645c8cde531b83b85513ee5d8cd4eeaa9ebea7',
    'float random:1:1': '761d838e994fb7e318149af57686198119fb9f1f397a4029ceb5a74216bab1b3',
    'float random:1:2': 'b14cb5640706d29cabb5b976c0c26eaf8d3efdf8d40348b629d9895cc6014403',
    'float random:2:0': 'f97b8059630594af6ec80c3c26f4d6ab854fb1ce8746361d43fa5b9e9ebf9ca8',
    'float random:2:1': '5b79ffd2a9261ebe69571a7816d6ee3481bcde306b585b7ee5c5da8d148d3ee1',
    'float random:2:2': '0d3504299df875e99f667cedfd1b98de80b1ba16d2fae2b41ab49045fb147b91',
    'float random:3:0': 'a72812066e9a45af4183e7150be66ee0617812d5692f693abc716d30ade88033',
    'float random:3:1': 'a09651f8b01f791dbd21609d0a77cf5ecee66e026e3f41154583f2e2ec11dfd7',
    'float random:3:2': 'c80a6264a1e838b865e4d7144a0949b6e3e19389d22ac69e5da38871369d8ab7',
    'float random:4:0': '992c962401c5673cd556c5636c3626188fafd6253b84bbee648005dbba4d8da7',
    'float random:4:1': '4442a36e2cc2cb94c3db4600a525422c69c65eadbaca4dc4951c70f3b35ce80c',
    'float random:4:2': '9d517448733ec831a0fd4960bed7f55777be808a2e2d11e72fdd6992415175eb',
    'float random:5:0': 'f8d1ef5bc7f0c4befd188b80a060fc37ac9ba417c15b6c109dceebd25e1aca42',
    'float random:5:1': '7461049f134552744d702e8d4bb4b91be2b83196a0ca7ccc95aa62f2b2ac38bf',
    'float random:5:2': 'a48c2871a94fa76b69ede738a9fd0beb68c3e11660bae8275250f614f8015c0e',
    'float random:6:0': '057614e66b18233c4aa935d511f37dc67c0a6a380f99c2894e04f9f2e7ce8480',
    'float random:6:1': '8a731404e570c14befa8a08fe310d4044945a9c8ba61e4106787c407873829ec',
    'float random:6:2': 'e1073b7088fd6c47981e0c529effbdf7c13d55a918de4990d2bab88020b088c2',
    'float random:7:0': '8dbc4819cad342f5918349d73edf72d70fe65d76a2e16e25a81440d6bdb65879',
    'float random:7:1': 'e05aaed23201b75553d6369984db5cefadd69e6765d5f12c782453e8923d7d63',
    'float random:7:2': '95aab6460f9d866b77d355caa2c4bdd5ca1ff555ca4f4b94440562b44a8b5ee0',
    'float random:8:0': '435087d95c22d9d903d58d33228be5e5b9a29317cdeaa7d267d672c0c93c209b',
    'float random:8:1': '0213480ac39622cc9481d99cd8c90cf696dfe165496d4524e2dd3a2fdc316003',
    'float random:8:2': '4f74db906f1badab176c883b315e647d8630215af59938217167015ef5fcaba0',
    'float random:9:0': 'd65eca9b6d14a3567b8e5f0dc76bb297eddae3d7229bbb36bfb14ab34a59b8c0',
    'float random:9:1': 'a1ea1cc82c5c150bf21fa09b06c9e52b2ffaedf3733daff36a4ac60f2ef28cf4',
    'float random:9:2': '42f9e6cea70289b57e7177714f460469e589576eb2efa4c8f2222cc5169049ea',
    'float random:10:0': '783a10724d956c255272102b519802d995f5e2ed55d81ae54ffe5320eae95ab7',
    'float random:10:1': 'ba5369606aa14c6bd3f505af31689ef5dda8921445de0a6c7cb455141eb81105',
    'float random:10:2': '9f541e95d05ea58779fbca54383bcf8f28d0736c27d55003861760b931ec6933',
    'fk:10:1:well@0': 'cc8299a5a46a5970ebd24af1c4c860fedff4a119c0466b18f49cbce280cf2798',
    'fk:10:1:well@3': 'b0361c51885844e28228d792ae7f53208f69e644eb0916845d6cc520cdf8efb6',
    'fk:10:1:well@7': '9d211d03589108aa154d18f896d4593bdad1c0e7c2e033bba85314e45639883e',
    'override t2': 'eb79e26cdd230f13d92f31269e2f875e4e7855f03c49653f31e5cf4815734675',
    'override t3': '9d6331346f8dfdc19469c4cad544c719665fc97d073b23a71ca6d345b6333f6f',
    'override random:5:2 off grid': '1bf847a30800d67c2d1788660a8eec17dd3e884ff8aed07783d102db608aa99c',
    'override float random:5:3': 'aa52b3b426ae8d8e9a0e9d33b5f361e4b6cea6ca34a46f2061d7076f9f4faca6',
}


@pytest.mark.parametrize("case", list(CORPUS))
def test_report_digest_unchanged(case):
    assert report_digest(case) == DIGESTS[case]


if __name__ == "__main__":
    for case in CORPUS:
        print(f"    {case!r}: {report_digest(case)!r},")
