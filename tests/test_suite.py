import hashlib
import json

from tensorlattice import hulls
from tensorlattice.hulls import LAW_EXPECTATIONS, hull_law_suite
from tensorlattice.suite import (
    disjointify_check,
    gauge_consistency_suite,
    hull_law_suite_sharded,
    riesz_decomposition_check,
    run_suite,
    seminorm_axiom_check,
    tensor_model_check,
)


# sha256 of json.dumps(reports, sort_keys=True) for laws 5 and 7-11 at
# triples=300, seed=42: more triples than the 250-sample shards the suite
# once split each law into, so the pin spans their old boundary.
LAW_REPORTS_SHA256 = "c576a20f8a5f28abb4bfb0c5b0dd7af09d0d0204a33242b755ea3c8e84635af0"
# sha256 of json.dumps of every point `hulls.member` receives while
# hull_law_suite(law, triples=40, seed=42) runs laws 3, 4, 6, 7 and 8, each
# law's points headed by its number. The reports record a direction that
# holds only as counts, so this pins the sampling streams behind them.
MEMBER_POINTS_SHA256 = "a45911047f505cfde4cd00eab345fdd3247f22b7f085558612760d60f2fbd44b"
# sha256 of the bytes `tensorlattice suite --seed 42` prints.
SUITE_SEED42_SHA256 = "834fb63cfe7d17b2f7777b3a0efaf7a5b7dd560b91a329c1bec7fa06bfdffaed"
# sha256 of the same serialization of run_suite(seed=7, triples=6, samples=12),
# and of that run with k_max=1, restarts=1: the starved budget runs
# alternating minimization (152 half-steps), which seed 42 never reaches.
SUITE_SEED7_SHA256 = "f95e4fa89754e540c46fa2d29eb63b32d2299e41130dd9222b2a6690845e0aa4"
SUITE_SEED7_STARVED_SHA256 = "0f8b3431bba76e53e6cf1360fc611fc101f9a9a4090b65111b783364ead409d3"


# The pinned join break of the hom-negative fixture: e_00 and e_01.
PINNED_JOIN = {"u": {"shape": [1, 2], "entries": [["1", "0"]]},
               "v": {"shape": [1, 2], "entries": [["0", "1"]]}}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_riesz_decomposition_check():
    rep = riesz_decomposition_check(samples=200, seed=5)
    assert rep["violations"] == 0
    assert rep["samples"] == 200
    assert rep["ok"]


def test_disjointify_check():
    rep = disjointify_check(samples=200, seed=7)
    assert rep["violations"] == 0
    assert rep["ok"]


def test_seminorm_axiom_check():
    rep = seminorm_axiom_check(samples=120, seed=9)
    assert rep["violations"] == 0
    assert rep["ok"]


def test_tensor_model_check():
    rep = tensor_model_check(samples=60, seed=11)
    assert rep["violations"] == 0
    assert rep["ok"]


def test_gauge_consistency_suite_includes_gap_fixtures():
    rep = gauge_consistency_suite(samples=10, seed=13)
    assert rep["ok"]
    assert rep["contradictions"] == 0
    # two starved-budget gap fixtures ride along with the random instances
    assert rep["samples"] == 12
    assert rep["probes"] >= 4 * rep["samples"]


class TestShardedLawSuite:
    def test_matches_monolithic_run(self):
        sharded = hull_law_suite_sharded(triples=12, seed=21, workers=1)
        mono = [hull_law_suite(law, triples=12, seed=21) for law in range(1, 12)]
        assert sharded == mono

    def test_worker_count_invisible(self):
        one = hull_law_suite_sharded(triples=12, seed=21, workers=1)
        four = hull_law_suite_sharded(triples=12, seed=21, workers=4)
        assert one == four

    def test_shared_instance_stands_in_only_for_an_unchecked_direction(self):
        # one triple gives each direction one outcome; a printed direction of
        # laws 4 and 8 is vacuous without shared generators, and then only
        # the pinned instance of hulls._SHARED checks it
        pinned = sampled = 0
        for seed in range(20):
            for law in (4, 8):
                rep = hull_law_suite(law, triples=1, seed=seed)
                for name, d in rep["directions"].items():
                    if LAW_EXPECTATIONS[law][name] == "holds":
                        assert d["checked"] == 1 and d["violations"] == 0, (seed, law, name)
                        pinned += d["vacuous"]
                        sampled += not d["vacuous"]
                assert rep["ok"], (seed, law)
        assert pinned > 5 and sampled > 5

    def test_every_law_matches_expectations(self):
        reports = hull_law_suite_sharded(triples=10, seed=33, workers=2)
        assert len(reports) == 11
        for rep in reports:
            assert rep["expected"] == LAW_EXPECTATIONS[rep["law"]]
            assert rep["observed"] == rep["expected"], rep["law"]
            assert rep["ok"]


class TestPinnedReports:
    def test_law_reports(self):
        reports = [hull_law_suite(law, triples=300, seed=42) for law in (5, 7, 8, 9, 10, 11)]
        assert sha256(json.dumps(reports, sort_keys=True)) == LAW_REPORTS_SHA256

    def test_member_point_streams(self, monkeypatch):
        points = []
        real_member = hulls.member

        def recording_member(S, x):
            points.append(x.to_json())
            return real_member(S, x)

        monkeypatch.setattr(hulls, "member", recording_member)
        for law in (3, 4, 6, 7, 8):
            points.append(law)
            hull_law_suite(law, triples=40, seed=42)
        assert sha256(json.dumps(points)) == MEMBER_POINTS_SHA256

    def test_seed42_suite_report(self):
        report = run_suite(seed=42)
        assert sha256(json.dumps(report, sort_keys=True, indent=2) + "\n") == SUITE_SEED42_SHA256

    def test_small_suite_reports(self):
        for budget, digest in (({}, SUITE_SEED7_SHA256),
                               ({"k_max": 1, "restarts": 1}, SUITE_SEED7_STARVED_SHA256)):
            report = run_suite(seed=7, triples=6, samples=12, **budget)
            assert sha256(json.dumps(report, sort_keys=True, indent=2) + "\n") == digest


class TestRunSuite:
    def test_small_run_all_ok(self):
        rep = run_suite(seed=42, triples=6, samples=8)
        assert rep["all_ok"]
        assert len(rep["statements"]) == 31
        ids = [line["id"] for line in rep["statements"]]
        assert len(ids) == len(set(ids))
        for wanted in ("hull-law-1", "hull-law-11", "solid-closure",
                       "riesz-decomposition", "disjointification",
                       "seminorm-axioms", "tensor-model-density",
                       "nbhd-base-additivity", "nbhd-solidity",
                       "gauge-seminorm-consistency", "cross-seminorm-identity",
                       "certificate-axioms", "separation-positivity",
                       "separation-negative-fixture", "factorization-identity",
                       "hom-property", "hom-negative-fixture",
                       "hom-uniqueness", "continuity-constant"):
            assert wanted in ids, wanted
        for line in rep["statements"]:
            assert line["ok"], line["id"]
            assert "section" in line

    def test_smallest_sizes_report_no_false_failure(self):
        # sampling this little can leave a holding direction unchecked or find
        # no join break in the hom-negative fixture; pinned instances stand in
        pinned_joins = 0
        for triples, samples in ((1, 1), (2, 4)):
            for seed in range(40):
                rep = run_suite(seed=seed, triples=triples, samples=samples)
                failed = [line["id"] for line in rep["statements"] if not line["ok"]]
                assert rep["all_ok"], (triples, samples, seed, failed)
                neg = next(line for line in rep["statements"] if line["id"] == "hom-negative-fixture")
                joins = neg["checks"]["join"]
                pinned_joins += joins["witnesses"] == [{"index": "fixture", **PINNED_JOIN}]
        assert pinned_joins > 0

    def test_byte_identical_reruns(self):
        a = run_suite(seed=42, triples=6, samples=8)
        b = run_suite(seed=42, triples=6, samples=8)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_worker_count_not_in_report(self):
        a = run_suite(seed=42, triples=6, samples=8, workers=1)
        b = run_suite(seed=42, triples=6, samples=8, workers=3)
        assert "workers" not in a["config"]
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_seed_changes_the_report(self):
        a = run_suite(seed=1, triples=6, samples=8)
        b = run_suite(seed=2, triples=6, samples=8)
        assert a["config"] != b["config"]
        assert a["all_ok"] and b["all_ok"]
