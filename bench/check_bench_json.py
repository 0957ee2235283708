#!/usr/bin/env python3
"""usage: check_bench_json.py <bench> <json>

Holds the JSON a bench wrote with --json=PATH to the gates CI checks;
exits non-zero at the first assertion that fails.
"""
import json
import sys


def fig04_iozone_lan(doc):
    assert doc["bench"] == "fig04_iozone_lan"
    assert len(doc["rows"]) == 8, doc
    assert all("buf.bytes_copied" in r["metrics"] for r in doc["rows"])


def chaos_recovery(doc):
    assert doc["bench"] == "chaos_recovery"
    seeds = [r for r in doc["rows"] if "/seed" in r["name"]]
    assert len(seeds) == 10, [r["name"] for r in doc["rows"]]
    for r in seeds:
        assert r["metrics"]["content_ok"] == 1.0, r
        assert r["metrics"]["replayed_bytes"] > 0, r


def overload(doc):
    assert doc["bench"] == "overload"
    names = [r["name"] for r in doc["rows"]]
    assert names == ["naive@100", "naive@400",
                     "robust@100", "robust@400"], names
    for r in doc["rows"]:
        assert "simulated_seconds" in r, r
        assert r["metrics"]["overload.goodput_per_sec"] >= 0, r
    assert len(doc["checks"]) == 8, doc["checks"]


def wanstream(doc):
    assert doc["bench"] == "wanstream"
    names = [r["name"] for r in doc["rows"]]
    assert names == ["rtt100_k1", "rtt100_k2", "rtt100_k4"], names
    for r in doc["rows"]:
        assert "simulated_seconds" in r and r["simulated_seconds"] > 0, r
        assert r["metrics"]["crypto.handshakes"] == 4.0, r
    k4 = doc["rows"][2]["metrics"]
    assert k4["sgfs.pool.striped_reads"] > 0, k4
    assert k4["crypto.stream_resumptions"] == 6.0, k4
    checks = {c["what"]: c["measured"] for c in doc["checks"]}
    assert checks["K=4 / K=1 bulk throughput at 100 ms RTT"] >= 3.0, checks
    assert checks["K=1 bit-identity (virtual time + all metrics)"] == 1.0, checks


def fleet(doc):
    assert doc["bench"] == "fleet"
    names = [r["name"] for r in doc["rows"]]
    assert names == ["fleet@250", "fleet@1000", "fleet@crash"], names
    for r in doc["rows"]:
        assert "simulated_seconds" in r, r
        assert r["metrics"]["fleet.goodput_per_sec"] > 0, r
        assert r["metrics"]["fleet.p999_ms"] > 0, r
    crash = doc["rows"][-1]["metrics"]
    assert crash["fleet.final_epoch"] == 3, crash
    assert crash["fleet.reroutes"] > 0, crash
    assert crash["fleet.actors"] >= 10000, crash


def connstorm(doc):
    assert doc["bench"] == "connstorm"
    names = [r["name"] for r in doc["rows"]]
    assert names == ["naive", "resume", "admission", "resume+adm"], names
    for r in doc["rows"]:
        m = r["metrics"]
        assert m["storm.sim_errors"] == 0, r
        assert m["storm.plateau_per_sec"] > 0, r
    by = {r["name"]: r["metrics"] for r in doc["rows"]}
    assert by["naive"]["storm.resumed_sessions"] == 0, by["naive"]
    assert by["resume+adm"]["storm.resumed_sessions"] >= 128, by
    assert by["resume+adm"]["storm.fallback_handshakes"] == 0, by
    # FSS signature scaling: O(users)=8 with the SSO cache, O(sessions)
    # without it.
    assert by["resume+adm"]["storm.fss_signatures"] <= 32, by
    assert by["naive"]["storm.fss_signatures"] >= 256, by
    checks = {c["what"]: c["measured"] for c in doc["checks"]}
    assert checks["recovery speedup (naive / resume+adm)"] >= 3.0, checks
    assert checks["resume+adm replay fingerprint identical"] == 1.0, checks


def cachestorm(doc):
    assert doc["bench"] == "cachestorm"
    names = [r["name"] for r in doc["rows"]]
    assert names[0] == "readthru" and names[-1].startswith("naive@"), names
    assert any(n.startswith("robust@") for n in names), names
    by = {r["name"]: r["metrics"] for r in doc["rows"]}
    floor = by["readthru"]["storm.goodput_mb_s"]
    for name, m in by.items():
        assert m["storm.sim_errors"] == 0, name
        if name.startswith("robust@"):
            # The sealed cache must never serve a poisoned byte and must
            # keep goodput at or above the no-cache read-through floor.
            assert m["storm.corrupt_bytes"] == 0, name
            assert m["storm.accounting_ok"] == 1, name
            assert m["storm.goodput_mb_s"] >= 0.98 * floor, (name, floor)
            if not name.endswith("@0"):
                assert m["storm.injected"] > 0, name
                assert m["storm.verify_failures"] > 0, name
        if name.startswith("naive@"):
            # Paper-faithful plaintext control: tampering goes unnoticed.
            assert m["storm.verify_failures"] == 0, name
            assert m["storm.corrupt_bytes"] > 0, name
    assert by["robust@0"]["storm.goodput_mb_s"] > floor, by["robust@0"]
    checks = {c["what"]: c["measured"] for c in doc["checks"]}
    assert checks["robust replay fingerprint identical"] == 1.0, checks


def flashcrowd(doc):
    assert doc["bench"] == "flashcrowd"
    names = [r["name"] for r in doc["rows"]]
    assert names == ["origin", "clean", "byz25", "allbyz"], names
    by = {r["name"]: r["metrics"] for r in doc["rows"]}
    floor = by["origin"]["crowd.goodput_mb_s"]
    for name, m in by.items():
        assert m["crowd.sim_errors"] == 0, name
        assert m["crowd.read_errors"] == 0, name
        # THE invariant: no scenario ever serves one corrupt byte.
        assert m["crowd.corrupt_bytes"] == 0, name
    assert by["clean"]["crowd.goodput_mb_s"] >= 2.0 * floor, by["clean"]
    assert by["byz25"]["crowd.verify_failures"] > 0, by["byz25"]
    assert by["byz25"]["crowd.blacklists"] > 0, by["byz25"]
    assert by["byz25"]["crowd.goodput_mb_s"] >= 0.98 * floor, by["byz25"]
    # All-Byzantine: blacklist -> degrade -> probe -> re-admission,
    # each leg demonstrably non-vacuous.
    allbyz = by["allbyz"]
    assert allbyz["crowd.blacklists"] > 0, allbyz
    assert allbyz["crowd.degraded"] > 0, allbyz
    assert allbyz["crowd.probes"] > 0, allbyz
    assert allbyz["crowd.replica_blocks"] > 0, allbyz
    checks = {c["what"]: c["measured"] for c in doc["checks"]}
    assert checks["byz25 replay fingerprint identical"] == 1.0, checks


CHECKS = {f.__name__: f for f in (fig04_iozone_lan, chaos_recovery, overload,
                                  wanstream, fleet, connstorm, cachestorm,
                                  flashcrowd)}

if __name__ == "__main__":
    if not __debug__:
        sys.exit("check_bench_json.py: the checks are asserts; run without -O")
    if len(sys.argv) != 3 or sys.argv[1] not in CHECKS:
        sys.exit("usage: check_bench_json.py {%s} <json>" % "|".join(CHECKS))
    with open(sys.argv[2]) as f:
        CHECKS[sys.argv[1]](json.load(f))
    print("%s: %s passes" % (sys.argv[1], sys.argv[2]))
