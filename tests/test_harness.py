"""Scenario runs, the fairness evaluator, and report determinism."""

import json

import pytest

from conftest import toy_config
from rsa_cegd import harness
from rsa_cegd.harness import (
    BUYER,
    FAIR,
    OUTSIDER,
    SELLER,
    UNFAIR_FOR_A,
    UNFAIR_FOR_B,
    FairnessVerdict,
    RunConfig,
    ScriptError,
    run_eoo_forward,
    run_honest,
    run_mode,
    evaluate_fairness,
    run_replay_attack,
)
from rsa_cegd.transcript import ledger_from_record


def ledgers(snapshots):
    """Party -> the ledger of a hand-built evidence row; absent lists are empty."""
    return {party: ledger_from_record({"goods": [], "receipts": [], "origin_proofs": [],
                                       **snap})
            for party, snap in snapshots.items()}


def test_honest_run_is_fair():
    report = run_honest(toy_config(seed=3))
    assert report.verdict.status == FAIR
    assert report.evidence[BUYER]["goods"]
    assert report.evidence[SELLER]["receipts"]
    assert report.narrative == ["exchange-completed"]


def test_honest_run_fair_across_seeds():
    for seed in range(6):
        assert run_honest(toy_config(seed=seed)).verdict.status == FAIR


def test_honest_run_deterministic():
    lines_a = run_honest(toy_config(seed=9)).to_lines()
    lines_b = run_honest(toy_config(seed=9)).to_lines()
    assert lines_a == lines_b


def test_replay_attack_unfair_for_buyer():
    report = run_replay_attack(toy_config(seed=4, mode="replay"))
    assert report.verdict.status == UNFAIR_FOR_B
    assert report.verdict.receipt_holder == SELLER
    assert "stale-R1-accepted" in report.narrative
    assert "stale-key-rejected" in report.narrative
    assert "stale-key-opens-prior-session" in report.narrative
    # The seller holds a receipt; the buyer ends with nothing usable.
    assert report.evidence[SELLER]["receipts"]
    assert not report.evidence[BUYER]["goods"]


def test_replay_receipt_matches_honest_completion():
    seed = 11
    attack = run_replay_attack(toy_config(seed=seed, mode="replay"))
    honest = run_honest(toy_config(seed=seed))
    attack_receipt = attack.evidence[SELLER]["receipts"][0]
    honest_receipt = honest.evidence[SELLER]["receipts"][0]
    assert attack_receipt == honest_receipt


def test_replay_messages_span_two_sessions():
    report = run_replay_attack(toy_config(seed=4, mode="replay"))
    steps = [(r["session"], r["step"]) for r in report.records
             if r["type"] == "message"]
    assert steps == [(1, "E1"), (1, "E2"), (2, "E1"), (2, "E2"),
                     (2, "R1"), (2, "R2"), (2, "R3")]


def test_eoo_forward_unfair_for_seller():
    report = run_eoo_forward(toy_config(seed=5, mode="eoo-forward"))
    assert report.verdict.status == UNFAIR_FOR_A
    assert report.verdict.eoo_holder == OUTSIDER
    assert "eoo-forwarded-out-of-band" in report.narrative


def test_eoo_forward_copies_are_identical():
    report = run_eoo_forward(toy_config(seed=5, mode="eoo-forward"))
    buyer_proof = report.evidence[BUYER]["origin_proofs"][0]
    outsider_proof = report.evidence[OUTSIDER]["origin_proofs"][0]
    assert buyer_proof["value"] == outsider_proof["value"]
    assert buyer_proof["originator"] == outsider_proof["originator"] == SELLER


def test_run_mode_dispatch():
    report = run_mode(toy_config(seed=1, mode="replay"))
    assert report.verdict.status == UNFAIR_FOR_B
    with pytest.raises(ValueError):
        run_mode(RunConfig(mode="nope", bits=32, exponent=3, seed=1))


def test_run_honest_checks_its_verdict(monkeypatch):
    monkeypatch.setattr(harness, "evaluate_fairness", lambda ledgers: FairnessVerdict(
        UNFAIR_FOR_B, goods_hash=1, receipt_holder=SELLER))
    with pytest.raises(ScriptError, match="verdict UNFAIR_FOR_B"):
        run_honest(toy_config(seed=3))


def test_run_checks_its_records(monkeypatch):
    monkeypatch.setitem(harness.SKELETON, "honest", harness.SKELETON["honest"][1:])
    with pytest.raises(ScriptError, match="records differ from SKELETON"):
        run_honest(toy_config(seed=3))


@pytest.mark.parametrize("overrides", [dict(mode="nope"), dict(bits=8), dict(seed=-1),
                                       dict(goods_size=1 << 24 | 1), dict(exponent=1)],
                         ids=["mode", "bits", "seed", "goods_size", "exponent"])
def test_config_validated_at_construction(overrides):
    params = dict(mode="honest", bits=32, exponent=3, seed=0)
    params.update(overrides)
    with pytest.raises(ValueError):
        RunConfig(**params)


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(mode="honest", bits=8, exponent=3, seed=0)
    with pytest.raises(ValueError):
        RunConfig(mode="honest", bits=32, exponent=4, seed=0)
    with pytest.raises(ValueError):
        RunConfig(mode="honest", bits=32, exponent=3, seed=0, goods_size=0)


# --- evaluator over hand-built evidence --------------------------------------

def test_verdict_fair_when_both_sides_hold():
    snapshots = {
        "seller": {"receipts": [{"signer": "buyer", "goods_hash": "aa", "value": "1"}]},
        "buyer": {"goods": [{"goods_hash": "aa", "payload": ""}],
                  "origin_proofs": [{"originator": "seller", "goods_hash": "aa",
                                     "value": "2"}]},
    }
    assert evaluate_fairness(ledgers(snapshots)).status == FAIR


def test_verdict_unfair_for_receiver_side():
    snapshots = {
        "seller": {"receipts": [{"signer": "buyer", "goods_hash": "aa", "value": "1"}]},
        "buyer": {},
    }
    verdict = evaluate_fairness(ledgers(snapshots))
    assert verdict.status == UNFAIR_FOR_B
    assert verdict.goods_hash == 0xAA
    assert verdict.receipt_holder == "seller"


def test_verdict_names_the_first_unfair_item_in_row_order():
    # Rows list items by integer hash, so 0xb comes before 0xaa (text order
    # would put "aa" first).
    snapshots = {
        "seller": {"receipts": [{"signer": "buyer", "goods_hash": "b", "value": "1"},
                                {"signer": "buyer", "goods_hash": "aa", "value": "1"}]},
        "buyer": {},
    }
    assert evaluate_fairness(ledgers(snapshots)).goods_hash == 0xB


def test_verdict_unfair_for_origin_side():
    snapshots = {
        "seller": {},
        "outsider": {"goods": [{"goods_hash": "aa", "payload": ""}],
                     "origin_proofs": [{"originator": "seller", "goods_hash": "aa",
                                        "value": "2"}]},
    }
    verdict = evaluate_fairness(ledgers(snapshots))
    assert verdict.status == UNFAIR_FOR_A
    assert verdict.eoo_holder == "outsider"


def test_verdict_recomputable_after_serialization():
    report = run_replay_attack(toy_config(seed=2, mode="replay"))
    rows = [json.loads(line) for line in report.to_lines()]
    decoded = {row["party"]: ledger_from_record(row)
               for row in rows if row["type"] == "evidence"}
    assert evaluate_fairness(decoded) == report.verdict


def test_verdict_record_shapes():
    assert FairnessVerdict(FAIR).to_record() == {"type": "verdict", "verdict": "FAIR"}
    record = FairnessVerdict(UNFAIR_FOR_B, goods_hash=10,
                             receipt_holder="seller").to_record()
    assert record == {"type": "verdict", "verdict": "UNFAIR_FOR_B",
                      "goods_hash": "a", "receipt_holder": "seller"}
