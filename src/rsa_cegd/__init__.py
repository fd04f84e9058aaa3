"""Certified e-goods delivery over RSA: protocol, attack scripts, evaluator.

A seller trades encrypted goods for an unforgeable receipt through a
four-step exchange, with a semi-trusted arbiter that can reopen a stalled
trade on the seller's request. The package implements the cryptography
(key wrapping, recoverable encrypted receipts, certificates), the three
party state machines, a deterministic simulation harness with scripted
fairness-breaking scenarios, and a transcript format whose every
signature and congruence can be re-checked offline.
"""
