"""Runtime tests for the Fiat-Shamir transcript.

Domain tags, labels, absorbed data and absorption order must all change
the derived challenges.  Over real proofs, the prover and the verifier
must run the same absorb/squeeze schedule byte for byte, and that
schedule must bind the statement and every proof message before the
challenge that follows it (the "frozen heart" bug class).
"""

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.curve.g1 import G1
from repro.field.fr import MODULUS as R
from repro.gadgets.mimc import mimc_block
from repro.kzg import SRS, commit_message, commit_scalar
from repro.plonk import CircuitBuilder, Proof, prove, setup, verify
from repro.plonk.transcript import Transcript

REPO_ROOT = Path(__file__).resolve().parent.parent


def _challenge_after(domain_tag, events, label=b"chal"):
    t = Transcript(domain_tag)
    for event_label, data in events:
        t.append_bytes(event_label, data)
    return t.challenge(label)


class TestChallengeSeparation:
    def test_challenges_are_field_elements(self):
        value = _challenge_after(b"tag", [(b"m", b"data")])
        assert 0 <= value < R

    def test_domain_tag_separates(self):
        events = [(b"m", b"data")]
        assert _challenge_after(b"plonk", events) != _challenge_after(b"kzg", events)

    def test_challenge_label_separates(self):
        t1 = Transcript(b"tag")
        t2 = Transcript(b"tag")
        t1.append_bytes(b"m", b"data")
        t2.append_bytes(b"m", b"data")
        assert t1.challenge(b"beta") != t2.challenge(b"gamma")

    def test_absorb_label_separates(self):
        assert _challenge_after(b"tag", [(b"a", b"data")]) != _challenge_after(
            b"tag", [(b"b", b"data")]
        )

    def test_absorbed_value_separates(self):
        assert _challenge_after(b"tag", [(b"m", b"x")]) != _challenge_after(
            b"tag", [(b"m", b"y")]
        )

    def test_absorb_order_separates(self):
        forward = [(b"m1", b"first"), (b"m2", b"second")]
        swapped = [(b"m2", b"second"), (b"m1", b"first")]
        assert _challenge_after(b"tag", forward) != _challenge_after(b"tag", swapped)

    def test_label_data_split_is_unambiguous(self):
        # The length-prefixed label means (label, data) pairs that
        # concatenate identically still hash differently.
        assert _challenge_after(b"tag", [(b"ab", b"c")]) != _challenge_after(
            b"tag", [(b"a", b"bc")]
        )

    def test_consecutive_challenges_differ_and_fold_state(self):
        t = Transcript(b"tag")
        t.append_bytes(b"m", b"data")
        first = t.challenge(b"x")
        second = t.challenge(b"x")
        # Same label, but the first squeeze folded back into the state.
        assert first != second

    def test_scalar_and_point_absorption(self):
        from repro.curve.g1 import G1

        t1 = Transcript(b"tag")
        t2 = Transcript(b"tag")
        t1.append_scalar(b"s", 5)
        t2.append_scalar(b"s", 6)
        assert t1.challenge(b"c") != t2.challenge(b"c")
        t3 = Transcript(b"tag")
        t4 = Transcript(b"tag")
        t3.append_point(b"p", G1.generator())
        t4.append_point(b"p", G1.generator() * 2)
        assert t3.challenge(b"c") != t4.challenge(b"c")

    def test_deterministic_replay(self):
        seq1 = []
        seq2 = []
        for out in (seq1, seq2):
            t = Transcript(b"tag")
            t.append_scalar(b"m", 123)
            out.append(t.challenge(b"a"))
            t.append_scalar(b"n", 456)
            out.append(t.challenge(b"b"))
        assert seq1 == seq2


#: Squeezes allowed straight after a squeeze, as (previous, next) labels:
#: GWC19 draws beta and gamma from the same round-2 state, and
#: ``challenge()`` folds beta back into it, so gamma stays bound.
DESIGNED_SQUEEZES = {(b"beta", b"gamma")}

#: The challenge each proof field must be absorbed before: the first one
#: the prover draws after computing it.
BOUND_BY = {
    **dict.fromkeys(("c_a", "c_b", "c_c"), b"beta"),
    "c_z": b"alpha",
    **dict.fromkeys(("c_t_lo", "c_t_mid", "c_t_hi"), b"zeta"),
    **dict.fromkeys(
        ("a_bar", "b_bar", "c_bar", "s1_bar", "s2_bar", "z_omega_bar"), b"v"
    ),
    **dict.fromkeys(("a_omega_bar", "b_omega_bar", "c_omega_bar"), b"v"),
    **dict.fromkeys(("w_zeta", "w_zeta_omega"), b"u"),
}


@pytest.fixture
def transcript_log(monkeypatch):
    """Every absorb and every challenge of every transcript, in order, as
    ``(kind, label, bytes)``.  A challenge's fold-back into the state is
    part of the challenge, not an absorb."""
    log = []
    squeezing = []
    absorb, challenge = Transcript._absorb, Transcript.challenge

    def recording_absorb(self, label, data):
        if not squeezing:
            log.append(("absorb", label, data))
        absorb(self, label, data)

    def recording_challenge(self, label):
        squeezing.append(label)
        try:
            value = challenge(self, label)
        finally:
            squeezing.pop()
        log.append(("challenge", label, value.to_bytes(32, "little")))
        return value

    monkeypatch.setattr(Transcript, "_absorb", recording_absorb)
    monkeypatch.setattr(Transcript, "challenge", recording_challenge)
    return log


def _unlinked(srs):
    """Public x; private w with w^2 = x."""
    builder = CircuitBuilder()
    x = builder.public_input(9)
    w = builder.var(3)
    builder.assert_equal(builder.mul(w, w), x)
    return builder.compile(), None


def _linked(srs, key=1234567, rho=7654321):
    """Public x and y = key * x, with the key wire linked to [key]."""
    point = commit_scalar(srs, key, rho)
    builder = CircuitBuilder()
    x = builder.public_input(3)
    y = builder.public_input(key * 3 % R)
    k = builder.var(key)
    builder.link(k, point, rho)
    builder.assert_equal(builder.mul(k, x), y)
    return builder.compile(), point


def _data_linked(srs, key=1234567, rho=7654321, message=(11, 22, 33), data_rho=5551212):
    """Public x, y = key * x and s = sum(message), with the key linked to
    [key] (row 0, slot b) and a 3-entry message to its [d] (slot c of rows
    0, n/4, n/2, and 3n/4 for the padding entry)."""
    k_point = commit_scalar(srs, key, rho)
    d_point = commit_message(srs, list(message), data_rho)
    builder = CircuitBuilder()
    x = builder.public_input(3)
    y = builder.public_input(key * 3 % R)
    s = builder.public_input(sum(message))
    k = builder.var(key)
    entries = [builder.var(v) for v in message]
    builder.link(k, k_point, rho)
    builder.link(entries, d_point, data_rho)
    builder.assert_equal(builder.mul(k, x), y)
    builder.assert_equal(builder.linear_combination([(1, w) for w in entries]), s)
    return builder.compile(), (k_point, d_point)


def _round_gate(srs, key=111, block=222, rounds=8):
    """Public y = E_key(block) on the MiMC round gate: its proofs carry
    a(zeta omega)."""
    builder = CircuitBuilder()
    out = mimc_block(builder, builder.var(key), builder.var(block), rounds=rounds)
    builder.assert_equal(out, builder.public_input(builder.value(out)))
    return builder.compile(), None


def _partial_round(srs, lanes=(5, 6, 7), rounds=3):
    """Public x after ``rounds`` Poseidon partial rounds on their gate: its
    proofs carry a, b and c at zeta omega."""
    builder = CircuitBuilder()
    x, s1, s2 = (builder.var(v) for v in lanes)
    for k in range(rounds):
        x, s1, s2 = builder.poseidon_partial_round(x, s1, s2, k + 1)
    builder.assert_equal(x, builder.public_input(builder.value(x)))
    return builder.compile(), None


def _encode(value):
    """The bytes a transcript absorbs for a G1 point or a scalar."""
    return value.to_bytes() if isinstance(value, G1) else (value % R).to_bytes(32, "little")


def _absorbed_at(log, data):
    """Index of the first absorb of ``data``; fails if it is never absorbed."""
    for i, (kind, _, absorbed) in enumerate(log):
        if kind == "absorb" and absorbed == data:
            return i
    pytest.fail("never absorbed: %s" % data.hex())


class TestProverVerifierReplay:
    @pytest.fixture(scope="class")
    def srs(self):
        return SRS.generate(64, tau=987654321)

    def _replay(self, srs, log, statement):
        """Prove and verify ``statement``; returns what each side logged."""
        (layout, assignment), link = statement(srs)
        pk, vk = setup(srs, layout)
        log.clear()
        proof = prove(pk, assignment)
        prover_log = list(log)
        log.clear()
        assert verify(vk, assignment.public_inputs, proof, link=link)
        return prover_log, list(log), (vk, assignment.public_inputs, link, proof)

    def test_verifier_reproduces_prover_challenges_bitwise(self, srs, transcript_log):
        prover_log, verifier_log, _ = self._replay(srs, transcript_log, _unlinked)
        labels = [label for kind, label, _ in prover_log if kind == "challenge"]
        assert labels == [b"beta", b"gamma", b"alpha", b"zeta", b"v", b"u"]
        assert verifier_log == prover_log

    @pytest.mark.parametrize(
        "statement",
        [_unlinked, _linked, _data_linked, _round_gate, _partial_round],
        ids=["unlinked", "linked", "data_linked", "round_gate", "partial_round"],
    )
    def test_schedule_binds_the_statement_and_every_proof_field(
        self, srs, transcript_log, statement
    ):
        prover_log, verifier_log, (vk, publics, link, proof) = self._replay(
            srs, transcript_log, statement
        )
        assert verifier_log == prover_log

        previous = ("challenge", None)
        for kind, label, _ in prover_log:
            if kind == "challenge":
                assert previous[0] == "absorb" or (previous[1], label) in DESIGNED_SQUEEZES, (
                    "challenge %r follows challenge %r with no absorb" % (label, previous[1])
                )
            previous = kind, label
        assert prover_log[-1][:2] == ("challenge", b"u"), "absorbed after u"

        challenges = {label: i for i, (kind, label, _) in enumerate(prover_log) if kind == "challenge"}
        links = link if isinstance(link, tuple) else (() if link is None else (link,))
        statement_bytes = [vk.digest()] + [_encode(w) for w in publics]
        statement_bytes += [_encode(point) for point in links]
        # The key, the public inputs, then each linked point in link order,
        # all before a (and so before beta).
        positions = [_absorbed_at(prover_log, data) for data in statement_bytes]
        assert positions == sorted(positions)
        assert positions[-1] < _absorbed_at(prover_log, _encode(proof.c_a)) < challenges[b"beta"]
        assert {f.name for f in dataclasses.fields(Proof)} == set(BOUND_BY)
        assert [getattr(proof, "abc"[col] + "_omega_bar") is not None for col in range(3)] == [
            col in vk.shifted for col in range(3)
        ]
        for name, bound_by in BOUND_BY.items():
            if getattr(proof, name) is None:  # a wire the key does not open at zeta omega
                continue
            assert _absorbed_at(prover_log, _encode(getattr(proof, name))) < challenges[bound_by], name

    @pytest.mark.parametrize(
        "statement",
        [_unlinked, _linked, _data_linked, _round_gate, _partial_round],
        ids=["unlinked", "linked", "data_linked", "round_gate", "partial_round"],
    )
    def test_every_later_challenge_depends_on_every_absorb(
        self, srs, transcript_log, monkeypatch, statement
    ):
        """The transcript chains its state: flip one byte of any statement
        or proof field a real proof absorbs, replay its schedule, and every
        challenge drawn after that absorb changes, not only the next one."""
        prover_log, _, _ = self._replay(srs, transcript_log, statement)
        monkeypatch.undo()  # replay on the transcript itself, unrecorded

        def challenges(events):
            transcript, drawn = Transcript(b"plonk"), []
            for kind, label, data in events:
                if kind == "absorb":
                    transcript.append_bytes(label, data)
                else:
                    drawn.append(transcript.challenge(label))
            return drawn

        logged = challenges(prover_log)
        assert logged == [int.from_bytes(d, "little") for k, _, d in prover_log if k == "challenge"]
        for i, (kind, label, data) in enumerate(prover_log):
            if kind != "absorb":
                continue
            flipped = prover_log[:i] + [(kind, label, data[:-1] + bytes([data[-1] ^ 1]))]
            got = challenges(flipped + prover_log[i + 1 :])
            drawn = sum(1 for event in prover_log[:i] if event[0] == "challenge")
            assert got[:drawn] == logged[:drawn]
            unchanged = [j for j in range(drawn, len(logged)) if got[j] == logged[j]]
            assert drawn < len(logged) and not unchanged, (label, unchanged)

    def test_tampered_proof_diverges_challenges(self, srs, transcript_log):
        prover_log, _, (vk, publics, _, proof) = self._replay(srs, transcript_log, _unlinked)
        transcript_log.clear()
        tampered = dataclasses.replace(proof, c_a=proof.c_a * 2)
        assert not verify(vk, publics, tampered)
        # The verifier re-derives beta from the tampered commitment, so
        # the challenge stream diverges immediately.
        challenges = [event for event in transcript_log if event[0] == "challenge"]
        assert challenges and challenges[0] != next(e for e in prover_log if e[0] == "challenge")


class TestMypyStrictSubset:
    def test_strict_subset_typechecks(self):
        if shutil.which("mypy") is None and not _module_available("mypy"):
            pytest.skip("mypy not installed (CI-only dependency)")
        proc = subprocess.run(
            [sys.executable, "-m", "mypy"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr


def _module_available(name):
    import importlib.util

    return importlib.util.find_spec(name) is not None
