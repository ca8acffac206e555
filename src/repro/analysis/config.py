"""zklint configuration: lexicons, module scopes and allowlists.

Everything a rule needs to know about *this* repository lives here, in
one place, so tightening a rule is a config edit with a reviewable diff
rather than a change buried in rule logic.  Paths in this module are
package-relative (``plonk/prover.py``, not ``src/repro/plonk/prover.py``)
— see :func:`repro.analysis.engine.module_rel`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class AnalysisConfig:
    """Repository-specific knobs for the shipped rule catalogue."""

    # ----- DET-001 --------------------------------------------------------
    #: Module prefixes whose code must be deterministic: everything on the
    #: prover/verifier/transcript path.  Telemetry, the chain simulator,
    #: the cost model and the apps layer are intentionally outside.
    deterministic_scopes: tuple[str, ...] = (
        "plonk/",
        "groth16/",
        "kzg/",
        "curve/",
        "field/",
        "r1cs/",
        "gadgets/",
        "primitives/",
        "backend/",
    )
    #: Designated sampling sites: the one CSPRNG wrapper every other
    #: module must go through, plus the commitment scheme whose hiding
    #: property *requires* fresh randomness.
    deterministic_allowed_files: frozenset[str] = frozenset(
        {"field/fr.py", "primitives/commitment.py"}
    )
    #: Call targets considered nondeterministic (dotted-name prefixes).
    nondeterministic_calls: tuple[str, ...] = (
        "random.",
        "secrets.",
        "uuid.",
        "numpy.random.",
        "np.random.",
        "time.time",
        "time.monotonic",
        "time.perf_counter",
        "datetime.now",
        "datetime.utcnow",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "os.urandom",
    )
    #: Module imports banned outright inside the deterministic scope.
    #: ``repro.faults`` is measurement-layer machinery: its own seeded
    #: draws are fine where they live (``faults/`` is outside the scope),
    #: but importing the injector into a proving-path module would let a
    #: fault schedule perturb proof generation.
    nondeterministic_imports: frozenset[str] = frozenset(
        {"random", "secrets", "uuid", "numpy.random", "repro.faults"}
    )

    # ----- FLD-001 --------------------------------------------------------
    #: Directories allowed to use floats: curve/field host the (integer)
    #: arithmetic but also document magnitudes; costmodel and apps are
    #: measurement / ML layers; telemetry measures wall-clock seconds.
    float_allowed_dirs: tuple[str, ...] = (
        "curve/",
        "field/",
        "costmodel/",
        "apps/",
        "telemetry/",
        # The fault plane is measurement-layer code like telemetry; its
        # probabilities are integer PPM by design, but overhead ratios in
        # docstrings/diagnostics may be float-typed.
        "faults/",
        # The service plane deals in wall-clock deadlines, latency
        # percentiles and queue budgets — measurement-layer floats, never
        # field elements.
        "service/",
        # The load simulator reports tx/s and latency percentiles —
        # measurement-layer floats; its *decisions* (traffic draws,
        # fees, churn) are all-integer for exact replay.
        "loadsim/",
    )
    #: The fixed-point boundary: the only modules that may touch floats
    #: while producing field elements, because converting real-valued
    #: inputs is their entire job.
    float_allowed_files: frozenset[str] = frozenset(
        {"gadgets/fixedpoint.py", "gadgets/linalg.py", "core/predicates.py"}
    )
    #: Integer literals at least this large used as a modulus are assumed
    #: to be a hand-inlined BN254 modulus (both BN254 moduli are ~2**254).
    literal_modulus_floor: int = 1 << 100

    # ----- ENG-001 --------------------------------------------------------
    #: Protocol layers that must route kernels through the engine.
    protocol_scopes: tuple[str, ...] = ("kzg/", "plonk/", "groth16/")
    #: Kernel modules protocol code must not import directly.
    banned_kernel_modules: frozenset[str] = frozenset(
        {"repro.field.ntt", "repro.curve.msm", "repro.curve.pairing"}
    )
    #: Names importable from banned kernel modules anyway: pure constants
    #: with no execution strategy attached.
    allowed_kernel_names: frozenset[str] = frozenset({"COSET_SHIFT"})
    #: Engine modules whose public kernels must record telemetry.
    backend_scopes: tuple[str, ...] = ("backend/",)
    #: Call leaf-names that count as *timing* a kernel (the duration half
    #: of the count-and-time contract; see ``telemetry.kernel_timer``).
    kernel_timer_calls: frozenset[str] = frozenset({"kernel_timer"})
    #: The public kernel surface of :class:`repro.backend.engine.Engine`.
    kernel_methods: frozenset[str] = frozenset(
        {
            "ntt",
            "intt",
            "coset_ntt",
            "coset_intt",
            "ntt_batch",
            "msm_jac",
            "msm_jac_g2",
            "msm_srs",
            "msm_g1_fixed",
            "fixed_base_mul_jac",
            "pairing",
            "pairing_check",
            "batch_inverse",
        }
    )

    # ----- FS-001 ---------------------------------------------------------
    #: Methods that absorb data into a Fiat-Shamir transcript.
    transcript_absorb_methods: frozenset[str] = frozenset(
        {"append_bytes", "append_scalar", "append_point"}
    )
    #: Methods that squeeze a challenge out of the transcript.
    transcript_challenge_methods: frozenset[str] = frozenset({"challenge"})


DEFAULT_CONFIG = AnalysisConfig()
