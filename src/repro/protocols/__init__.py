"""Cache coherence protocol specifications.

Every protocol is a :class:`~repro.core.protocol.ProtocolSpec`
implementing the FSM model of the paper's Definition 1.  The zoo covers
the paper's running example (Illinois) and the remaining Archibald &
Baer schemes the companion tech report verifies, plus textbook MSI and
MOESI baselines.  :mod:`repro.protocols.mutations` derives deliberately
broken variants used to exercise the verifier's bug detection.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "berkeley": ("BerkeleyProtocol",),
        "dragon": ("DragonProtocol",),
        "firefly": ("FireflyProtocol",),
        "dsl": ("DslError", "DslProtocol", "load_protocol", "parse_protocol"),
        "illinois": ("IllinoisProtocol",),
        "lock_msi": ("LockMsiProtocol",),
        "mesif": ("MesifProtocol",),
        "moesi": ("MoesiProtocol",),
        "msi": ("MsiProtocol",),
        "perturb": (
            "PerturbedProtocol",
            "Perturbation",
            "all_perturbations",
            "criticality_profile",
        ),
        "registry": ("PROTOCOLS", "all_protocols", "get_protocol", "protocol_names"),
        "synapse": ("SynapseProtocol",),
        "write_once": ("WriteOnceProtocol",),
    },
)
