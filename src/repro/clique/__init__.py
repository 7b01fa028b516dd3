"""The paper's primary contribution: the on-chip Clique decoder.

The Clique decoder (Section 4 of the paper) inspects, for every *active*
ancilla (syndrome bit set), the parity of the same-type ancillas in its local
clique.  Odd parity means the active ancilla is explained by isolated single
data errors and the correction is purely local; even parity (modulo the
boundary special cases) means a longer error chain is present and the
syndrome must be shipped to the off-chip complex decoder.
"""

from repro.clique.cascade import CascadeResult, DecoderCascade
from repro.clique.cliques import Clique, build_cliques
from repro.clique.decoder import CliqueDecision, CliqueDecoder, clique_rule
from repro.clique.measurement_filter import PersistenceFilter

__all__ = [
    "Clique",
    "build_cliques",
    "CascadeResult",
    "CliqueDecoder",
    "CliqueDecision",
    "clique_rule",
    "DecoderCascade",
    "PersistenceFilter",
]
