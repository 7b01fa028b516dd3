"""DTY001 — hot-path array allocations carry an explicit dtype.

The dtype discipline of the bit-packed kernels: they are bit-identical to
the loop oracle only because every array's dtype is chosen, not inferred —
an implicit float64 allocation in the hot path silently octuples memory
traffic and can shift comparison semantics.  Kernel-scope ``np.zeros/empty/ones/full/array`` calls
must therefore spell their dtype (positionally or as ``dtype=``).
"""

from __future__ import annotations

import ast

from repro.analysis import contracts
from repro.analysis.core import ModuleContext, Rule
from repro.analysis.project import ParsedModule

#: Positional-argument count at which dtype has been passed positionally
#: (``np.zeros(shape, np.uint8)``; ``np.full(shape, fill, np.uint8)``).
_POSITIONAL_DTYPE_ARITY = {
    "numpy.zeros": 2,
    "numpy.empty": 2,
    "numpy.ones": 2,
    "numpy.array": 2,
    "numpy.full": 3,
}


class ExplicitDtypeRule(Rule):
    """DTY001 — no dtype-less numpy allocations in kernel code."""

    id = "DTY001"
    title = "explicit dtypes on hot-path allocations"
    contract = (
        "kernel-scope np.zeros/empty/ones/full/array calls must pass an "
        "explicit dtype; implicit float64 inference breaks the uint8/uint64 "
        "dtype discipline of the packed kernels"
    )
    node_types = (ast.Call,)

    def applies_to(self, module: ParsedModule) -> bool:
        return contracts.in_kernel_scope(module.rel)

    def visit(self, ctx: ModuleContext, node: ast.Call) -> None:
        dotted = ctx.dotted_name(node.func)
        if dotted not in contracts.DTYPE_ALLOCATORS:
            return
        if len(node.args) >= _POSITIONAL_DTYPE_ARITY[dotted]:
            return
        for keyword in node.keywords:
            if keyword.arg == "dtype" or keyword.arg is None:  # dtype= or **kw
                return
        short = dotted.replace("numpy.", "np.")
        ctx.report(
            node,
            self.id,
            f"{short}() without an explicit dtype lets numpy infer one "
            f"(usually float64) in kernel code; spell the dtype the hot "
            f"path actually needs",
        )


__all__ = ["ExplicitDtypeRule"]
