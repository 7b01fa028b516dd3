"""PKL001 — kernels handed to the sharded engine must be picklable.

A :class:`~repro.simulation.scheduler.SweepPoint`'s kernel is shipped to
worker processes by the sweep scheduler; lambdas, closures, and locally
defined functions fail to pickle — but only at runtime, only with
``workers > 1``, which is exactly the configuration CI's ``workers=1`` fast
paths never exercise.  This rule makes the mistake fail lint instead.
"""

from __future__ import annotations

import ast

from repro.analysis import contracts
from repro.analysis.core import ModuleContext, Rule


def _kernel_argument(node: ast.Call, position: int) -> ast.AST | None:
    """The kernel argument of a call — positional ``position`` or
    ``kernel=`` — if identifiable (a ``*args`` splat hides it)."""
    for keyword in node.keywords:
        if keyword.arg == "kernel":
            return keyword.value
    leading = node.args[: position + 1]
    if len(leading) > position and not any(
        isinstance(argument, ast.Starred) for argument in leading
    ):
        return node.args[position]
    return None


class PicklableKernelRule(Rule):
    """PKL001 — no lambdas/local functions as sharded kernels."""

    id = "PKL001"
    title = "picklable sharded kernels"
    contract = (
        "SweepPoint kernels cross process boundaries: module-level "
        "functions or dataclass instances only — no lambdas, no locally "
        "defined functions"
    )
    node_types = (ast.Call, ast.FunctionDef, ast.AsyncFunctionDef)

    def _state(self, ctx: ModuleContext) -> dict:
        return ctx.rule_state.setdefault(self.id, {"nested": set(), "calls": []})

    def visit(self, ctx: ModuleContext, node: ast.AST) -> None:
        state = self._state(ctx)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if ctx.in_function:
                state["nested"].add(node.name)
            return
        assert isinstance(node, ast.Call)
        func = node.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name not in contracts.SHARDED_KERNEL_ARGS:
            return
        kernel = _kernel_argument(node, contracts.SHARDED_KERNEL_ARGS[name])
        if kernel is not None:
            state["calls"].append(kernel)

    def finish(self, ctx: ModuleContext) -> None:
        state = self._state(ctx)
        nested = state["nested"]
        for kernel in state["calls"]:
            if isinstance(kernel, ast.Lambda):
                ctx.report(
                    kernel,
                    self.id,
                    "lambda passed as a sharded kernel cannot be pickled "
                    "into worker processes; use a module-level function or "
                    "a picklable instance (e.g. a frozen dataclass)",
                )
            elif isinstance(kernel, ast.Name) and kernel.id in nested:
                ctx.report(
                    kernel,
                    self.id,
                    f"locally defined function {kernel.id!r} passed as a "
                    f"sharded kernel cannot be pickled into worker "
                    f"processes; lift it to module level",
                )
            elif isinstance(kernel, ast.Call):
                # functools.partial(...) and friends: inspect direct args.
                wrapped = list(kernel.args) + [
                    keyword.value for keyword in kernel.keywords
                ]
                for argument in wrapped:
                    if isinstance(argument, ast.Lambda) or (
                        isinstance(argument, ast.Name) and argument.id in nested
                    ):
                        ctx.report(
                            argument,
                            self.id,
                            "sharded kernel wraps a lambda/locally defined "
                            "function, which cannot be pickled into worker "
                            "processes; lift it to module level",
                        )


__all__ = ["PicklableKernelRule"]
