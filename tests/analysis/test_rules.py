"""Per-rule good/bad fixture tests for the module-local lint rules.

Every bad fixture pins *exactly one* finding with its rule id and line
(the acceptance contract of the linter: seeding a violation yields one
finding with correct coordinates); every good fixture pins zero.
"""

from __future__ import annotations

from repro.analysis import lint_source

#: Default virtual locations: kernel scope and non-kernel scope.
KERNEL = "repro/simulation/snippet.py"
OUTSIDE = "repro/experiments/snippet.py"


def findings_of(source: str, rel: str) -> list[tuple[str, int]]:
    return [(f.rule, f.line) for f in lint_source(source, rel=rel)]


def assert_one(source: str, rel: str, rule: str, line: int) -> None:
    assert findings_of(source, rel) == [(rule, line)]


def assert_clean(source: str, rel: str) -> None:
    assert findings_of(source, rel) == []


class TestDet001GlobalRng:
    def test_np_random_seed_is_flagged(self):
        assert_one("import numpy as np\nnp.random.seed(3)\n", OUTSIDE, "DET001", 2)

    def test_aliasing_does_not_hide_the_call(self):
        assert_one(
            "from numpy import random\nrandom.shuffle([1, 2])\n",
            OUTSIDE,
            "DET001",
            2,
        )
        assert_one(
            "import numpy.random as npr\nnpr.rand(3)\n", OUTSIDE, "DET001", 2
        )

    def test_unseeded_default_rng_is_flagged(self):
        assert_one(
            "from numpy.random import default_rng\nrng = default_rng()\n",
            OUTSIDE,
            "DET001",
            2,
        )

    def test_seeded_default_rng_passes(self):
        assert_clean("import numpy as np\nrng = np.random.default_rng(7)\n", OUTSIDE)

    def test_explicit_generator_machinery_passes(self):
        assert_clean(
            "import numpy as np\n"
            "ss = np.random.SeedSequence(7)\n"
            "rng = np.random.Generator(np.random.PCG64(ss))\n",
            OUTSIDE,
        )

    def test_stdlib_random_is_flagged(self):
        assert_one("import random\nrandom.random()\n", OUTSIDE, "DET001", 2)

    def test_unseeded_stdlib_random_instance_is_flagged(self):
        assert_one("import random\nr = random.Random()\n", OUTSIDE, "DET001", 2)

    def test_seeded_stdlib_random_instance_passes(self):
        assert_clean("import random\nr = random.Random(7)\n", OUTSIDE)

    def test_the_rng_module_itself_is_exempt(self):
        assert_clean("import numpy as np\nnp.random.seed(3)\n", "repro/noise/rng.py")

    def test_local_names_are_not_mistaken_for_the_module(self):
        # A local variable that happens to be called `random` is not an
        # import binding; the alias resolver must return None for it.
        assert_clean("random = object()\nrandom.random()\n", OUTSIDE)


class TestDet002WallClock:
    def test_time_time_in_kernel_scope_is_flagged(self):
        assert_one(
            "import time\n\ndef kernel():\n    return time.time()\n",
            KERNEL,
            "DET002",
            4,
        )

    def test_duration_probes_pass(self):
        assert_clean(
            "import time\nt0 = time.monotonic()\nt1 = time.perf_counter()\n",
            KERNEL,
        )

    def test_outside_kernel_scope_is_out_of_scope(self):
        assert_clean("import time\ntime.time()\n", OUTSIDE)

    def test_bitplane_module_counts_as_kernel_scope(self):
        assert_one("import time\ntime.time()\n", "repro/bitplane.py", "DET002", 2)

    def test_uuid_and_os_urandom_are_flagged(self):
        assert_one("import uuid\nuuid.uuid4()\n", KERNEL, "DET002", 2)
        assert_one("import os\nos.urandom(8)\n", KERNEL, "DET002", 2)

    def test_argless_seedsequence_is_flagged(self):
        assert_one(
            "import numpy as np\nss = np.random.SeedSequence()\n",
            KERNEL,
            "DET002",
            2,
        )

    def test_seeded_seedsequence_passes(self):
        assert_clean("import numpy as np\nss = np.random.SeedSequence(7)\n", KERNEL)


class TestDet003SetOrder:
    def test_for_loop_over_set_call_is_flagged(self):
        assert_one(
            "def f(xs):\n    for x in set(xs):\n        pass\n", KERNEL, "DET003", 2
        )

    def test_for_loop_over_set_literal_is_flagged(self):
        assert_one("for x in {1, 2}:\n    pass\n", KERNEL, "DET003", 1)

    def test_list_over_set_comprehension_is_flagged(self):
        assert_one(
            "def f(xs):\n    return list({x for x in xs})\n", KERNEL, "DET003", 2
        )

    def test_set_union_operands_are_recognised(self):
        assert_one(
            "def f(a, b):\n    for x in set(a) | set(b):\n        pass\n",
            KERNEL,
            "DET003",
            2,
        )

    def test_sorted_set_passes(self):
        assert_clean(
            "def f(a, b):\n"
            "    for x in sorted(set(a)):\n"
            "        pass\n"
            "    return sorted(set(a) | set(b))\n",
            KERNEL,
        )

    def test_outside_kernel_scope_is_out_of_scope(self):
        assert_clean("def f(xs):\n    return list(set(xs))\n", OUTSIDE)


class TestImp001LazyHeavyImports:
    def test_top_level_import_is_flagged_everywhere(self):
        assert_one("import networkx\n", OUTSIDE, "IMP001", 1)
        assert_one("import networkx as nx\n", KERNEL, "IMP001", 1)

    def test_submodule_and_from_forms_are_flagged(self):
        assert_one("import matplotlib.pyplot as plt\n", OUTSIDE, "IMP001", 1)
        assert_one("from matplotlib import pyplot\n", OUTSIDE, "IMP001", 1)
        assert_one("from networkx.algorithms import matching\n", OUTSIDE, "IMP001", 1)

    def test_function_local_import_passes(self):
        assert_clean(
            "def plot():\n    import matplotlib.pyplot as plt\n    return plt\n",
            OUTSIDE,
        )

    def test_type_checking_import_passes(self):
        assert_clean(
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    import networkx\n",
            OUTSIDE,
        )

    def test_light_imports_pass(self):
        assert_clean("import numpy as np\nfrom pathlib import Path\n", OUTSIDE)


class TestDty001ExplicitDtype:
    def test_dtypeless_zeros_in_kernel_scope_is_flagged(self):
        assert_one("import numpy as np\nbuf = np.zeros(4)\n", KERNEL, "DTY001", 2)

    def test_from_import_alias_is_resolved(self):
        assert_one("from numpy import zeros\nbuf = zeros(4)\n", KERNEL, "DTY001", 2)

    def test_dtype_keyword_passes(self):
        assert_clean(
            "import numpy as np\nbuf = np.zeros(4, dtype=np.uint8)\n", KERNEL
        )

    def test_positional_dtype_passes(self):
        assert_clean("import numpy as np\nbuf = np.zeros(4, np.uint8)\n", KERNEL)

    def test_full_needs_three_positionals(self):
        assert_one(
            "import numpy as np\nbuf = np.full((2, 2), 0)\n", KERNEL, "DTY001", 2
        )
        assert_clean("import numpy as np\nbuf = np.full((2, 2), 0, np.uint8)\n", KERNEL)

    def test_kwargs_splat_is_given_the_benefit_of_the_doubt(self):
        assert_clean(
            "import numpy as np\n\ndef alloc(**kw):\n    return np.zeros(4, **kw)\n",
            KERNEL,
        )

    def test_outside_kernel_scope_is_out_of_scope(self):
        assert_clean("import numpy as np\nbuf = np.zeros(4)\n", OUTSIDE)


class TestPkl001PicklableKernels:
    def test_lambda_kernel_is_flagged(self):
        assert_one(
            "from repro.simulation.scheduler import SweepPoint\n"
            "SweepPoint(\"p\", lambda n, rng: 0, trials=10)\n",
            OUTSIDE,
            "PKL001",
            2,
        )

    def test_lambda_via_kernel_keyword_is_flagged(self):
        assert_one(
            "from repro.simulation.scheduler import SweepPoint\n"
            "SweepPoint(point_id=\"p\", trials=10, kernel=lambda n, rng: 0)\n",
            OUTSIDE,
            "PKL001",
            2,
        )

    def test_locally_defined_kernel_is_flagged(self):
        assert_one(
            "from repro.simulation.scheduler import SweepPoint\n"
            "\n"
            "def outer():\n"
            "    def kernel(n, rng):\n"
            "        return 0\n"
            "    return SweepPoint(\"p\", kernel, trials=10)\n",
            OUTSIDE,
            "PKL001",
            6,
        )

    def test_partial_wrapping_a_local_function_is_flagged(self):
        assert_one(
            "import functools\n"
            "from repro.simulation.scheduler import SweepPoint\n"
            "\n"
            "def outer():\n"
            "    def kernel(n, rng, scale):\n"
            "        return 0\n"
            "    bound = functools.partial(kernel, scale=2)\n"
            "    return SweepPoint(\"p\", functools.partial(kernel, 2), trials=9)\n",
            OUTSIDE,
            "PKL001",
            8,
        )

    def test_module_level_kernel_passes(self):
        assert_clean(
            "from repro.simulation.scheduler import SweepPoint\n"
            "\n"
            "def kernel(n, rng):\n"
            "    return 0\n"
            "\n"
            "def main():\n"
            "    return SweepPoint(\"p\", kernel, trials=10)\n",
            OUTSIDE,
        )

    def test_parent_side_hooks_may_be_local(self):
        # finalize / on_complete / successes_of run in the parent process
        # and never pickle: only the kernel argument is checked.
        assert_clean(
            "from repro.simulation.scheduler import SweepPoint\n"
            "\n"
            "def kernel(n, rng):\n"
            "    return 0\n"
            "\n"
            "def main(cache):\n"
            "    def finalize(outcome):\n"
            "        return outcome\n"
            "    return SweepPoint(\n"
            "        \"p\", kernel, 10, finalize=finalize, on_complete=lambda r: r\n"
            "    )\n",
            OUTSIDE,
        )

    def test_splatted_arguments_are_given_the_benefit_of_the_doubt(self):
        assert_clean(
            "from repro.simulation.scheduler import SweepPoint\n"
            "\n"
            "def main(args):\n"
            "    return SweepPoint(*args, trials=10)\n",
            OUTSIDE,
        )

    def test_attribute_spelled_constructor_is_recognised(self):
        assert_one(
            "from repro.simulation import scheduler\n"
            "scheduler.SweepPoint(\"p\", lambda n, rng: 0, trials=10)\n",
            OUTSIDE,
            "PKL001",
            2,
        )