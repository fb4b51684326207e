"""Cold start: importing the package and the command line, `apply` and
`--help` load no numpy; the numpy-backed names resolve on first use.  Each
test runs in a fresh interpreter, since this process has numpy loaded."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import cuntzlab

SRC = str(Path(cuntzlab.__file__).resolve().parent.parent)


def run_fresh(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_import_cli_apply_and_help_load_no_numpy():
    out = run_fresh("""
        import sys
        import cuntzlab
        import cuntzlab.cli
        assert "numpy" not in sys.modules
        code = cuntzlab.cli.main(["apply", "--perm", "(1 3)",
                                  "--element", "s[1] t[2] + s[2] t[1]"])
        assert code == 0
        assert cuntzlab.cli.main(["--help"]) == 0
        assert cuntzlab.cli.main(["apply", "--help"]) == 0
        print("numpy" in sys.modules)
        """)
    assert out.splitlines()[-1] == "False"


def test_every_public_name_resolves():
    run_fresh("""
        import cuntzlab
        from cuntzlab import product_masa
        assert set(cuntzlab.__all__) <= set(dir(cuntzlab))
        for name in cuntzlab.__all__:
            getattr(cuntzlab, name)  # AttributeError if it does not resolve
        assert cuntzlab.ef_projection is product_masa.ef_projection
        # looked up on each access: a rebinding in the module shows through
        original = product_masa.ef_projection
        product_masa.ef_projection = len
        assert cuntzlab.ef_projection is len
        product_masa.ef_projection = original
        assert "ef_projection" not in vars(cuntzlab)
        assert not hasattr(cuntzlab, "no_such_name")
        """)


def test_depth4_ef_projection_on_the_kernel_matches_sparse():
    run_fresh("""
        import itertools
        import cuntzlab
        from cuntzlab import algebra

        calls = []
        dense_mul = algebra._dense_mul

        def spy(*args):
            calls.append(args[2])
            return dense_mul(*args)

        algebra._dense_mul = spy
        kernel = {}
        for q in itertools.product((1, 2), repeat=4):
            kernel[q] = cuntzlab.ef_projection(q)
            assert algebra._built_terms(kernel[q]) is None, q
        assert calls and max(calls) == 4, calls
        algebra._dense_fits = lambda *args, **kwargs: False
        algebra._unbuilt = lambda elem: False
        made = []
        held_element = algebra._held_element
        algebra._held_element = lambda *args: made.append(args) or held_element(*args)
        for q, p in kernel.items():
            sparse = cuntzlab.ef_projection(q)
            assert algebra._built_terms(sparse) is not None, q
            assert p.terms == sparse.level({0: 4}).terms, q
        assert not made, len(made)
        """)
