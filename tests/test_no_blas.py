"""Every bound has one set of bits on every machine.

numpy's OpenBLAS picks its kernels from the CPU at run time and splits long
products across threads, so a BLAS call can round differently from one
machine, or one thread count, to the next.  The library makes none: every
value is summed by numpy's own loops, whose order is fixed for a given
numpy.  One test reads each module's syntax tree for a BLAS-backed call;
the other hashes a battery of bounds in child processes that force
OpenBLAS onto other kernels and thread counts, and asks for one hash.
"""

import ast
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import divball

PACKAGE = sorted(Path(divball.__file__).parent.glob("*.py"))

# numpy names that reach BLAS: dot products, matrix products, contractions.
BLAS_NAMES = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum"}


def blas_calls(source: str) -> list[str]:
    """Each BLAS-backed call or name in ``source``, with its line: a call
    named in ``BLAS_NAMES`` (a function or a ``.dot(`` method), anything
    read from or imported out of ``numpy.linalg``, and the ``@`` operator."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in BLAS_NAMES:
                found.append((node.lineno, name))
        elif isinstance(node, ast.Attribute) and node.attr == "linalg":
            found.append((node.lineno, "linalg"))
        elif isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names if "linalg" in a.name]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [a.name for a in node.names]
            if any("linalg" in name for name in names) or any(a.name in BLAS_NAMES for a in node.names):
                found.append((node.lineno, f"from {node.module}"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
    return [f"{name} (line {line})" for line, name in sorted(found)]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: path.name)
def test_module_makes_no_blas_call(path):
    assert blas_calls(path.read_text(encoding="utf-8")) == []


def test_check_flags_every_blas_form():
    source = (
        "import numpy as np\nimport numpy.linalg\nfrom numpy.linalg import norm\n"
        "from numpy import einsum\nnp.dot(a, b)\na.dot(b)\nnp.vdot(a, b)\nnp.inner(a, b)\n"
        "np.matmul(a, b)\nnp.tensordot(a, b)\neinsum('i,i', a, b)\nnp.linalg.norm(a)\n"
        "a @ b\na @= b\nnp.multiply(a, b).sum()\nnp.add.reduce(a)\n"
    )
    assert blas_calls(source) == [
        "numpy.linalg (line 2)", "from numpy.linalg (line 3)", "from numpy (line 4)",
        "dot (line 5)", "dot (line 6)", "vdot (line 7)", "inner (line 8)", "matmul (line 9)",
        "tensordot (line 10)", "einsum (line 11)", "linalg (line 12)", "@ (line 13)",
        "@ (line 14)",
    ]


# A child's battery: untied and tied payoffs at sizes from 2 to 10**5, each
# side of both families at five radii, and the center's expectation.
BATTERY = """
import hashlib
import numpy as np
import divball as db

digest = hashlib.sha256()
rng = np.random.default_rng(10)
for n in (2, 3, 5, 8, 13, 40, 300, 20000, 100000):
    p = rng.dirichlet(np.ones(n))
    for f in (rng.uniform(-1.0, 1.0, n), rng.integers(-3, 4, n).astype(float)):
        pmf, obj = db.validate(p, f, "chi2")
        digest.update(np.float64(db.expectation(pmf, obj)).tobytes())
        for family in ("tv", "chi2"):
            problem = db.Problem(pmf, obj, family)
            for delta in (0.0, 1e-6, 0.01, 0.3, 0.9):
                for res in (problem.lower(delta), problem.upper(delta)):
                    digest.update(np.float64(res.value).tobytes())
                    digest.update(f"{res.active_index} {res.branch}".encode())
                    digest.update(res.minimizer.weights.tobytes())
print(digest.hexdigest())
"""

# No OPENBLAS_CORETYPE is the kernel OpenBLAS picks for this CPU.
KERNELS = (None, "Haswell", "Sandybridge", "Prescott")


def openblas_linked() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return "openblas" in str(blas.get("name", "")).lower()


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"), reason="OpenBLAS x86-64 kernels")
@pytest.mark.skipif(not openblas_linked(), reason="numpy is not linked to OpenBLAS")
def test_bounds_hash_alike_under_every_blas_kernel_and_thread_count():
    src = str(Path(divball.__file__).resolve().parents[1])
    base = {k: v for k, v in os.environ.items() if not k.startswith("OPENBLAS_")}
    children = {}
    for kernel in KERNELS:
        for threads in ("1", "2"):
            env = dict(base, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
            if kernel is not None:
                env["OPENBLAS_CORETYPE"] = kernel
            children[kernel, threads] = subprocess.Popen(
                [sys.executable, "-W", "ignore", "-c", BATTERY],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
            )
    hashes = {}
    for setting, child in children.items():
        out, err = child.communicate(timeout=120)
        # Killed by a signal: a kernel whose instructions this CPU lacks.
        if child.returncode < 0:
            continue
        assert child.returncode == 0, (setting, err)
        hashes[setting] = out.strip()
    assert len({kernel for kernel, _ in hashes}) >= 2, hashes
    assert len(set(hashes.values())) == 1, hashes
