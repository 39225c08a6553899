"""Guard on the private SciPy extension behind ``segment_sum`` and the
similarity score.

``segment_sum`` runs SciPy's compiled ``csr_matvecs``, and
``similarity_scores`` its ``csr_elmul_csr`` and ``csr_matvec``, all
from ``scipy/sparse/_sparsetools``, which is loaded by itself:
``import scipy.sparse`` would add ~22 MiB of RSS to every process.  The
extension is private SciPy API, so a SciPy that moves or renames it
fails these tests by name.  Each case runs in a fresh interpreter,
because what it checks is what gets imported.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

AGGREGATE = """
import numpy as np
from repro.graphs.snapshot import build_csr, segment_sum
indptr, indices = build_csr(3, np.array([0, 1, 1]), np.array([1, 0, 2]))
out = segment_sum(indptr, indices, np.arange(6, dtype=np.float32).reshape(3, 2))
assert out.tolist() == [[2, 3], [4, 6], [0, 0]], out
"""

SCORE = """
import numpy as np
from repro.analysis.similarity import similarity_scores
from repro.graphs.snapshot import CSRSnapshot
s0 = CSRSnapshot.from_edges(4, np.array([[0, 1], [0, 2]]), dim=2)
features = np.zeros((4, 2), dtype=np.float32)
features[1] = 1.0  # vertex 1 changes: the one unstable neighbour
s1 = CSRSnapshot.from_edges(4, np.array([[0, 1], [0, 3]]), features)
z = np.ones((4, 2), dtype=np.float32)
theta = similarity_scores([z, z], [s0, s1], np.arange(4))  # merged here
assert theta.tolist() == [[0.0, 1.0, 0.0, 0.0]], theta
"""


def run_python(code: str, *path: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(str(p) for p in (*path, SRC))
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_the_kernel_loads_without_importing_scipy():
    done = run_python(AGGREGATE + SCORE + """
import sys
import repro.analysis.similarity as similarity
import repro.graphs.snapshot as snapshot
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert loaded == ["scipy.sparse._sparsetools"], loaded
kernel = sys.modules["scipy.sparse._sparsetools"]
assert snapshot._sparsetools is similarity._sparsetools is kernel
for name in ("csr_matvecs", "csr_elmul_csr", "csr_matvec"):  # by name
    assert getattr(kernel, name).__self__ is kernel
assert snapshot._load_csr_kernel() is kernel  # once, not per call

import scipy.sparse
from scipy.sparse import _sparsetools
assert _sparsetools is kernel  # reused, not loaded twice
a = scipy.sparse.csr_matrix(np.eye(3, dtype=np.float32))
assert (a @ np.ones(3, np.float32)).tolist() == [1, 1, 1]
""")
    assert done.returncode == 0, done.stderr


def test_a_missing_extension_raises_import_error_naming_the_path(tmp_path):
    """A SciPy without the extension is refused at import, with the path
    that was looked for; there is no slower fallback kernel."""
    (tmp_path / "scipy" / "sparse").mkdir(parents=True)
    (tmp_path / "scipy" / "__init__.py").write_text("")
    done = run_python(AGGREGATE, tmp_path)
    assert done.returncode != 0
    assert "ImportError" in done.stderr
    assert str(tmp_path / "scipy" / "sparse" / "_sparsetools") in done.stderr
