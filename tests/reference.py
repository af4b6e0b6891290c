"""Reference code and helpers that only the tests use.

Test files import it as `from reference import ...`: with no `__init__.py`
in `tests/`, pytest puts this directory on `sys.path`.
"""

import os
import subprocess
import sys
from itertools import compress

import numpy as np
from scipy import special
from scipy.cluster.hierarchy import fcluster, linkage

import lrsd
from lrsd.matrix import as_array
from lrsd.sumstats import AlignedPanel, StudySummary


def panel_to_studies(panel: AlignedPanel) -> list[StudySummary]:
    """Re-export a panel as per-study records, dropping imputed entries; each
    p is the two-sided 2*Phi(-|z|), the inverse of `sumstats.p_to_z`."""
    out = []
    for j, name in enumerate(panel.study_names):
        kept = ~panel.imputed_mask[:, j]
        p = 2.0 * special.ndtr(-np.abs(panel.z_matrix.values[kept, j]))
        out.append(StudySummary(name, dict(zip(compress(panel.snp_ids, kept), p.tolist()))))
    return out


def single_linkage_groups(embedding, radius: float) -> list[int]:
    """Group studies whose embedding points chain within `radius`.

    `embedding` is one point per row: a `DenseMatrix` such as `embed_studies`
    returns, or a plain array. Returns one group label per study (labels are
    ordinal by first member).
    """
    pts = as_array(embedding, "embedding")
    if pts.shape[0] == 1:
        return [0]
    raw = fcluster(linkage(pts, method="single"), t=radius, criterion="distance")
    seen: dict[int, int] = {}
    return [seen.setdefault(c, len(seen)) for c in raw]


def run_python(*args, env=None, **kwargs):
    """`python ARGS` in a child process that imports the `lrsd` this process
    imported: the installed package, or `src/` where PYTHONPATH names it.

    The child's environment is that PYTHONPATH entry and `env`, nothing
    else; `kwargs` go to `subprocess.run`, which captures both streams.
    """
    where = os.path.dirname(os.path.dirname(os.path.abspath(lrsd.__file__)))
    return subprocess.run([sys.executable, *map(str, args)], capture_output=True,
                          env={"PYTHONPATH": where, **(env or {})}, timeout=120, **kwargs)
