"""Reference code that only the tests use.

Test files import it as `from reference import ...`: with no `__init__.py`
in `tests/`, pytest puts this directory on `sys.path`.
"""

from itertools import compress

import numpy as np
from scipy import special
from scipy.cluster.hierarchy import fcluster, linkage

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
