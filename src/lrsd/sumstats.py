"""Ingestion of per-study summary statistics into an aligned z-score panel.

Each study is a TSV of (snp, p) records. Studies are intersected on SNPs
covered by at least k of them, missing entries are imputed at the null
(p = 0.5, i.e. z = 0), and two-sided p-values are converted to non-negative
z-score magnitudes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import compress, repeat
from pathlib import Path

import numpy as np

from .matrix import DenseMatrix, write_mask, write_tsv

P_CLAMP = 1e-300   # smaller p-values are clamped here (z ~ 37) and counted


class SumstatsParseError(ValueError):
    """A study file violates the (snp, p) contract; message names the line."""


@dataclass(frozen=True)
class StudySummary:
    study_name: str
    records: dict[str, float]   # snp id -> p-value in (0, 1]


@dataclass(frozen=True)
class AlignedPanel:
    snp_ids: tuple[str, ...]
    study_names: tuple[str, ...]
    z_matrix: DenseMatrix       # SNPs x studies, z-score magnitudes
    imputed_mask: np.ndarray    # True where the p-value was missing
    n_clamped: int = 0          # p-values below P_CLAMP that were clamped


def p_to_z(p):
    """Two-sided z magnitude Phi^{-1}(1 - p/2) of each p, computed stably in the tail.

    The one home of the p-to-z rule. Takes a scalar (giving an np.float64) or
    an array, elementwise. Raises ValueError naming the first p, in array
    order, outside (0, 1] (NaN included); p below P_CLAMP is taken as P_CLAMP.
    A p of 1 gives +0.0.
    """
    from scipy import special   # here, so that commands without p-values skip its import

    p = np.asarray(p, dtype=float)
    bad = ~((p > 0.0) & (p <= 1.0))
    if bad.any():
        raise ValueError(f"p-value must be in (0, 1], got {float(p[bad].flat[0])}")
    return 0.0 - special.ndtri(np.maximum(p, P_CLAMP) / 2.0)   # p = 1 gives +0.0, not -0.0


def z_to_p(z):
    """Inverse of p_to_z: two-sided p-value 2*Phi(-|z|) of each z, elementwise."""
    from scipy import special

    return 2.0 * special.ndtr(-np.abs(z))


def parse_study(path, study_name: str | None = None) -> StudySummary:
    """Parse one study TSV with header columns `snp` and `p` (extras ignored).

    The file is read as UTF-8; a leading byte-order mark (BOM) is skipped.
    """
    path = Path(path)
    name = study_name if study_name is not None else path.stem
    with open(path, encoding="utf-8-sig") as fh:
        header_line = fh.readline().rstrip("\n")
        if not header_line:
            raise SumstatsParseError(f"{path}: empty file")
        header = [h.strip().lower() for h in header_line.split("\t")]
        try:
            snp_col, p_col = header.index("snp"), header.index("p")
        except ValueError:
            raise SumstatsParseError(
                f"{path}: header must contain 'snp' and 'p' columns, got {header}"
            ) from None
        body = fh.read()
    records = _bulk_records(body, len(header), snp_col, p_col)
    if records is None:
        records = _scan_records(path, body.split("\n"), snp_col, p_col)
    return StudySummary(study_name=name, records=records)


def _bulk_records(body, width, snp_col, p_col) -> dict[str, float] | None:
    """Records of a body the bulk split takes cleanly: every row `width`
    fields, every p-value in (0, 1], every SNP id non-empty and none twice.
    None otherwise."""
    if body and not body.endswith("\n"):
        body += "\n"
    fields = _split_fields(body, width)
    if fields is None:
        return None
    n = len(fields) // width
    try:
        p = np.fromiter(map(float, fields[p_col::width]), float, n)
    except ValueError:
        return None
    if not np.all((p > 0.0) & (p <= 1.0)):   # NaN fails both
        return None
    records = dict(zip(map(str.strip, fields[snp_col::width]), p.tolist()))
    return records if len(records) == n and "" not in records else None


def _split_fields(text: str, width: int) -> list[str] | None:
    """All tab-separated fields of `text`, row-major, in one split.

    `text` is whole lines, each ending in a newline. Returns None unless
    every line holds exactly `width` fields; the caller then falls back to
    its line scan, which words the error. A blank line fails this count or
    the p-value parse.
    """
    raw = np.frombuffer(text.encode(), np.uint8)
    tabs, ends = np.flatnonzero(raw == 9), np.flatnonzero(raw == 10)
    # line k is whole when exactly (k + 1) * (width - 1) tabs precede its end
    per_line = width - 1
    if len(tabs) != per_line * len(ends) or not np.array_equal(
        np.searchsorted(tabs, ends), np.arange(1, len(ends) + 1) * per_line
    ):
        return None
    fields = text.replace("\n", "\t").split("\t")
    fields.pop()   # the empty field after the last newline
    return fields


def _scan_records(path, lines, snp_col, p_col) -> dict[str, float]:
    """Per-line reference parse of the body; errors name the line."""
    records: dict[str, float] = {}
    for lineno, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) <= max(snp_col, p_col):
            raise SumstatsParseError(f"{path}:{lineno}: too few columns")
        snp = fields[snp_col].strip()
        if not snp:
            raise SumstatsParseError(f"{path}:{lineno}: empty SNP id")
        try:
            p = float(fields[p_col])
        except ValueError:
            raise SumstatsParseError(
                f"{path}:{lineno}: unparseable p-value {fields[p_col]!r}"
            ) from None
        if not 0.0 < p <= 1.0:
            raise SumstatsParseError(
                f"{path}:{lineno}: p-value {p} outside (0, 1]"
            )
        if snp in records:
            raise SumstatsParseError(f"{path}:{lineno}: duplicate SNP id {snp!r}")
        records[snp] = p
    return records


def _check_coverage(k: int, n_studies: int) -> None:
    """Refuse a minimum coverage k outside 1..n_studies."""
    if not 1 <= k <= n_studies:
        raise ValueError(f"min coverage k={k} outside 1..{n_studies}")


def align(studies: list[StudySummary], k: int) -> AlignedPanel:
    """Intersect studies on SNPs covered by >= k of them and build z-scores.

    Missing entries are imputed at p = 0.5 (z = 0 exactly) and flagged in
    imputed_mask. SNPs are ordered lexicographically for determinism. A
    p-value outside (0, 1] raises `p_to_z`'s error, for the first in study
    order and then in record order.
    """
    _check_coverage(k, len(studies))
    coverage: Counter[str] = Counter()
    for st in studies:
        coverage.update(st.records.keys())
    kept = sorted(s for s, c in coverage.items() if c >= k)
    if not kept:
        best = max(coverage.values(), default=0)
        raise ValueError(
            f"no SNP is covered by {k} studies (best coverage: {best})"
        )

    n, p = len(kept), len(studies)
    row_of = dict(zip(kept, range(n)))
    z = np.zeros((n, p))
    imputed = np.ones((n, p), dtype=bool)
    n_clamped = 0
    for j, st in enumerate(studies):
        m = len(st.records)
        rows = np.fromiter(map(row_of.get, st.records, repeat(-1, m)), np.intp, m)
        pv = np.fromiter(st.records.values(), float, m)
        hit = rows >= 0
        rows, pv = rows[hit], pv[hit]
        z[rows, j] = p_to_z(pv)
        n_clamped += int(np.count_nonzero(pv < P_CLAMP))
        imputed[rows, j] = False   # z stays exactly 0 where imputed
    names = tuple(st.study_name for st in studies)
    return AlignedPanel(
        snp_ids=tuple(kept),
        study_names=names,
        z_matrix=DenseMatrix(z, row_labels=tuple(kept), col_labels=names),
        imputed_mask=imputed,
        n_clamped=n_clamped,
    )


def panel_to_studies(panel: AlignedPanel) -> list[StudySummary]:
    """Re-export a panel as per-study records, dropping imputed entries."""
    out = []
    for j, name in enumerate(panel.study_names):
        kept = ~panel.imputed_mask[:, j]
        p = z_to_p(panel.z_matrix.values[kept, j])
        out.append(StudySummary(name, dict(zip(compress(panel.snp_ids, kept), p.tolist()))))
    return out


def read_manifest(path) -> list[tuple[str, Path]]:
    """Read a manifest of `study_name<TAB>path` lines; paths resolve relative
    to the manifest's directory. A study name may appear only once, also
    when surrounding whitespace is ignored, and neither field may be empty
    or whitespace only. The file is read as UTF-8; a leading byte-order mark
    (BOM) is skipped."""
    path = Path(path)
    entries, names = [], set()
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise SumstatsParseError(
                    f"{path}:{lineno}: expected 'name<TAB>path', got {line!r}"
                )
            name, rel = parts
            if not name.strip():
                raise SumstatsParseError(f"{path}:{lineno}: empty study name")
            if not rel.strip():
                raise SumstatsParseError(f"{path}:{lineno}: empty path for study {name!r}")
            if name.strip() in names:
                raise SumstatsParseError(f"{path}:{lineno}: duplicate study name {name!r}")
            names.add(name.strip())
            entries.append((name, (path.parent / rel).resolve()))
    return entries


def write_panel(panel: AlignedPanel, z_path, mask_path) -> None:
    write_tsv(panel.z_matrix, z_path)
    write_mask(panel.imputed_mask, mask_path, panel.snp_ids, panel.study_names)
