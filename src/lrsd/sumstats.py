"""Ingestion of per-study summary statistics into an aligned z-score panel.

Each study is a TSV of (snp, p) records. Studies are intersected on SNPs
covered by at least k of them, missing entries are imputed at the null
(p = 0.5, i.e. z = 0), and two-sided p-values are converted to non-negative
z-score magnitudes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np
from scipy import special

from .matrix import DenseMatrix, write_tsv

P_CLAMP = 1e-300   # smaller p-values are clamped here (z ~ 37) and counted
IMPUTED_P = 0.5    # null p-value used for missing (snp, study) entries


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
    min_coverage: int
    n_clamped: int = 0          # p-values below P_CLAMP that were clamped


def p_to_z(p: float) -> float:
    """Two-sided z magnitude Phi^{-1}(1 - p/2), computed stably in the tail."""
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p-value must be in (0, 1], got {p}")
    p = max(p, P_CLAMP)
    return float(-special.ndtri(p / 2.0))


def z_to_p(z: float) -> float:
    """Inverse of p_to_z: two-sided p-value of a z magnitude."""
    return float(2.0 * special.ndtr(-abs(z)))


def parse_study(path, study_name: str | None = None) -> StudySummary:
    """Parse one study TSV with header columns `snp` and `p` (extras ignored)."""
    path = Path(path)
    name = study_name if study_name is not None else path.stem
    with open(path) as fh:
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
    fields, every p-value in (0, 1], no SNP twice. None otherwise."""
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
    return records if len(records) == n else None


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


def align(studies: list[StudySummary], k: int) -> AlignedPanel:
    """Intersect studies on SNPs covered by >= k of them and build z-scores.

    Missing entries are imputed at p = 0.5 (z = 0 exactly) and flagged in
    imputed_mask. SNPs are ordered lexicographically for determinism.
    """
    if not 1 <= k <= len(studies):
        raise ValueError(f"min coverage k={k} outside 1..{len(studies)}")
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
        bad = ~((pv > 0.0) & (pv <= 1.0))
        if bad.any():   # p_to_z raises for the first bad p-value in row order
            p_to_z(float(pv[bad][np.argmin(rows[bad])]))
        n_clamped += int(np.count_nonzero(pv < P_CLAMP))
        z[rows, j] = -special.ndtri(np.maximum(pv, P_CLAMP) / 2.0)
        imputed[rows, j] = False   # z stays exactly 0 where imputed
    names = tuple(st.study_name for st in studies)
    return AlignedPanel(
        snp_ids=tuple(kept),
        study_names=names,
        z_matrix=DenseMatrix(z, row_labels=tuple(kept), col_labels=names),
        imputed_mask=imputed,
        min_coverage=k,
        n_clamped=n_clamped,
    )


def panel_to_studies(panel: AlignedPanel) -> list[StudySummary]:
    """Re-export a panel as per-study records, dropping imputed entries."""
    out = []
    z = panel.z_matrix.values
    for j, name in enumerate(panel.study_names):
        records = {
            snp: z_to_p(z[i, j])
            for i, snp in enumerate(panel.snp_ids)
            if not panel.imputed_mask[i, j]
        }
        out.append(StudySummary(study_name=name, records=records))
    return out


def read_manifest(path) -> list[tuple[str, Path]]:
    """Read a manifest of `study_name<TAB>path` lines; paths resolve relative
    to the manifest's directory."""
    path = Path(path)
    entries = []
    with open(path) as fh:
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
            entries.append((name, (path.parent / rel).resolve()))
    return entries


def write_panel(panel: AlignedPanel, z_path, mask_path) -> None:
    write_tsv(panel.z_matrix, z_path)
    mask = DenseMatrix(
        panel.imputed_mask.astype(float),
        row_labels=panel.snp_ids,
        col_labels=panel.study_names,
    )
    write_tsv(mask, mask_path)
