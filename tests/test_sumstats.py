import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from lrsd.sumstats import (
    P_CLAMP,
    StudySummary,
    SumstatsParseError,
    align,
    p_to_z,
    parse_study,
    read_manifest,
    write_panel,
)
from lrsd.sumstats import _bulk_records, _scan_records
from reference import panel_to_studies, run_python


def _write(tmp_path, name, rows, header="snp\tp"):
    p = tmp_path / name
    p.write_text("\n".join([header] + rows) + "\n")
    return p


class TestParseStudy:
    def test_basic(self, tmp_path):
        path = _write(tmp_path, "a.tsv", ["rs1\t0.5", "rs2\t1e-8"])
        st_ = parse_study(path)
        assert st_.study_name == "a"
        assert st_.records == {"rs1": 0.5, "rs2": 1e-8}

    def test_extra_columns_ignored(self, tmp_path):
        path = _write(tmp_path, "a.tsv", ["rs1\t1\t0.5"], header="snp\tbeta\tp")
        assert parse_study(path, "s").records == {"rs1": 0.5}

    def test_zero_p_names_line(self, tmp_path):
        path = _write(tmp_path, "a.tsv", ["rs1\t0.5", "rs2\t0"])
        with pytest.raises(SumstatsParseError, match=":3"):
            parse_study(path)

    def test_p_above_one(self, tmp_path):
        path = _write(tmp_path, "a.tsv", ["rs1\t1.2"])
        with pytest.raises(SumstatsParseError, match="outside"):
            parse_study(path)

    def test_unparseable_p(self, tmp_path):
        path = _write(tmp_path, "a.tsv", ["rs1\tNA"])
        with pytest.raises(SumstatsParseError, match="unparseable"):
            parse_study(path)

    def test_duplicate_snp(self, tmp_path):
        path = _write(tmp_path, "a.tsv", ["rs1\t0.5", "rs1\t0.4"])
        with pytest.raises(SumstatsParseError, match="duplicate"):
            parse_study(path)

    def test_missing_columns(self, tmp_path):
        path = _write(tmp_path, "a.tsv", ["rs1\t0.5"], header="id\tpval")
        with pytest.raises(SumstatsParseError, match="header"):
            parse_study(path)

    def _error(self, path):
        with pytest.raises(SumstatsParseError) as exc:
            parse_study(path)
        return str(exc.value)

    def test_too_few_columns_names_line(self, tmp_path):
        path = _write(tmp_path, "a.tsv", ["rs1\t1\t0.5", "rs2\t1"], header="snp\tbeta\tp")
        assert self._error(path) == f"{path}:3: too few columns"

    def test_nan_p(self, tmp_path):
        path = _write(tmp_path, "a.tsv", ["rs1\t0.5", "rs2\tnan"])
        assert self._error(path) == f"{path}:3: p-value nan outside (0, 1]"

    def test_blank_and_whitespace_lines_skipped(self, tmp_path):
        path = _write(tmp_path, "a.tsv", ["rs1\t0.5", "", "  ", "\t", "rs2\t1e-8", " \t "])
        assert parse_study(path).records == {"rs1": 0.5, "rs2": 1e-8}

    def test_blank_line_keeps_line_numbers(self, tmp_path):
        path = _write(tmp_path, "a.tsv", ["rs1\t0.5", "", "rs2\t2"])
        assert self._error(path) == f"{path}:4: p-value 2.0 outside (0, 1]"

    def test_crlf_line_endings(self, tmp_path):
        path = tmp_path / "a.tsv"
        path.write_bytes(b"snp\tp\r\nrs1\t0.5\r\nrs2\t1e-8\r\n")
        assert parse_study(path).records == {"rs1": 0.5, "rs2": 1e-8}

    def test_byte_order_mark_skipped(self, tmp_path):
        path = tmp_path / "a.tsv"
        path.write_bytes(b"\xef\xbb\xbfsnp\tp\nrs1\t0.5\nrs2\t1e-8\n")
        assert parse_study(path).records == {"rs1": 0.5, "rs2": 1e-8}

    def test_p_before_snp_with_extra_columns(self, tmp_path):
        path = _write(tmp_path, "a.tsv", ["0.5\t1.2\trs1\tA", "1e-8\t-0.3\trs2\tC"],
                      header="P\tbeta\tSNP\tallele")
        st_ = parse_study(path)
        assert st_.records == {"rs1": 0.5, "rs2": 1e-8}
        assert list(st_.records) == ["rs1", "rs2"]

    def test_duplicate_names_second_line(self, tmp_path):
        path = _write(tmp_path, "a.tsv", ["rs1\t0.5", "rs2\t0.4", "rs1\t0.3"])
        assert self._error(path) == f"{path}:4: duplicate SNP id 'rs1'"

    @pytest.mark.parametrize("rows", [
        ["rs1\t0.5", "\t0.4", "rs3\t0.3"],             # bulk-shaped
        ["rs1\t0.5", "  \t0.4", "rs3\t0.3"],
        ["rs1\t0.5\textra", "\t0.4", "rs3\t0.3"],      # ragged: the line scan only
    ], ids=["bulk", "bulk whitespace", "ragged"])
    def test_empty_snp_id_names_line(self, tmp_path, rows):
        path = _write(tmp_path, "a.tsv", rows)
        assert self._error(path) == f"{path}:3: empty SNP id"

    def test_bulk_refuses_empty_snp_id(self):
        assert _bulk_records("rs1\t0.5\n \t0.4\n", 2, 0, 1) is None

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_bulk_matches_line_scan(self, data):
        width = data.draw(st.integers(2, 5), label="width")
        snp_col, p_col = data.draw(
            st.permutations(range(width)).map(lambda cols: cols[:2]), label="columns"
        )
        ids = data.draw(st.lists(
            st.text("rs0123456789_:.AB", min_size=1, max_size=10), unique=True, max_size=40,
        ), label="ids")
        pad = st.sampled_from(["", " ", "  "])
        formats = st.sampled_from([repr, "{:.6g}".format, "{:e}".format, "{:.17g}".format])
        extra = st.text(" ab,;-0.5\x0b\x85\u2028\u00e9", max_size=6)
        lines = []
        for snp in ids:
            fields = data.draw(st.lists(extra, min_size=width, max_size=width))
            fields[snp_col] = data.draw(pad) + snp + data.draw(pad)
            p = data.draw(st.floats(5e-324, 1.0))
            fields[p_col] = data.draw(pad) + data.draw(formats)(p) + data.draw(pad)
            lines.append("\t".join(fields))
        body = "".join(line + "\n" for line in lines)
        if lines and data.draw(st.booleans(), label="drop final newline"):
            body = body[:-1]
        bulk = _bulk_records(body, width, snp_col, p_col)
        scan = _scan_records("study.tsv", body.split("\n"), snp_col, p_col)
        assert bulk is not None
        assert list(bulk.items()) == list(scan.items())


class TestPToZ:
    def test_p_one_is_zero(self):
        assert p_to_z(1.0) == 0.0

    def test_reference_values(self):
        assert p_to_z(0.05) == pytest.approx(1.9599639845400542, abs=1e-9)
        assert p_to_z(5e-8) == pytest.approx(5.4513104378454785, abs=1e-9)

    def test_clamp_below_min(self):
        assert p_to_z(1e-310) == p_to_z(1e-300)
        assert np.isfinite(p_to_z(1e-300))

    @pytest.mark.parametrize("p", [0.0, -0.5, 1.0000001])
    def test_domain(self, p):
        with pytest.raises(ValueError):
            p_to_z(p)

    @settings(max_examples=60)
    @given(st.floats(1e-250, 1.0, exclude_max=False))
    def test_round_trip(self, p):
        assert 2.0 * special.ndtr(-abs(p_to_z(p))) == pytest.approx(p, rel=1e-9)

    def test_monotone(self):
        ps = np.logspace(-250, 0, 120)
        zs = [p_to_z(p) for p in ps]
        assert all(a > b for a, b in zip(zs, zs[1:]) if a != b) or np.all(np.diff(zs) < 0)


def _scalar_p_to_z(p):
    """The scalar p-to-z rule, one Python float at a time: the arrays' oracle."""
    return float(0.0 - special.ndtri(max(p, P_CLAMP) / 2.0))   # p = 1 gives +0.0


EDGE_P = [1.0, 0.5, P_CLAMP, np.nextafter(P_CLAMP, 1.0), 1e-310, 5e-324]


@settings(max_examples=100)
@given(st.lists(st.one_of(st.floats(5e-324, 1.0), st.sampled_from(EDGE_P)), max_size=60),
       st.sampled_from([(-1,), (-1, 3)]))
def test_p_and_z_conversions_on_arrays_match_scalar_map(ps, shape):
    ps = np.array(EDGE_P + ps + [1.0] * (-len(ps) % 3))
    p = ps.reshape(shape)
    z = p_to_z(p)
    assert z.shape == p.shape
    assert z.tobytes() == np.array([_scalar_p_to_z(v) for v in ps]).tobytes()   # +0.0 at p = 1
    for v in ps[:8]:   # a scalar gives an np.float64 with the same bits
        assert type(p_to_z(v)) is np.float64
        assert np.float64(p_to_z(v)).tobytes() == np.float64(_scalar_p_to_z(v)).tobytes()


def test_p_to_z_names_the_first_bad_p_in_array_order():
    p = np.array([[0.5, 0.2, 3.0], [-1.0, 0.0, 0.1]])
    with pytest.raises(ValueError, match="got 3.0"):
        p_to_z(p)
    with pytest.raises(ValueError, match="got -1.0"):
        p_to_z(p.T)   # the transpose's first row is 0.5, -1.0


def _studies():
    return [
        StudySummary("s1", {"rs1": 0.5, "rs2": 0.01, "rs3": 0.2}),
        StudySummary("s2", {"rs1": 0.9, "rs2": 5e-8}),
        StudySummary("s3", {"rs2": 0.3, "rs4": 0.7}),
    ]


class TestAlign:
    def test_threshold_semantics(self):
        panel = align(_studies(), 2)
        assert panel.snp_ids == ("rs1", "rs2")   # rs3, rs4 only in one study

    def test_imputed_entries_are_zero(self):
        panel = align(_studies(), 2)
        i = panel.snp_ids.index("rs1")
        j = panel.study_names.index("s3")
        assert panel.imputed_mask[i, j]
        assert panel.z_matrix.values[i, j] == 0.0

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            align(_studies(), 0)
        with pytest.raises(ValueError):
            align(_studies(), 4)

    def test_empty_intersection_reports_best(self):
        studies = [StudySummary("a", {"rs1": 0.5}), StudySummary("b", {"rs2": 0.5}),
                   StudySummary("c", {"rs3": 0.5})]
        with pytest.raises(ValueError, match="best coverage: 1"):
            align(studies, 3)

    def test_lexicographic_order(self):
        studies = [StudySummary("a", {"rs10": 0.5, "rs2": 0.5, "rs1": 0.5})]
        panel = align(studies, 1)
        assert panel.snp_ids == ("rs1", "rs10", "rs2")

    def test_idempotent(self):
        panel = align(_studies(), 2)
        again = align(panel_to_studies(panel), 2)
        assert again.snp_ids == panel.snp_ids
        assert again.study_names == panel.study_names
        assert np.allclose(again.z_matrix.values, panel.z_matrix.values)
        assert np.array_equal(again.imputed_mask, panel.imputed_mask)

    def test_imputation_neutral_for_column_norms(self):
        panel = align(_studies(), 2)
        z = panel.z_matrix.values.copy()
        z[panel.imputed_mask] = 123.0   # would change norms if imputed != 0
        for j in range(z.shape[1]):
            observed = panel.z_matrix.values[:, j]
            assert np.linalg.norm(observed) == pytest.approx(
                np.linalg.norm(observed[~panel.imputed_mask[:, j]])
            )

    def test_clamp_counter(self):
        studies = [StudySummary("a", {"rs1": 1e-310, "rs2": 0.5})]
        panel = align(studies, 1)
        assert panel.n_clamped == 1


def _align_reference(studies, k):
    """The per-entry loop that `align` replaced, kept as its oracle."""
    coverage = {}
    for st_ in studies:
        for snp in st_.records:
            coverage[snp] = coverage.get(snp, 0) + 1
    kept = sorted(s for s, c in coverage.items() if c >= k)
    z = np.zeros((len(kept), len(studies)))
    imputed = np.zeros(z.shape, dtype=bool)
    n_clamped = 0
    for j, st_ in enumerate(studies):
        for i, snp in enumerate(kept):
            pv = st_.records.get(snp)
            if pv is None:
                imputed[i, j] = True
                continue
            n_clamped += pv < P_CLAMP
            z[i, j] = p_to_z(pv)
    return kept, z, imputed, n_clamped


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_align_matches_per_entry_p_to_z(data):
    universe = [f"rs{i}" for i in range(data.draw(st.integers(1, 30), label="snps"))]
    p_value = st.one_of(
        st.floats(5e-324, 1.0),
        st.sampled_from([1.0, 0.5, P_CLAMP, 1e-310, 5e-324, np.nextafter(P_CLAMP, 1.0)]),
    )
    studies = [
        StudySummary(f"s{j}", data.draw(st.dictionaries(st.sampled_from(universe), p_value)))
        for j in range(data.draw(st.integers(1, 6), label="studies"))
    ]
    best = max(sum(snp in s.records for s in studies) for snp in universe)
    k = data.draw(st.integers(1, len(studies)), label="k")
    if best < k:
        with pytest.raises(ValueError, match=f"best coverage: {best}"):
            align(studies, k)
        return
    kept, z, imputed, n_clamped = _align_reference(studies, k)
    panel = align(studies, k)
    assert panel.snp_ids == tuple(kept)
    assert panel.z_matrix.values.tobytes() == z.tobytes()   # bit for bit
    assert np.array_equal(panel.imputed_mask, imputed)
    assert panel.n_clamped == n_clamped


def test_align_clamp_and_p_one_bits():
    studies = [StudySummary("a", {"rs1": 1e-310, "rs2": 1.0, "rs3": P_CLAMP, "rs4": 5e-324})]
    panel = align(studies, 1)
    z = panel.z_matrix.values[:, 0]
    assert z.tobytes() == np.array([p_to_z(1e-310), p_to_z(1.0), p_to_z(P_CLAMP),
                                    p_to_z(5e-324)]).tobytes()
    assert z[1] == 0.0 and not np.signbit(z[1])   # 0 - ndtri(0.5) is +0.0, written as "0.0"
    assert panel.n_clamped == 2


@pytest.mark.parametrize("bad", [0.0, -0.1, 1.5, float("nan")])
def test_align_rejects_p_outside_unit_interval(bad):
    studies = [StudySummary("a", {"rs1": 0.5, "rs2": bad}), StudySummary("b", {"rs1": 2.0})]
    with pytest.raises(ValueError, match=f"got {bad}"):
        align(studies, 1)


def test_align_names_the_first_bad_p_in_record_order():
    # rs9 comes after rs1 in row order, but its record comes first
    studies = [StudySummary("a", {"rs9": 2.0, "rs1": -1.0})]
    with pytest.raises(ValueError, match="got 2.0"):
        align(studies, 1)


def test_scipy_special_is_imported_by_analyze_before_its_stage_clock(tmp_path):
    # `import lrsd.cli` loads LAPACK for the solver but not scipy.special, which
    # only analyze needs; analyze imports it before its stage clock starts, so that
    # no stage time counts a first-call import
    for name, body in (("a", "rs1\t0.5\nrs2\t1e-6\n"), ("b", "rs1\t0.9\nrs2\t0.2\n")):
        (tmp_path / f"{name}.tsv").write_text("snp\tp\n" + body)
    (tmp_path / "studies.txt").write_text("a\ta.tsv\nb\tb.tsv\n")
    code = "\n".join([
        "import sys, lrsd.cli",
        "print(*(m in sys.modules for m in ('scipy.special', 'scipy.linalg.lapack')))",
        "start = lrsd.cli._Stages.__init__",
        "def spy(self):",
        "    print('scipy.special' in sys.modules)",
        "    start(self)",
        "lrsd.cli._Stages.__init__ = spy",
        "lrsd.cli.main(['analyze', '--manifest', sys.argv[1], '--min-coverage', '1',",
        "               '--out', sys.argv[2]])",
    ])
    out = run_python("-c", code, tmp_path / "studies.txt", tmp_path / "out",
                     text=True, check=True)
    assert out.stdout.split()[:3] == ["False", "True", "True"]
    assert (tmp_path / "out" / "z.tsv").exists()


def test_write_panel_and_manifest(tmp_path):
    panel = align(_studies(), 2)
    write_panel(panel, tmp_path / "z.tsv", tmp_path / "mask.tsv")
    lines = (tmp_path / "z.tsv").read_text().splitlines()
    assert lines[0] == "id\ts1\ts2\ts3"
    assert lines[1].startswith("rs1\t")

    mani = tmp_path / "manifest.tsv"
    mani.write_text("s1\ta.tsv\ns2\tb.tsv\n")
    entries = read_manifest(mani)
    assert [e[0] for e in entries] == ["s1", "s2"]
    assert entries[0][1].name == "a.tsv"

    bad = tmp_path / "bad.tsv"
    bad.write_text("just-one-field\n")
    with pytest.raises(SumstatsParseError):
        read_manifest(bad)


def test_manifest_skips_a_leading_byte_order_mark(tmp_path):
    mani = tmp_path / "manifest.tsv"
    mani.write_bytes(b"\xef\xbb\xbfs1\ta.tsv\ns2\tb.tsv\n")
    assert [e[0] for e in read_manifest(mani)] == ["s1", "s2"]


def test_manifest_skips_hash_lines_and_blank_lines_only(tmp_path):
    mani = tmp_path / "manifest.tsv"
    mani.write_text("#a\ta.tsv\n \t \nb\tb.tsv\nc#1\tc.tsv\n")
    assert [e[0] for e in read_manifest(mani)] == ["b", "c#1"]


def test_manifest_refuses_duplicate_study_name(tmp_path):
    mani = tmp_path / "manifest.tsv"
    mani.write_text("s1\ta.tsv\n# a comment\ns2\tb.tsv\ns1\tc.tsv\n")
    with pytest.raises(SumstatsParseError) as exc:
        read_manifest(mani)
    assert str(exc.value) == f"{mani}:4: duplicate study name 's1'"
