"""Claim registry, bound scanners, and report emission."""

import io
import math
import os
import sys
import tracemalloc

import numpy as np
import pytest

import _oracle as oracle
from zetalab import comb, laplace, verify
from zetalab.sieve import iter_segments
from zetalab.verify import (
    CLAIMS,
    ClaimResult,
    ScanReport,
    emit_report,
    render_csv,
    render_json,
    run_claim,
    scan_bound,
)

# small parameter sets so the whole catalog can be exercised quickly
QUICK_PARAMS = {
    "C1": {"n_grid": (2, 10, 100)},
    "C2": {"n_grid": (2, 10, 100)},
    "C3": {"n_grid": (2, 10), "c_grid": (0.0, 0.5)},
    "C4": {"n_grid": (2, 10, 100)},
    "C5": {"s_grid": (2.0, 3.0), "limit": 1e4},
    "C6": {"s_grid": (2.0, 3.0)},
    "C7": {"s_grid": (2.0, 3.0)},
    "C8": {"s_grid": (2.0, 3.0)},
    "C9": {"limit": 2000},
    "C10": {"limit": 500},
    "C11": {"s_grid": (2.0, 3.0), "limit": 1e4},
    "C12": {"x_lo": 12.05, "x_hi": 30.0, "points": 40},
    "C13": {"x_lo": 1e-3, "x_hi": 10.0, "points": 100},
    "C14": {"x_lo": 100.0, "x_hi": 1e6, "points": 60},
    "C15": {"s_grid": (2.0, 3.0)},
    "M1": {"x_max": 10_000, "points": 40},
    "M2": {"s_grid": (2.0, 3.0)},
    "M3": {"s_grid": (2.0, 3.0), "limit": 1e4},
}


def test_catalog_has_no_dead_entries():
    assert set(QUICK_PARAMS) == set(CLAIMS)
    assert verify.ROWLESS_CLAIMS == {"C9", "C10"}  # the CLI refuses their CSV from this record
    for cid, claim in CLAIMS.items():
        assert claim.id == cid
        result = run_claim(cid, QUICK_PARAMS[cid])
        assert isinstance(result, ClaimResult)
        assert result.kind == claim.kind
        if claim.kind == "report_only":
            assert result.verdict == "report"
        else:
            assert result.verdict == "pass", (cid, result)
        assert math.isfinite(result.max_abs_residual)
        if cid in ("C9", "C10"):
            assert result.rows is None  # one residual per integer, summarised only
        else:
            assert result.rows.dtype == np.float64 and result.rows.shape == (len(result.rows), 5), cid
            assert len(result.rows) > 0 and set(np.unique(result.rows[:, 4])) <= {0.0, 1.0}, cid


def test_unknown_claim_rejected():
    with pytest.raises(ValueError):
        run_claim("C99")


def test_run_claim_examples():
    r = run_claim("C9", {"limit": 1000})
    assert r.verdict == "pass" and r.max_abs_residual < 1e-9
    r = run_claim("C1", {"n_grid": (2, 10, 100, 1000)})
    assert r.verdict == "pass"
    r = run_claim("M2")
    assert r.verdict == "report"
    at2 = [row for row in r.rows if row[0] == 2.0]
    assert len(at2) == 1
    # independently derived gap between R(2) and the kernel at s = 2
    assert at2[0][3] == pytest.approx(-0.023029146300358135, abs=1e-9)


def test_report_only_claims_never_fail():
    for cid in ("M1", "M2", "M3"):
        r = run_claim(cid, QUICK_PARAMS[cid])
        assert r.verdict == "report"
        assert len(r.rows) > 0
        assert all(math.isfinite(v) for row in r.rows for v in row[:4])


def test_claim_rows_sorted_and_flagged():
    r = run_claim("C14", QUICK_PARAMS["C14"])
    xs = [row[0] for row in r.rows]
    assert xs == sorted(xs)
    assert all(row[4] for row in r.rows)


def test_default_grids_recorded_in_params():
    r = run_claim("C15")
    assert tuple(r.params["s_grid"]) == (1.5, 2.0, 3.0, 5.0, 10.0)


# ---------------------------------------------------------------------------
# bound scans


def _c10_per_x_gather(limit):
    """C10's residuals by a gather of psi(x // k) over the suffix x >= 2k for
    each k: the loop the row adds replaced, kept here for its bits."""
    lam = np.zeros(limit + 1)
    for seg in iter_segments(0, limit, want_lam=True):
        lam[seg.lo : seg.hi + 1] = oracle.dense_arrays(seg)[1]
    cum_lam = np.cumsum(lam)
    cum_log = np.zeros(limit + 1)
    cum_log[1:] = np.cumsum(np.log(np.arange(1.0, limit + 1)))
    xs = np.arange(2, limit + 1, dtype=np.int64)
    lhs = np.zeros(xs.size)
    for k in range(1, limit // 2 + 1):
        lhs[2 * k - 2 :] += cum_lam[xs[2 * k - 2 :] // k]
    return xs, np.abs(lhs - cum_log[xs]) / xs


def _same_c10_bits(limit):
    want_xs, want = _c10_per_x_gather(limit)
    got_xs, got = verify._c10_residuals(limit)
    return np.array_equal(got_xs, want_xs) and got.tobytes() == want.tobytes()


def test_c10_rows_keep_the_per_x_gather_bits_at_small_limits():
    # every partial last row and every q <= 2 edge case of the row adds
    assert [n for n in range(2, 301) if not _same_c10_bits(n)] == []


@pytest.mark.parametrize(
    "limit",
    sorted({2**k + d for k in range(9, 15) for d in (-1, 0, 1)} | {4645, 10000, 10001, 40000}),
)
def test_c10_rows_keep_the_per_x_gather_bits(limit):
    # powers of two up to 2**8 fall in the small limits; 4645 is C10's worst x
    # at its default limit, and 40000 the limit the CLI pins
    assert _same_c10_bits(limit)


def test_unknown_bound_rejected():
    with pytest.raises(ValueError):
        scan_bound("B9", 1, 10)


def test_scan_rows_sorted_with_left_limits_first():
    rep = scan_bound("B3", 1, 50)
    xs = [row[0] for row in rep.rows]
    assert xs == sorted(xs)
    # at the prime 2 the left-limit row |0 - 2| precedes the value row
    at2 = [row for row in rep.rows if row[0] == 2.0]
    assert len(at2) == 2
    assert at2[0][1] == pytest.approx(2.0)
    assert at2[1][1] == pytest.approx(2.0 - math.log(2.0))


def test_b2_row_values_at_100():
    rep = scan_bound("B2", 2, 200)
    at100 = [row for row in rep.rows if row[0] == 100.0]
    # 100 is not prime: one lower row and one upper row
    assert len(at100) == 2
    lower, upper = at100
    assert lower[1] == pytest.approx(-10.857362047581296, abs=1e-9)
    assert lower[2] == pytest.approx(-5.1261415840796299, abs=1e-9)
    assert upper[1] == pytest.approx(-5.1261415840796299, abs=1e-9)
    assert upper[2] == pytest.approx(4.3429448190325183, abs=1e-9)
    assert lower[4] and upper[4]


def test_b3_scan_and_spot():
    rep = scan_bound("B3", 1, 10_000)
    assert rep.passed
    assert rep.min_margin == pytest.approx(2 * math.sqrt(2) - 2.0, abs=1e-12)
    assert rep.argmin_x == 2.0


def test_b4_offset_convention_known_failures():
    # every row to 4e5, which holds all the failing rows below 1e7, against the
    # independent oracle; the scan keeps all of them (one sieve segment)
    rep = scan_bound("B4", 2, 400_000, keep_rows=True)
    want = oracle.scan_integers(2, 400_000, keep_rows=True)
    assert rep.n_rows == len(rep.rows)
    diff = oracle.row_mismatch(rep.rows, want.rows)
    assert not diff, diff
    assert (rep.n_failures, rep.argmin_x) == (want.n_failures, want.argmin_x)
    assert abs(rep.min_margin - want.min_margin) <= 1e-9
    assert not rep.passed
    # the first lattice points where |J - (li - li(2))| crosses 0.7 sqrt(x)/log x
    failing = sorted({row[0] for row in rep.rows if not row[4]})
    assert [x for x in failing if x <= 10_000] == [19.0, 31.0, 113.0, 199.0]


def test_oracle_prime_counts_match_sympy():
    sympy = pytest.importorskip("sympy")
    # segment edges, perfect powers and their neighbours, small odd segments
    ns = np.array([2, 3, 4, 8, 9, 25, 26, 1023, 1024, 1025, 59049, 65535, 65536, 99991, 100_000])
    for size in (97, 1 << 10, 1 << 20):
        flags = np.concatenate([f for _, f in oracle.prime_segments(100_000, size)])
        assert flags.size == 100_001
        counts = np.cumsum(flags)[ns]
        assert counts.tolist() == [int(sympy.primepi(int(n))) for n in ns], size
    higher = oracle._HigherTerms(100_000)(ns)
    for n, h in zip(ns.tolist(), higher):
        k_terms = sum(
            int(sympy.primepi(sympy.integer_nthroot(n, k)[0])) / k for k in range(2, n.bit_length())
        )
        assert h == pytest.approx(k_terms, abs=1e-12), n


def test_b4_li_convention_regression_near_100():
    rep = scan_bound("B4", 90, 110, convention="li")
    at100 = [row for row in rep.rows if row[0] == 100.0]
    assert any(not row[4] for row in at100)
    bad = [row for row in at100 if not row[4]][0]
    assert bad[1] == pytest.approx(1.5928082507462966, abs=1e-9)
    assert bad[2] == pytest.approx(1.5200306866613814, abs=1e-9)
    # with the offset convention the same point clears the bound comfortably
    rep2 = scan_bound("B4", 90, 110)
    at100 = [row for row in rep2.rows if row[0] == 100.0]
    assert all(row[4] for row in at100)
    assert at100[-1][1] == pytest.approx(0.54764447062880381, abs=1e-9)


def test_scan_modes_and_validation():
    with pytest.raises(ValueError):
        scan_bound("B2", 100, 10)
    with pytest.raises(ValueError):
        scan_bound("B2", 2, 100, mode="sometimes")
    with pytest.raises(ValueError):
        scan_bound("B4", 2, 100, convention="offset2")
    # only B4 has an li offset to choose; elsewhere a convention would be ignored
    for bid in ("B1", "B2", "B3"):
        with pytest.raises(ValueError):
            scan_bound(bid, 2, 100, convention="offset")
    with pytest.raises(ValueError):
        scan_bound("B2", 100, 10_000, mode="log_grid", points=0)
    rep = scan_bound("B2", 100, 10_000, mode="log_grid", points=200)
    assert rep.passed and rep.n_rows == 400
    # a range wholly below the bound's first abscissa (2 for B2) holds no rows
    for mode in ("log_grid", "every_integer"):
        rep = scan_bound("B2", 0.5, 1.5, mode=mode, points=5)
        assert rep.n_rows == 0 and rep.rows.shape == (0, 5), mode


def test_b1_jump_mode_counts_both_sides():
    rep = scan_bound("B1", 2, 1000, mode="every_jump")
    # one left row and one value row per prime power <= 1000
    assert rep.n_rows == 2 * 193
    assert rep.passed


@pytest.mark.parametrize("bound_id", ["B1", "B2", "B3", "B4"])
def test_every_jump_rows_are_every_integer_rows_at_the_jumps(bound_id):
    # 2**20 starts a sieve segment and is a jump itself: weight 1/20 in J,
    # log 2 in psi (B2's pi does not jump there)
    seg0 = 1 << 20
    lo, hi = seg0 - 3000, seg0 + 3000
    flags = np.concatenate([f for _, f in oracle.prime_segments(hi)])
    jumps = set(np.flatnonzero(flags[lo:]) + lo)
    if bound_id != "B2":
        for p in np.flatnonzero(flags[: math.isqrt(hi) + 1]).tolist():
            pk = p * p
            while pk <= hi:
                if pk >= lo:
                    jumps.add(pk)
                pk *= p
    assert (seg0 in jumps) == (bound_id != "B2")
    dense = scan_bound(bound_id, lo, hi, "every_integer", keep_rows=True)
    sparse = scan_bound(bound_id, lo, hi, "every_jump", keep_rows=True)
    at_jumps = dense.rows[np.isin(dense.rows[:, 0], sorted(jumps))]
    assert np.array_equal(sparse.rows, at_jumps)
    assert sorted({int(r[0]) for r in sparse.rows}) == sorted(jumps)


def test_every_jump_scan_asks_j_only_at_its_jumps(monkeypatch):
    from zetalab import arith

    asked = []
    real = arith.j_higher_terms

    def recording(xs, limit):
        asked.append(np.array(xs))
        return real(xs, limit)

    monkeypatch.setattr(arith, "j_higher_terms", recording)
    kept = scan_bound("B1", 2, 3e6, "every_jump", keep_rows=True)
    at_kept = np.concatenate(asked)
    # a scan that keeps its rows asks at every jump exactly once; one-sided
    # bound: a left-limit row and a value row per jump
    assert kept.n_rows > 0 and at_kept.size == kept.n_rows // 2
    assert np.unique(at_kept).size == at_kept.size
    assert set(at_kept.tolist()) == {r[0] for r in kept.rows}
    asked.clear()
    summary = scan_bound("B1", 2, 3e6, "every_jump", keep_rows=False)
    at_summary = np.concatenate(asked)
    # a summary-only scan asks at jumps only, and at few of them: block ends
    # and undecided rows
    assert _summary(summary) == _summary(kept)
    assert np.isin(at_summary, at_kept).all()
    assert 0 < at_summary.size < at_kept.size // 10


def _summary(rep: ScanReport):
    return rep.n_rows, rep.n_failures, rep.min_margin.hex(), rep.argmin_x.hex()


def _counting_li(monkeypatch):
    from zetalab import analytic

    points = [0]
    real = analytic.li_vec

    def counting(xs):
        points[0] += len(xs)
        return real(xs)

    monkeypatch.setattr(analytic, "li_vec", counting)
    return points


@pytest.mark.parametrize("mode", ["every_integer", "every_jump", "log_grid"])
@pytest.mark.parametrize(
    "bound_id,convention", [("B1", None), ("B2", None), ("B3", None), ("B4", None), ("B4", "li")]
)
def test_summary_scan_is_the_kept_rows_scan(monkeypatch, bound_id, convention, mode):
    # summary-only scans form no rows and decide most li rows from intervals;
    # their summary must still be bit for bit that of the scan that forms every row
    seg0 = 1 << 20
    rng = np.random.default_rng([ord(c) for c in bound_id + str(convention) + mode])
    ranges = [(2, 70_000)]  # B4's failure clusters and the small-x rows
    ranges += [(rng.uniform(seg0 - 150_000, seg0), rng.uniform(seg0, seg0 + 150_000)) for _ in range(2)]
    # a start below 8, where blocks go to the row pass, and a segment whose
    # last 64-abscissa block holds one integer
    ranges += [(rng.uniform(2, 8), 20_000), (seg0 + 17, seg0 + 17 + 64 * 300)]
    points = _counting_li(monkeypatch)
    for lo, hi in ranges:
        kept = scan_bound(bound_id, lo, hi, mode, points=3000, convention=convention, keep_rows=True)
        points[0] = 0
        summary = scan_bound(bound_id, lo, hi, mode, points=3000, convention=convention, keep_rows=False)
        assert summary.rows is None
        assert _summary(summary) == _summary(kept), (lo, hi)
        if mode != "log_grid":  # li exact at a small share of the abscissae only
            assert points[0] < 0.2 * len({r[0] for r in kept.rows}), (lo, hi, points[0])


@pytest.mark.parametrize("mode", ["every_integer", "every_jump", "log_grid"])
def test_summary_scans_form_no_rows(monkeypatch, mode):
    from zetalab import verify

    def no_rows(self, xs, lhs, rhs, margin):
        raise AssertionError("a summary-only scan formed rows")

    monkeypatch.setattr(verify._RowCollector, "add_rows", no_rows)
    for bound_id, convention in (("B1", None), ("B2", None), ("B3", None), ("B4", None), ("B4", "li")):
        rep = scan_bound(bound_id, 2, 1.1e6, mode, points=2000, convention=convention, keep_rows=False)
        assert rep.n_rows > 0 and rep.rows is None, bound_id
        assert math.isfinite(rep.min_margin) and math.isfinite(rep.argmin_x), bound_id


def test_summary_psi_scans_form_no_dense_lambda(monkeypatch):
    # B3 reads psi at block ends and at jumps from Lambda's stored jumps only;
    # a scan that keeps its rows reads every integer, one block at a time
    from zetalab import arith

    step_segments, seen, dense = arith.step_segments, [], []

    def recording(*args, **kwargs):
        for seg, before in step_segments(*args, **kwargs):
            seen.append(seg)
            yield seg, before

    def dense_reads(read, offs_at):  # a dense read takes a slice of contiguous offsets
        def wrapped(*args, **kwargs):
            offs = args[offs_at]
            if isinstance(offs, slice):
                dense.append((read.__name__, offs.stop - offs.start))
            return read(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(arith, "step_segments", recording)
    monkeypatch.setattr(arith, "segment_values", dense_reads(arith.segment_values, 3))
    monkeypatch.setattr(arith, "segment_jumps", dense_reads(arith.segment_jumps, 2))
    for mode in ("every_integer", "every_jump"):
        scan_bound("B3", 1, 2.2e6, mode, keep_rows=False)
    assert len(seen) == 6 and not dense
    seen.clear()
    scan_bound("B3", 1, 3e5, keep_rows=True)
    assert len(seen) == 1 and {name for name, _ in dense} == {"segment_values", "segment_jumps"}
    # each read covers every integer once, and every dense read spans at most one block
    assert sum(span for _, span in dense) == 2 * 300_000
    assert max(span for _, span in dense) <= verify._ROW_BLOCK


def test_a_sparse_psi_read_ranks_its_offsets_once(monkeypatch):
    # the step values and the Lambda weights of one read share one rank
    from zetalab import arith
    from zetalab.sieve import SieveSegment

    ((seg, before),) = arith.step_segments("psi", 300_000)
    idx = np.sort(np.random.default_rng(7).choice(299_999, 5000, replace=False))
    count_primes, calls = SieveSegment.count_primes, []

    def counting(self, offs):
        calls.append(offs.size)
        return count_primes(self, offs)

    dense = verify._segment_rows("psi", seg, before, 1, None, 300_000, None, slice(0, 300_000))
    monkeypatch.setattr(SieveSegment, "count_primes", counting)
    sparse = verify._segment_rows("psi", seg, before, 1, None, 300_000, None, idx)
    assert calls == [idx.size]
    for got, want in zip(sparse, dense):
        assert got.tobytes() == want[idx].tobytes()


def _interleaved(families):
    """The rows (x, family, margin) of margin families in row order: ascending x, then family."""
    return sorted((x, k, m) for k, (xs, ms) in enumerate(families) for x, m in zip(xs.tolist(), ms.tolist()))


def _row_order_summary(blocks):
    """n_rows, n_failures and the first minimum in row order, one row at a time."""
    n_rows = n_failures = 0
    min_margin, argmin_x = math.inf, math.nan
    for fams in blocks:
        for x, _, m in _interleaved(fams):
            n_rows += 1
            n_failures += not m > 0
            if m < min_margin:  # strict: the first of tied rows stays, and -0.0 ties 0.0
                min_margin, argmin_x = m, x
    return n_rows, n_failures, min_margin.hex(), argmin_x.hex()


def _collector_summary(col):
    return col.n_rows, col.n_failures, col.min_margin.hex(), col.argmin_x.hex()


def test_margin_families_summarise_as_their_interleaved_rows():
    from zetalab.verify import _RowCollector

    # two-sided rows: left-limit lower, left-limit upper, value lower, value upper;
    # the minimum -2 ties across families, at a smaller x in a later family
    left_x = np.array([5.0, 9.0])
    right_x = np.array([3.0, 5.0, 7.0, 9.0])
    blocks = [
        [(left_x, np.array([1.0, -2.0])), (left_x, np.array([4.0, 0.5])),
         (right_x, np.array([3.0, 0.0, 2.0, -2.0])), (right_x, np.array([1.0, -2.0, 6.0, -1.0]))],
        # a one-sided block: left (jumps) and value rows; -0.0 at x = 8 ties 0.0 at x = 6
        [(np.array([8.0]), np.array([-0.0])), (np.array([6.0, 8.0]), np.array([0.0, 3.0]))],
    ]
    rng = np.random.default_rng(47)
    for _ in range(200):  # few distinct small margins, so ties across families abound
        xs = np.sort(rng.choice(np.arange(2.0, 40.0), 12, replace=False))
        jumps = np.sort(rng.choice(xs, 5, replace=False))
        blocks.append([(x, rng.integers(-2, 3, x.size) / 2.0) for x in (jumps, jumps, xs, xs)])
    running, running_rows = _RowCollector(None, False), _RowCollector(None, False)
    for i, fams in enumerate(blocks):
        by_families, by_rows = _RowCollector(None, False), _RowCollector(None, False)
        rows = _interleaved(fams)
        one_family = (np.array([r[0] for r in rows]), np.array([r[2] for r in rows]))
        by_families.add_margins(fams)
        by_rows.add_margins([one_family])  # the rows of a sink or kept-rows scan, in row order
        assert _collector_summary(by_families) == _row_order_summary([fams]), fams
        assert _collector_summary(by_rows) == _row_order_summary([fams]), fams
        if i:  # from the second block on, so that minima tie across blocks too
            running.add_margins(fams)
            running_rows.add_margins([one_family])
            assert _collector_summary(running) == _row_order_summary(blocks[1 : i + 1])
            assert _collector_summary(running_rows) == _row_order_summary(blocks[1 : i + 1])
    first = _RowCollector(None, False)
    first.add_margins(blocks[0])
    assert (first.n_failures, first.min_margin, first.argmin_x) == (5, -2.0, 5.0)
    second = _RowCollector(None, False)
    second.add_margins(blocks[1])
    assert second.min_margin.hex() == "0x0.0p+0" and second.argmin_x == 6.0


def test_log_grid_that_repeats_x_keeps_rows_in_index_order():
    # lo == hi repeats x = 100 three times: each abscissa's lower row precedes its upper row
    lower = "100,-10.857362047581296,-5.1261415840796438,5.7312204635016517,true\n"
    upper = "100,-5.1261415840796438,4.3429448190325175,9.4690864031121613,true\n"
    want = "x,lhs,rhs,margin,pass\n" + (lower + upper) * 3
    sink = io.StringIO()
    rep = scan_bound("B2", 100, 100, "log_grid", points=3, row_sink=sink, keep_rows=True)
    assert sink.getvalue() == want
    assert render_csv([rep]) == want
    assert (rep.n_rows, rep.n_failures, rep.argmin_x) == (6, 0, 100.0)


def test_summary_b4_scan_evaluates_li_at_under_one_percent_of_abscissae(monkeypatch):
    points = _counting_li(monkeypatch)
    rep = scan_bound("B4", 2, 2e6, keep_rows=False)
    assert rep.n_failures == 78 and rep.argmin_x == 59753.0
    assert points[0] < 0.01 * (2e6 - 1)


def _rows_by_abscissa(monkeypatch, bound_id, convention, mode, lo, hi):
    """The bound, row-former arrays (x, right, left, jump mask) and each x's lowest margin of a kept-rows scan."""
    from zetalab import verify

    seen = []
    real = verify._emit_bound_rows

    def capture(bdef, col, *cols):
        seen.append((bdef, cols))
        return real(bdef, col, *cols)

    monkeypatch.setattr(verify, "_emit_bound_rows", capture)
    rep = scan_bound(bound_id, lo, hi, mode, convention=convention, keep_rows=True)
    monkeypatch.setattr(verify, "_emit_bound_rows", real)
    cols = tuple(np.concatenate(c) for c in zip(*(c for _, c in seen)))
    rows = np.array(rep.rows)
    starts = np.flatnonzero(np.diff(rows[:, 0], prepend=-1.0))
    assert np.array_equal(rows[starts, 0], cols[0])
    return seen[0][0], cols, np.minimum.reduceat(rows[:, 3], starts)


@pytest.mark.parametrize("mode", ["every_integer", "every_jump"])
@pytest.mark.parametrize(
    "bound_id,convention", [("B1", None), ("B2", None), ("B3", None), ("B4", None), ("B4", "li")]
)
def test_block_floors_bound_every_margin_of_their_blocks(monkeypatch, bound_id, convention, mode):
    # every block of 64 consecutive abscissae and every single abscissa, in a
    # range from 2 (blocks that start below 8) and one across the 2**20
    # segment edge, with its gaps between primes of more than 64 integers
    from zetalab import verify

    seg0 = 1 << 20
    for lo, hi in ((2, 3000), (seg0 - 20_000, seg0 + 20_000)):
        bdef, cols, lowest = _rows_by_abscissa(monkeypatch, bound_id, convention, mode, lo, hi)
        grid = None if bdef.li_shift is None else verify._li_grid(cols[0][0], cols[0][-1])
        for size in (64, 1):
            i0 = np.arange(cols[0].size - size + 1)
            first = tuple(c[i0] for c in cols)
            last = first if size == 1 else tuple(c[i0 + size - 1] for c in cols)
            floor, ceiling = verify._block_floors(bdef, grid, first, last)
            in_block = np.lib.stride_tricks.sliding_window_view(lowest, size).min(axis=1)
            bad = np.flatnonzero(in_block < floor)
            assert not bad.size, (lo, size, first[0][bad[:5]], in_block[bad[:5]] - floor[bad[:5]])
            bad = np.flatnonzero(lowest[i0] > ceiling)
            assert not bad.size, (lo, size, first[0][bad[:5]], lowest[i0][bad[:5]] - ceiling[bad[:5]])
            if size > 1:
                assert np.all(np.isneginf(floor[first[0] < 8])), lo
                assert np.all(np.isfinite(floor[first[0] >= 8])), lo


def _row_pass_share(monkeypatch, bound_id, lo, hi):
    """The scan's summary, and the share of its abscissae that reach the row pass."""
    from zetalab import verify

    rows = [0]
    real = verify._block_floors

    def counting(bdef, grid, first, last):
        if last is first:
            rows[0] += first[0].size
        return real(bdef, grid, first, last)

    monkeypatch.setattr(verify, "_block_floors", counting)
    rep = scan_bound(bound_id, lo, hi, keep_rows=False)
    return rep, rows[0] / (hi - lo + 1)


@pytest.mark.parametrize("bound_id", ["B2", "B4"])
def test_summary_scans_send_few_abscissae_to_the_row_pass(monkeypatch, bound_id):
    rep, share = _row_pass_share(monkeypatch, bound_id, 2, 2_000_000)
    assert rep.n_rows > 0
    assert share < 0.03, share


@pytest.mark.parametrize("bound_id", ["B2", "B3"])
def test_a_floor_equal_to_the_cut_is_decided_exactly(monkeypatch, bound_id):
    # raise every floor to its own ceiling: then the lowest floor equals the
    # cut, and only a block or row that is not skipped on that tie reaches
    # the exact path and the minimum
    from zetalab import verify

    real = verify._block_floors

    def tight(bdef, grid, first, last):
        _, ceiling = real(bdef, grid, first, last)
        return ceiling, ceiling

    monkeypatch.setattr(verify, "_block_floors", tight)
    rep = scan_bound(bound_id, 2, 200_000, keep_rows=False)
    assert rep.passed and math.isfinite(rep.min_margin), rep


def test_li_interval_holds_on_a_million_rows():
    from zetalab import analytic, verify

    rng = np.random.default_rng(29)
    starts = np.concatenate([[2.0], np.exp(rng.uniform(math.log(2.0), math.log(1e12), 15))])
    for a0 in np.floor(starts):
        xs = np.sort(rng.integers(a0, a0 + (1 << 20), 1 << 16)).astype(np.float64)
        lo, hi = verify._li_bounds(xs, np.log(xs), *verify._li_grid(xs[0], xs[-1]))
        li = analytic.li_vec(xs)
        slack = verify._slack(np.abs(hi))
        assert np.all(lo - slack <= li), a0
        assert np.all(li <= hi + slack), a0


def test_every_integer_matches_denser_grid_extrema():
    hi = 2000
    rep = scan_bound("B3", 1, hi)
    (seg,) = iter_segments(0, hi, want_lam=True)
    cum = np.cumsum(oracle.dense_arrays(seg)[1])
    dense = np.arange(1.0, hi + 0.05, 0.1)
    psi_dense = cum[np.floor(dense).astype(int)]
    margins = 2.0 * np.sqrt(dense) - np.abs(psi_dense - dense)
    assert rep.min_margin <= float(margins.min()) + 1e-9


def test_kept_rows_are_complete_past_one_segment():
    # the range straddles the first sieve segment boundary at 2**20
    rep = scan_bound("B3", 900_000, 1_100_000, keep_rows=True)
    assert rep.n_rows == 214_460
    assert len(rep.rows) == rep.n_rows
    assert rep.rows[-1][0] == 1_100_000.0


def test_scan_streaming_to_sink_matches_retained_rows(monkeypatch):
    # a scan that streams its rows to a sink and keeps them: the kept rows
    # render, byte for byte, as the sink got them
    def scan(bound_id, lo, hi, mode):
        sink = io.StringIO()
        rep = scan_bound(bound_id, lo, hi, mode, points=3, row_sink=sink, keep_rows=True)
        assert rep.rows.dtype == np.float64 and rep.rows.shape == (rep.n_rows, 5), (bound_id, mode)
        assert render_csv([rep]) == sink.getvalue(), (bound_id, mode)
        return sink.getvalue(), rep.rows.tobytes(), _summary(rep)

    scans = [
        ("B3", 1, 500, "every_integer"),
        ("B1", 2, 40_000, "every_jump"),
        ("B2", 2, 30_000, "every_integer"),  # two-sided: a lower and an upper row per evaluation
        ("B4", 2, 100_000, "every_integer"),  # with failing rows
        ("B2", 100, 100, "log_grid"),  # the 3 points repeat x = 100
        ("B2", 0.5, 1.5, "every_integer"),  # below the first abscissa: the header only
    ]
    for bound_id, lo, hi, mode in scans:
        text, _, (n_rows, n_failures, _, _) = scan(bound_id, lo, hi, mode)
        if bound_id == "B4":
            assert n_failures > 0 and text.count(",false\n") == n_failures
    assert n_rows == 0 and text == "x,lhs,rhs,margin,pass\n"
    # rows are read, formed and written one block of abscissae at a time: any
    # block size gives the CSV, the kept rows and the summary of the default
    # one.  One range crosses the segment boundary at 2**20; the other starts
    # at the first abscissa, where B4 fails at 19, 31, 113 and 199
    scans = [
        (bound_id, lo, hi, mode)
        for bound_id in ("B1", "B2", "B3", "B4")
        for mode in ("every_integer", "every_jump")
        for lo, hi in ((2**20 - 600, 2**20 + 600), (1, 400))
    ]
    want = {s: scan(*s) for s in scans}
    assert all(text.count("\n") > 1 for text, _, _ in want.values())
    assert all(want["B4", 1, 400, mode][2][1] > 0 for mode in ("every_integer", "every_jump"))
    for block in (1, 7, 4097):
        monkeypatch.setattr(verify, "_ROW_BLOCK", block)
        assert {s: scan(*s) for s in scans} == want, block


# ---------------------------------------------------------------------------
# emission


def test_emit_csv_and_determinism(tmp_path):
    rep = scan_bound("B3", 1, 300)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_report([rep], "csv", str(p1))
    emit_report([scan_bound("B3", 1, 300)], "csv", str(p2))
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    assert b1.startswith(b"x,lhs,rhs,margin,pass\n")
    assert b"\r" not in b1


def test_emit_json_schema():
    import json

    results = [run_claim("C15"), run_claim("M2"), scan_bound("B3", 1, 100)]
    text = render_json(results)
    objs = json.loads(text)
    assert [o["id"] for o in objs] == ["B3", "C15", "M2"]
    for o in objs:
        assert set(o) == {
            "id", "kind", "params", "max_abs_residual", "tolerance", "verdict", "arg_extremum",
        }
    assert objs[0]["verdict"] == "pass"
    assert objs[2]["verdict"] == "report"
    assert render_json(results) == text


def test_a_nan_margin_fails_and_names_its_row():
    # margins of inf - inf used to read as no escape: "fail max_abs_residual=0" at the first row
    rows = np.array([
        (1.0, 0.0, 1.0, 1.0, True),
        (2.0, 1.0, 0.5, -0.5, False),
        (3.0, math.inf, math.inf, math.nan, False),
        (4.0, 1.0, 0.0, -1.0, False),
    ])
    max_abs, tol, verdict, at, kept = verify._margin_rule(rows)
    assert verdict == "fail" and math.isnan(max_abs) and at == 3.0 and tol == 0.0 and kept is rows
    result = ClaimResult("C12", "bound_scan", {}, max_abs, tol, verdict, at, rows)
    assert '"max_abs_residual":null' in render_json([result])


def test_a_zero_margin_is_no_escape_and_prints_as_plus_zero():
    # np.maximum(0.0, -0.0) is -0.0, which would print "-0"
    rows = [(1.0, 1.0, 1.0, 0.0, False), (2.0, 0.0, -0.0, -0.0, False), (3.0, 0.0, 1.0, 1.0, True)]
    max_abs, _, verdict, at, _ = verify._margin_rule(rows)
    assert verdict == "fail" and at == 1.0  # no escape below 0: the first row
    assert max_abs == 0.0 and math.copysign(1.0, max_abs) == 1.0


def test_c6_fails_on_a_wide_bracket_at_s_2_and_c3_on_an_inexact_remainder(monkeypatch):
    # neither can happen at any s grid or N today, so the gates are driven by hand
    wide = lambda pair_id, s, limit: laplace.TransformBracket(s, -1e-6, 1e-6, 0.0, pair_id)
    monkeypatch.setattr(laplace, "laplace_pair", wide)
    r = run_claim("C6", {"s_grid": (3.0, 2.0)})
    assert (r.verdict, r.max_abs_residual, r.arg_extremum) == ("fail", 2e-6 - 1e-6, 2.0)
    assert all(row[4] for row in r.rows)  # every bracket contains its value
    assert run_claim("C6", {"s_grid": (3.0,)}).verdict == "pass"
    exact = comb.r_value_ordinate
    monkeypatch.setattr(comb, "r_value_ordinate", lambda a: exact(a) + 1e-9)
    r = run_claim("C3", {"n_grid": (10,), "c_grid": (0.5,)})
    assert r.verdict == "fail" and all(row[4] for row in r.rows)  # within 1/N^2, yet not exact


def test_emit_rejects_empty_and_rowless_csv():
    with pytest.raises(ValueError):
        emit_report([], "csv", "-")
    rep = ScanReport("B3", {}, 10, 0, 1.0, 2.0, rows=None)
    with pytest.raises(ValueError):
        render_csv([rep])
    with pytest.raises(ValueError):
        emit_report([run_claim("C15")], "yaml", "-")


def test_run_all_order():
    # registry order is the declaration order C1..C15, M1..M3
    assert list(CLAIMS) == [f"C{i}" for i in range(1, 16)] + ["M1", "M2", "M3"]


# ---------------------------------------------------------------------------
# the CSV writer against Python's own .17g formatting


def _csv_reference(values: np.ndarray, ok: np.ndarray) -> str:
    """Rows (x, lhs, rhs, margin, pass) one format(v, ".17g") call per value."""
    return "".join(
        f"{format(x, '.17g')},{format(a, '.17g')},{format(b, '.17g')},{format(m, '.17g')},"
        f"{'true' if p else 'false'}\n"
        for (x, a, b, m), p in zip(values.tolist(), ok.tolist())
    )


class _Writes(io.StringIO):
    """A text sink that keeps the row count of every write."""

    def __init__(self):
        super().__init__()
        self.rows = []

    def write(self, text):
        self.rows.append(text.count("\n"))
        return super().write(text)


def _oracle_values() -> np.ndarray:
    rng = np.random.default_rng(20260)
    parts = []
    # every decimal exponent from 1e-8 to 1e18
    for e in range(-8, 19):
        parts.append(rng.uniform(1.0, 10.0, 20_000) * 10.0 ** e)
    # integers up to 2^53, and the last ones below it
    parts.append(rng.integers(0, 2 ** 53, 60_000, endpoint=True).astype(np.float64))
    parts.append(rng.integers(0, 100_000, 20_000).astype(np.float64))
    parts.append(2.0 ** 53 - np.arange(1000.0))
    # dyadic ties: m / 2^j with exactly 18 significant digits, the last a 5,
    # so the 17-digit rounding is a tie (k + 1 integer digits and 17 - k
    # fraction digits for k >= 0, or j = 17 - k fraction digits below 1)
    for k in range(-4, 17):
        j = 17 - k
        lo, hi = 10.0 ** k * 2.0 ** j, min(10.0 ** (k + 1) * 2.0 ** j, 2.0 ** 53)
        if lo < hi:
            m = rng.integers(int(lo), int(hi), 5_000) | 1
            parts.append(m[m >= lo] / 2.0 ** j)
    # every power of ten from 1e-9 to 1e19 and the 8 doubles to either side,
    # which puts the scaled product within an ulp or so of 1e16 and 1e17
    for e in range(-9, 20):
        p = float(f"1e{e}")
        down, up = [p], [p]
        for _ in range(8):
            down.append(math.nextafter(down[-1], 0.0))
            up.append(math.nextafter(up[-1], math.inf))
        parts.append(np.array(down + up[1:]))
    big = sys.float_info.max
    parts.append(np.array([0.0, math.inf, math.nan, 5e-324, big, 2.2250738585072014e-308, 1e-5, 1e17, 1e18]))
    v = np.concatenate(parts)
    v = np.concatenate([v, -v])
    return v[rng.permutation(len(v))]


@pytest.fixture(scope="module")
def oracle_rows():
    v = _oracle_values()
    v = v[: len(v) // 4 * 4].reshape(-1, 4)
    ok = np.random.default_rng(7).random(len(v)) < 0.5
    return v, ok, _csv_reference(v, ok)


def test_csv_fields_are_those_of_format_17g(oracle_rows):
    v, ok, want = oracle_rows
    assert v.size >= 1_000_000
    sink = _Writes()
    verify._write_csv(sink, *v.T, ok)
    got = sink.getvalue()
    if got != want:
        bad = next(i for i, (a, b) in enumerate(zip(got.splitlines(), want.splitlines())) if a != b)
        pytest.fail(f"row {bad}: {got.splitlines()[bad]!r} != {want.splitlines()[bad]!r}")
    assert max(sink.rows) == verify._CSV_CHUNK and sum(sink.rows) == len(v)


@pytest.mark.parametrize("off", [1.0, -1.0])
def test_csv_fields_do_not_rest_on_the_hosts_log10(oracle_rows, monkeypatch, off):
    # a log10 guess that is one off everywhere is corrected on the exact digits
    v, ok, want = oracle_rows
    guess = verify._exponent_guess
    monkeypatch.setattr(verify, "_exponent_guess", lambda a: guess(a) + off)
    sink = io.StringIO()
    verify._write_csv(sink, *v.T, ok)
    assert sink.getvalue() == want


@pytest.mark.parametrize(
    "n", [0, 1, verify._CSV_CHUNK - 1, verify._CSV_CHUNK, verify._CSV_CHUNK + 1, 2 ** 14 - 1, 2 ** 14, 2 ** 14 + 1]
)
def test_csv_rows_go_out_in_chunks(n):
    rng = np.random.default_rng(n)
    v = rng.standard_normal((n, 4)) * 10.0 ** rng.integers(-6, 19, (n, 4))
    ok = v[:, 3] > 0
    sink = _Writes()
    verify._write_csv(sink, *v.T, ok)
    assert sink.getvalue() == _csv_reference(v, ok)
    chunk = verify._CSV_CHUNK
    assert sink.rows == [chunk] * (n // chunk) + ([n % chunk] if n % chunk else [])


def test_claim_csv_rows_are_written_as_scan_rows_are():
    rows = np.array([(2.0, -0.0, math.inf, math.nan, True), (1e-7, 123456.78, -1e300, 0.5, False)])
    rep = ScanReport("B3", {}, 2, 1, 0.5, 1e-7, rows=rows)
    want = "x,lhs,rhs,margin,pass\n" + _csv_reference(rows[:, :4], rows[:, 4] != 0)
    assert render_csv([rep]) == want
    assert want.endswith("2,-0,inf,nan,true\n9.9999999999999995e-08,123456.78,-1.0000000000000001e+300,0.5,false\n")


@pytest.mark.parametrize("n", [1000, 2**20 - 12345, 2**20])
def test_m1_segment_sums_have_the_bits_of_the_dense_array(n):
    # M1 sums n Lambda(n) over a segment from Lambda's jumps alone
    rng = np.random.default_rng(n)
    at = np.unique(rng.integers(0, n, n // 8))
    values = rng.uniform(-1.0, 1.0, at.size) * 10.0 ** rng.uniform(-8.0, 8.0, at.size)
    dense = np.zeros(n)
    dense[at] = values
    assert laplace._pairwise_sum(verify._scatter_leaf(at, values), n) == np.sum(dense)


def _traced_peak_mb(run) -> float:
    """Peak MB that run() allocates; tracemalloc sees numpy's arrays too."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _cold_zeta1_bracket():
    laplace._cached_comb.cache_clear()
    laplace.laplace_pair("zeta1", 2.0, limit=1e6)


# the unit combs' sums and M1's segment sums go leaf by leaf, 2**14 terms at a
# time; one comb- or segment-sized array of float64 would take 8 MB
@pytest.mark.parametrize(
    "run, bound_mb",
    [
        (_cold_zeta1_bracket, 1.0),
        (lambda: run_claim("M3"), 4.0),
        (lambda: run_claim("M1"), 6.0),
        (lambda: run_claim("M1", {"x_max": 3_000_000}), 8.0),
    ],
    ids=["zeta1-cold", "M3", "M1", "M1-3e6"],
)
def test_comb_claims_run_in_bounded_memory(run, bound_mb):
    assert _traced_peak_mb(run) < bound_mb


@pytest.mark.parametrize("bound_id", ["B3", "B4"])
def test_csv_scans_run_in_flat_memory(bound_id):
    # rows are read, formed and written one block at a time, so a CSV scan
    # over four segments peaks as one over one segment does, well below one
    # segment of float64 (8 MB); whole segments of rows peaked at 127-134 MB
    with open(os.devnull, "w") as sink:
        scan = lambda hi: scan_bound(bound_id, 2, hi, row_sink=sink, keep_rows=False)
        scan(1000)  # the CSV writer's tables
        one = _traced_peak_mb(lambda: scan(2**20 - 1))
        four = _traced_peak_mb(lambda: scan(3.2e6))
    assert four < 7.0 and four < 1.1 * one, (one, four)
