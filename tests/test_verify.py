"""Claim registry, bound scanners, and report emission."""

import io
import math

import numpy as np
import pytest

from zetalab.sieve import iter_segments
from zetalab.verify import (
    CLAIMS,
    ClaimResult,
    ScanReport,
    bound_ids,
    emit_report,
    render_csv,
    render_json,
    run_all,
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
        assert r.rows
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


def test_bound_ids():
    assert set(bound_ids()) == {"B1", "B2", "B3", "B4"}
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
    import _oracle as oracle

    # every row to 4e5, which holds all the failing rows below 1e7, against the
    # independent oracle; the scan keeps all of them (one sieve segment)
    rep = scan_bound("B4", 2, 400_000, keep_rows=True)
    want = oracle.scan_integers(2, 400_000, keep_rows=True)
    assert rep.n_rows == len(rep.rows)
    diff = oracle.row_mismatch(np.array(rep.rows, dtype=np.float64), want.rows)
    assert not diff, diff
    assert (rep.n_failures, rep.argmin_x) == (want.n_failures, want.argmin_x)
    assert abs(rep.min_margin - want.min_margin) <= 1e-9
    assert not rep.passed
    # the first lattice points where |J - (li - li(2))| crosses 0.7 sqrt(x)/log x
    failing = sorted({row[0] for row in rep.rows if not row[4]})
    assert [x for x in failing if x <= 10_000] == [19.0, 31.0, 113.0, 199.0]


def test_oracle_prime_counts_match_sympy():
    sympy = pytest.importorskip("sympy")
    import _oracle as oracle

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
        assert rep.n_rows == 0 and rep.rows == [], mode


def test_b1_jump_mode_counts_both_sides():
    rep = scan_bound("B1", 2, 1000, mode="every_jump")
    # one left row and one value row per prime power <= 1000
    assert rep.n_rows == 2 * 193
    assert rep.passed


@pytest.mark.parametrize("bound_id", ["B1", "B2", "B3", "B4"])
def test_every_jump_rows_are_every_integer_rows_at_the_jumps(bound_id):
    # 2**20 starts a sieve segment and is a jump itself: weight 1/20 in J,
    # log 2 in psi (B2's pi does not jump there)
    import _oracle as oracle

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
    at_jumps = [r for r in dense.rows if int(r[0]) in jumps]
    assert sparse.rows == at_jumps
    assert sorted({int(r[0]) for r in sparse.rows}) == sorted(jumps)


def test_every_jump_scan_asks_j_only_at_its_jumps(monkeypatch):
    from zetalab import arith

    asked = []
    real = arith.j_higher_terms

    def counting(xs, limit):
        asked.append(len(xs))
        return real(xs, limit)

    monkeypatch.setattr(arith, "j_higher_terms", counting)
    rep = scan_bound("B1", 2, 3e6, "every_jump")
    # one-sided bound: a left-limit row and a value row per jump
    assert rep.n_rows > 0 and sum(asked) == rep.n_rows // 2


def test_every_integer_matches_denser_grid_extrema():
    hi = 2000
    rep = scan_bound("B3", 1, hi)
    (seg,) = iter_segments(0, hi, want_lam=True)
    cum = np.cumsum(seg.lam)
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


def test_scan_streaming_to_sink_matches_retained_rows():
    sink = io.StringIO()
    rep = scan_bound("B3", 1, 500, row_sink=sink)
    lines = sink.getvalue().splitlines()
    assert lines[0] == "x,lhs,rhs,margin,pass"
    assert len(lines) - 1 == rep.n_rows == len(rep.rows)
    first = lines[1].split(",")
    assert float(first[0]) == rep.rows[0][0]
    assert float(first[3]) == pytest.approx(rep.rows[0][3])


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
