import json
import math
from pathlib import Path

import numpy as np
import pytest

from markovorder import Trajectory, ingest
from markovorder.errors import (
    GridTooLargeError,
    InsufficientDataError,
    InsufficientSpanError,
    LengthMismatchError,
    NegativeGapError,
    NonFiniteValueError,
    NonMonotonicTimestampsError,
    NonPositiveDtError,
    PolarLatitudeError,
    SchemaMismatchError,
    UnparsableRowError,
)
from markovorder.ingest import (
    IngestConfig,
    derive_state_series,
    detect_schema,
    differentiate,
    ingest_file,
    interpolate_gaps,
    latlon_to_local,
    parse_csv,
    project_longitudinal,
    project_records,
    read_trajectory,
    resample,
    segment,
    write_trajectory,
)


def arrays(rows):
    """(t, pos) from rows of (t, lead_a, lead_b, follow_a, follow_b)."""
    table = np.array(rows, dtype=float)
    return table[:, 0], table[:, 1:]


class TestLatLon:
    def test_origin_maps_to_zero(self):
        assert latlon_to_local(28.1, -82.4, 28.1, -82.4) == (0.0, 0.0)

    def test_one_degree_latitude(self):
        _, y = latlon_to_local(28.1 + 1.0, -82.4, 28.1, -82.4)
        assert y == pytest.approx(111194.93, abs=0.01)

    def test_one_degree_longitude_at_sixty_north(self):
        x, _ = latlon_to_local(60.0, 10.0 + 1.0, 60.0, 10.0)
        assert x == pytest.approx(55597.46, abs=0.01)

    def test_polar_rejected(self):
        with pytest.raises(PolarLatitudeError):
            latlon_to_local(89.5, 0.0, 0.0, 0.0)

    def test_project_records_matches_row_loop(self):
        rng = np.random.default_rng(0)
        pos = np.column_stack([28.0 + 0.01 * rng.random(50), -82.0 + 0.01 * rng.random(50),
                               28.0 + 0.01 * rng.random(50), -82.0 + 0.01 * rng.random(50)])
        pos[[3, 10], 0] = math.nan
        pos[[10, 20], 1] = math.nan
        pos[0, 2] = math.nan   # the origin becomes the follower of row 1
        _, out = project_records(np.arange(50.0), pos)
        o_lat, o_lon = pos[1, 2], pos[1, 3]
        rad = math.pi / 180.0
        for i in range(50):
            for v in (0, 2):
                lat, lon = pos[i, v], pos[i, v + 1]
                if math.isfinite(lat) and math.isfinite(lon):
                    x = 6_371_000.0 * (lon - o_lon) * rad * math.cos(o_lat * rad)
                    y = 6_371_000.0 * (lat - o_lat) * rad
                    assert (out[i, v], out[i, v + 1]) == (x, y)
                else:
                    assert math.isnan(out[i, v]) and math.isnan(out[i, v + 1])

    def test_polar_rejected_in_arrays(self):
        with pytest.raises(PolarLatitudeError):
            latlon_to_local(np.array([28.0, -89.5]), np.zeros(2), 28.0, 0.0)


class TestInterpolate:
    def test_midpoint_fill(self):
        t, pos = interpolate_gaps(*arrays([[0.0, 0.0, 0.0, 0.0, 0.0],
                                           [1.0, math.nan, math.nan, math.nan, math.nan],
                                           [2.0, 2.0, 0.0, 2.0, 0.0]]))
        assert t.shape == (3,) and pos.shape == (3, 4)
        assert pos[1].tolist() == [1.0, 0.0, 1.0, 0.0]

    def test_no_missing_is_identity(self):
        t_in, pos_in = arrays([[0.0, 0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 0.0, 1.0, 0.0]])
        t, pos = interpolate_gaps(t_in, pos_in)
        np.testing.assert_array_equal(t, t_in)
        np.testing.assert_array_equal(pos, pos_in)

    def test_edges_dropped(self):
        t, pos = interpolate_gaps(*arrays([[0.0, math.nan, 0.0, 0.0, 0.0],
                                           [1.0, 1.0, 0.0, 1.0, 0.0],
                                           [2.0, math.nan, 0.0, 2.0, 0.0]]))
        assert t.tolist() == [1.0]
        assert pos.tolist() == [[1.0, 0.0, 1.0, 0.0]]

    def test_nothing_known(self):
        with pytest.raises(InsufficientDataError):
            interpolate_gaps(*arrays([[0.0, math.nan, math.nan, 0.0, 0.0]]))

    def test_no_rows(self):
        with pytest.raises(InsufficientDataError):
            interpolate_gaps(np.empty(0), np.empty((0, 4)))


class TestResample:
    def test_subsample_uniform_grid(self):
        t, pos = resample(*arrays([[i * 0.1, i * 0.1, 0.0, 0.0, 0.0] for i in range(31)]), 1.0)
        assert t.tolist() == [0.0, 1.0, 2.0, 3.0]
        assert pos.shape == (4, 4)
        assert pos[2, 0] == pytest.approx(2.0, abs=1e-12)

    def test_matching_grid_is_identity(self):
        t_in, pos_in = arrays([[float(i), float(i), 0.0, 0.0, 0.0] for i in range(5)])
        t, pos = resample(t_in, pos_in, 1.0)
        np.testing.assert_array_equal(t, t_in)
        np.testing.assert_array_equal(pos, pos_in)

    def test_short_span_rejected(self):
        with pytest.raises(InsufficientSpanError):
            resample(*arrays([[0.0, 0.0, 0.0, 0.0, 0.0], [0.5, 1.0, 0.0, 0.0, 0.0]]), 1.0)

    @pytest.mark.parametrize("dt, rows", [(1e-300, "2e+300"), (1e-12, "2e+12"),
                                          (5e-324, "inf")])
    def test_grid_above_cap_rejected(self, dt, rows):
        three = arrays([[float(i), 50.0 + 5 * i, 0.0, 3.5 * i, 0.0] for i in range(3)])
        with pytest.raises(GridTooLargeError) as exc:
            resample(*three, dt)
        assert str(exc.value) == f"dt = {dt} makes a grid of {rows} rows, above 10000000"

    def test_grid_at_cap_accepted(self, monkeypatch):
        monkeypatch.setattr(ingest, "_MAX_GRID_ROWS", 1000)
        two = arrays([[0.0, 0.0, 0.0, 0.0, 0.0], [999.0, 999.0, 0.0, 0.0, 0.0]])
        t, pos = resample(*two, 1.0)
        assert t.shape == (1000,) and pos[-1, 0] == 999.0
        with pytest.raises(GridTooLargeError, match="1001 rows, above 1000"):
            resample(*two, 999.0 / 1000)


class TestDifferentiate:
    def test_constant_slope(self):
        np.testing.assert_array_equal(differentiate([0.0, 1.0, 2.0], 1.0), [1.0, 1.0])

    def test_constant_positions(self):
        np.testing.assert_array_equal(differentiate([3.0, 3.0, 3.0], 1.0), [0.0, 0.0])

    def test_acceleration_step(self):
        np.testing.assert_array_equal(differentiate([0.0, 2.0], 0.5), [4.0])

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            differentiate([1.0], 1.0)


class TestDeriveStates:
    def test_uniform_motion(self):
        traj = derive_state_series([10.0, 11.0, 12.0, 13.0], [0.0, 1.0, 2.0, 3.0], 1.0)
        assert traj.length == 2
        np.testing.assert_array_equal(traj.states, [[1.0, 1.0, 10.0], [1.0, 1.0, 10.0]])
        np.testing.assert_array_equal(traj.actions, [0.0, 0.0])

    def test_alignment_of_differenced_series(self):
        traj = derive_state_series([0.0, 1.0, 3.0, 6.0], [0.0, 0.0, 0.0, 0.0], 1.0)
        np.testing.assert_array_equal(traj.states, [[2.0, 0.0, 3.0], [3.0, 0.0, 6.0]])

    def test_negative_gap(self):
        with pytest.raises(NegativeGapError):
            derive_state_series([0.0, 1.0, 2.0], [5.0, 6.0, 7.0], 1.0)

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            derive_state_series([1.0, 2.0], [0.0, 0.0], 1.0)


def _linear_traj(T, dt=1.0):
    states = np.column_stack([np.full(T, 5.0), np.full(T, 5.0),
                              np.full(T, 20.0) + 0.0 * np.arange(T)])
    return Trajectory(states, dt=dt, id="lin")


class TestSegment:
    def test_fixed_length_count(self):
        traj = _linear_traj(250)
        cfg = IngestConfig(segment_length=120.0, segment_mode="fixed")
        parts = segment(traj, cfg)
        assert len(parts) == 2
        assert all(p.length == 120 for p in parts)
        assert parts[0].id != parts[1].id

    def test_min_length_keeps_long(self):
        traj = _linear_traj(100)
        cfg = IngestConfig(min_length=70.0, segment_mode="min")
        parts = segment(traj, cfg)
        assert len(parts) == 1
        assert parts[0] is traj

    def test_min_length_drops_short(self):
        traj = _linear_traj(60)
        cfg = IngestConfig(min_length=70.0, segment_mode="min")
        assert segment(traj, cfg) == []

    def test_trims_reduce_usable_span(self):
        traj = _linear_traj(140)
        cfg = IngestConfig(segment_length=120.0, trim_head=10.0, trim_tail=10.0)
        assert len(segment(traj, cfg)) == 1
        cfg = IngestConfig(segment_length=120.0, trim_head=15.0, trim_tail=10.0)
        assert segment(traj, cfg) == []
        # trims that leave fewer than 2 samples give nothing in either mode
        for mode in ("fixed", "min"):
            cfg = IngestConfig(segment_length=2.0, min_length=1.0, segment_mode=mode,
                               trim_head=69.0, trim_tail=70.0)
            assert segment(traj, cfg) == []

    def test_min_length_trimmed_keeps_id(self):
        traj = _linear_traj(100)
        cfg = IngestConfig(min_length=50.0, segment_mode="min", trim_head=10.0)
        parts = segment(traj, cfg)
        assert [(p.length, p.id) for p in parts] == [(90, "lin")]
        np.testing.assert_array_equal(parts[0].states, traj.states[10:])

    def test_fixed_segment_below_two_steps_gives_nothing(self):
        cfg = IngestConfig(segment_length=1.2, min_length=1.0, segment_mode="fixed")
        assert segment(_linear_traj(100), cfg) == []

    def test_count_invariant(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            T = int(rng.integers(10, 500))
            traj = _linear_traj(T)
            cfg = IngestConfig(segment_length=60.0, min_length=60.0)
            assert len(segment(traj, cfg)) == T // 60


NON_FINITE_CASES = [
    # NaN compares false, so it passed the strictly-increasing check
    (["0,10,0,0,0", "nan,11,0,1,0", "2,12,0,2,0", "3,13,0,3,0"], 2),
    # an infinite last time stamp is "after" every earlier one
    (["0,10,0,0,0", "1,11,0,1,0", "inf,12,0,2,0"], 3),
    (["-inf,10,0,0,0", "1,11,0,1,0"], 1),
    # the non-finite row comes before a non-numeric cell, so it decides
    (["0,10,0,0,0", "nan,11,0,1,0", "2,bogus,0,2,0"], 2),
]

FIRST_BAD_ROW_CASES = [
    # a time stamp that goes back, then a non-numeric cell: the earlier row decides
    (["0,10,0,0,0", "1,11,0,1,0", "1,12,0,2,0", "3,bogus,0,3,0"],
     NonMonotonicTimestampsError, None),
    # the same two faults in the other order
    (["0,10,0,0,0", "1,bogus,0,1,0", "1,12,0,2,0"], UnparsableRowError, 2),
    # both in one row: the time stamp is checked first
    (["0,10,0,0,0", "0,bogus,0,1,0"], NonMonotonicTimestampsError, None),
    # blank lines are skipped and do not count as rows
    (["0,10,0,0,0", "", "1,11,0,1,0", ",12,0,2,0"], UnparsableRowError, 3),
]


class TestParseCsv(object):
    def write(self, tmp_path, text, name="raw.csv"):
        p = tmp_path / name
        p.write_text(text)
        return p

    def test_well_formed(self, tmp_path):
        p = self.write(tmp_path, "time_s,lead_x,lead_y,follow_x,follow_y\n"
                                 "0,10,0,0,0\n1,11,0,1,0\n2,12,0,2,0\n")
        t, pos, kind = parse_csv(p)
        assert kind == "planar" and t.tolist() == [0.0, 1.0, 2.0]
        assert pos.shape == (3, 4)
        assert pos[1].tolist() == [11.0, 0.0, 1.0, 0.0]

    def test_missing_timestamp_column(self, tmp_path):
        p = self.write(tmp_path, "lead_x,lead_y,follow_x,follow_y\n1,2,3,4\n")
        with pytest.raises(SchemaMismatchError, match=r"^raw\.csv: header .* matches neither"):
            parse_csv(p)

    @pytest.mark.parametrize("where", ["header", "data", "late data"])
    def test_non_utf8_is_schema_error_naming_file(self, tmp_path, where):
        rows = ["time_s,lead_x,lead_y,follow_x,follow_y"]
        rows += [f"{i},{10 + i},0,{i},0" for i in range(20000)]   # > one 64 KiB block
        at = {"header": 0, "data": 3, "late data": 19000}[where]
        text = "\n".join(rows) + "\n"
        cut = text.index("\n", sum(len(r) + 1 for r in rows[:at]))
        p = tmp_path / "latin1.csv"
        p.write_bytes(text[:cut].encode() + b"\xe9" + text[cut:].encode())
        with pytest.raises(SchemaMismatchError, match=r"latin1\.csv: not UTF-8 .*0xe9"):
            parse_csv(p)

    # the csv module refuses a cell above its field size limit, 131,072
    # characters; a quote sends the file down the row-wise path, and so does
    # an unquoted cell above the limit, which float() would read as inf
    @pytest.mark.parametrize("where", ["header", "data", "column"])
    def test_oversized_cell_is_schema_error_naming_file(self, tmp_path, where):
        huge = '"' + "1" * 200_000 + '"'
        rows = ["time_s,lead_x,lead_y,follow_x,follow_y", "0,10,0,0,0", "1,11,0,1,0"]
        if where == "column":   # unquoted, in place of lead_x
            rows[2] = "1," + huge.strip('"') + ",0,1,0"
        else:
            rows[{"header": 0, "data": 2}[where]] += "," + huge
        p = self.write(tmp_path, "\n".join(rows) + "\n", name="huge.csv")
        with pytest.raises(SchemaMismatchError, match=r"^huge\.csv: field larger than"):
            parse_csv(p)

    def test_unparsable_row_reported(self, tmp_path):
        rows = ["time_s,lead_lat,lead_lon,follow_lat,follow_lon"]
        rows += [f"{i},28.0,-82.0,28.0,-82.0" for i in range(6)]
        rows += ["6,bogus,-82.0,28.0,-82.0"]
        p = self.write(tmp_path, "\n".join(rows) + "\n")
        with pytest.raises(UnparsableRowError) as err:
            parse_csv(p)
        assert err.value.row == 7

    def test_empty_cells_become_missing(self, tmp_path):
        p = self.write(tmp_path, "time_s,lead_x,lead_y,follow_x,follow_y\n"
                                 "0,10,0,0,0\n1,,,1,0\n2,12,0,2,0\n")
        _, pos, _ = parse_csv(p)
        assert math.isnan(pos[1, 0]) and math.isnan(pos[1, 1])
        assert pos[1, 2:].tolist() == [1.0, 0.0]

    def test_non_monotonic_timestamps(self, tmp_path):
        p = self.write(tmp_path, "time_s,lead_x,lead_y,follow_x,follow_y\n"
                                 "0,10,0,0,0\n0,11,0,1,0\n")
        with pytest.raises(NonMonotonicTimestampsError):
            parse_csv(p)

    @pytest.mark.parametrize("rows, row", NON_FINITE_CASES)
    def test_non_finite_timestamp_names_its_row(self, tmp_path, rows, row):
        p = self.write(tmp_path, "\n".join(["time_s,lead_x,lead_y,follow_x,follow_y", *rows]) + "\n")
        with pytest.raises(NonFiniteValueError, match=f"row {row}: timestamp .* not finite"):
            parse_csv(p)

    @pytest.mark.parametrize("rows, error, row", FIRST_BAD_ROW_CASES)
    def test_first_bad_row_decides(self, tmp_path, rows, error, row):
        p = self.write(tmp_path, "\n".join(["time_s,lead_x,lead_y,follow_x,follow_y", *rows]) + "\n")
        with pytest.raises(error) as err:
            parse_csv(p)
        if row is not None:
            assert err.value.row == row

    # a few characters a block, so that lines straddle blocks
    @pytest.mark.parametrize("rows, row", NON_FINITE_CASES)
    def test_non_finite_timestamp_names_its_row_small_blocks(self, tmp_path, monkeypatch,
                                                             rows, row):
        monkeypatch.setattr(ingest, "_BLOCK_SIZE", 5)
        self.test_non_finite_timestamp_names_its_row(tmp_path, rows, row)

    @pytest.mark.parametrize("rows, error, row", FIRST_BAD_ROW_CASES)
    def test_first_bad_row_decides_small_blocks(self, tmp_path, monkeypatch, rows, error, row):
        monkeypatch.setattr(ingest, "_BLOCK_SIZE", 5)
        self.test_first_bad_row_decides(tmp_path, rows, error, row)

    # quoted cells take the row-wise path, which rewinds past the mark again
    @pytest.mark.parametrize("quote", ["", '"'])
    def test_byte_order_mark_and_crlf(self, tmp_path, quote):
        rows = ["time_s,lead_x,lead_y,follow_x,follow_y", "0,10,0,0,0", "1,11,,1,0"]
        p = tmp_path / "bom.csv"
        p.write_bytes(b"\xef\xbb\xbf" + "".join(
            ",".join(quote + c + quote for c in r.split(",")) + "\r\n" for r in rows).encode())
        t, pos, _ = parse_csv(p)
        assert t.tolist() == [0.0, 1.0]
        assert pos[0].tolist() == [10.0, 0.0, 0.0, 0.0]
        assert math.isnan(pos[1, 1])

    def test_short_row_reads_absent_cells_as_missing(self, tmp_path):
        p = self.write(tmp_path, "time_s,lead_x,lead_y,follow_x,follow_y\n"
                                 "0,10,0,0,0\n1,11,0,1\n2,12,0,2,0\n")
        _, pos, _ = parse_csv(p)
        assert pos[1, :3].tolist() == [11.0, 0.0, 1.0] and math.isnan(pos[1, 3])

    def test_quoted_comma_is_one_cell(self, tmp_path):
        # split at every comma, the second row would have one cell per column
        p = self.write(tmp_path, "time_s,note,extra,lead_x,lead_y,follow_x,follow_y\n"
                                 "0,a,5,10,0,0,0\n1,\"b,c\",11,0,1,0\n")
        t, pos, _ = parse_csv(p)
        assert t.tolist() == [0.0, 1.0]
        assert pos[1, :3].tolist() == [0.0, 1.0, 0.0] and math.isnan(pos[1, 3])

    def test_bare_carriage_return_ends_a_row(self, tmp_path):
        # float() would strip the \r; the csv module ends the row there
        p = self.write(tmp_path, "time_s,lead_x,lead_y,follow_x,follow_y\n"
                                 "0,10,0,0,0\n1,11\r,0,1,0\n")
        with pytest.raises(UnparsableRowError) as err:
            parse_csv(p)
        assert err.value.row == 3

    @pytest.mark.parametrize("block_size", [5, 64, 1 << 16])
    def test_layouts_read_alike(self, tmp_path, monkeypatch, block_size):
        monkeypatch.setattr(ingest, "_BLOCK_SIZE", block_size)
        rng = np.random.default_rng(8)
        table = np.column_stack([np.arange(40) * 0.1, rng.uniform(-1e3, 1e3, (40, 4))])
        cells = [[repr(v) for v in row] for row in table.tolist()]
        cells[3][1] = cells[17][4] = ""
        names = ["time_s", "lead_x", "lead_y", "follow_x", "follow_y"]

        def text(rows, end="\n"):
            return end.join(",".join(r) for r in rows) + end

        reordered = [4, 0, 2, 1, 3]
        layouts = {
            "lf": text([names, *cells]),
            "crlf": text([names, *cells], "\r\n"),
            "blank_lines": text([names, *cells[:5], [], [], *cells[5:], []]),
            "no_final_newline": text([names, *cells])[:-1],
            "extra_column": text([r + [x] for r, x in zip([names, *cells],
                                                          ["note", *"ab" * 20])]),
            "reordered": text([[r[j] for j in reordered] for r in [names, *cells]]),
            "quoted": text([names, *[[f'"{c}"' for c in r] for r in cells]]),
        }
        row_path, row_wise = [], ingest._parse_rows

        def spy(*args):
            row_path.append(args)
            return row_wise(*args)
        monkeypatch.setattr(ingest, "_parse_rows", spy)
        want_t, want_pos = table[:, 0], table[:, 1:].copy()
        want_pos[3, 0] = want_pos[17, 3] = math.nan
        for name, body in layouts.items():
            p = tmp_path / f"{name}.csv"
            p.write_bytes(body.encode())
            t, pos, kind = parse_csv(p)
            assert kind == "planar", name
            np.testing.assert_array_equal(t, want_t, err_msg=name)
            np.testing.assert_array_equal(pos, want_pos, err_msg=name)
            # only the quoted file goes through the row-wise path
            assert len(row_path) == (name == "quoted"), name

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            parse_csv(tmp_path / "nope.csv")

    def test_detect_geodetic(self):
        assert detect_schema(["time_s", "lead_lat", "lead_lon",
                              "follow_lat", "follow_lon"]) == "geodetic"


class TestPipeline:
    def _uniform_motion_csv(self, tmp_path, n=300):
        # exactly representable values: dt 1, speeds 5.0 and 3.5, straight +x
        lines = ["time_s,lead_x,lead_y,follow_x,follow_y"]
        for i in range(n):
            lines.append(f"{i},{50 + 5.0 * i},0.0,{3.5 * i},0.0")
        p = tmp_path / "uniform.csv"
        p.write_text("\n".join(lines) + "\n")
        return p

    def test_noiseless_uniform_motion_is_exact(self, tmp_path):
        p = self._uniform_motion_csv(tmp_path)
        cfg = IngestConfig(resample_dt=1.0, segment_length=120.0, segment_mode="fixed")
        parts = ingest_file(p, cfg)
        assert len(parts) == 2
        for part in parts:
            v0 = np.unique(part.states[:, 0])
            v1 = np.unique(part.states[:, 1])
            assert v0.tolist() == [5.0]
            assert v1.tolist() == [3.5]
            assert np.all(part.actions == 0.0)

    def test_pipeline_deterministic(self, tmp_path):
        p = self._uniform_motion_csv(tmp_path)
        cfg = IngestConfig(resample_dt=1.0, segment_length=120.0)
        a = ingest_file(p, cfg)
        b = ingest_file(p, cfg)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.states, y.states)
            np.testing.assert_array_equal(x.actions, y.actions)

    def test_geodetic_pipeline_runs(self, tmp_path):
        lines = ["time_s,lead_lat,lead_lon,follow_lat,follow_lon"]
        lat0, lon0 = 28.0, -82.0
        for i in range(200):
            # leader 30 m ahead, both moving north at ~10 m/s
            lead_lat = lat0 + (30.0 + 10.0 * i) / 111194.9266
            fol_lat = lat0 + (10.0 * i) / 111194.9266
            lines.append(f"{i},{lead_lat!r},{lon0},{fol_lat!r},{lon0}")
        p = tmp_path / "geo.csv"
        p.write_text("\n".join(lines) + "\n")
        cfg = IngestConfig(resample_dt=1.0, min_length=70.0, segment_mode="min")
        parts = ingest_file(p, cfg)
        assert len(parts) == 1
        traj = parts[0]
        assert traj.states[:, 0] == pytest.approx(10.0, abs=1e-6)
        assert traj.states[:, 2] == pytest.approx(30.0, abs=1e-6)

    # the header is read once, for the layout and the data alike; the
    # row-wise fallback of a quoted file rewinds rather than reopens
    @pytest.mark.parametrize("quote", ["", '"'])
    def test_each_file_is_opened_once(self, tmp_path, monkeypatch, quote):
        lat, lon, fol_lat, fol_lon = self._diagonal_track()
        geo = self._geodetic_csv(tmp_path / "geo.csv", lat, lon, fol_lat, fol_lon)
        planar = self._uniform_motion_csv(tmp_path)
        for p in (geo, planar):
            p.write_text("".join(quote + line.replace(",", f"{quote},{quote}") + quote + "\n"
                                 for line in p.read_text().splitlines()))
        opened, real_open = [], Path.open

        def spy(self, *args, **kwargs):
            opened.append(self.name)
            return real_open(self, *args, **kwargs)
        monkeypatch.setattr(Path, "open", spy)
        cfg = IngestConfig(resample_dt=1.0, segment_mode="min")
        for p in (geo, planar):
            assert len(ingest_file(p, cfg)) == 1
        assert opened == ["geo.csv", "uniform.csv"]

    def _geodetic_csv(self, path, lead_lat, lead_lon, fol_lat, fol_lon):
        def cell(v):
            return "" if math.isnan(v) else repr(float(v))
        lines = ["time_s,lead_lat,lead_lon,follow_lat,follow_lon"]
        for i, row in enumerate(zip(lead_lat, lead_lon, fol_lat, fol_lon)):
            lines.append(",".join([str(i), *map(cell, row)]))
        path.write_text("\n".join(lines) + "\n")
        return path

    def _diagonal_track(self, n=200):
        # both vehicles head north-east; the leader accelerates, so a gap
        # filled by interpolation differs from the true track
        t = np.arange(n, dtype=float)
        deg = 1.0 / 111194.9266
        fol = 10.0 * t
        lead = 30.0 + 10.0 * t + 0.01 * t ** 2
        scale_lon = deg / math.cos(math.radians(28.0))
        return (28.0 + lead * 0.6 * deg, -82.0 + lead * 0.8 * scale_lon,
                28.0 + fol * 0.6 * deg, -82.0 + fol * 0.8 * scale_lon)

    def test_polar_latitude_rejected(self, tmp_path):
        lead_lat, lead_lon, fol_lat, fol_lon = self._diagonal_track()
        lead_lat[50] = 89.5
        p = self._geodetic_csv(tmp_path / "polar.csv", lead_lat, lead_lon, fol_lat, fol_lon)
        with pytest.raises(PolarLatitudeError):
            ingest_file(p, IngestConfig(resample_dt=1.0, segment_mode="min"))

    def test_blank_leader_cells_match_interpolated_file(self, tmp_path):
        lead_lat, lead_lon, fol_lat, fol_lon = self._diagonal_track()
        blank_lat, blank_lon = [20, 60, 61, 62, 90], [40, 60, 120]
        gappy_lat, gappy_lon = lead_lat.copy(), lead_lon.copy()
        gappy_lat[blank_lat] = math.nan
        gappy_lon[blank_lon] = math.nan
        # a position with one blank coordinate is missing in both, so the
        # filled file interpolates both coordinates of every such row
        rows = sorted(set(blank_lat) | set(blank_lon))
        known = np.setdiff1d(np.arange(lead_lat.shape[0]), rows)
        filled_lat, filled_lon = lead_lat.copy(), lead_lon.copy()
        filled_lat[rows] = np.interp(rows, known, lead_lat[known])
        filled_lon[rows] = np.interp(rows, known, lead_lon[known])
        cfg = IngestConfig(resample_dt=1.0, segment_mode="min")
        gappy = ingest_file(self._geodetic_csv(tmp_path / "gappy.csv", gappy_lat,
                                               gappy_lon, fol_lat, fol_lon), cfg)
        filled = ingest_file(self._geodetic_csv(tmp_path / "filled.csv", filled_lat,
                                                filled_lon, fol_lat, fol_lon), cfg)
        assert len(gappy) == len(filled) == 1
        np.testing.assert_allclose(gappy[0].states, filled[0].states, rtol=0, atol=1e-6)
        np.testing.assert_allclose(gappy[0].actions, filled[0].actions, rtol=0, atol=1e-6)
        # the fill is not a no-op: the true track differs at the blank rows
        true = ingest_file(self._geodetic_csv(tmp_path / "true.csv", lead_lat,
                                              lead_lon, fol_lat, fol_lon), cfg)
        assert np.abs(true[0].states - gappy[0].states).max() > 1e-3


class TestProjectLongitudinal:
    def test_straight_line_is_exact(self):
        n = 10
        lead = np.column_stack([10.0 + 2.0 * np.arange(n), np.zeros(n)])
        follow = np.column_stack([1.0 * np.arange(n), np.zeros(n)])
        ls, fs = project_longitudinal(lead, follow)
        np.testing.assert_array_equal(fs, np.arange(n, dtype=float))
        np.testing.assert_array_equal(ls, 10.0 + 2.0 * np.arange(n))

    def test_stationary_pair_rejected(self):
        pts = np.zeros((5, 2))
        with pytest.raises(InsufficientDataError):
            project_longitudinal(pts, pts)


class TestCanonicalFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        traj = Trajectory(rng.standard_normal((40, 3)), dt=0.5, id="rt",
                          actions=rng.standard_normal(40),
                          metadata={"cohort": "hv", "scenario": "osc"})
        path = write_trajectory(traj, tmp_path / "rt.csv")
        back = read_trajectory(path)
        np.testing.assert_array_equal(back.states, traj.states)
        np.testing.assert_array_equal(back.actions, traj.actions)
        assert back.dt == traj.dt
        assert back.id == "rt"
        assert dict(back.metadata) == dict(traj.metadata)

    def test_golden_bytes_with_actions(self, tmp_path):
        traj = Trajectory([[0.1, 2.5, 30.0], [1 / 3, -1e-05, 29.75],
                           [12.0, 1e16, 0.2], [-0.0, 7.0, 28.5]], dt=0.1,
                          actions=[0.0, -0.5, 2.0, 1 / 7], id="g",
                          metadata={"cohort": "av"})
        path = write_trajectory(traj, tmp_path / "g.csv")
        assert path.read_bytes() == (
            b"time_s,v0,v1,gap,a1\r\n"
            b"0.0,0.1,2.5,30.0,0.0\r\n"
            b"0.1,0.3333333333333333,-1e-05,29.75,-0.5\r\n"
            b"0.2,12.0,1e+16,0.2,2.0\r\n"
            b"0.30000000000000004,-0.0,7.0,28.5,0.14285714285714285\r\n"
        )
        assert (tmp_path / "g.json").read_text() == (
            '{\n  "dt": 0.1,\n  "id": "g",\n  "metadata": {\n    "cohort": "av"\n  }\n}\n'
        )

    def test_golden_bytes_without_actions(self, tmp_path):
        traj = Trajectory([[1.5, -2.0], [0.1, 3.0], [2.0, 1e-300]], dt=0.5, id="n")
        path = write_trajectory(traj, tmp_path / "n.csv")
        assert path.read_bytes() == (
            b"time_s,x0,x1,a1\r\n0.0,1.5,-2.0,\r\n0.5,0.1,3.0,\r\n1.0,2.0,1e-300,\r\n"
        )

    @pytest.mark.parametrize("text, error", [
        ("", SchemaMismatchError),
        ("time_s,v0,a1\n0.0,1.0,0.5\n1.0,oops,0.5\n", UnparsableRowError),
        ("time_s,v0,a1\n0.0,1.0,0.5\n1.0,2.0\n", UnparsableRowError),
        # without a sidecar, dt is the difference of the first two time stamps
        ("time_s,v0,a1\n0.0,1.0,0.5\n0.0,2.0,0.5\n1.0,3.0,0.5\n", NonPositiveDtError),
        ("time_s,v0,a1\n0.0,1.0,0.5\n", LengthMismatchError),
    ])
    def test_malformed_file_is_data_error(self, tmp_path, text, error):
        p = tmp_path / "bad.csv"
        p.write_text(text)
        with pytest.raises(error) as err:
            read_trajectory(p)
        if error is UnparsableRowError:
            assert err.value.row == 2

    def test_without_sidecar(self, tmp_path):
        traj = Trajectory(np.arange(12.0).reshape(4, 3), dt=0.25, id="named",
                          actions=np.ones(4), metadata={"cohort": "av"})
        path = write_trajectory(traj, tmp_path / "bare.csv")
        path.with_suffix(".json").unlink()
        back = read_trajectory(path)
        assert back.id == "bare"
        assert back.dt == 0.25
        assert dict(back.metadata) == {}
        np.testing.assert_array_equal(back.states, traj.states)

    def test_non_utf8_is_schema_error_naming_file(self, tmp_path):
        p = tmp_path / "latin1.csv"
        p.write_bytes(b"time_s,v0,a1\n0.0,1.0,0.5\n1.0,2.0,0.5\xe9\n")
        with pytest.raises(SchemaMismatchError, match=r"latin1\.csv: not UTF-8"):
            read_trajectory(p)

    def test_oversized_cell_is_schema_error_naming_file(self, tmp_path):
        p = tmp_path / "huge.csv"
        p.write_text("time_s,v0,a1\n0.0,1.0,0.5\n1.0," + "2" * 200_000 + ",0.5\n")
        with pytest.raises(SchemaMismatchError, match=r"^huge\.csv: field larger than"):
            read_trajectory(p)

    def test_round_trip_generic_dimension(self, tmp_path):
        rng = np.random.default_rng(4)
        traj = Trajectory(rng.standard_normal((20, 2)), dt=1.0, id="d2")
        back = read_trajectory(write_trajectory(traj, tmp_path / "d2.csv"))
        np.testing.assert_array_equal(back.states, traj.states)
        assert back.actions is None

    @pytest.mark.parametrize("sidecar", [{"dt": True}, {"dt": False}, {"metadata": {"cohort": 5}},
                                         {"metadata": {"cohort": "av", "scenario": None}},
                                         {"metadata": [[1, "av"]]}],
                             ids=["dt-true", "dt-false", "number", "null", "number-key"])
    def test_sidecar_outside_the_cli_rules_is_schema_error_naming_it(self, tmp_path, sidecar):
        # no bool where a number belongs, and metadata maps strings to strings
        traj = Trajectory([[1.0, 2.0], [1.5, 2.5], [2.0, 2.0]], dt=0.5, id="s",
                          metadata={"cohort": "av"})
        path = write_trajectory(traj, tmp_path / "s.csv")
        (tmp_path / "s.json").write_text(json.dumps({"id": "s", "dt": 0.5, **sidecar}))
        with pytest.raises(SchemaMismatchError, match=r"^s\.json: (dt|metadata) "):
            read_trajectory(path)


def reference_bytes(traj):
    """The canonical CSV as one ``repr`` per cell over the stacked table."""
    cols = ["v0", "v1", "gap"] if traj.dim == 3 else [f"x{j}" for j in range(traj.dim)]
    table = [np.arange(traj.length) * traj.dt, traj.states]
    if traj.actions is not None:
        table.append(traj.actions)
    end = "\r\n" if traj.actions is not None else ",\r\n"
    lines = [",".join(["time_s", *cols, "a1"]) + "\r\n"]
    lines += [",".join(map(repr, row)) + end for row in np.column_stack(table).tolist()]
    return "".join(lines).encode()


class TestWriterBytes:
    # the time cells are cached by (length, dt): a short column must not be
    # served to a longer segment, nor one step's column to another step
    @pytest.mark.parametrize("d, with_actions", [(3, True), (2, False)])
    def test_matches_one_repr_per_cell(self, tmp_path, d, with_actions):
        ingest._time_cells.cache_clear()
        rng = np.random.default_rng(d)
        for i, (T, dt) in enumerate([(800, 0.1), (1200, 0.1), (800, 0.1),
                                     (1200, 0.1), (1200, 0.04)]):
            actions = rng.standard_normal(T) if with_actions else None
            traj = Trajectory(rng.standard_normal((T, d)) * 30.0, dt=dt,
                              actions=actions, id=f"w{i}")
            path = write_trajectory(traj, tmp_path / f"w{i}.csv")
            assert path.read_bytes() == reference_bytes(traj), (T, dt)
