"""The ``repro bench`` registry: CLI edge, flag plumbing, and the CI
gates (``BENCHES[name].check``) run against the checked-in records."""

import copy
import json
import pathlib

import pytest

from repro.bench.profile import check_hotpath_profile
from repro.cli import BENCHES, main

RESULTS = pathlib.Path(__file__).resolve().parent.parent / "results"

#: A parseable value per flag, so a rejection is about the flag itself.
FLAG_VALUES = {"loss": "0.1", "scale": "2e-5", "process": "burst",
               "policy": "tiers", "congestion": "aimd"}
ALL_FLAGS = sorted({flag for bench in BENCHES.values()
                    for flag in bench.flags}
                   | {"congestion", "queue_capacity"})
ROW_FLOORS = {"fig11": 40}


def _record(name):
    return json.loads((RESULTS / f"BENCH_{name}.json").read_text())


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("name", sorted(BENCHES))
def test_checked_in_record_passes_its_check(name):
    BENCHES[name].check(_record(name))


def test_checked_in_profile_passes_its_check():
    check_hotpath_profile(
        json.loads((RESULTS / "PROFILE_hotpath.json").read_text()))


def test_checked_in_fig11_record_cleared_the_speedup_floor():
    record = _record("fig11")
    # The checked-in artifact is the 1M-row run; CI's tiny rerun
    # only checks determinism, the recorded speedup is the
    # tracked perf claim.
    assert record["rows"] >= 1_000_000, record["rows"]
    assert record["all_equivalent"] is True
    assert record["overall_speedup_at_largest"] >= 5.0, record["overall_speedup_at_largest"]
    for series in record["decision_domain"].values():
        for point in series:
            assert point["equivalent"] is True, point
            assert len(point["decisions_sha256"]) == 64, point


@pytest.mark.parametrize("name", sorted(name for name in BENCHES
                                        if "all_equivalent"
                                        in _record(name)))
def test_check_rejects_a_diverged_payload(name):
    payload = copy.deepcopy(_record(name))
    payload["all_equivalent"] = False
    with pytest.raises(AssertionError):
        BENCHES[name].check(payload)


def test_obs_check_gates_serving_overhead():
    payload = copy.deepcopy(_record("obs"))
    payload["serving"]["overhead_ratio"] = 1.3
    with pytest.raises(AssertionError, match="serving obs overhead"):
        BENCHES["obs"].check(payload)


@pytest.mark.parametrize("name,flag", [
    (name, flag) for name in sorted(BENCHES) for flag in ALL_FLAGS
    if flag not in BENCHES[name].flags])
def test_bench_rejects_a_flag_it_does_not_read(name, flag, capsys):
    option = "--" + flag.replace("_", "-")
    code = _exit_code(["bench", name, option, FLAG_VALUES.get(flag, "1")])
    assert code == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["bench", "e2e", "--congestion", "aimd"],
    ["bench", "chaos", "--tenants", "2"],
    ["bench", "congestion", "--loss", "0.1"],
    ["bench", "fig11", "--policy", "tiers"],
])
def test_formerly_ignored_flags_are_rejected(argv):
    assert _exit_code(argv) == 2


@pytest.mark.parametrize("name", sorted(name for name in BENCHES
                                        if "rows" in BENCHES[name].flags))
def test_rows_below_the_floor_exit_2(name, capsys, tmp_path):
    rows = ROW_FLOORS.get(name, 20) - 1
    code = main(["bench", name, "--rows", str(rows),
                 "--results-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("repro bench: ") and "Traceback" not in err
    assert not list(tmp_path.iterdir())


def test_chaos_bench_with_one_shard_reaches_the_runner(capsys, tmp_path):
    # --shards 1 used to be rewritten to 3 shards silently.
    code = main(["bench", "chaos", "--shards", "1",
                 "--results-dir", str(tmp_path)])
    assert code == 2
    assert "shards must be >= 2, got 1" in capsys.readouterr().err


@pytest.mark.parametrize("scale", ["0", "-1e-5"])
def test_fig5_bench_rejects_nonpositive_scale(scale, capsys, tmp_path):
    code = main(["bench", "fig5", f"--scale={scale}",
                 "--results-dir", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith(
        "repro bench: scale must be positive")


def test_fig11_bench_echoes_its_shards(capsys, tmp_path):
    code = main(["bench", "fig11", "--rows", "400", "--shards", "4",
                 "--results-dir", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "BENCH_fig11.json").read_text())
    assert payload["shards"] == 4
    assert payload["all_equivalent"] is True


def test_load_bench_serves_every_requested_client(capsys, tmp_path):
    code = main(["bench", "load", "--clients", "6", "--closed-clients",
                 "1", "--closed-queries", "1", "--results-dir",
                 str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "BENCH_load.json").read_text())
    assert payload["clients"] == 6
    assert payload["open_loop"]["served"] == 6
    assert payload["all_equivalent"] is True


def test_profile_pushes_rows_through_the_codec(capsys, tmp_path):
    code = main(["profile", "--rows", "2000", "--serve-rows", "40",
                 "--tenants", "2", "--results-dir", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "PROFILE_hotpath.json").read_text())
    assert payload["codec_pipeline"]["packets"] == 2000


def test_readme_lists_each_bench_flag_with_its_default():
    readme = (RESULTS.parent / "README.md").read_text().splitlines()
    for name, bench in BENCHES.items():
        row = next(line for line in readme
                   if line.startswith(f"| `{name}` |"))
        assert row.count("`--") == len(bench.flags), name
        for flag, default in bench.flags.items():
            option = "--" + flag.replace("_", "-")
            assert f"`{option} {default}`" in row, (name, option)


#: The argv that reaches each README flag-matrix column's defaults.
MATRIX_ARGV = {"run": ["run", "distinct"], "serve": ["serve"],
               "replay": ["replay"], "chaos": ["chaos", "distinct"]}


def test_readme_flag_matrix_matches_the_parsers():
    from repro.cli import _TRANSPORT_FLAGS, _parser

    readme = (RESULTS.parent / "README.md").read_text().splitlines()
    header = next(line for line in readme
                  if line.startswith("| flag | `run` |"))
    commands = [cell.strip().strip("`")
                for cell in header.strip("|").split("|")[1:]]
    assert commands == list(MATRIX_ARGV)
    parsed = {command: vars(_parser().parse_args(argv))
              for command, argv in MATRIX_ARGV.items()}
    start = readme.index(header) + 2
    rows = {}
    for line in readme[start:]:
        if not line.startswith("| `--"):
            break
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        rows[cells[0].strip("`")] = cells[1:]
    assert {"--" + flag.replace("_", "-")
            for flag in _TRANSPORT_FLAGS} <= set(rows)
    for option, cells in rows.items():
        dest = option[2:].replace("-", "_")
        for command, cell in zip(commands, cells):
            args = parsed[command]
            if cell == "—":
                assert dest not in args, (command, option)
                continue
            # A cell naming a value (a number or a `literal`) is the
            # default; any other cell describes a None default.
            named = cell[0].isdigit() or cell.startswith("`")
            expected = cell.split()[0].strip("`") if named else None
            actual = args[dest]
            assert (None if actual is None else str(actual)) == expected, (
                command, option, actual)
