"""One declaration of the transport knobs.

``Transport`` declares, defaults and range-checks ``workers``,
``loss_rate``, ``reorder_window``, ``shards``, ``seed``,
``congestion`` and ``queue_capacity``; ``SimulationConfig``,
``SchedulerConfig``, ``repro.api.ServeConfig`` and every CLI command
derive from it.  These tests keep the derived copies from drifting.
"""

import dataclasses

import pytest

from repro.api import ServeConfig
from repro.cli import _parser, main
from repro.cluster.scheduler import SchedulerConfig
from repro.cluster.simulation import SimulationConfig, Transport


def test_the_three_default_sets_agree():
    assert ServeConfig().scheduler_config() == SchedulerConfig()
    assert SchedulerConfig().tenant_simulation_config(0) == SimulationConfig()


def test_serve_config_spells_every_transport_knob():
    config = ServeConfig(loss=0.1, reorder=2, workers=3, shards=2,
                         seed=7, congestion="aimd", queue_capacity=5)
    transport = config.scheduler_config().transport()
    assert transport == Transport(
        workers=3, loss_rate=0.1, reorder_window=2, shards=2, seed=7,
        congestion="aimd", queue_capacity=5).transport()


@pytest.mark.parametrize("config", [Transport(), SimulationConfig(),
                                    SchedulerConfig()])
def test_configs_are_frozen(config):
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.loss_rate = 0.5


def test_run_keeps_its_flags_and_defaults(capsys):
    assert vars(_parser().parse_args(["run", "distinct"])) == {
        "command": "run", "names": ["distinct"], "results_dir": "results",
        "loss": None, "reorder": None, "workers": 4, "shards": 1,
        "seed": 0, "congestion": "fixed", "queue_capacity": None,
        "rows": 1200, "mode": "pipelined", "metrics_out": None,
        "span_out": None, "log_level": None,
    }
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "-h"])
    assert exit_info.value.code == 0
    usage = capsys.readouterr().out
    for option in ("--loss", "--reorder", "--workers", "--shards",
                   "--seed", "--congestion", "--queue-capacity", "--rows",
                   "--mode"):
        assert option in usage, option


@pytest.mark.parametrize("argv,message", [
    (["run", "distinct", "--workers", "0"],
     "repro run: workers must be >= 1, got 0"),
    (["serve", "--queue-capacity", "0"],
     "repro serve: queue_capacity must be >= 1 (or None for unbounded), "
     "got 0"),
    (["replay", "--gen", "poisson", "--reorder", "-1"],
     "repro replay: reorder_window must be >= 0, got -1"),
    (["serve", "--loss", "1.5"],
     "repro serve: loss_rate must be in [0, 1), got 1.5"),
])
def test_out_of_range_transport_flags_exit_2(argv, message, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err == message + "\n"
