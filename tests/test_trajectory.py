"""Checkpointed trajectory evaluation with exact prefix semantics."""

import os
import signal
import threading
from dataclasses import replace

import numpy as np
import pytest

from ruleboost import trajectory
from ruleboost.cli import main
from ruleboost.errors import ConfigError, RuleBoostError, SolverError
from ruleboost.metrics import hamming_loss, subset_zero_one_loss
from ruleboost.prediction import decode_scores, default_decode_method
from ruleboost.rules import ensemble_scores, staged_scores
from ruleboost.synthetic import SyntheticConfig, generate
from ruleboost.trajectory import (
    ALL_VARIANTS,
    TrajectoryPoint,
    TrajectoryVariant,
    run_trajectory,
)
from ruleboost.training import TrainConfig, train


@pytest.fixture(scope="module")
def small_data():
    config = SyntheticConfig("marginal_independence", n_examples=300, n_labels=3, seed=8)
    return generate(config)


class TestRunTrajectory:
    def test_empty_variant_list(self, small_data):
        train_data, test_data = small_data
        assert run_trajectory(train_data, test_data, [], [1, 2]) == {}

    def test_checkpoints_must_ascend(self, small_data):
        train_data, test_data = small_data
        variant = ALL_VARIANTS[0]
        with pytest.raises(ConfigError):
            run_trajectory(train_data, test_data, [variant], [4, 2])
        with pytest.raises(ConfigError):
            run_trajectory(train_data, test_data, [variant], [0, 2])

    @pytest.mark.parametrize("setting,message", [
        ({"shrinkage": 2.0}, r"shrinkage must be in \(0, 1\]"),
        ({"l2_weight": -1.0}, "l2_weight must be nonnegative"),
        ({"seed": -1}, "seed must be nonnegative"),
    ])
    def test_bad_setting_raises_before_any_fork(self, small_data, monkeypatch, setting,
                                                message):
        train_data, test_data = small_data
        use_cpus(monkeypatch, {0, 1})

        def no_forks():
            raise AssertionError("a child process was forked")

        def no_training(data, config):
            raise AssertionError("a variant was trained")

        monkeypatch.setattr(os, "fork", no_forks, raising=False)
        monkeypatch.setattr(trajectory, "train", no_training)
        with pytest.raises(ConfigError, match=f"^{message}$"):
            run_trajectory(train_data, test_data, ALL_VARIANTS, [1, 2], **setting)

    def test_series_shape_and_names(self, small_data):
        train_data, test_data = small_data
        series = run_trajectory(
            train_data, test_data, ALL_VARIANTS, [1, 2, 4], seed=3
        )
        assert set(series) == {
            "lwlog-single", "lwlog-multi", "exwlog-single", "exwlog-multi"
        }
        for points in series.values():
            assert [p.n_rules for p in points] == [1, 2, 4]
            for p in points:
                assert 0.0 <= p.hamming <= 1.0
                assert 0.0 <= p.subset01 <= 1.0

    def test_checkpoint_one_is_default_rule_performance(self, small_data):
        """The first checkpoint must equal evaluating just the default rule."""
        train_data, test_data = small_data
        for variant in (ALL_VARIANTS[0], ALL_VARIANTS[3]):
            series = run_trajectory(train_data, test_data, [variant], [1, 2], seed=6)
            point = series[variant.name][0]
            config = TrainConfig(
                loss=variant.loss, n_rules=1, head_mode=variant.head_mode, seed=6
            )
            ensemble = train(train_data, config)
            scores = ensemble_scores(ensemble, test_data)
            predicted = decode_scores(
                scores, default_decode_method(variant.loss), ensemble.label_vectors
            )
            assert point.hamming == hamming_loss(test_data.labels, predicted)
            assert point.subset01 == subset_zero_one_loss(test_data.labels, predicted)

    def test_default_rules_differ_across_losses(self, small_data):
        """The two losses start from different default rules."""
        train_data, _ = small_data
        lw = train(train_data, TrainConfig(loss="label-wise-logistic", n_rules=1))
        exw = train(train_data, TrainConfig(loss="example-wise-logistic", n_rules=1))
        assert not np.allclose(lw.rules[0].head.scores, exw.rules[0].head.scores)

    def test_prefix_evaluation_equals_fresh_training(self, small_data):
        """Series values at checkpoint t match a fresh model with t rules."""
        train_data, test_data = small_data
        variant = TrajectoryVariant("example-wise-logistic", "multi")
        series = run_trajectory(train_data, test_data, [variant], [1, 3, 6], seed=17)
        for point in series[variant.name]:
            config = TrainConfig(
                loss=variant.loss,
                n_rules=point.n_rules,
                head_mode=variant.head_mode,
                seed=17,
            )
            fresh = train(train_data, config)
            scores = ensemble_scores(fresh, test_data)
            predicted = decode_scores(
                scores, default_decode_method(variant.loss), fresh.label_vectors
            )
            assert point.hamming == hamming_loss(test_data.labels, predicted)
            assert point.subset01 == subset_zero_one_loss(test_data.labels, predicted)


def use_cpus(monkeypatch, cpus):
    """Make ``cpus`` the usable CPU set, whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus), raising=False)


def check_before_training(monkeypatch, check):
    """Patch ``trajectory.train`` to call ``check(config)`` first; forked children inherit it."""
    original = trajectory.train

    def patched(data, config):
        check(config)
        return original(data, config)

    monkeypatch.setattr(trajectory, "train", patched)


def for_exwlog_multi(action):
    def check(config):
        if (config.loss, config.head_mode) == ("example-wise-logistic", "multi"):
            action()

    return check


def raise_solver_error():
    raise SolverError("head system of exwlog-multi is singular")


def no_child_left():
    """Whether this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")


@needs_fork
class TestParallelTraining:
    @pytest.mark.parametrize("l2_weight", [0.0, 1.0])
    @pytest.mark.parametrize("cpus,callers_share", [
        ({0, 1}, {"exwlog-single", "lwlog-multi"}),
        ({0, 1, 2}, {"lwlog-multi", "lwlog-single"}),
    ], ids=["2cpus", "3cpus"])
    def test_parallel_series_equal_serial_in_callers_order(self, small_data, monkeypatch,
                                                           tmp_path, l2_weight, cpus,
                                                           callers_share):
        """The caller trains the last share; each other share trains in its own child."""
        train_data, test_data = small_data
        orders = (ALL_VARIANTS, ALL_VARIANTS[::-1])

        def run_all():
            return [run_trajectory(train_data, test_data, variants, [1, 2, 4, 8],
                                   l2_weight=l2_weight, seed=5) for variants in orders]

        use_cpus(monkeypatch, {0})
        serial = run_all()
        use_cpus(monkeypatch, cpus)
        log = tmp_path / "trained.txt"
        names = {(v.loss, v.head_mode): v.name for v in ALL_VARIANTS}

        def record(config):
            with open(log, "a") as out:
                out.write(f"{os.getpid()} {names[config.loss, config.head_mode]}\n")

        check_before_training(monkeypatch, record)
        for variants, expected in zip(orders, serial):
            log.unlink(missing_ok=True)
            series = run_trajectory(train_data, test_data, variants, [1, 2, 4, 8],
                                    l2_weight=l2_weight, seed=5)
            assert list(series) == [v.name for v in variants]
            assert list(series.items()) == list(expected.items())
            trained = [line.split() for line in log.read_text().splitlines()]
            assert sorted(name for _, name in trained) == sorted(names.values())
            assert {name for pid, name in trained if int(pid) == os.getpid()} == callers_share
            children = {int(pid) for pid, _ in trained} - {os.getpid()}
            assert len(children) == len(cpus) - 1
        assert no_child_left()

    @pytest.mark.parametrize("cpus", [{0}, {0, 1}])
    def test_worker_error_keeps_its_type_and_message(self, small_data, monkeypatch, capsys,
                                                     tmp_path, cpus):
        train_data, test_data = small_data
        use_cpus(monkeypatch, cpus)
        check_before_training(monkeypatch, for_exwlog_multi(raise_solver_error))
        with pytest.raises(SolverError) as caught:
            run_trajectory(train_data, test_data, ALL_VARIANTS, [1, 2])
        assert str(caught.value) == "head system of exwlog-multi is singular"
        code = main(["trajectory", "--scenario", "marginal_dependence", "--n", "120",
                     "--labels", "3", "--checkpoints", "1,2",
                     "--out", str(tmp_path / "series")])
        assert code == 1
        assert capsys.readouterr().err == "error: head system of exwlog-multi is singular\n"
        assert not (tmp_path / "series").exists()

    @pytest.mark.parametrize("die,ended", [
        (lambda: os._exit(3), r"\(exit code 3\)"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), rf"\(signal {int(signal.SIGKILL)}\)"),
    ], ids=["exit", "killed"])
    def test_worker_that_dies_raises_rule_boost_error(self, small_data, monkeypatch, die,
                                                      ended):
        train_data, test_data = small_data
        use_cpus(monkeypatch, {0, 1})
        check_before_training(monkeypatch, for_exwlog_multi(die))
        with pytest.raises(RuleBoostError, match="a worker exited before returning "
                                                 "its results " + ended):
            run_trajectory(train_data, test_data, ALL_VARIANTS, [1, 2])
        assert no_child_left()

    @pytest.mark.parametrize("error", [SolverError, KeyboardInterrupt])
    def test_error_in_the_callers_share_leaves_no_child(self, small_data, monkeypatch, error):
        train_data, test_data = small_data
        use_cpus(monkeypatch, {0, 1})
        caller = os.getpid()

        def fail_in_caller(config):
            if os.getpid() == caller:
                raise error("the caller's share failed")

        check_before_training(monkeypatch, fail_in_caller)
        with pytest.raises(error, match="the caller's share failed"):
            run_trajectory(train_data, test_data, ALL_VARIANTS, [1, 2, 4, 8, 16, 32])
        assert no_child_left()

    def test_unpicklable_worker_error_names_its_type(self, small_data, monkeypatch):
        train_data, test_data = small_data
        use_cpus(monkeypatch, {0, 1})

        class LocalError(Exception):
            """A class defined in a function cannot be pickled."""

        def raise_local_error():
            raise LocalError("not picklable")

        check_before_training(monkeypatch, for_exwlog_multi(raise_local_error))
        with pytest.raises(RuleBoostError,
                           match="a worker raised LocalError: not picklable"):
            run_trajectory(train_data, test_data, ALL_VARIANTS, [1, 2])
        assert no_child_left()

    def test_series_larger_than_a_pipe_buffer(self, small_data, monkeypatch):
        """A child's payload that fills the pipe waits for the caller, who reads it whole."""
        train_data, test_data = small_data
        use_cpus(monkeypatch, {0, 1})

        def many_points(config, *, train_data, test_data, checkpoints):
            return [TrajectoryPoint(t, 1.0 / t, config.head_mode == "multi") for t in checkpoints]

        monkeypatch.setattr(trajectory, "_variant_points", many_points)
        # About 1.4 MB of pickled points: more than a pipe holds, even one grown to 1 MiB.
        checkpoints = list(range(1, 50001))

        def timed_out(signum, frame):
            raise AssertionError("the trajectory map did not return within 60 s")

        previous = signal.signal(signal.SIGALRM, timed_out)
        signal.alarm(60)
        try:
            series = run_trajectory(train_data, test_data, ALL_VARIANTS, checkpoints)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        for variant in ALL_VARIANTS:
            assert series[variant.name] == [
                TrajectoryPoint(t, 1.0 / t, variant.head_mode == "multi") for t in checkpoints
            ]
        assert no_child_left()

    def test_one_usable_cpu_forks_nothing(self, small_data, monkeypatch):
        train_data, test_data = small_data
        use_cpus(monkeypatch, {0})

        def no_forks():
            raise AssertionError("a child process was forked")

        monkeypatch.setattr(os, "fork", no_forks)
        series = run_trajectory(train_data, test_data, ALL_VARIANTS, [1, 2])
        assert list(series) == [v.name for v in ALL_VARIANTS]

    def test_without_os_fork_trains_in_process(self, small_data, monkeypatch):
        train_data, test_data = small_data
        use_cpus(monkeypatch, {0})
        serial = run_trajectory(train_data, test_data, ALL_VARIANTS, [1, 2])
        use_cpus(monkeypatch, {0, 1})
        monkeypatch.delattr(os, "fork")
        assert run_trajectory(train_data, test_data, ALL_VARIANTS, [1, 2]) == serial


    def test_other_threads_keep_training_in_process(self, small_data, monkeypatch):
        """A bare fork copies only the calling thread, so with others alive nothing forks."""
        train_data, test_data = small_data
        use_cpus(monkeypatch, {0})
        serial = run_trajectory(train_data, test_data, ALL_VARIANTS, [1, 2])
        use_cpus(monkeypatch, {0, 1})

        def no_forks():
            raise AssertionError("a child process was forked")

        monkeypatch.setattr(os, "fork", no_forks)
        release = threading.Event()
        parked = threading.Thread(target=release.wait)
        parked.start()
        try:
            assert run_trajectory(train_data, test_data, ALL_VARIANTS, [1, 2]) == serial
        finally:
            release.set()
            parked.join()


class TestStagedScores:
    def test_stage_equals_scores_of_the_prefix(self, small_data):
        """Unsorted and repeated checkpoints give each distinct stage once, ascending."""
        train_data, test_data = small_data
        ensemble = train(train_data, TrainConfig(loss="example-wise-logistic", n_rules=6, seed=2))
        stages = [
            (t, scores.copy()) for t, scores in staged_scores(ensemble, test_data, [4, 1, 6, 4, 2])
        ]
        assert [t for t, _ in stages] == [1, 2, 4, 6]
        for t, scores in stages:
            prefix = replace(ensemble, rules=ensemble.rules[:t])
            np.testing.assert_array_equal(scores, ensemble_scores(prefix, test_data))

    def test_checkpoints_outside_the_ensemble_rejected(self, small_data):
        train_data, test_data = small_data
        ensemble = train(train_data, TrainConfig(n_rules=3))
        assert list(staged_scores(ensemble, test_data, [])) == []
        for checkpoints in ([4], [0, 2]):
            with pytest.raises(ValueError):
                list(staged_scores(ensemble, test_data, checkpoints))
