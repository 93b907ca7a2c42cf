import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gcflsim import fed
from gcflsim.clustering import ClusterState, cluster_aggregate
from gcflsim.errors import ArgumentError, DivergenceError
from gcflsim.fed import (
    _CLIENT_SEED_TAG,
    _INIT_SEED_TAG,
    ClientState,
    RunSettings,
    evaluate_client,
    local_train,
    run_federation,
)
from gcflsim.gnn import AdamState, GinModel, adam_step, gin_loss_and_grad, init_gin
from gcflsim.harness import synthetic_two_group_clients

from conftest import HYPOTHESIS, labelled, random_graph, union


def tiny_clients(num=2, graphs_each=8, seed=0, feat_dim=3):
    rng = np.random.default_rng(seed)
    clients = []
    for i in range(num):
        graphs = []
        for j in range(graphs_each):
            g = replace(random_graph(rng, n=5, feat_dim=feat_dim), labels=np.array([j % 2]))
            graphs.append(g)
        clients.append(ClientState(i, union(graphs[:-2]), union(graphs[-2:])))
    return clients


TINY = RunSettings(hidden=6, num_layers=2)


def run_one(clients, algorithm, rounds, settings, criteria=None, seed=0):
    """The result of a ``run_federation`` call that runs one algorithm alone, under ``criteria``,
    a dict of split settings."""
    return run_federation(clients, [algorithm], rounds, replace(settings, **(criteria or {})),
                          seed)[0]


def final_params(result):
    """Each client's model after a run: the model of the cluster it ended in."""
    return {cid: cluster.model for cluster in result.final_clusters for cid in cluster.members}


def reports_equal(a, b):
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        for ea, eb in zip(ra.entries, rb.entries):
            if (ea.client_id, ea.cluster_id) != (eb.client_id, eb.cluster_id):
                return False
            for fa, fb in ((ea.train_loss, eb.train_loss), (ea.test_loss, eb.test_loss),
                           (ea.test_acc, eb.test_acc), (ea.grad_norm, eb.grad_norm)):
                if not (fa == fb or (np.isnan(fa) and np.isnan(fb))):
                    return False
    return True


def fedavg_aggregate(deltas, sizes, base):
    """The FedAvg step as the round loop runs it: one cluster holding ``base``."""
    return cluster_aggregate(ClusterState(0, list(range(len(deltas))), base.copy()), deltas, sizes)


@st.composite
def member_updates(draw):
    """One to six same-shape updates, each with a positive integer data size."""
    n, dim = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    value = st.floats(-10.0, 10.0, allow_nan=False)
    deltas = [np.array(draw(st.lists(value, min_size=dim, max_size=dim))) for _ in range(n)]
    return deltas, draw(st.lists(st.integers(1, 500), min_size=n, max_size=n))


class TestFedavgAggregate:
    @HYPOTHESIS
    @given(member_updates(), st.data())
    def test_weighted_mean_properties(self, updates, data):
        deltas, sizes = updates
        base = np.linspace(-1.0, 1.0, deltas[0].size)
        out = fedavg_aggregate(deltas, sizes, base)
        order = data.draw(st.permutations(range(len(deltas))))
        shuffled = fedavg_aggregate([deltas[i] for i in order], [sizes[i] for i in order], base)
        assert np.allclose(shuffled, out, rtol=0.0, atol=1e-12)
        k = data.draw(st.integers(2, 1000))
        assert np.array_equal(fedavg_aggregate(deltas, [k * s for s in sizes], base), out)
        same = fedavg_aggregate([deltas[0]] * len(deltas), sizes, base)
        assert np.allclose(same, base + deltas[0], rtol=0.0, atol=1e-12)

    def test_weighted_by_sizes(self):
        base = np.zeros(2)
        a, b = np.array([4.0, 0.0]), np.array([0.0, 4.0])
        out = fedavg_aggregate([a, b], [1, 3], base)
        assert np.allclose(out, (a + 3 * b) / 4)

    def test_length_mismatch(self):
        with pytest.raises(ArgumentError):
            fedavg_aggregate([np.zeros(2)], [1, 2], np.zeros(2))


class TestRunConfig:
    @pytest.mark.parametrize("key, value, rule", [
        ("batch_size", 0, ">= 1"), ("batch_size", -1, ">= 1"), ("hidden", 0, ">= 1"),
        ("num_layers", 0, ">= 1"), ("window", 0, ">= 1"), ("window", -1, ">= 1"),
        ("epochs", -1, ">= 0"), ("lr", -1.0, ">= 0"), ("weight_decay", -1e-9, ">= 0"),
        ("prox_mu", -0.1, ">= 0"), ("lr", math.inf, "finite"), ("weight_decay", math.inf, "finite"),
        ("prox_mu", math.inf, "finite")])
    def test_bad_value_rejected(self, key, value, rule):
        with pytest.raises(ArgumentError, match=f"^{key} must be {rule}, got {value}$"):
            RunSettings(**{key: value})


class TestLocalTrain:
    def _ready_client(self, seed=0):
        """A client, a model, its start parameters, an Adam state and a shuffle RNG."""
        client = tiny_clients(1, seed=seed)[0]
        model = init_gin(3, 2, hidden=6, num_layers=2, rng=np.random.default_rng(1))
        size = model.vector.size
        return (client, model, model.vector.copy(), AdamState(np.zeros(size), np.zeros(size)),
                np.random.default_rng(42))

    def test_zero_epochs_zero_delta(self):
        delta, loss = local_train(*self._ready_client(), replace(TINY, epochs=0))
        assert np.all(delta == 0.0) and np.isnan(loss)

    def test_zero_mu_prox_identical_to_plain(self):
        delta_plain, loss_plain = local_train(*self._ready_client(), replace(TINY, epochs=2))
        delta_prox, loss_prox = local_train(*self._ready_client(), replace(TINY, epochs=2),
                                            prox_mu=0.0)
        assert np.array_equal(delta_plain, delta_prox) and loss_plain == loss_prox

    def test_narrow_client_leaves_unread_rows_unmoved(self):
        # a width-3 client of a width-6 GIN: weight decay alone would step W1[0]'s rows 3-5
        # and their Adam moments
        client = tiny_clients(1, feat_dim=3)[0]
        model = init_gin(6, 2, hidden=4, num_layers=2, rng=np.random.default_rng(1))
        size = model.vector.size
        config = replace(TINY, epochs=3, batch_size=2, weight_decay=5e-4, prox_mu=0.01)
        optimizer = AdamState(np.zeros(size), np.zeros(size))
        delta, _ = local_train(client, model, model.vector.copy(), optimizer,
                               np.random.default_rng(42), config, prox_mu=config.prox_mu)
        for vector in (delta, optimizer.m, optimizer.v):
            rows = GinModel(6, 2, 4, 2, vector).w1[0]
            assert np.all(rows[3:] == 0.0) and not np.any(np.signbit(rows[3:]))
            assert np.all(rows[:3] != 0.0)

    def test_prox_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        graphs = labelled((random_graph(rng, n=5) for _ in range(2)), [0, 1])
        model = init_gin(3, 2, hidden=5, num_layers=2, rng=rng)
        theta = model.vector.copy()
        anchor = theta + 0.1 * rng.standard_normal(theta.shape)
        mu = 0.37

        def objective(vec):
            model.vector[:] = vec
            loss, _ = gin_loss_and_grad(model, graphs)
            return loss + 0.5 * mu * float((vec - anchor) @ (vec - anchor))

        model.vector[:] = theta
        _, base_grad = gin_loss_and_grad(model, graphs)
        analytic = base_grad + mu * (theta - anchor)
        h = 1e-5
        for k in range(0, len(theta), 7):  # sample coordinates
            up, down = theta.copy(), theta.copy()
            up[k] += h
            down[k] -= h
            numeric = (objective(up) - objective(down)) / (2 * h)
            assert abs(numeric - analytic[k]) <= max(1e-8, 1e-4 * max(abs(numeric), abs(analytic[k])))
        model.vector[:] = theta


class TestRunFederation:
    @pytest.mark.parametrize("batch_size", [TINY.batch_size, 4])  # 4: 6 graphs, a partial batch
    def test_selftrain_equals_isolated_training(self, batch_size):
        clients = tiny_clients(2)
        rounds = 4
        config = replace(TINY, batch_size=batch_size)
        fed_params = final_params(run_one(clients, "selftrain", rounds, config))

        # independent per-client loop using only the gnn primitives and the
        # documented seed derivation: no federation machinery involved
        init_rng = np.random.default_rng(np.random.SeedSequence([0, _INIT_SEED_TAG]))
        init = init_gin(3, 2, TINY.hidden, TINY.num_layers, init_rng).vector
        for client in tiny_clients(2):
            model = GinModel(3, 2, TINY.hidden, TINY.num_layers, init.copy())
            opt = AdamState(np.zeros(len(init)), np.zeros(len(init)))
            rng = np.random.default_rng(
                np.random.SeedSequence([0, _CLIENT_SEED_TAG, client.id]))
            graphs = list(client.train_graphs)
            for _ in range(rounds * TINY.epochs):
                order = rng.permutation(len(graphs))
                for lo in range(0, len(order), batch_size):
                    idx = order[lo:lo + batch_size]
                    _, grad = gin_loss_and_grad(model, union(graphs[i] for i in idx))
                    model.vector[:] = adam_step(opt, model.vector,
                                                grad + TINY.weight_decay * model.vector, TINY.lr)
            assert np.array_equal(model.vector, fed_params[client.id])

    def test_single_client_fedavg_equals_selftrain(self):
        a = tiny_clients(1)
        b = tiny_clients(1)
        res_a = run_one(a, "fedavg", 3, TINY)
        res_b = run_one(b, "selftrain", 3, TINY)
        assert np.array_equal(final_params(res_a)[0], final_params(res_b)[0])
        assert reports_equal(res_a.reports, res_b.reports)

    def test_identical_clients_stay_identical_under_fedavg(self):
        # one training graph each, so the twins' shuffle RNGs, keyed on their ids, cannot
        # order their batches apart
        base = tiny_clients(1, graphs_each=8, seed=5)[0]
        twin_a = ClientState(0, base.train_graphs[0], base.test_graphs)
        twin_b = ClientState(1, base.train_graphs[0], base.test_graphs)
        result = run_one([twin_a, twin_b], "fedavg", 3, TINY)
        for report in result.reports:
            ea, eb = report.entries
            assert ea.grad_norm == eb.grad_norm
            assert ea.train_loss == eb.train_loss
        params = final_params(result)
        assert np.array_equal(params[0], params[1])

    def test_shuffle_follows_the_client_id(self):
        # one client's data under two ids: only its id-keyed batch order can tell them apart
        base = tiny_clients(1)[0]
        config = replace(TINY, batch_size=2)
        by_id = {cid: final_params(run_one([ClientState(cid, base.train_graphs,
                                                         base.test_graphs)],
                                           "selftrain", 2, config))[cid] for cid in (0, 3)}
        again = final_params(run_one([base], "selftrain", 2, config))[0]
        assert np.array_equal(by_id[0], again)
        assert not np.array_equal(by_id[0], by_id[3])

    def test_fedprox_mu_zero_equals_fedavg(self):
        clients = tiny_clients(2)
        cfg = RunSettings(hidden=6, num_layers=2, prox_mu=0.0)
        res_prox = run_one(clients, "fedprox", 3, cfg)
        prox_params = final_params(res_prox)
        res_avg = run_one(clients, "fedavg", 3, cfg)
        avg_params = final_params(res_avg)
        for cid in prox_params:
            assert np.array_equal(prox_params[cid], avg_params[cid])
        assert reports_equal(res_prox.reports, res_avg.reports)

    @pytest.mark.parametrize("epochs", [1, 2])
    def test_fedprox_with_one_step_per_round_equals_fedavg(self, epochs):
        # 6 training graphs and batch_size 128: one step per epoch, starting at the anchor
        clients = tiny_clients(2)
        cfg = replace(TINY, prox_mu=0.1, epochs=epochs)
        res_prox = run_one(clients, "fedprox", 3, cfg)
        res_avg = run_one(clients, "fedavg", 3, cfg)
        prox_params, avg_params = final_params(res_prox), final_params(res_avg)
        if epochs == 1:
            assert_same_run(replace(res_prox, algorithm="fedavg"), res_avg)
        else:
            assert not reports_equal(res_prox.reports, res_avg.reports)
            assert not any(np.array_equal(prox_params[cid], avg_params[cid]) for cid in avg_params)

    def test_single_cluster_gcfl_equals_fedavg_bitwise(self):
        clients = tiny_clients(3)
        res_gcfl = run_one(clients, "gcfl", 4, TINY, NEVER)
        gcfl_params = final_params(res_gcfl)
        res_avg = run_one(clients, "fedavg", 4, TINY)
        for cid, params in final_params(res_avg).items():
            assert np.array_equal(params, gcfl_params[cid])
        assert reports_equal(res_gcfl.reports, res_avg.reports)
        assert res_gcfl.split_events == []

    def test_no_split_gcflplus_equals_fedavg_bitwise(self):
        clients = tiny_clients(3)
        res_plus = run_one(clients, "gcflplus", 4, TINY, NEVER)
        plus_params = final_params(res_plus)
        res_avg = run_one(clients, "fedavg", 4, TINY)
        for cid, params in final_params(res_avg).items():
            assert np.array_equal(params, plus_params[cid])
        assert reports_equal(res_plus.reports, res_avg.reports)

    def test_grad_norm_column_matches_transmitted_delta(self, monkeypatch):
        sent = {}

        def recording(client, *args, **kwargs):
            delta, loss = local_train(client, *args, **kwargs)
            sent[client.id] = delta
            return delta, loss

        monkeypatch.setattr(fed, "local_train", recording)
        result = run_one(tiny_clients(2), "fedavg", 1, TINY)
        for entry in result.reports[-1].entries:
            assert entry.grad_norm == pytest.approx(
                float(np.linalg.norm(sent[entry.client_id])), abs=1e-15)

    def test_rerun_is_deterministic(self):
        clients = tiny_clients(2)
        res_a = run_one(clients, "fedavg", 3, TINY)
        res_b = run_one(clients, "fedavg", 3, TINY)
        assert reports_equal(res_a.reports, res_b.reports)
        params_b = final_params(res_b)
        for cid, params in final_params(res_a).items():
            assert np.array_equal(params, params_b[cid])

    def test_cluster_members_partition_clients_every_round(self):
        clients, _ = synthetic_two_group_clients(
            clients_per_group=2, graphs_per_client=12, seed=0)
        result = run_one(clients, "gcfl", 6, SWEEP, SPLIT_AT_1)
        all_ids = {c.id for c in clients}
        by_round = {}
        for round_index, _, members in result.assignments:
            by_round.setdefault(round_index, []).extend(members)
        for round_index, members in by_round.items():
            assert sorted(members) == sorted(all_ids)
        assert result.split_events  # eps chosen so at least one split fires

    def test_accuracies_in_unit_interval(self):
        clients = tiny_clients(2)
        result = run_one(clients, "fedavg", 2, TINY)
        for report in result.reports:
            for e in report.entries:
                assert 0.0 <= e.test_acc <= 1.0

    def test_non_finite_update_names_round_and_client(self):
        clients = tiny_clients(num=3)
        run_one(clients, "fedavg", 1, TINY)  # a new run sees the graph replaced below
        graphs = clients[2].train_graphs
        features = graphs.features.copy()
        features[:graphs.sizes[0]] = np.nan  # the first graph's
        clients[2].train_graphs = replace(graphs, features=features)
        with pytest.raises(DivergenceError, match=r"round 0: client 2 "):
            run_one(clients, "fedavg", 2, TINY)

    def test_non_finite_train_loss_is_divergence(self):
        # from the second step on, the proximal term overflows to inf while every
        # update stays finite (Adam's second moment overflows, so the step is 0)
        cfg = replace(TINY, prox_mu=1e307, lr=1.0, batch_size=2)
        with np.errstate(over="ignore"), pytest.raises(
                DivergenceError, match=r"round 0: client 0 reported a non-finite train loss"):
            run_one(tiny_clients(2), "fedprox", 2, cfg)

    def test_overflowing_adam_moment_is_divergence(self):
        # every loss and update stays finite, but the proximal gradient's square overflows
        # Adam's second moment to inf, and those coordinates would take no more steps
        cfg = replace(TINY, prox_mu=1e306, lr=1.0, batch_size=2)
        with np.errstate(over="ignore"), pytest.raises(
                DivergenceError, match=r"round 0: client 0's Adam second moment overflowed"):
            run_one(tiny_clients(2), "fedprox", 2, cfg)

    def test_no_batch_keeps_its_nan_train_loss(self):
        result = run_one(tiny_clients(2), "fedavg", 2, replace(TINY, epochs=0))
        assert all(np.isnan(e.train_loss) for r in result.reports for e in r.entries)

    @pytest.mark.parametrize("split", ["train_graphs", "test_graphs"])
    def test_empty_split_is_rejected(self, split):
        clients = tiny_clients(2)
        setattr(clients[1], split, [])
        with pytest.raises(ArgumentError, match="client 1 "):
            run_one(clients, "fedavg", 1, TINY)

    def test_no_clients_rejected(self):
        with pytest.raises(ArgumentError, match="^need at least one client$"):
            run_one([], "fedavg", 1, TINY)

    def test_repeated_client_id_rejected(self):
        clients = tiny_clients(2)
        clients[1] = replace(clients[1], id=clients[0].id)
        with pytest.raises(ArgumentError, match="^client ids must be unique$"):
            run_one(clients, "fedavg", 1, TINY)

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ArgumentError):
            run_one(tiny_clients(1), "magic", 1, TINY)

    @pytest.mark.parametrize("rounds", [0, -1])
    def test_no_rounds_rejected(self, rounds):
        with pytest.raises(ArgumentError, match="rounds must be >= 1"):
            run_one(tiny_clients(2), "gcfl", rounds, SWEEP, SPLIT_AT_1)

    @pytest.mark.parametrize("algorithms", [[], ["fedavg", "selftrain", "fedavg"]])
    def test_empty_or_repeated_algorithm_list_rejected(self, algorithms):
        with pytest.raises(ArgumentError, match="algorithm"):
            run_federation(tiny_clients(2), algorithms, 1, TINY, 0)

    def test_gcfl_requires_cluster_config(self):
        for algorithm in ("gcfl", "gcflplus"):
            for thresholds in ({}, dict(eps1=1.0), dict(eps2=1.0)):
                with pytest.raises(ArgumentError, match=f"^{algorithm} needs eps1 and eps2$"):
                    run_federation(tiny_clients(2), ["fedavg", algorithm], 1,
                                   replace(TINY, **thresholds), 0)

    def test_evaluate_client_counts_correct_predictions(self):
        client = tiny_clients(1)[0]
        model = init_gin(3, 2, hidden=6, num_layers=2, rng=np.random.default_rng(0))
        loss, acc = evaluate_client(client, model, model.vector.copy())
        assert 0.0 <= acc <= 1.0 and np.isfinite(loss)


# two_group_clients() hold 9 training graphs each, so under SWEEP every client takes one local
# step per round and fedprox's effective mu is 0; under MULTI_STEP each takes 3, and fedprox
# trains its proximal term. Under SPLIT_AT_1 gcfl and gcflplus split at round 1, just after
# warm-up, into (0, 1) | (2, 3), and at round 2 into singletons; NEVER never fires.
SWEEP = RunSettings(hidden=8, num_layers=2, weight_decay=0.0, prox_mu=0.1)
MULTI_STEP = replace(SWEEP, batch_size=4)
SPLIT_AT_1 = dict(eps1=10.0, eps2=1e-6, min_split_size=2, warmup_rounds=1)
NEVER = dict(eps1=1e-12, eps2=1e12)
ROUNDS = 5


def two_group_clients(clients_per_group=2):
    return synthetic_two_group_clients(clients_per_group=clients_per_group, graphs_per_client=12,
                                       seed=0)[0]


def assert_same_run(a, b):
    assert a.algorithm == b.algorithm
    assert reports_equal(a.reports, b.reports)
    assert a.assignments == b.assignments
    assert a.split_events == b.split_events  # gcflplus's windows too
    assert a.final_accuracy == b.final_accuracy
    assert [(k.id, k.members, k.delta_mean, k.delta_max) for k in a.final_clusters] == \
        [(k.id, k.members, k.delta_mean, k.delta_max) for k in b.final_clusters]
    for ka, kb in zip(a.final_clusters, b.final_clusters):
        assert np.array_equal(ka.model, kb.model)


def distinct_histories(results, rounds):
    """Per round, how many different histories the results show up to it, summed over rounds."""
    return sum(len({repr(r.reports[:t + 1]) for r in results}) for t in range(rounds))


def sweep(monkeypatch, clients, algorithms, rounds, config, criteria=None):
    """One ``run_federation`` call over ``algorithms``: the results and the rounds it trained.

    Each result must be what its algorithm returns alone. The call must train
    one (round, group) pair per distinct history up to that round, and each
    pair must train every client once.
    """
    alone = [run_one(clients, a, rounds, config, criteria) for a in algorithms]
    trained, pairs = [], []
    train_round = fed._train_round

    def counting(client, *args, **kwargs):
        trained.append(client.id)
        return local_train(client, *args, **kwargs)

    def recording(t, *args, **kwargs):
        pairs.append(t)
        return train_round(t, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(fed, "local_train", counting)
        patch.setattr(fed, "_train_round", recording)
        results = run_federation(clients, algorithms, rounds, replace(config, **(criteria or {})),
                                 0)
    assert len(results) == len(algorithms)
    for result, oracle in zip(results, alone):
        assert_same_run(result, oracle)
    assert len(pairs) == distinct_histories(results, rounds)
    assert len(trained) == len(pairs) * len(clients)
    return results, len(pairs)


def algorithm_sweep(first):
    """selftrain, then fedavg, gcfl and gcflplus with ``first`` leading, then fedprox."""
    return ["selftrain", first, *(a for a in ("fedavg", "gcfl", "gcflplus") if a != first),
            "fedprox"]


CONFIGS = pytest.mark.parametrize("config, criteria", [(SWEEP, SPLIT_AT_1), (SWEEP, NEVER),
                                                       (MULTI_STEP, SPLIT_AT_1)],
                                  ids=["mid-run-split", "no-split", "multi-step"])
EACH_FIRST = pytest.mark.parametrize("first", ["fedavg", "gcfl", "gcflplus"])


class TestSweep:
    @CONFIGS
    @EACH_FIRST
    def test_each_algorithm_returns_what_it_returns_alone(self, monkeypatch, first, config,
                                                          criteria):
        algorithms = algorithm_sweep(first)
        results, trained = sweep(monkeypatch, two_group_clients(), algorithms, ROUNDS, config,
                                 criteria)
        assert [r.algorithm for r in results] == algorithms
        events = {r.algorithm: r.split_events for r in results}
        if criteria is NEVER:
            assert events["gcfl"] == [] and events["gcflplus"] == []
            assert trained == ROUNDS * (2 if config is SWEEP else 3)
        else:
            assert events["gcfl"][0].round_index == 1

    def test_gcfl_and_gcflplus_share_rounds_while_their_cuts_agree(self, monkeypatch):
        (gcfl, plus), trained = sweep(monkeypatch, two_group_clients(), ["gcfl", "gcflplus"],
                                      ROUNDS, SWEEP, SPLIT_AT_1)
        assert [e.members for e in gcfl.split_events] == [e.members for e in plus.split_events]
        assert len(gcfl.split_events) == 3 and trained == ROUNDS  # one group throughout
        # each keeps its own records: the cut values differ, and only gcflplus cuts on windows
        assert [e.cut_value for e in gcfl.split_events] != \
            [e.cut_value for e in plus.split_events]
        assert all(e.windows for e in plus.split_events)
        assert all(e.windows is None for e in gcfl.split_events)

    def test_cuts_that_differ_fork_the_group(self, monkeypatch):
        # three clients per group: both cut the planted groups at round 1, and at round 2
        # they cut (3, 4, 5) into different halves
        (gcfl, plus), trained = sweep(monkeypatch, two_group_clients(3), ["gcfl", "gcflplus"],
                                      ROUNDS, SWEEP, SPLIT_AT_1)
        assert gcfl.split_events[0].members == plus.split_events[0].members
        assert gcfl.split_events[2].members != plus.split_events[2].members
        assert trained == 3 + 2 * (ROUNDS - 3)

    def test_groups_run_depth_first(self, monkeypatch):
        # selftrain's group runs all its rounds, then the shared group, then the fork that
        # gcflplus's different cut at round 2 split off from it
        rounds, train_round = [], fed._train_round

        def recording(t, *args, **kwargs):
            rounds.append(t)
            return train_round(t, *args, **kwargs)

        monkeypatch.setattr(fed, "_train_round", recording)
        run_federation(two_group_clients(3), ["selftrain", "gcfl", "gcflplus"], ROUNDS,
                       replace(SWEEP, **SPLIT_AT_1), 0)
        assert rounds == [*range(ROUNDS), *range(ROUNDS), *range(3, ROUNDS)]

    @pytest.mark.parametrize("config", [SWEEP, MULTI_STEP], ids=["one-step", "multi-step"])
    def test_unclustered_algorithms_ignore_the_criteria(self, config):
        # bit for bit the same results without criteria, and with criteria on which gcfl,
        # run in the same call, splits at round 1
        others = ["selftrain", "fedavg", "fedprox"]
        clients = two_group_clients()
        without = run_federation(clients, others, ROUNDS, config, 0)
        *with_criteria, gcfl = run_federation(clients, others + ["gcfl"], ROUNDS,
                                              replace(config, **SPLIT_AT_1), 0)
        assert gcfl.split_events[0].round_index == 1
        for a, b in zip(without, with_criteria, strict=True):
            assert_same_run(a, b)

    def test_results_of_one_group_share_no_list(self):
        fedavg, gcfl = run_federation(two_group_clients(), ["fedavg", "gcfl"], 2,
                                      replace(SWEEP, **NEVER), 0)
        for name in ("reports", "final_clusters"):
            assert getattr(fedavg, name) is not getattr(gcfl, name)
        assert [k.members is not g.members for k, g in
                zip(fedavg.final_clusters, gcfl.final_clusters)] == [True]
        fedavg.reports.pop()
        fedavg.final_clusters.clear()
        assert (len(gcfl.reports), len(gcfl.final_clusters), len(gcfl.final_accuracy)) == (2, 1, 4)

    def test_children_start_from_the_parent_aggregated_model(self):
        # gcfl is fedavg until it splits, after aggregating, in the last of 2 rounds
        fedavg, gcfl = run_federation(two_group_clients(), ["fedavg", "gcfl"], 2,
                                      replace(SWEEP, **SPLIT_AT_1), 0)
        assert [e.round_index for e in gcfl.split_events] == [1]
        (parent,) = fedavg.final_clusters
        assert [k.members for k in gcfl.final_clusters] == [[0, 1], [2, 3]]
        for child in gcfl.final_clusters:
            assert np.array_equal(child.model, parent.model)

    def test_each_variant_logs_its_own_splits(self, caplog):
        with caplog.at_level("INFO", logger="gcflsim.fed"):
            results = run_federation(two_group_clients(), ["gcfl", "gcflplus"], ROUNDS,
                                     replace(SWEEP, **SPLIT_AT_1), 0)
        assert caplog.messages == [
            f"round {e.round_index}: {r.algorithm}: cluster {e.parent} split into "
            f"{e.members[0]} | {e.members[1]} (cut {e.cut_value:.3g})"
            for t in range(ROUNDS) for r in results for e in r.split_events if e.round_index == t]

    @pytest.mark.parametrize("epochs, prox_mu, groups", [(1, 0.1, 2), (2, 0.0, 2),
                                                         (2, 0.1, 3)],
                             ids=["one-step", "mu-zero-two-steps", "two-steps"])
    def test_fedprox_trains_with_fedavg_where_its_effective_mu_is_zero(
            self, monkeypatch, epochs, prox_mu, groups):
        config = replace(TINY, epochs=epochs, prox_mu=prox_mu)
        _, trained = sweep(monkeypatch, tiny_clients(2), ["selftrain", "fedavg", "fedprox"], 3,
                           config)
        assert trained == 3 * groups

    def test_clients_unions_are_run_as_they_are(self, monkeypatch):
        # nothing is stacked: each evaluation runs a client's test union itself
        clients = two_group_clients()
        evaluated = []
        forward = fed.gin_forward

        def recording(model, batch):
            evaluated.append(batch)
            return forward(model, batch)

        monkeypatch.setattr(fed, "gin_forward", recording)
        run_federation(clients, algorithm_sweep("fedavg"), ROUNDS,
                       replace(SWEEP, **SPLIT_AT_1), 0)
        assert {id(b) for b in evaluated} == {id(c.test_graphs) for c in clients}
