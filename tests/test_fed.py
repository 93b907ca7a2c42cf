from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gcflsim import fed
from gcflsim.clustering import ClusterConfig, ClusterState, cluster_aggregate
from gcflsim.errors import ArgumentError, DivergenceError
from gcflsim.fed import (
    _CLIENT_SEED_TAG,
    _INIT_SEED_TAG,
    ClientState,
    RunConfig,
    evaluate_client,
    local_train,
    run_federation,
)
from gcflsim.gnn import GinModel, GraphBatch, adam_step, gin_loss_and_grad, init_adam, init_gin
from gcflsim.harness import synthetic_two_group_clients

from conftest import HYPOTHESIS, random_graph


def tiny_clients(num=2, graphs_each=8, seed=0, feat_dim=3):
    rng = np.random.default_rng(seed)
    clients = []
    for i in range(num):
        graphs = []
        for j in range(graphs_each):
            g = replace(random_graph(rng, n=5, feat_dim=feat_dim), label=j % 2)
            graphs.append(g)
        clients.append(ClientState(i, graphs[:-2], graphs[-2:], seed=i))
    return clients


TINY = RunConfig(seed=0, hidden=6, num_layers=2)


def run_one(clients, algorithm, rounds, config):
    """The result of a ``run_federation`` call that runs ``algorithm`` alone."""
    return run_federation(clients, [algorithm], rounds, config)[algorithm]


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


class TestLocalTrain:
    def _ready_client(self, seed=0):
        client = tiny_clients(1, seed=seed)[0]
        model = init_gin(3, 2, hidden=6, num_layers=2, rng=np.random.default_rng(1))
        client.optimizer = init_adam(model.num_params(), lr=1e-3)
        client.rng = np.random.default_rng(42)
        client.train_stack = GraphBatch(client.train_graphs)
        return client, model, model.vector.copy()

    def test_zero_epochs_zero_delta(self):
        client, model, start = self._ready_client()
        delta, loss = local_train(client, model, start, epochs=0)
        assert np.all(delta == 0.0) and np.isnan(loss)

    def test_zero_mu_prox_identical_to_plain(self):
        client_a, model_a, start = self._ready_client()
        delta_plain, loss_plain = local_train(client_a, model_a, start, epochs=2)
        client_b, model_b, start_b = self._ready_client()
        delta_prox, loss_prox = local_train(client_b, model_b, start_b, epochs=2,
                                            prox=(0.0, start_b.copy()))
        assert np.array_equal(delta_plain, delta_prox) and loss_plain == loss_prox

    def test_prox_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        graphs = [random_graph(rng, n=5) for _ in range(2)]
        labels = [0, 1]
        model = init_gin(3, 2, hidden=5, num_layers=2, rng=rng)
        theta = model.vector.copy()
        anchor = theta + 0.1 * rng.standard_normal(theta.shape)
        mu = 0.37

        def objective(vec):
            model.vector[:] = vec
            loss, _ = gin_loss_and_grad(model, graphs, labels)
            return loss + 0.5 * mu * float((vec - anchor) @ (vec - anchor))

        model.vector[:] = theta
        _, base_grad = gin_loss_and_grad(model, graphs, labels)
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
        init_rng = np.random.default_rng(np.random.SeedSequence([TINY.seed, _INIT_SEED_TAG]))
        init = init_gin(3, 2, TINY.hidden, TINY.num_layers, init_rng).vector
        for client in tiny_clients(2):
            model = GinModel(3, 2, TINY.hidden, TINY.num_layers, init.copy())
            opt = init_adam(len(init), TINY.lr, TINY.weight_decay)
            rng = np.random.default_rng(
                np.random.SeedSequence([TINY.seed, _CLIENT_SEED_TAG, client.seed]))
            labels = [g.label for g in client.train_graphs]
            for _ in range(rounds * TINY.epochs):
                order = rng.permutation(len(client.train_graphs))
                for lo in range(0, len(order), batch_size):
                    idx = order[lo:lo + batch_size]
                    _, grad = gin_loss_and_grad(model, [client.train_graphs[i] for i in idx],
                                                [labels[i] for i in idx])
                    model.vector[:] = adam_step(opt, model.vector, grad)
            assert np.array_equal(model.vector, fed_params[client.id])

    def test_single_client_fedavg_equals_selftrain(self):
        a = tiny_clients(1)
        b = tiny_clients(1)
        res_a = run_one(a, "fedavg", 3, TINY)
        res_b = run_one(b, "selftrain", 3, TINY)
        assert np.array_equal(final_params(res_a)[0], final_params(res_b)[0])
        assert reports_equal(res_a.reports, res_b.reports)

    def test_identical_clients_stay_identical_under_fedavg(self):
        base = tiny_clients(1, graphs_each=8, seed=5)[0]
        twin_a = ClientState(0, base.train_graphs, base.test_graphs, seed=77)
        twin_b = ClientState(1, base.train_graphs, base.test_graphs, seed=77)
        result = run_one([twin_a, twin_b], "fedavg", 3, TINY)
        for report in result.reports:
            ea, eb = report.entries
            assert ea.grad_norm == eb.grad_norm
            assert ea.train_loss == eb.train_loss
        params = final_params(result)
        assert np.array_equal(params[0], params[1])

    def test_fedprox_mu_zero_equals_fedavg(self):
        clients = tiny_clients(2)
        cfg = RunConfig(seed=0, hidden=6, num_layers=2, prox_mu=0.0)
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
        no_split = RunConfig(seed=0, hidden=6, num_layers=2,
                             cluster=ClusterConfig(eps1=1e-12, eps2=1e12))
        res_gcfl = run_one(clients, "gcfl", 4, no_split)
        gcfl_params = final_params(res_gcfl)
        res_avg = run_one(clients, "fedavg", 4, TINY)
        for cid, params in final_params(res_avg).items():
            assert np.array_equal(params, gcfl_params[cid])
        assert reports_equal(res_gcfl.reports, res_avg.reports)
        assert res_gcfl.split_events == []

    def test_no_split_gcflplus_equals_fedavg_bitwise(self):
        clients = tiny_clients(3)
        no_split = RunConfig(seed=0, hidden=6, num_layers=2,
                             cluster=ClusterConfig(eps1=1e-12, eps2=1e12))
        res_plus = run_one(clients, "gcflplus", 4, no_split)
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
        cfg = RunConfig(seed=0, hidden=8, num_layers=2, weight_decay=0.0,
                        cluster=ClusterConfig(eps1=10.0, eps2=1e-6, min_split_size=2,
                                              warmup_rounds=1))
        result = run_one(clients, "gcfl", 6, cfg)
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
        bad = clients[2].train_graphs[0]
        clients[2].train_graphs[0] = bad.with_features(np.full_like(bad.features, np.nan))
        with pytest.raises(DivergenceError, match=r"round 0: client 2 "):
            run_one(clients, "fedavg", 2, TINY)

    def test_non_finite_train_loss_is_divergence(self):
        # from the second step on, the proximal term overflows to inf while every
        # update stays finite (Adam's second moment overflows, so the step is 0)
        cfg = replace(TINY, prox_mu=1e307, lr=1.0, batch_size=2)
        with np.errstate(over="ignore"), pytest.raises(
                DivergenceError, match=r"round 0: client 0 reported a non-finite train loss"):
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

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ArgumentError):
            run_one(tiny_clients(1), "magic", 1, TINY)

    @pytest.mark.parametrize("rounds", [0, -1])
    def test_no_rounds_rejected(self, rounds):
        with pytest.raises(ArgumentError, match="rounds must be >= 1"):
            run_federation(tiny_clients(2), ["gcfl"], rounds, SPLIT)

    @pytest.mark.parametrize("algorithms", [[], ["fedavg", "selftrain", "fedavg"]])
    def test_empty_or_repeated_algorithm_list_rejected(self, algorithms):
        with pytest.raises(ArgumentError, match="algorithm"):
            run_federation(tiny_clients(2), algorithms, 1, TINY)

    def test_gcfl_requires_cluster_config(self):
        with pytest.raises(ArgumentError):
            run_one(tiny_clients(2), "gcfl", 1, TINY)

    def test_evaluate_client_counts_correct_predictions(self):
        client = tiny_clients(1)[0]
        model = init_gin(3, 2, hidden=6, num_layers=2, rng=np.random.default_rng(0))
        client.test_batch = GraphBatch(client.test_graphs)
        loss, acc = evaluate_client(client, model, model.vector.copy())
        assert 0.0 <= acc <= 1.0 and np.isfinite(loss)


# SPLIT: gcfl first splits mid-run, at round 1 (warm-up 1); NO_SPLIT: the criteria never fire.
# Each client has 9 training graphs, so both take one local step per round and fedprox
# branches off too; MULTI_STEP takes 3, so there fedprox (prox_mu not 0) runs from scratch.
SPLIT = RunConfig(seed=0, hidden=8, num_layers=2, weight_decay=0.0, prox_mu=0.1,
                  cluster=ClusterConfig(eps1=10.0, eps2=1e-6, min_split_size=2, warmup_rounds=1))
NO_SPLIT = replace(SPLIT, cluster=ClusterConfig(eps1=1e-12, eps2=1e12))
MULTI_STEP = replace(SPLIT, batch_size=4)
ROUNDS = 5
PREFIX = ("fedavg", "gcfl", "gcflplus")


def two_group_clients():
    return synthetic_two_group_clients(clients_per_group=2, graphs_per_client=12, seed=0)[0]


def assert_same_run(a, b):
    assert a.algorithm == b.algorithm
    assert reports_equal(a.reports, b.reports)
    assert a.assignments == b.assignments
    assert a.split_events == b.split_events
    assert a.window_dumps == b.window_dumps
    assert a.final_accuracy == b.final_accuracy
    assert [(k.id, k.members, k.delta_mean, k.delta_max) for k in a.final_clusters] == \
        [(k.id, k.members, k.delta_mean, k.delta_max) for k in b.final_clusters]
    for ka, kb in zip(a.final_clusters, b.final_clusters):
        assert np.array_equal(ka.model, kb.model)


def sweep_with_first(first):
    """selftrain, the three prefix algorithms with ``first`` leading, and fedprox."""
    return ["selftrain", first, *(a for a in PREFIX if a != first), "fedprox"]


CONFIGS = pytest.mark.parametrize("config", [SPLIT, NO_SPLIT, MULTI_STEP],
                                  ids=["mid-run-split", "no-split", "multi-step"])
EACH_FIRST = pytest.mark.parametrize("first", PREFIX)


def record_rounds(monkeypatch):
    """Log each trained (algorithm, round) and the client of each ``local_train`` call."""
    trained, rounds_run = [], []
    train_round = fed._train_round

    def counting(client, *args, **kwargs):
        trained.append(client.id)
        return local_train(client, *args, **kwargs)

    def recording(t, run, by_id, model, algorithm, run_config):
        rounds_run.append((algorithm, t))
        return train_round(t, run, by_id, model, algorithm, run_config)

    monkeypatch.setattr(fed, "local_train", counting)
    monkeypatch.setattr(fed, "_train_round", recording)
    return trained, rounds_run


class TestSweep:
    @CONFIGS
    @EACH_FIRST
    def test_each_algorithm_returns_what_it_returns_alone(self, first, config):
        clients = two_group_clients()
        sweep = sweep_with_first(first)
        results = run_federation(clients, sweep, ROUNDS, config)
        assert list(results) == sweep
        for algorithm in sweep:
            assert_same_run(results[algorithm], run_one(clients, algorithm, ROUNDS, config))
        splits = results["gcfl"].split_events
        if config is NO_SPLIT:
            assert splits == [] and results["gcflplus"].split_events == []
        else:
            assert splits[0].round_index == 1

    @CONFIGS
    @EACH_FIRST
    def test_later_prefix_algorithms_train_only_after_the_branch_round(
            self, monkeypatch, first, config):
        clients = two_group_clients()
        trained, rounds_run = record_rounds(monkeypatch)
        sweep = sweep_with_first(first)
        splits = run_federation(clients, sweep, ROUNDS, config)["gcfl"].split_events
        branch = splits[0].round_index if splits else ROUNDS - 1
        later = [a for a in (*PREFIX, "fedprox") if a != first
                 and not (a == "fedprox" and config is MULTI_STEP)]
        assert rounds_run == [(a, t) for a in sweep
                              for t in range(branch + 1 if a in later else 0, ROUNDS)]
        assert len(trained) == len(rounds_run) * len(clients)

    @pytest.mark.parametrize("epochs, prox_mu, shares", [(1, 0.1, True), (2, 0.0, True),
                                                         (2, 0.1, False)],
                             ids=["one-step", "mu-zero-two-steps", "two-steps"])
    def test_fedprox_without_cluster_config_branches_at_the_last_round(
            self, monkeypatch, epochs, prox_mu, shares):
        # no gcfl or gcflplus and no ClusterConfig: the branch round is the last
        clients, config = tiny_clients(2), replace(TINY, epochs=epochs, prox_mu=prox_mu)
        alone = {a: run_one(clients, a, 3, config) for a in ("selftrain", "fedavg", "fedprox")}
        trained, rounds_run = record_rounds(monkeypatch)
        results = run_federation(clients, ["selftrain", "fedavg", "fedprox"], 3, config)
        for algorithm, result in results.items():
            assert_same_run(result, alone[algorithm])
        assert rounds_run == [(a, t) for a in ("selftrain", "fedavg", "fedprox")
                              for t in range(3) if not (shares and a == "fedprox")]
        assert len(trained) == len(rounds_run) * len(clients)

    def test_each_client_batch_pair_is_built_once(self, monkeypatch):
        clients = two_group_clients()
        built = []

        def counting(graphs):
            built.append(len(graphs))
            return GraphBatch(graphs)

        monkeypatch.setattr(fed, "GraphBatch", counting)
        run_federation(clients, sweep_with_first("fedavg"), ROUNDS, SPLIT)
        assert sorted(built) == sorted(len(g) for c in clients
                                       for g in (c.train_graphs, c.test_graphs))
