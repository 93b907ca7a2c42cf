"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria that reproduce published statistics need the real TU benchmark
datasets on disk (see conftest.require_dataset); they skip with an explicit
message when the data directory is absent.
"""

import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats as scipy_stats

from gcflsim.clustering import ClusterConfig, stoer_wagner_mincut
from gcflsim.dtwseries import dtw_distance
from gcflsim.fed import RunConfig, run_federation
from gcflsim.gnn import gin_loss_and_grad, init_gin
from gcflsim.harness import (
    ExperimentConfig,
    auto_epsilons,
    client_from_dataset,
    cluster_heterogeneity_report,
    compute_metrics,
    load_dataset_for_federation,
    partition_one_dataset,
    run_experiment,
    synthetic_two_group_clients,
)
from gcflsim.hetero import dataset_pools, pairwise_heterogeneity
from gcflsim.properties import property_significance

from conftest import (client_embeddings, data_root, labelled, random_graph, require_dataset,
                      with_features)
from sgc import normalized_adjacency, sgc_train
from test_clustering import brute_force_mincut, random_weights
from test_dtwseries import dtw_oracle
from test_fed import final_params, reports_equal, run_one, tiny_clients
from test_gnn import batch_loss
from test_properties import (
    brute_clustering,
    brute_kurtosis,
    brute_largest_component,
    brute_shortest_path,
    one,
    pooled_kurtosis,
)
from test_sgc import flip_edges, planted_node_task


@contextmanager
def criterion(number, name):
    try:
        yield
    except pytest.skip.Exception as exc:
        print(f"ACCEPTANCE {number} ({name}): SKIP - {exc}")
        raise
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    else:
        print(f"ACCEPTANCE {number} ({name}): PASS")


# Fixed configuration of the synthetic two-group recovery experiment,
# calibrated offline: split fires right after warmup; weight decay is off so
# the shared decay pull does not mask the group structure in the updates.
RECOVERY_SEEDS = (0, 1, 2, 3, 4)
RECOVERY_CLUSTER = dict(eps1=0.05, eps2=0.01, min_split_size=5, warmup_rounds=10)
RECOVERY_ROUNDS = 14


def _recovery_runs(seed):
    """gcfl and gcflplus as one sweep: (recovered, split round, result, clients) for each."""
    clients, groups = synthetic_two_group_clients(seed=seed)
    truth = {frozenset(groups[0]), frozenset(groups[1])}
    config = RunConfig(seed=seed, weight_decay=0.0, criteria=ClusterConfig(**RECOVERY_CLUSTER))
    runs = {}
    for result in run_federation(clients, ["gcfl", "gcflplus"], RECOVERY_ROUNDS, config):
        recovered = False
        split_round = None
        if result.split_events:
            event = result.split_events[0]
            split_round = event.round_index
            recovered = {frozenset(event.members[0]), frozenset(event.members[1])} == truth
        runs[result.algorithm] = (recovered, split_round, result, clients)
    return runs


@pytest.fixture(scope="module")
def recovery():
    """Per algorithm, per seed: the recovery run's (recovered, split round, result, clients)."""
    by_seed = {seed: _recovery_runs(seed) for seed in RECOVERY_SEEDS}
    return {algorithm: {seed: runs[algorithm] for seed, runs in by_seed.items()}
            for algorithm in ("gcfl", "gcflplus")}


def test_criterion_1_table1_ptc_mr_properties():
    with criterion(1, "Table 1 reproduction on PTC_MR"):
        dataset = require_dataset("PTC_MR")
        start = time.monotonic()
        report = property_significance(dataset, seed=0)
        elapsed = time.monotonic() - start

        rows = report.rows
        assert abs(rows["avg_shortest_path"].real - 3.36) <= 0.05
        assert abs(rows["clustering_coefficient"].real - 0.0095) <= 0.002
        assert abs(rows["largest_component_pct"].real - 100.0) <= 0.5
        assert abs(rows["degree_kurtosis"].real - 2.1535) <= 0.05
        assert abs(rows["clustering_coefficient"].random - 0.12) <= 0.03
        assert rows["clustering_coefficient"].p_value < 1e-4
        assert rows["avg_shortest_path"].p_value < 1e-4
        assert elapsed < 120.0


def test_criterion_2_table2_structure_ordering():
    with criterion(2, "Table 2 structure heterogeneity ordering"):
        cox2 = require_dataset("COX2")
        others = [require_dataset("PTC_MR"), require_dataset("ENZYMES")]
        imdb = load_dataset_for_federation(data_root(), "IMDB-BINARY")
        start = time.monotonic()
        ordered_lengths = 0
        for length in (3, 4, 5):
            values = [
                pairwise_heterogeneity(*dataset_pools(cox2, other, length), 2000).structure_mean
                for other in (cox2, *others, imdb)
            ]
            print(f"  length {length}: COX2 self {values[0]:.4f} | PTC_MR {values[1]:.4f} "
                  f"| ENZYMES {values[2]:.4f} | IMDB-BINARY {values[3]:.4f}")
            if values[0] < values[1] < values[2] < values[3]:
                ordered_lengths += 1
        elapsed = time.monotonic() - start
        assert ordered_lengths >= 3  # at least 4/5 of the length choices {3, 4, 5}
        assert elapsed < 600.0


def test_criterion_3_oracle_equivalences():
    with criterion(3, "exact oracle equivalences"):
        start = time.monotonic()

        rng = np.random.default_rng(101)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            w = random_weights(rng, n)
            (a, b), value = stoer_wagner_mincut(w)
            ref_val, _ = brute_force_mincut(w)
            assert value == pytest.approx(ref_val, abs=1e-9)
            assert sum(w[i, j] for i in a for j in b) == pytest.approx(ref_val, abs=1e-9)

        rng = np.random.default_rng(102)
        for _ in range(200):
            x = rng.uniform(0, 3, size=int(rng.integers(1, 16)))
            y = rng.uniform(0, 3, size=int(rng.integers(1, 16)))
            assert dtw_distance(x, y) == pytest.approx(dtw_oracle(x, y), abs=1e-12)

        rng = np.random.default_rng(103)
        for _ in range(50):
            g = random_graph(rng, n=int(rng.integers(3, 13)))
            assert one("clustering_coefficient", g) == pytest.approx(
                brute_clustering(g), abs=1e-12)
            assert one("largest_component_pct", g) == pytest.approx(
                brute_largest_component(g), abs=1e-12)
            ref = brute_shortest_path(g)
            if ref is not None:
                assert one("avg_shortest_path", g) == pytest.approx(ref, abs=1e-12)
            if np.var(g.degrees) > 0:
                assert pooled_kurtosis([g]) == pytest.approx(brute_kurtosis(g.degrees), abs=1e-12)

        assert time.monotonic() - start < 60.0


def test_criterion_4_gradient_correctness():
    with criterion(4, "analytic gradients vs central finite differences"):
        rng = np.random.default_rng(104)
        for instance in range(20):
            nodes = int(rng.integers(4, 8))
            feat_dim = int(rng.integers(2, 5))
            classes = int(rng.integers(2, 4))
            graphs = [random_graph(rng, n=nodes, feat_dim=feat_dim) for _ in range(2)]
            labels = [int(rng.integers(classes)) for _ in graphs]
            model = init_gin(feat_dim, classes, hidden=int(rng.integers(3, 6)),
                             num_layers=int(rng.integers(1, 4)), rng=rng)
            theta = model.vector.copy()
            use_prox = instance % 2 == 1
            mu = 0.25 if use_prox else 0.0
            anchor = theta + 0.1 * rng.standard_normal(theta.shape)

            _, grad = gin_loss_and_grad(model, labelled(graphs, labels))
            analytic = grad + mu * (theta - anchor)

            def objective(vec):
                model.vector[:] = vec
                value = batch_loss(model, graphs, labels)
                return value + 0.5 * mu * float((vec - anchor) @ (vec - anchor))

            h = 1e-5
            for k in range(len(theta)):
                up, down = theta.copy(), theta.copy()
                up[k] += h
                down[k] -= h
                numeric = (objective(up) - objective(down)) / (2.0 * h)
                tol = max(1e-8, 1e-4 * max(abs(numeric), abs(analytic[k])))
                assert abs(numeric - analytic[k]) <= tol, (instance, k)
            model.vector[:] = theta


def test_criterion_5_aggregation_identities():
    with criterion(5, "aggregation identities"):
        base = RunConfig(seed=3, hidden=8, num_layers=2)

        # single-cluster GCFL == FedAvg, bit for bit
        clients = tiny_clients(3, graphs_each=10, seed=1)
        res_gcfl = run_one(clients, "gcfl", 5, base, ClusterConfig(eps1=1e-12, eps2=1e12))
        gcfl_params = {cid: p.tobytes() for cid, p in final_params(res_gcfl).items()}
        res_avg = run_one(clients, "fedavg", 5, base)
        for cid, params in final_params(res_avg).items():
            assert params.tobytes() == gcfl_params[cid]
        assert reports_equal(res_gcfl.reports, res_avg.reports)

        # FedProx with mu = 0 == FedAvg
        mu_zero = RunConfig(seed=3, hidden=8, num_layers=2, prox_mu=0.0)
        res_prox = run_one(clients, "fedprox", 5, mu_zero)
        prox_params = final_params(res_prox)
        for cid, params in final_params(run_one(clients, "fedavg", 5, base)).items():
            assert np.array_equal(params, prox_params[cid])
        assert reports_equal(res_prox.reports, res_avg.reports)

        # self-train with one client == FedAvg with one client
        solo_a = tiny_clients(1, graphs_each=10, seed=2)
        solo_b = tiny_clients(1, graphs_each=10, seed=2)
        r1 = run_one(solo_a, "selftrain", 5, base)
        r2 = run_one(solo_b, "fedavg", 5, base)
        assert np.array_equal(final_params(r1)[0], final_params(r2)[0])
        assert reports_equal(r1.reports, r2.reports)


def test_criterion_6_synthetic_cluster_recovery(recovery):
    with criterion(6, "synthetic two-group cluster recovery"):
        start = time.monotonic()
        for name, runs in recovery.items():
            hits = sum(1 for rec, _, _, _ in runs.values() if rec)
            print(f"  {name}: recovered {hits}/{len(runs)} seeds "
                  f"(split rounds {[r for _, r, _, _ in runs.values()]})")
            assert hits >= 4
        # both mechanisms share the split criteria, so their split rounds agree
        for seed in RECOVERY_SEEDS:
            r_gcfl = recovery["gcfl"][seed][1]
            r_plus = recovery["gcflplus"][seed][1]
            assert r_gcfl is not None and r_plus is not None
            assert abs(r_gcfl - r_plus) <= 5
        assert time.monotonic() - start < 600.0  # fixtures only; budget sanity


def test_criterion_7a_heterogeneity_reduction_synthetic(recovery):
    with criterion(7, "intra-cluster heterogeneity below baseline (synthetic)"):
        checked = 0
        for seed, (recovered, _, result, clients) in recovery["gcfl"].items():
            if not recovered:
                continue
            rows = cluster_heterogeneity_report(client_embeddings(clients, seed=seed),
                                                result.final_clusters, pair_budget=400)
            baseline = rows[0][2].structure_mean
            for _, _, rep in rows[1:]:
                assert rep.structure_mean < baseline
            checked += 1
        assert checked >= 4


def test_criterion_7b_heterogeneity_reduction_mini_mix():
    with criterion(7, "intra-cluster heterogeneity below baseline (mini-mix)"):
        names = ["MUTAG", "PTC_MR", "ENZYMES", "IMDB-BINARY"]
        for name in names:
            require_dataset(name)
        datasets = [load_dataset_for_federation(data_root(), name) for name in names]
        clients = [client_from_dataset(ds, i, test_fraction=0.1, seed=0)
                   for i, ds in enumerate(datasets)]

        probe = RunConfig(seed=0, hidden=32, num_layers=2)
        eps1, eps2, _, _ = auto_epsilons(clients, probe, probe_rounds=10)
        result = run_one(clients, "gcfl", 14, probe,
                         ClusterConfig(eps1, eps2, min_split_size=2, warmup_rounds=10))
        assert result.split_events, "mini-mix run produced no split"
        rows = cluster_heterogeneity_report(client_embeddings(clients), result.final_clusters,
                                            pair_budget=600)
        baseline = rows[0][2].structure_mean
        print(f"  baseline {baseline:.4f}; clusters "
              + ", ".join(f"{cid}={rep.structure_mean:.4f}" for cid, _, rep in rows[1:]))
        for _, _, rep in rows[1:]:
            assert rep.structure_mean < baseline


def test_criterion_8_desk_scale_mutag_experiment():
    with criterion(8, "directional desk-scale MUTAG experiment"):
        dataset = require_dataset("MUTAG")
        wins = 0
        for seed in (0, 1, 2):
            start = time.monotonic()
            clients = partition_one_dataset(dataset, 4, 47, test_fraction=0.1,
                                            seed=seed, label_skew=True)
            probe = RunConfig(seed=seed)
            eps1, eps2, _, _ = auto_epsilons(clients, probe, probe_rounds=30)
            criteria = ClusterConfig(eps1, eps2, min_split_size=3, warmup_rounds=30)
            accs = {result.algorithm: result.final_accuracy for result in run_federation(
                clients, ["selftrain", "fedavg", "gcflplus"], 200,
                replace(probe, criteria=criteria))}
            elapsed = time.monotonic() - start
            fedavg = compute_metrics(accs["fedavg"], accs["selftrain"])
            gcflplus = compute_metrics(accs["gcflplus"], accs["selftrain"])
            ok = (gcflplus.average >= fedavg.average - 0.02
                  and gcflplus.improved_ratio >= fedavg.improved_ratio)
            wins += ok
            print(f"  seed {seed}: fedavg avg {fedavg.average:.4f} ratio "
                  f"{fedavg.improved}/{fedavg.total} | gcflplus avg "
                  f"{gcflplus.average:.4f} ratio {gcflplus.improved}/{gcflplus.total} "
                  f"| {'ok' if ok else 'not ok'} ({elapsed:.0f}s)")
            assert elapsed < 900.0
        assert wins >= 2


def test_criterion_9_sgc_perturbation_monotonicity():
    with criterion(9, "SGC weight shift tracks structure/feature perturbation"):
        levels = np.arange(1, 21)
        for mode in ("structure", "feature"):
            xs = np.zeros(len(levels))
            ds = np.zeros(len(levels))
            for seed in range(5):
                graph, labels = planted_node_task(seed)
                base, _ = sgc_train(graph, labels, hops=2, steps=300, lr=0.5, seed=seed)
                lap = normalized_adjacency(graph)
                noise = np.random.default_rng(900 + seed).standard_normal(
                    graph.features.shape)
                for j, level in enumerate(levels):
                    if mode == "structure":
                        pert = flip_edges(
                            graph, int(level),
                            np.random.default_rng(1000 + seed * 100 + level))
                        xs[j] += np.linalg.norm(normalized_adjacency(pert) - lap)
                    else:
                        pert = with_features(graph, graph.features + 0.1 * level * noise)
                        xs[j] += np.linalg.norm(pert.features - graph.features)
                    moved, _ = sgc_train(pert, labels, hops=2, steps=300, lr=0.5, seed=seed)
                    ds[j] += np.linalg.norm(moved.theta - base.theta)
            rho = scipy_stats.spearmanr(xs, ds).statistic
            print(f"  {mode}: spearman rho = {rho:.3f}")
            assert rho > 0.5


def test_criterion_10_run_determinism(tmp_path):
    with criterion(10, "byte-identical outputs for repeated runs"):
        def config(out):
            return ExperimentConfig(
                setting="synthetic", num_clients=4, rounds=4,
                algorithms=["fedavg", "gcfl"], hidden=8, num_layers=2,
                weight_decay=0.0, eps1=10.0, eps2=1e-6, min_split_size=2,
                warmup_rounds=1, hetero_report=True, pair_budget=60,
                seeds=[0, 1], out_dir=str(out),
            )

        run_experiment(config(tmp_path / "a"))
        run_experiment(config(tmp_path / "b"))
        names = ["rounds.csv", "clusters.csv", "splits.csv", "summary.csv",
                 "hetero.csv", "windows.csv"]
        for name in names:
            first = (tmp_path / "a" / name).read_bytes()
            second = (tmp_path / "b" / name).read_bytes()
            assert first == second, name
