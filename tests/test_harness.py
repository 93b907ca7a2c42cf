import csv
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from gcflsim.clustering import ClusterConfig, ClusterState
from gcflsim.errors import ArgumentError, ConfigurationError
from gcflsim import harness, hetero
from gcflsim.fed import RunConfig, infer_dims, run_federation
from gcflsim.gnn import one_hot_degrees
from gcflsim.graphs import Dataset
from gcflsim.harness import (
    MOLECULE_DATASETS,
    ExperimentConfig,
    auto_epsilons,
    build_clients,
    build_multi_dataset_group,
    client_from_dataset,
    cluster_heterogeneity_report,
    compute_metrics,
    load_dataset_for_federation,
    partition_one_dataset,
    run_experiment,
    synthetic_two_group_clients,
    with_degree_features,
)

from conftest import (assert_same_union, client_embeddings, make_graph, one_graph,
                      random_graph, union, write_tu_fixture)
from test_perfbench import write_tu_inputs


def synthetic_dataset(count=1000, seed=0):
    rng = np.random.default_rng(seed)
    graphs = [replace(random_graph(rng, n=6, feat_dim=2), labels=np.array([rng.integers(2)]))
              for _ in range(count)]
    return Dataset("synt", union(graphs))


def client_graphs(client):
    """A client's training then test graphs, one-graph unions each."""
    return [*client.train_graphs, *client.test_graphs]


def fingerprints(graphs):
    """Each graph's feature bytes: distinct for the random features of ``synthetic_dataset``."""
    return [g.features.tobytes() for g in graphs]


class TestPartitionOneDataset:
    def test_disjoint_cover_with_train_test_split(self):
        ds = synthetic_dataset(1000)
        clients = partition_one_dataset(ds, 10, 100, test_fraction=0.1, seed=0)
        assert len(clients) == 10
        seen = set()
        for c in clients:
            assert len(c.train_graphs) == 90 and len(c.test_graphs) == 10
            ids = set(fingerprints(client_graphs(c)))
            assert not ids & seen
            seen |= ids

    def test_deterministic_under_seed(self):
        ds = synthetic_dataset(300)
        a = partition_one_dataset(ds, 3, 50, seed=9)
        b = partition_one_dataset(ds, 3, 50, seed=9)
        for ca, cb in zip(a, b):
            assert_same_union(ca.train_graphs, cb.train_graphs)
            assert_same_union(ca.test_graphs, cb.test_graphs)

    def test_overlap_mode_allows_sharing_but_distinct_within(self):
        ds = synthetic_dataset(60)
        clients = partition_one_dataset(ds, 5, 40, overlap=True, seed=1)
        for c in clients:
            ids = fingerprints(client_graphs(c))
            assert len(set(ids)) == len(ids)
        seen = set()
        for c in clients:
            seen |= set(fingerprints(client_graphs(c)))
        assert len(seen) < 5 * 40  # sharing must occur: only 60 distinct graphs

    def test_insufficient_graphs_rejected_in_disjoint_mode(self):
        ds = synthetic_dataset(50)
        with pytest.raises(ConfigurationError):
            partition_one_dataset(ds, 3, 20, seed=0)

    def test_label_skew_concentrates_labels(self):
        ds = synthetic_dataset(400)
        clients = partition_one_dataset(ds, 4, 100, seed=0, label_skew=True)
        first = [g.label for g in client_graphs(clients[0])]
        last = [g.label for g in client_graphs(clients[-1])]
        assert set(first) == {0} and set(last) == {1}

    def test_client_from_dataset_test_size(self):
        ds = synthetic_dataset(105)
        client = client_from_dataset(ds, 0, test_fraction=0.1, seed=0)
        assert len(client.test_graphs) == 11  # ceil(0.1 * 105)
        assert len(client.train_graphs) == 94


class TestInferDims:
    def test_uniform_dims(self):
        clients = [client_from_dataset(synthetic_dataset(20, seed=s), s) for s in range(2)]
        assert infer_dims(clients) == (2, 2)

    def test_mixed_widths_take_the_widest(self):
        rng = np.random.default_rng(0)
        clients = []
        for i, width in enumerate((7, 3)):
            graphs = [replace(random_graph(rng, n=5, feat_dim=width), labels=np.array([k % 2]))
                      for k in range(4)]
            clients.append(client_from_dataset(Dataset(str(width), union(graphs)), i,
                                               test_fraction=0.25))
        assert infer_dims(clients) == (7, 2)
        assert {g.feat_dim for g in client_graphs(clients[1])} == {3}


class TestComputeMetrics:
    def test_identical_to_selftrain(self):
        acc = {0: 0.7, 1: 0.9}
        m = compute_metrics(acc, dict(acc))
        assert m.min_gain == 0.0 and m.improved == 0 and m.improved_ratio == 0.0

    def test_example_arithmetic(self):
        m = compute_metrics({0: 0.8, 1: 0.6}, {0: 0.7, 1: 0.7})
        assert m.average == pytest.approx(0.7)
        assert m.min_gain == pytest.approx(-0.1)
        assert m.improved == 1 and m.total == 2

    def test_client_mismatch_rejected(self):
        with pytest.raises(ArgumentError):
            compute_metrics({0: 0.5}, {1: 0.5})


def test_synthetic_unions_equal_the_union_of_their_graphs_built_alone():
    clients, _ = synthetic_two_group_clients(clients_per_group=1, graphs_per_client=6, seed=2)
    for graphs in (u for c in clients for u in (c.train_graphs, c.test_graphs)):
        assert_same_union(graphs, union(one_graph(g.num_nodes, g.edges, g.features, g.label)
                                        for g in graphs))


def counting(record, original):
    """``original``, recording each graph of every union it is called on by its features:
    each is a fresh one-graph view, known by the noisy features of the synthetic clients."""
    def wrapper(graph, *args, **kwargs):
        record.extend(g.features.tobytes() for g in graph)
        return original(graph, *args, **kwargs)
    return wrapper


class TestClusterHeterogeneity:
    def test_single_global_cluster_equals_baseline(self):
        clients, _ = synthetic_two_group_clients(clients_per_group=1,
                                                 graphs_per_client=8, seed=0)
        cluster = ClusterState(0, [c.id for c in clients], np.zeros(2))
        rows = cluster_heterogeneity_report(client_embeddings(clients, awe_length=3),
                                            [cluster], pair_budget=100)
        assert [row[:2] for row in rows] == [("all", 2), ("0", 2)]
        # one pool of the same keys: the same pairs of the same embeddings
        assert rows[1][2].structure_mean == rows[0][2].structure_mean
        assert rows[1][2].feature_mean == rows[0][2].feature_mean

    @pytest.mark.parametrize("pair_budget", [10, 10_000])
    def test_each_graph_is_embedded_once_per_store(self, monkeypatch, pair_budget):
        clients, _ = synthetic_two_group_clients(clients_per_group=2, graphs_per_client=8, seed=0)
        walked, binned = [], []
        monkeypatch.setattr(hetero, "awe_distribution", counting(walked, hetero.awe_distribution))
        monkeypatch.setattr(hetero, "feature_sim_histogram",
                            counting(binned, hetero.feature_sim_histogram))
        store = client_embeddings(clients, awe_length=3)
        for halves in (([0, 1], [2, 3]), ([0, 2], [1, 3])):  # two clusterings, one store
            clusters = [ClusterState(k, members, np.zeros(2)) for k, members in enumerate(halves)]
            cluster_heterogeneity_report(store, clusters, pair_budget=pair_budget)
        assert len(walked) == len(set(walked)) and sorted(binned) == sorted(walked)
        if pair_budget > 1000:  # every pair of every pool, so every graph
            assert len(walked) == sum(len(c.train_graphs) + len(c.test_graphs) for c in clients)

    def test_identical_graph_clients_have_zero_heterogeneity(self):
        g = make_graph(4, [(0, 1), (1, 2), (2, 3)], feat_dim=2)
        from gcflsim.fed import ClientState
        clients = [ClientState(i, union([g, g]), g) for i in range(2)]
        cluster = ClusterState(0, [0, 1], np.zeros(2))
        rows = cluster_heterogeneity_report(client_embeddings(clients, awe_length=3), [cluster])
        assert rows[1][2].structure_mean == 0.0
        assert rows[1][2].feature_mean == 0.0


class TestExperimentConfig:
    def test_from_file_and_overrides(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(
            "# comment\n"
            "setting = synthetic\n"
            "num_clients = 4\n"
            "rounds = 3\n"
            "seeds = 0, 1\n"
            "algorithms = selftrain, fedavg\n"
            "standardize = true\n"
            "eps1 = 0.5\n"
        )
        cfg = ExperimentConfig.from_file(cfg_file)
        assert cfg.setting == "synthetic" and cfg.rounds == 3
        assert cfg.seeds == [0, 1] and cfg.standardize is True
        assert cfg.eps1 == 0.5 and cfg.eps2 is None
        over = cfg.with_overrides(["rounds=5", "eps2=0.25"])
        assert over.rounds == 5 and over.eps2 == 0.25

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("nonsense = 1\n")
        with pytest.raises(ConfigurationError):
            ExperimentConfig.from_file(cfg_file)

    def test_bad_boolean_rejected(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("overlap = maybe\n")
        with pytest.raises(ConfigurationError):
            ExperimentConfig.from_file(cfg_file)

    def test_readme_example_parses_and_names_every_field(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("```ini\n# experiment.cfg\n", 1)[1].split("```", 1)[0]
        cfg_file = tmp_path / "experiment.cfg"
        cfg_file.write_text(block)
        ExperimentConfig.from_file(cfg_file)
        named = [line.split("#", 1)[0].split("=", 1)[0].strip() for line in block.splitlines()]
        assert sorted(filter(None, named)) == sorted(f.name for f in fields(ExperimentConfig))

    def test_missing_eps_for_gcfl_rejected(self, tmp_path):
        cfg = ExperimentConfig(setting="synthetic", algorithms=["gcfl"], rounds=1,
                               out_dir=str(tmp_path))
        with pytest.raises(ConfigurationError):
            run_experiment(cfg)


class TestRunExperiment:
    def _config(self, tmp_path, **kwargs):
        defaults = dict(setting="synthetic", num_clients=4, rounds=2,
                        algorithms=["fedavg"], hidden=8, num_layers=2,
                        hetero_report=False, seeds=[0], out_dir=str(tmp_path / "out"))
        defaults.update(kwargs)
        return ExperimentConfig(**defaults)

    def test_emits_all_csv_files(self, tmp_path):
        run_experiment(self._config(tmp_path))
        out = tmp_path / "out"
        for name in ("rounds.csv", "clusters.csv", "splits.csv", "summary.csv",
                     "hetero.csv", "windows.csv"):
            assert (out / name).exists()
        rounds = (out / "rounds.csv").read_text().strip().splitlines()
        # header + 2 algorithms x 2 rounds x 4 clients
        assert len(rounds) == 1 + 2 * 2 * 4
        summary = (out / "summary.csv").read_text().strip().splitlines()
        assert summary[1].startswith("selftrain,")

    def test_byte_identical_reruns(self, tmp_path):
        cfg_a = self._config(tmp_path, out_dir=str(tmp_path / "a"))
        cfg_b = self._config(tmp_path, out_dir=str(tmp_path / "b"))
        run_experiment(cfg_a)
        run_experiment(cfg_b)
        for name in ("rounds.csv", "clusters.csv", "splits.csv", "summary.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_gcfl_run_writes_split_and_hetero_rows(self, tmp_path):
        cfg = self._config(tmp_path, algorithms=["gcfl"], rounds=4, hetero_report=True,
                           eps1=10.0, eps2=1e-6, min_split_size=2, warmup_rounds=1,
                           weight_decay=0.0, pair_budget=50)
        run_experiment(cfg)
        out = tmp_path / "out"
        splits = (out / "splits.csv").read_text().strip().splitlines()
        assert len(splits) >= 2
        hetero = (out / "hetero.csv").read_text().strip().splitlines()
        assert hetero[1].split(",")[2] == "all"

    def test_clustered_reports_of_a_seed_embed_each_graph_once(self, tmp_path, monkeypatch):
        walked, binned = [], []
        monkeypatch.setattr(hetero, "awe_distribution", counting(walked, hetero.awe_distribution))
        monkeypatch.setattr(hetero, "feature_sim_histogram",
                            counting(binned, hetero.feature_sim_histogram))
        # 32 graphs: 496 pairs, all within the budget, so the "all" row embeds every graph
        run_experiment(self._config(tmp_path, algorithms=["gcfl", "gcflplus"], rounds=3,
                                    per_client_graphs=8, hetero_report=True, pair_budget=1000,
                                    eps1=10.0, eps2=1e-6, min_split_size=2, warmup_rounds=1,
                                    weight_decay=0.0))
        rows = (tmp_path / "out" / "hetero.csv").read_text().splitlines()
        assert {r.split(",")[0] for r in rows[1:]} == {"gcfl", "gcflplus"}
        assert sorted(set(walked)) == sorted(walked) == sorted(binned)
        assert len(walked) == 4 * 8

    @pytest.mark.parametrize("split_round", [1, 10])
    def test_windows_are_the_last_grad_norms_of_rounds_csv(self, tmp_path, split_round):
        # a window of 3 at round 1 holds rounds 0-1; at round 10, rounds 8-10
        run_experiment(self._config(tmp_path, algorithms=["gcflplus"], rounds=split_round + 1,
                                    window=3, eps1=10.0, eps2=1e-6, min_split_size=2,
                                    warmup_rounds=split_round, weight_decay=0.0))
        out = tmp_path / "out"
        with open(out / "rounds.csv", newline="") as fh:
            norms = {(int(r["round"]), int(r["client_id"])): float(r["grad_norm"])
                     for r in csv.DictReader(fh) if r["algorithm"] == "gcflplus"}
        with open(out / "windows.csv", newline="") as fh:
            windows = list(csv.DictReader(fh))
        assert {int(r["round"]) for r in windows} == {split_round}
        assert [int(r["client_id"]) for r in windows] == [0, 1, 2, 3]  # the split's members
        for row in windows:
            cid = int(row["client_id"])
            assert [float(x) for x in row["norms"].split(";")] == \
                [norms[t, cid] for t in range(max(0, split_round - 2), split_round + 1)]

    def test_shared_prefix_sweep_equals_single_algorithm_runs(self, tmp_path):
        # fedavg, gcfl and gcflplus of one seed share the rounds before the split
        split = dict(rounds=4, seeds=[0, 1], eps1=10.0, eps2=1e-6, min_split_size=2,
                     warmup_rounds=1, weight_decay=0.0, hetero_report=True, pair_budget=40,
                     awe_length=3)
        sweep = ["gcflplus", "fedavg", "gcfl"]
        run_experiment(self._config(tmp_path, algorithms=sweep, **split))
        names = ("rounds.csv", "clusters.csv", "splits.csv", "summary.csv", "windows.csv",
                 "hetero.csv")
        none = {("fedavg", "splits.csv"), ("fedavg", "windows.csv"), ("gcfl", "windows.csv"),
                ("fedavg", "hetero.csv")}
        for algorithm in sweep:
            alone = tmp_path / algorithm
            run_experiment(self._config(tmp_path, algorithms=[algorithm], out_dir=str(alone),
                                        **split))
            for name in names:
                rows = [(tmp_path / "out" / name).read_text(), (alone / name).read_text()]
                mine = [[r for r in t.splitlines() if r.startswith(f"{algorithm},")]
                        for t in rows]
                assert mine[0] == mine[1], (algorithm, name)
                assert bool(mine[0]) != ((algorithm, name) in none), (algorithm, name)
        splits = (tmp_path / "out" / "splits.csv").read_text()
        assert "\ngcfl,1," in splits and "\ngcflplus,1," in splits


class TestGroupBuilder:
    def test_unknown_group_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            build_multi_dataset_group("nope", tmp_path)

    def test_missing_dataset_named_in_error(self, tmp_path):
        with pytest.raises(ConfigurationError, match="MUTAG"):
            build_multi_dataset_group("molecules", tmp_path)

    def test_degree_features_equal_each_graph_encoded_alone(self):
        rng = np.random.default_rng(5)
        graphs = [random_graph(rng) for _ in range(30)] + [make_graph(3, [], feat_dim=3)]
        ds = Dataset("d", union(graphs))
        max_degree = max(int(g.degrees.max()) for g in graphs)
        assert harness._degree_width(ds, "onehot_degree") == max_degree
        got = with_degree_features(ds.graphs, max_degree)
        assert got.feat_dim == max_degree + 1 and got.adjacency is ds.graphs.adjacency
        for a, g in zip(got, graphs, strict=True):
            want = one_hot_degrees(g.degrees, max_degree)
            assert a.edges.tolist() == g.edges.tolist() and a.label == g.label
            assert a.features.dtype == want.dtype and a.features.flags.c_contiguous
            assert a.features.tobytes() == want.tobytes()
        edgeless = Dataset("e", union([make_graph(2, []), make_graph(1, [])]))
        assert harness._degree_width(edgeless, "onehot_degree") == 1
        assert with_degree_features(edgeless.graphs, 1).features.tolist() == [[1.0, 0.0]] * 3
        assert harness._degree_width(ds, "original") is None

    @pytest.mark.parametrize("overlap, label_skew", [(False, False), (False, True),
                                                     (True, False)])
    def test_client_degree_features_equal_the_sets_encoding(self, tmp_path, overlap,
                                                            label_skew):
        # each client union is encoded after the cut, at the set's width: the features of
        # cutting from the whole set's encoding, byte for byte
        write_tu_inputs(tmp_path, 1)
        config = ExperimentConfig(setting="oneDS", dataset="IMDB-BINARY",
                                  data_root=str(tmp_path), num_clients=5, per_client_graphs=50,
                                  overlap=overlap, label_skew=label_skew)
        got = build_clients(config, seed=3)
        ds = load_dataset_for_federation(tmp_path, "IMDB-BINARY")
        want = partition_one_dataset(ds, 5, 50, 0.1, overlap, 3, label_skew)
        assert ds.feat_dim > 2
        for a, b in zip(got, want, strict=True):
            assert_same_union(a.train_graphs, b.train_graphs)
            assert_same_union(a.test_graphs, b.test_graphs)

    def test_onehot_degree_matches_per_graph_encoding(self, tmp_path):
        for name in MOLECULE_DATASETS:
            write_tu_fixture(tmp_path, name)
        # BZR's path graph gains a degree-3 node, and BZR a fourth, edgeless graph
        for suffix, extra in (("A", "10, 8\n8, 10\n"), ("graph_indicator", "3\n4\n"),
                              ("graph_labels", "1\n"), ("node_labels", "1\n0\n")):
            path = tmp_path / "BZR" / f"BZR_{suffix}.txt"
            path.write_text(path.read_text() + extra)
        config = ExperimentConfig(setting="multiDS", group="molecules", data_root=str(tmp_path),
                                  feature_mode="onehot_degree")
        got = build_clients(config, seed=0)

        # the former encoding: each graph one-hot over its own degrees, then zero-padded
        # to the widest graph of its client, which keeps its dataset's width
        def per_graph(g, width):
            max_degree = max(1, int(g.degrees.max()) if g.num_edges else 1)
            features = np.zeros((g.num_nodes, width))
            features[:, :max_degree + 1] = one_hot_degrees(g.degrees, max_degree)
            return features

        want = build_multi_dataset_group("molecules", tmp_path, seed=0)
        assert [infer_dims([c])[0] for c in got] == [3, 4, 3, 3, 3, 3, 3]
        for a, b in zip(got, want, strict=True):
            width = infer_dims([a])[0]
            for ga, gb in zip(client_graphs(a), client_graphs(b), strict=True):
                assert ga.features.shape == (gb.num_nodes, width)
                assert ga.features.tobytes() == per_graph(gb, width).tobytes()


class TestAutoEpsilons:
    def test_probe_produces_usable_thresholds(self):
        clients, groups = synthetic_two_group_clients(
            clients_per_group=2, graphs_per_client=12, seed=0)
        cfg = RunConfig(seed=0, hidden=8, num_layers=2, weight_decay=0.0)
        eps1, eps2, _, _ = auto_epsilons(clients, cfg, probe_rounds=5)
        assert eps1 > 0 and eps2 > 0
        criteria = ClusterConfig(eps1, eps2, min_split_size=2, warmup_rounds=6)
        result = run_federation(clients, ["gcfl"], 10, replace(cfg, criteria=criteria))[0]
        assert result.split_events

    def test_thresholds_ignore_test_graphs(self):
        clients, _ = synthetic_two_group_clients(clients_per_group=2, graphs_per_client=8, seed=0)
        cfg = RunConfig(seed=0, hidden=8, num_layers=2, weight_decay=0.0)
        # every client tested on another client's test graphs with flipped labels
        swapped = [replace(c, test_graphs=replace(
            other.test_graphs, labels=1 - other.test_graphs.labels))
            for c, other in zip(clients, clients[1:] + clients[:1])]
        assert auto_epsilons(swapped, cfg, 3) == auto_epsilons(clients, cfg, 3)

    def test_zero_update_norms_floor_the_thresholds(self):
        # with lr 0 no client moves, and the thresholds stay positive rather than zero
        clients, _ = synthetic_two_group_clients(clients_per_group=2, graphs_per_client=6, seed=0)
        cfg = RunConfig(seed=0, hidden=8, num_layers=2, lr=0.0, weight_decay=0.0)
        assert auto_epsilons(clients, cfg, probe_rounds=2) == (1.5e-12, 0.6e-12, 0.0, 0.0)
