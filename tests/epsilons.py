"""Offline (eps1, eps2) calibration from a short FedAvg probe, for the tests
that need split thresholds on data whose update norms are not known ahead."""

from gcflsim.fed import ClientState, RunConfig, Variant, run_federation


def probe_delta_stats(
    clients: list[ClientState], run_config: RunConfig, probe_rounds: int
) -> tuple[float, float]:
    """Norm statistics of a short FedAvg probe: final (delta_mean, delta_max)."""
    result = run_federation(clients, [Variant("fedavg")], probe_rounds, run_config)[0]
    cluster = result.final_clusters[0]
    return float(cluster.delta_mean), float(cluster.delta_max)


def auto_epsilons(
    clients: list[ClientState],
    run_config: RunConfig,
    probe_rounds: int = 20,
    mean_margin: float = 1.5,
    max_margin: float = 0.6,
) -> tuple[float, float]:
    """(eps1, eps2) from a short FedAvg probe.

    eps1 is set above the observed end-of-probe mean-update norm so the
    stop criterion can fire; eps2 below the observed per-client maximum so
    heterogeneous members keep the split criterion alive.
    """
    delta_mean, delta_max = probe_delta_stats(clients, run_config, probe_rounds)
    return mean_margin * max(delta_mean, 1e-12), max_margin * max(delta_max, 1e-12)
